"""Reading and writing .node/.ele pairs and OFF files."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signeddec.errors import MeshFormatError
from signeddec.fixtures import generate_fixture
from signeddec.meshfile import load_complex, read_mesh, write_mesh

OCTAHEDRON_POINTS = np.array([
    [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
])
OCTAHEDRON_FACES = [
    (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
    (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
]


def test_roundtrip_triangles(tmp_path):
    mesh = generate_fixture("perturbed_delaunay_square", divisions=4)
    paths = write_mesh(tmp_path / "tri", mesh.points, mesh.simplices[2])
    assert [p.suffix for p in paths] == [".node", ".ele"]
    back = read_mesh(paths[0])
    assert back.format == "node_ele"
    assert np.array_equal(back.points, mesh.points)  # 17 digits, exact
    assert np.array_equal(back.cells, mesh.simplices[2])
    # reading via the .ele path finds the same pair
    again = read_mesh(paths[1])
    assert np.array_equal(again.points, back.points)


def test_roundtrip_tets(tmp_path):
    points = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
        [0.3, 0.3, 1.0], [0.3, 0.3, -1.0],
    ])
    cells = np.array([[0, 1, 2, 3], [0, 1, 2, 4]])
    paths = write_mesh(tmp_path / "tets.node", points, cells)
    back = read_mesh(paths[0])
    assert np.array_equal(back.points, points)
    assert np.array_equal(back.cells, cells)
    loaded = load_complex(paths[0])
    assert loaded.n == 3 and loaded.N == 3


def test_roundtrip_off(tmp_path):
    paths = write_mesh(tmp_path / "oct", OCTAHEDRON_POINTS, OCTAHEDRON_FACES)
    assert [p.suffix for p in paths] == [".off"]
    back = read_mesh(paths[0])
    assert back.format == "off"
    assert np.array_equal(back.points, OCTAHEDRON_POINTS)
    assert np.array_equal(back.cells, np.asarray(OCTAHEDRON_FACES))


def test_octahedron_is_closed(tmp_path):
    paths = write_mesh(tmp_path / "oct", OCTAHEDRON_POINTS, OCTAHEDRON_FACES)
    surface = load_complex(paths[0])
    counts = [surface.num_simplices(d) for d in range(3)]
    assert counts == [6, 12, 8]
    assert counts[0] - counts[1] + counts[2] == 2  # Euler characteristic
    assert surface.boundary_faces() == []


def test_minimal_node_ele_pair(tmp_path):
    (tmp_path / "one.node").write_text(
        "3 2 0 0\n1 0.0 0.0\n2 1.0 0.0\n3 0.0 1.0\n"
    )
    (tmp_path / "one.ele").write_text("1 3 0\n1 1 2 3\n")
    mesh = load_complex(tmp_path / "one.node")
    assert [mesh.num_simplices(d) for d in range(3)] == [3, 3, 1]


def test_index_base_detected(tmp_path):
    for base in (0, 1):
        stem = tmp_path / f"base{base}"
        rows = "\n".join(
            f"{i + base} {x} {y}"
            for i, (x, y) in enumerate([(0, 0), (2, 0), (0, 2), (2, 2)])
        )
        stem.with_suffix(".node").write_text(f"4 2 0 0\n{rows}\n")
        stem.with_suffix(".ele").write_text(
            f"2 3 0\n{1 + base} {0 + base} {1 + base} {2 + base}\n"
            f"{2 + base} {1 + base} {3 + base} {2 + base}\n"
        )
    a = read_mesh(tmp_path / "base0.node")
    b = read_mesh(tmp_path / "base1.node")
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.cells, b.cells)


def test_comments_and_attributes_skipped(tmp_path):
    (tmp_path / "c.node").write_text(
        "# made by hand\n"
        "3 2 1 1\n"
        "1 0.0 0.0 7.5 1  # corner\n"
        "\n"
        "2 1.0 0.0 2.5 0\n"
        "3 0.0 1.0 0.0 0\n"
    )
    (tmp_path / "c.ele").write_text("1 3 1\n1 1 2 3 99\n")
    mesh = read_mesh(tmp_path / "c.node")
    assert mesh.points.shape == (3, 2)
    assert mesh.cells.tolist() == [[0, 1, 2]]


def test_out_of_range_vertex(tmp_path):
    (tmp_path / "bad.node").write_text(
        "4 2 0 0\n1 0 0\n2 1 0\n3 0 1\n4 1 1\n"
    )
    (tmp_path / "bad.ele").write_text("1 3 0\n1 1 2 99\n")
    with pytest.raises(MeshFormatError, match="out of range"):
        read_mesh(tmp_path / "bad.node")


def test_malformed_rows_report_line(tmp_path):
    (tmp_path / "m.node").write_text("2 2 0 0\n1 0.0 zero\n2 1.0 0.0\n")
    (tmp_path / "m.ele").write_text("1 3 0\n1 1 2 2\n")
    with pytest.raises(MeshFormatError, match="m.node:2"):
        read_mesh(tmp_path / "m.node")


def test_wrong_cell_arity(tmp_path):
    (tmp_path / "w.node").write_text("3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n")
    (tmp_path / "w.ele").write_text("1 4 0\n1 1 2 3 3\n")
    with pytest.raises(MeshFormatError, match="3 vertices per cell"):
        read_mesh(tmp_path / "w.node")


def test_non_finite_coordinate(tmp_path):
    (tmp_path / "n.node").write_text("2 2 0 0\n1 0.0 nan\n2 1.0 0.0\n")
    (tmp_path / "n.ele").write_text("1 3 0\n1 1 2 2\n")
    with pytest.raises(MeshFormatError, match="non-finite"):
        read_mesh(tmp_path / "n.node")


def test_missing_and_truncated_files(tmp_path):
    with pytest.raises(MeshFormatError):
        read_mesh(tmp_path / "ghost.node")
    (tmp_path / "t.node").write_text("3 2 0 0\n1 0 0\n2 1 0\n")
    (tmp_path / "t.ele").write_text("1 3 0\n1 1 2 3\n")
    with pytest.raises(MeshFormatError, match="declared 3"):
        read_mesh(tmp_path / "t.node")


def test_non_utf8_file_is_format_error(tmp_path):
    node = tmp_path / "m.node"
    node.write_bytes(b"3 2 0 0\n1 0 0\n2 1 0\n3 0 \xff\n")
    with pytest.raises(MeshFormatError, match="m.node"):
        read_mesh(node)


@pytest.mark.parametrize("locale", [
    {"LC_ALL": "C.UTF-8"},
    {"LC_ALL": "C", "PYTHONUTF8": "0"},  # an ASCII locale encoding
], ids=["c-utf8", "c-ascii"])
def test_mesh_files_read_as_utf8_in_every_locale(tmp_path, locale):
    # a coordinate in Arabic-Indic digits (U+0663) reads as 3.0 whatever
    # encoding the locale names
    (tmp_path / "enc.node").write_bytes("3 2 0 0\n1 0 0\n2 1 0\n3 0 \u0663\n".encode("utf-8"))
    (tmp_path / "enc.ele").write_text("1 3 0\n1 1 2 3\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), **locale}
    script = "import signeddec; print(signeddec.read_mesh('enc.node').points.tolist())"
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]]"


def test_off_rejects_non_triangles(tmp_path):
    (tmp_path / "q.off").write_text(
        "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    )
    with pytest.raises(MeshFormatError, match="triangle"):
        read_mesh(tmp_path / "q.off")


def test_unknown_extension_is_rejected(tmp_path):
    # the suffix decides the format: a valid OFF body under .txt is refused
    target = tmp_path / "mesh.txt"
    target.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    for loader in (read_mesh, load_complex):
        with pytest.raises(MeshFormatError, match=r"infer.*\.node, \.ele or \.off"):
            loader(target)


def test_write_shape_validation(tmp_path):
    with pytest.raises(MeshFormatError):
        write_mesh(tmp_path / "x", np.zeros((3, 4)), [(0, 1, 2)])


TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("points, cells, message", [
    (np.zeros((0, 2)), np.zeros((1, 3), dtype=int), "at least one point"),
    (TRIANGLE, np.zeros((0, 3), dtype=int), "one cell"),
    (np.zeros((0, 3)), np.zeros((0, 3), dtype=int), "at least one point"),
    (OCTAHEDRON_POINTS, np.zeros((0, 3), dtype=int), "one cell"),
    (TRIANGLE, [(-1, 1, 2)], r"\[0, 3\)"),
    (TRIANGLE, [(0, 1, 3)], r"\[0, 3\)"),
    (OCTAHEDRON_POINTS, [(0, 2, -1)], r"\[0, 6\)"),
    (OCTAHEDRON_POINTS, [(0, 2, 6)], r"\[0, 6\)"),
    (TRIANGLE, [[0.7, 1.2, 2.9]], "integers, got float64"),
    (TRIANGLE, [[0.0, 1.0, np.nan]], "integers, got float64"),
    (TRIANGLE, [["0", "1", "2"]], "integers, got <U1"),
    (TRIANGLE, [[True, False, True]], "integers, got bool"),
    (TRIANGLE, [[0, 1, 2j]], "integers, got complex128"),
    (TRIANGLE, [[0.0, 1.0, np.inf]], r"\[0, 3\)"),
    (TRIANGLE, [[True, 1, 2]], "integers, got bool"),
    (TRIANGLE, [[0, 1, 2], [0, 1]], "2-d arrays"),
    ([[0, 0], [1, 0], [0]], [[0, 1, 2]], "2-d arrays"),
    (np.zeros(3), [[0, 1, 2]], "^points and cells must be 2-d arrays$"),
    (TRIANGLE, np.arange(3), "^points and cells must be 2-d arrays$"),
    ([[0, 0], ["a", "b"], [0, 1]], [[0, 1, 2]], "real numbers, got <U21"),
    ([["0", "0"], ["1", "0"], ["0", "1"]], [[0, 1, 2]], "real numbers, got <U1"),
    (np.array([["0", "0"], ["1", "0"], ["0", "1"]], dtype=bytes), [[0, 1, 2]],
     r"real numbers, got \|S1"),
    ([[0, 0], [1, "0"], [0, 1]], [[0, 1, 2]], "real numbers, got <U21"),
    (np.array([[0, 0], ["1", 0], [0, 1]], dtype=object), [[0, 1, 2]], "real numbers, got object"),
    (np.array([[0, 0], [b"1", 0], [0, 1]], dtype=object), [[0, 1, 2]],
     "real numbers, got object"),
], ids=["no-points", "no-cells", "off-no-points", "off-no-cells",
        "negative", "past-end", "off-negative", "off-past-end",
        "fractional", "nan", "strings", "bools", "complex", "inf",
        "bool-among-ints", "ragged-cells", "ragged-points", "flat-points", "flat-cells",
        "text-points", "numeric-text-points", "bytes-points", "mixed-text-points",
        "object-text-points", "object-bytes-points"])
def test_write_rejects_what_no_reader_accepts(tmp_path, points, cells, message):
    # empty meshes and out-of-range cell indices are refused before any
    # file is written; so are cell indices that are not integers, which
    # would otherwise be truncated or parsed and read back as another mesh
    with pytest.raises(MeshFormatError, match=message):
        write_mesh(tmp_path / "bad", points, cells)
    assert list(tmp_path.iterdir()) == []


def test_dotted_base_names_keep_their_dots(tmp_path):
    # Triangle names its refinements mesh.1.node, mesh.2.node, ...; only a
    # trailing .node, .ele or .off is a suffix
    for name in ("mesh.1", "mesh.1.node", "mesh.1.ele"):
        paths = write_mesh(tmp_path / name, TRIANGLE, [(0, 1, 2)])
        assert [p.name for p in paths] == ["mesh.1.node", "mesh.1.ele"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mesh.1.ele", "mesh.1.node"]
    for path in paths:
        back = read_mesh(path)
        assert back.points.tolist() == TRIANGLE.tolist()
        assert back.cells.tolist() == [[0, 1, 2]]
    (surface,) = write_mesh(tmp_path / "oct.v2", OCTAHEDRON_POINTS, OCTAHEDRON_FACES)
    assert surface.name == "oct.v2.off"
    assert read_mesh(surface).cells.tolist() == [list(face) for face in OCTAHEDRON_FACES]


GOOD_NODE = "4 2 0 0\n1 0 0\n2 1 0\n3 0 1\n4 1 1\n"
GOOD_ELE = "2 3 0\n1 1 2 3\n2 2 4 3\n"


@pytest.mark.parametrize(
    "node, ele, where, message",
    [
        ("4 2 0 0\n1 0 0\n2 1 0\n2 0 1\n4 1 1\n", GOOD_ELE, "node:4",
         "duplicate node index 2"),
        (GOOD_NODE + "5 2 2\n", GOOD_ELE, "node:6", "more node rows than declared (4)"),
        (GOOD_NODE, GOOD_ELE + "3 1 2 4\n", "ele:4", "more element rows than declared (2)"),
        (GOOD_NODE, "2 3 0\n1 1 2 3\n2 2 four 3\n", "ele:3", "bad integer in element row"),
        (GOOD_NODE, "2 3 0\n1 1 2 3\n2 2 4\n", "ele:3", "expected 4 fields for element row"),
        ("4 2 0 0\n2 0 0\n3 1 0\n4 0 1\n5 1 1\n", GOOD_ELE, "node:2",
         "first node index must be 0 or 1, got 2"),
        ("4 2 0 0\n1 0 0\n2 1\n3 0 1\n4 1 1\n", GOOD_ELE, "node:3", "expected 2 coordinates"),
        ("4 2 0 0\n1 0 0\n2 1 0\n7 0 1\n4 1 1\n", GOOD_ELE, "node:4", "node index 7 out of range"),
        # the earliest faulty row wins, whatever its fault: a missing
        # coordinate on line 3 beats a bad index on line 4 ...
        ("4 2 0 0\n1 0 0\n2 1\nx 0 1\n4 1 1\n", GOOD_ELE, "node:3", "expected 2 coordinates"),
        # ... and a bad index on line 3 beats a duplicate and a bad number
        ("4 2 0 0\n1 0 0\n2.5 1 0\n1 0 1\n4 1 y\n", GOOD_ELE, "node:3",
         "bad integer in node index"),
        (GOOD_NODE, "2 3 0\n1 1 2 9\n2 2 x 3\n", "ele:2", "vertex reference 9 out of range"),
        (GOOD_NODE, "2 3 0\n1 1 2\n2 2 4 9\n", "ele:2", "expected 4 fields for element row"),
        # a header with no rows under it: the block is empty
        (GOOD_NODE, "2 3 0\n# none\n", "ele", "declared 2 elements, found 0"),
        # no header at all, or a header that declares no rows
        ("# nothing but a comment\n", GOOD_ELE, "node", "empty node file"),
        ("0 2 0 0\n", GOOD_ELE, "node:1", "node count must be positive"),
        (GOOD_NODE, "0 3 0\n", "ele:1", "element count must be positive"),
    ],
)
def test_malformed_rows_exact_message(tmp_path, node, ele, where, message):
    (tmp_path / "m.node").write_text(node)
    (tmp_path / "m.ele").write_text(ele)
    with pytest.raises(MeshFormatError) as info:
        read_mesh(tmp_path / "m.node")
    assert str(info.value) == f"{tmp_path / 'm'}.{where}: {message}"


def test_ragged_attributes_and_inline_comments_accepted(tmp_path):
    # attribute and boundary-marker columns may differ from row to row
    (tmp_path / "r.node").write_text(
        "4 2 2 1  # two attributes, one marker\n"
        "1 0 0 0.5 1.5 1\n"
        "2 1 0   # no attributes on this row\n"
        "3 0 1 7 # one\n"
        "  4 1 1 1 2 3 4 5\n"
    )
    (tmp_path / "r.ele").write_text(
        "2 3 1 # one region attribute\n1 1 2 3 10  # region 10\n\n2 2 4 3\n"
    )
    mesh = read_mesh(tmp_path / "r.node")
    assert mesh.points.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    assert mesh.cells.tolist() == [[0, 1, 2], [1, 3, 2]]
    assert mesh.points.dtype == np.float64 and mesh.cells.dtype == np.intp


def test_counts_past_int64_are_format_errors(tmp_path):
    # a declared count is never allocated up front, so any size just
    # disagrees with the rows that are there
    huge = 10**25
    (tmp_path / "h.node").write_text(f"{huge} 2 0 0\n1 0 0\n2 1 0\n3 0 1\n")
    (tmp_path / "h.ele").write_text("1 3 0\n1 1 2 3\n")
    with pytest.raises(MeshFormatError) as info:
        read_mesh(tmp_path / "h.node")
    assert str(info.value) == f"{tmp_path / 'h.node'}: declared {huge} nodes, found 3"
    (tmp_path / "h.off").write_text(f"OFF\n3 {huge} 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 {huge}\n")
    with pytest.raises(MeshFormatError) as info:
        read_mesh(tmp_path / "h.off")
    assert str(info.value) == f"{tmp_path / 'h.off'}:6: vertex reference {huge} out of range"


def test_write_accepts_integral_float_cells(tmp_path):
    paths = write_mesh(tmp_path / "f", TRIANGLE, np.array([[0.0, 1.0, 2.0]]))
    assert read_mesh(paths[0]).cells.tolist() == [[0, 1, 2]]
    assert paths[1].read_text() == "1 3 0\n1 1 2 3\n"


def test_upper_case_suffixes_pair_with_upper_case(tmp_path):
    # the given file is read under its own name, and its partner is looked
    # for with the suffix in the same case
    (tmp_path / "V.NODE").write_text("3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n")
    (tmp_path / "V.ELE").write_text("1 3 0\n1 1 2 3\n")
    for name in ("V.NODE", "V.ELE"):
        mesh = read_mesh(tmp_path / name)
        assert mesh.points.tolist() == TRIANGLE.tolist()
        assert mesh.cells.tolist() == [[0, 1, 2]]
    (tmp_path / "S.OFF").write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert read_mesh(tmp_path / "S.OFF").cells.tolist() == [[0, 1, 2]]
    (tmp_path / "W.NODE").write_text("3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n")
    (tmp_path / "W.ele").write_text("1 3 0\n1 1 2 3\n")
    with pytest.raises(MeshFormatError, match="W.ELE"):
        read_mesh(tmp_path / "W.NODE")


SQUARE_OFF = "OFF\n4 {count} 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"


@pytest.mark.parametrize("faces, message", [
    ("3 0 1 2 0.5 0.5 0.5\n3 0 2 3 1 0 0 0.75\n", None),
    ("4 0 1 2 3 0.5 0.5 0.5\n", "only triangle faces supported, got 4 vertices"),
    ("3 0 1 x 0.5 0.5 0.5\n", "bad integer in face row"),
    ("3 0 1 2.0 0.5 0.5 0.5\n", "bad integer in face row"),
    ("3 0 1\n", "truncated face row"),
], ids=["colours", "quad-with-colour", "bad-index", "float-index", "truncated"])
def test_off_face_colours(tmp_path, faces, message):
    # a face row may carry a colour after its three indices; only the count
    # and the indices are read
    target = tmp_path / "c.off"
    target.write_text(SQUARE_OFF.format(count=faces.count("\n")) + faces)
    if message is None:
        assert read_mesh(target).cells.tolist() == [[0, 1, 2], [0, 2, 3]]
        return
    with pytest.raises(MeshFormatError) as info:
        read_mesh(target)
    assert str(info.value) == f"{target}:7: {message}"


def test_valid_files_are_converted_by_loadtxt(tmp_path):
    # one call per block: node rows (ids and coordinates together) and
    # element rows; OFF vertices and OFF faces
    paths = write_mesh(tmp_path / "t", TRIANGLE, [(0, 1, 2)]) + write_mesh(
        tmp_path / "o", OCTAHEDRON_POINTS, OCTAHEDRON_FACES)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
        read_mesh(paths[0])
        assert spy.call_count == 2
        read_mesh(paths[2])
        assert spy.call_count == 4


NUMBER_TOKENS = ["0", "-0", "+2", "1e3", ".5", "5.", "1E-2", "007", "-1.25e+2"]
BAD_TOKENS = ["x", "1.5", "1_0", "\u0663", "nan", "-inf", "1e999", "0x1", "--1",
              str(2**70), str(-2**63), str(2**63), "-1", "1j", "1d5"]


@st.composite
def mesh_text(draw):
    """Rows of tokens for a valid .node/.ele pair or OFF file, then at most
    one mutation; returns {suffix: text}."""
    off = draw(st.booleans())
    dim = 3 if off else draw(st.sampled_from([2, 3]))
    per_cell = 3 if off else dim + 1
    num_points = draw(st.integers(per_cell, 6))
    num_cells = draw(st.integers(1, 3))
    base = 0 if off else draw(st.sampled_from([0, 1]))
    coordinate = st.one_of(
        st.floats(-1e3, 1e3, allow_nan=False).map(repr), st.sampled_from(NUMBER_TOKENS))
    extras = st.lists(st.one_of(coordinate, st.integers(-9, 99).map(str)), max_size=2)
    coords = [draw(st.lists(coordinate, min_size=dim, max_size=dim)) for _ in range(num_points)]
    cells = [[str(v + base) for v in draw(st.permutations(range(num_points)))[:per_cell]]
             for _ in range(num_cells)]
    if off:
        blocks = {".off": [["OFF"], [str(num_points), str(num_cells), "0"]] + coords
                  + [["3", *cell, *draw(extras)] for cell in cells]}
    else:
        # the first row fixes the base; the others may come in any order
        order = [0, *draw(st.permutations(range(1, num_points)))]
        blocks = {
            ".node": [[str(num_points), str(dim), "0", "0"]]
            + [[str(i + base), *coords[i], *draw(extras)] for i in order],
            ".ele": [[str(num_cells), str(per_cell), "0"]]
            + [[str(i + base), *cell, *draw(extras)] for i, cell in enumerate(cells)],
        }
    rows = blocks[draw(st.sampled_from(sorted(blocks)))]
    row = draw(st.integers(0, len(rows) - 1))
    column = draw(st.integers(0, len(rows[row]) - 1))
    mutation = draw(st.sampled_from(["none", "drop", "extra", "bad", "duplicate",
                                     "outside", "extra row", "drop row"]))
    if mutation == "drop":
        del rows[row][column]
    elif mutation == "extra":
        rows[row].insert(column, draw(st.sampled_from(NUMBER_TOKENS + BAD_TOKENS)))
    elif mutation == "bad":
        rows[row][column] = draw(st.sampled_from(BAD_TOKENS))
    elif mutation == "duplicate":
        rows[row][0] = rows[draw(st.integers(1, len(rows) - 1))][0]
    elif mutation == "outside":
        rows[row][column] = str(draw(st.sampled_from([-1, base - 1, num_points + base])))
    elif mutation == "extra row":
        rows.append(list(rows[row]))
    elif mutation == "drop row":
        del rows[row]
    texts = {}
    for suffix, rows in blocks.items():
        lines = [draw(st.sampled_from(["", "  ", "\t"]))
                 + draw(st.sampled_from([" ", "\t", "  "])).join(r)
                 + draw(st.sampled_from(["", "  # comment", "#"])) for r in rows]
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(["", "# note", "   "])))
        texts[suffix] = "\n".join(lines) + "\n"
    return texts


def _outcome(path):
    try:
        mesh = read_mesh(path)
    except MeshFormatError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (mesh.points, mesh.cells)]


@settings(max_examples=200, deadline=None)
@given(mesh_text())
def test_loadtxt_and_token_paths_agree(texts):
    # the per-token path alone (np.loadtxt refusing every block) gives the
    # same arrays, bitwise and in dtype, or the same message
    with tempfile.TemporaryDirectory() as folder:
        for suffix, text in texts.items():
            (Path(folder) / f"m{suffix}").write_text(text)
        path = Path(folder) / f"m{min(texts)}"
        fast = _outcome(path)
        with mock.patch.object(np, "loadtxt", side_effect=ValueError):
            assert _outcome(path) == fast


@pytest.mark.parametrize("text, message", [
    ("OFF\n", "missing OFF counts"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n", "truncated vertex list"),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "truncated face list"),
], ids=["no-counts", "short-vertices", "short-faces"])
def test_off_files_cut_short_exact_message(tmp_path, text, message):
    (tmp_path / "m.off").write_text(text)
    with pytest.raises(MeshFormatError) as info:
        read_mesh(tmp_path / "m.off")
    assert str(info.value) == f"{tmp_path / 'm.off'}: {message}"
