"""Reading and writing .node/.ele pairs and OFF files."""

import numpy as np
import pytest

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
], ids=["no-points", "no-cells", "off-no-points", "off-no-cells",
        "negative", "past-end", "off-negative", "off-past-end"])
def test_write_rejects_what_no_reader_accepts(tmp_path, points, cells, message):
    # empty meshes and out-of-range cell indices are refused before any
    # file is written
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
