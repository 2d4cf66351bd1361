"""The load path: building a complex against a pure-Python face closure,
the faults of build and of its geometry queries, the mesh reader's rows,
and the numeric text that the point routes refuse."""

from unittest import mock

import numpy as np
import pytest
from scipy.spatial import Delaunay

from conftest import brute_closure
from signeddec import complexes
from signeddec.complexes import build_complex
from signeddec.errors import DegeneracyError, MeshFormatError, NonManifoldError
from signeddec.fixtures import FIXTURE_NAMES, generate_fixture
from signeddec.geometry import batched_circumcenters, circumcenter
from signeddec.meshfile import read_mesh


def _qhull(dim, count, seed=0):
    points = np.random.default_rng(seed).random((count, dim))
    return points, Delaunay(points).simplices


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "qhull_2d_300", "qhull_3d_50"])
def test_build_matches_brute_closure(name):
    # tops and the vertices of each top shuffled: every table the build
    # keeps, and every lookup through its codes, is the oracle's
    if name.startswith("qhull"):
        _, dim, count = name.split("_")
        points, tops = _qhull(int(dim[0]), int(count))
    else:
        fixture = generate_fixture(name)
        points, tops = fixture.points, fixture.simplices[fixture.n]
    rng = np.random.default_rng(17)
    cells = rng.permuted(tops[rng.permutation(len(tops))], axis=1)
    mesh = build_complex(points, cells)
    oracle = brute_closure(cells.tolist())
    assert [list(map(tuple, level.tolist())) for level in mesh.simplices] == oracle["simplices"]
    assert [table.tolist() for table in mesh.face_of_top] == oracle["face_of_top"]
    assert [level.tolist() for level in mesh.orientations] == oracle["orientations"]
    assert tuple(half.tolist() for half in mesh.facet_cofaces) == oracle["facet_cofaces"]
    for dim, index in enumerate(oracle["index"]):
        rows = rng.permuted(np.array(list(index)), axis=1)
        assert mesh.simplex_indices(dim, rows).tolist() == list(index.values())


TRIANGLES = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0], [0.5, -1.0]]


def test_non_manifold_facet_is_named():
    # the cell faults that come before it are cases of
    # test_complexes::test_rejects_cells_that_are_not_vertex_indices
    with pytest.raises(NonManifoldError, match=r"^codim-1 simplex \(0, 1\) has 3 cofaces$"):
        build_complex(TRIANGLES, [(0, 1, 2), (0, 1, 3), (0, 1, 5)])
    with pytest.raises(NonManifoldError, match=r"^codim-1 simplex \(1,\) has 3 cofaces$"):
        build_complex([[0.0], [1.0], [2.0], [3.0]], [(0, 1), (1, 2), (1, 3)])


def test_degenerate_dimension_raises_on_every_query(monkeypatch):
    # the first flagged simplex of a dimension is named by every accessor of
    # that dimension, on every call; other dimensions answer
    def flag_triangles(pts):
        centers, radii, degenerate, barycentric, volumes = batched_circumcenters(pts)
        if pts.shape[1] == 3 and len(pts) > 1:
            degenerate = degenerate | (np.arange(len(pts)) >= 1)
        return centers, radii, degenerate, barycentric, volumes

    monkeypatch.setattr(complexes, "batched_circumcenters", flag_triangles)
    mesh = build_complex(TRIANGLES, [(0, 1, 2), (3, 2, 1), (1, 3, 5)])
    assert mesh.geometry(2)[3].tolist() == [False, True, True]
    for _ in range(2):
        for query in (mesh.volumes, mesh.circumcenters, mesh.circumradii):
            with pytest.raises(DegeneracyError, match=r"^2-simplex \(1, 2, 3\) is degenerate$"):
                query(2)
    assert len(mesh.volumes(1)) == mesh.num_simplices(1)
    assert len(mesh.circumcenters(0)) == mesh.num_simplices(0)


NUMERIC_TEXT = [["0", "0"], ["1", "0"], ["0", "1"]]


@pytest.mark.parametrize("points, dtype", [
    (NUMERIC_TEXT, "<U1"),
    (np.array(NUMERIC_TEXT, dtype=bytes), r"\|S1"),
    ([[0, 0], [1, "0"], [0, 1]], "<U21"),
    (np.array([[0, 0], ["1", 0], [0, 1]], dtype=object), "object"),
])
def test_numeric_text_is_not_points(points, dtype):
    # numpy would read "1" as 1.0; build_complex and write_mesh refuse such
    # points too (cases of their rejection tests)
    with pytest.raises(ValueError, match=f"^points must be real numbers, got {dtype} values$"):
        circumcenter(points)


NODE_ROWS = ["# nodes", "3 2 0 0  ", "", "1 0 0 # first", "2 1 0\t", "   ", "3 0 1", "#"]
ELE_ROWS = ["1 3 0", "# cells", "1 1 2 3  "]
# every line break str.splitlines knows, CRLF and a lone CR among them
BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _read(path):
    """read_mesh's (points, cells) as lists, or its message; the per-token
    path alone (np.loadtxt refusing every block) gives the same arrays,
    bitwise and in dtype, or the same message."""
    outcomes = []
    for loadtxt in (np.loadtxt, mock.Mock(side_effect=ValueError)):
        with mock.patch.object(np, "loadtxt", loadtxt):
            try:
                mesh = read_mesh(path)
            except MeshFormatError as exc:
                outcomes.append(str(exc))
            else:
                arrays = mesh.points, mesh.cells
                outcomes.append([(a.dtype.str, a.shape, a.tobytes()) for a in arrays])
    assert outcomes[0] == outcomes[1]
    return outcomes[0] if isinstance(outcomes[0], str) else tuple(a.tolist() for a in arrays)


def _pair(folder, node_rows, ele_rows, node_break, ele_break):
    node, ele = folder / "m.node", folder / "m.ele"
    node.write_bytes((node_break.join(node_rows) + node_break).encode())
    ele.write_bytes(ele_break.join(ele_rows).encode())
    return node


@pytest.mark.parametrize("brk", BREAKS)
def test_rows_are_split_at_every_line_break(tmp_path, brk):
    # comment-only, blank and whitespace-only lines and trailing spaces
    # hold no row, and each break ends a line that is counted for messages
    node, ele = tmp_path / "m.node", tmp_path / "m.ele"
    other = BREAKS[-1 - BREAKS.index(brk)]
    assert _read(_pair(tmp_path, NODE_ROWS, ELE_ROWS, brk, other)) == (
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    for position, row, message in [
        (4, "2 1 x", "bad coordinate"),
        (4, "2 1", "expected 2 coordinates"),
        (4, "1 1 0", "duplicate node index 1"),
        (6, "4 0 1", "node index 4 out of range"),
        (1, "3 4 0 0", "node dimension must be 2 or 3, got 4"),
        (8, "4 1 1", "more node rows than declared (3)"),
    ]:
        rows = NODE_ROWS[:position] + [row] + NODE_ROWS[position + 1:]
        assert _read(_pair(tmp_path, rows, ELE_ROWS, brk, other)) == (
            f"{node}:{position + 1}: {message}")
    rows = ELE_ROWS[:2] + ["1 1 2 4"]
    assert _read(_pair(tmp_path, NODE_ROWS, rows, other, brk)) == (
        f"{ele}:3: vertex reference 4 out of range")


@pytest.mark.parametrize("brk", BREAKS)
def test_off_rows_are_split_at_every_line_break(tmp_path, brk):
    path = tmp_path / "m.off"
    rows = ["OFF", "# counts next", "3 1 0", "0 0 0", "", "1 0 0  ", "0 1 0", "3 0 1 2"]
    path.write_bytes(brk.join(rows).encode())
    assert _read(path) == ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]])
    for position, row, message in [
        (2, "3 x 0", "bad integer in OFF counts"),
        (6, "1 0", "expected 3 coordinates"),
        (7, "4 0 1 2", "only triangle faces supported, got 4 vertices"),
    ]:
        path.write_bytes(brk.join(rows[:position] + [row] + rows[position + 1:]).encode())
        assert _read(path) == f"{path}:{position + 1}: {message}"
