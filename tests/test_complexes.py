"""Complex construction, face closure, incidence and boundary operators."""

import math
import warnings

import numpy as np
import pytest
from scipy.spatial import Delaunay

from conftest import brute_face_count, brute_incidence
from signeddec import complexes, signed_dual
from signeddec.complexes import boundary_operator, build_complex
from signeddec.config import DEFAULT_EPS, tolerance
from signeddec.delaunay import classify_complex
from signeddec.errors import ComplexError, DegeneracyError, NonManifoldError, ToleranceError
from signeddec.fixtures import FIXTURE_NAMES, generate_fixture
from signeddec.geometry import batched_circumcenters
from signeddec.signed_dual import dual_table, dual_volumes


def _two_tets():
    points = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.3, 0.3, 1.0],
        [0.3, 0.3, -1.0],
    ])
    return build_complex(points, [(0, 1, 2, 3), (0, 1, 2, 4)])


def _square():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return build_complex(points, [(0, 1, 2), (0, 2, 3)])


def test_two_tets_counts():
    complex_ = _two_tets()
    tops = [(0, 1, 2, 3), (0, 1, 2, 4)]
    for dim in range(4):
        assert complex_.num_simplices(dim) == brute_face_count(tops, dim)
    assert [complex_.num_simplices(d) for d in range(4)] == [5, 9, 7, 2]


def test_faces_closed_and_sorted():
    complex_ = _two_tets()
    for dim in range(1, complex_.n + 1):
        for i in range(complex_.num_simplices(dim)):
            cell = complex_.simplex_vertices(dim, i)
            assert cell == tuple(sorted(cell))
            for k in range(dim + 1):
                face = cell[:k] + cell[k + 1:]
                complex_.simplex_index(dim - 1, face)  # must exist


def test_simplex_index_roundtrip_and_miss():
    complex_ = _square()
    idx = complex_.simplex_index(1, (2, 0))
    assert complex_.simplex_vertices(1, idx) == (0, 2)
    with pytest.raises(ComplexError):
        complex_.simplex_index(1, (1, 3))


def test_simplex_indices_match_simplex_index():
    mesh = generate_fixture("delaunay_tet_cube", divisions=2)
    rng = np.random.default_rng(5)
    for dim in range(mesh.n + 1):
        wanted = rng.permutation(mesh.num_simplices(dim))[:12].reshape(3, 4)
        rows = rng.permuted(mesh.simplices[dim][wanted], axis=-1)
        found = mesh.simplex_indices(dim, rows)
        assert found.shape == (3, 4)
        assert found.tolist() == [
            [mesh.simplex_index(dim, row) for row in block] for block in rows.tolist()
        ]
        np.testing.assert_array_equal(found, wanted)
    complex_ = _square()
    with pytest.raises(ComplexError):
        complex_.simplex_indices(1, [(0, 2), (1, 3)])
    with pytest.raises(ComplexError):
        complex_.simplex_indices(1, [(0, 7)])


def test_lookup_past_int64_codes():
    # With P = 60000 points, P**4 > 2**63: mixed-radix codes of tet rows
    # over the vertex indices would overflow int64.
    tet = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 1.0]])
    points = np.zeros((60000, 3))
    points[-4:] = tet
    offset = len(points) - 4
    far = build_complex(points, [(offset + 3, offset + 1, offset, offset + 2)])
    near = build_complex(tet, [(3, 1, 0, 2)])
    for dim in range(4):
        rows = near.simplices[dim]
        np.testing.assert_array_equal(far.simplices[dim], rows + offset)
        np.testing.assert_array_equal(
            far.simplex_indices(dim, rows[:, ::-1] + offset), near.simplex_indices(dim, rows)
        )
        for i, row in enumerate(rows.tolist()):
            assert far.simplex_index(dim, [v + offset for v in row]) == i
            assert near.simplex_index(dim, row) == i
        if dim:
            assert (boundary_operator(far, dim) != boundary_operator(near, dim)).nnz == 0
        for far_vols, near_vols in zip(dual_volumes(far, dim), dual_volumes(near, dim)):
            np.testing.assert_array_equal(far_vols, near_vols)
    with pytest.raises(ComplexError):
        far.simplex_index(3, (0, offset, offset + 1, offset + 2))
    with pytest.raises(ComplexError):
        far.simplex_indices(1, [(offset, offset + 1), (0, offset + 3)])


def _shuffled_tops(mesh, seed):
    """The mesh's tops in shuffled order, each with shuffled vertices."""
    rng = np.random.default_rng(seed)
    tops = mesh.simplices[mesh.n][rng.permutation(mesh.num_simplices(mesh.n))]
    return rng.permuted(tops, axis=1)


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "qhull_tets"])
def test_incidence_matches_brute_force(name):
    if name == "qhull_tets":
        points = np.random.default_rng(11).random((60, 3))
        cells = _shuffled_tops(build_complex(points, Delaunay(points).simplices), 12)
    else:
        fixture = generate_fixture(name)
        points, cells = fixture.points, _shuffled_tops(fixture, 13)
    mesh = build_complex(points, cells)
    simplices, top_orientations, cofaces, internal, boundary = brute_incidence(cells.tolist())
    assert [list(map(tuple, level.tolist())) for level in mesh.simplices] == simplices
    assert mesh.orientations[mesh.n].tolist() == top_orientations
    assert all((level == 1).all() for level in mesh.orientations[:-1])
    assert mesh.cofaces == cofaces
    assert mesh.internal_faces() == internal
    assert mesh.boundary_faces() == boundary


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_geometry_cache_does_not_read_the_tolerance(name, monkeypatch):
    # build and geometry take no tolerance, so a mesh built under any
    # SIGNED_DEC_EPS, even one that is not a float, caches the same bits;
    # classification still reads the variable
    fixture = generate_fixture(name)
    builds = []
    for raw in ("abc", "1e-3", None):
        if raw is None:
            monkeypatch.delenv("SIGNED_DEC_EPS", raising=False)
        else:
            monkeypatch.setenv("SIGNED_DEC_EPS", raw)
        mesh = build_complex(fixture.points, fixture.simplices[fixture.n])
        builds.append([array for d in range(mesh.n + 1) for array in mesh.geometry(d)])
        if raw == "abc":
            with pytest.raises(ToleranceError):
                classify_complex(mesh)
    for build in builds[1:]:
        assert [(a.dtype, a.shape, a.tobytes()) for a in build] == [
            (a.dtype, a.shape, a.tobytes()) for a in builds[0]
        ]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_coface_index_inverts_the_face_table(name):
    # the coface index is the face table read backwards; cofaces are its
    # rows with signs, which boundary_operator computes independently
    mesh = generate_fixture(name)
    for dim in range(1, mesh.n + 1):
        faces = mesh.face_table(dim)
        offsets, cofaces, columns = mesh.coface_index(dim)
        size = mesh.num_simplices(dim) * (dim + 1)
        assert offsets[0] == 0 and offsets[-1] == size == len(cofaces) == len(columns)
        assert len(offsets) == mesh.num_simplices(dim - 1) + 1
        holder = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        assert (faces[cofaces, columns] == holder).all()
        assert (np.diff(cofaces)[np.diff(holder) == 0] > 0).all()
        # each index, the one build keeps for the top dimension too, is a fresh
        # inversion of the face table, bit for bit
        fresh = complexes._invert(faces)
        assert [(a.dtype, a.tobytes(), a.flags.writeable) for a in (offsets, cofaces, columns)] == [
            (a.dtype, a.tobytes(), a.flags.writeable) for a in fresh
        ]
        op = boundary_operator(mesh, dim)
        op.sort_indices()
        rows = [
            list(zip(op.indices[a:b].tolist(), map(int, op.data[a:b].tolist())))
            for a, b in zip(op.indptr[:-1], op.indptr[1:])
        ]
        assert mesh.cofaces[dim - 1] == rows
        assert all(type(sign) is int for row in mesh.cofaces[dim - 1] for _, sign in row)
    for dim in (0, -1, mesh.n + 1):
        with pytest.raises(ValueError, match=f"1 <= dim <= {mesh.n}"):
            mesh.coface_index(dim)


def test_boundary_and_internal_faces():
    complex_ = _square()
    boundary = {complex_.simplex_vertices(1, f) for f, _ in complex_.boundary_faces()}
    assert boundary == {(0, 1), (1, 2), (2, 3), (0, 3)}
    internal = complex_.internal_faces()
    assert len(internal) == 1
    facet, tops = internal[0]
    assert complex_.simplex_vertices(1, facet) == (0, 2)
    assert set(tops) == {0, 1}


def test_two_tets_boundary_triangles():
    complex_ = _two_tets()
    boundary = complex_.boundary_faces()
    assert len(boundary) == 6
    shared = complex_.simplex_index(2, (0, 1, 2))
    assert shared not in {f for f, _ in boundary}


def test_boundary_operator_edge():
    points = np.array([[0.0, 0.0], [1.0, 0.0]])
    complex_ = build_complex(points, [(0, 1)])
    d = boundary_operator(complex_, 1).toarray()
    assert d.shape == (2, 1)
    assert d[0, 0] == -1 and d[1, 0] == 1


def test_boundary_operator_shared_edge_signs():
    # consistently oriented triangles put opposite signs in the shared
    # edge's row
    complex_ = _square()
    d2 = boundary_operator(complex_, 2).toarray()
    row = d2[complex_.simplex_index(1, (0, 2))]
    assert sorted(row.tolist()) == [-1, 1]


def test_boundary_of_boundary_is_zero():
    for complex_ in (_square(), _two_tets()):
        for dim in range(2, complex_.n + 1):
            product = boundary_operator(complex_, dim - 1) @ boundary_operator(
                complex_, dim
            )
            assert product.nnz == 0 or np.all(product.toarray() == 0)


def test_total_volume():
    assert np.isclose(_square().total_volume, 1.0)
    assert np.isclose(_two_tets().total_volume, 1.0 / 3.0)


def test_rejects_nonmanifold():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [1.5, 1.0]])
    with pytest.raises(NonManifoldError):
        build_complex(points, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_rejects_degenerate_top():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegeneracyError):
        build_complex(points, [(0, 1, 2)])


def test_degeneracy_gate_messages():
    # the gate compares each top's volume with 1e-12 times its longest
    # edge to the n-th power
    with pytest.raises(DegeneracyError, match=r"^top simplex \(0, 1\) has coincident vertices$"):
        build_complex([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [(1, 0), (0, 2)])
    sliver = r"^top simplex \(0, 1, 2\) is degenerate \(volume 5\.000e-14\)$"
    with pytest.raises(DegeneracyError, match=sliver):
        build_complex([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-13]], [(2, 1, 0)])
    assert build_complex([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-11]], [(0, 1, 2)]).n == 2


@pytest.mark.parametrize("n, scale", [
    (3, 1e-150), (3, 1e-160), (2, 1e-160), (3, 1e-170), (2, 1e-170), (3, 1e150), (2, 1e160),
    (3, 3e-103), (2, 1.1e-154),  # a normal longest edge^n, but a subnormal volume
    (2, 1e154),  # a finite volume, but a longest edge^n that overflows
])
def test_degeneracy_gate_rejects_scales_outside_double_range(n, scale):
    # a unit simplex whose volume or edge^n under- or overflows once went
    # through as 0.0 or a subnormal, was called "coincident vertices", or
    # warned of an overflow
    unit = np.vstack([np.zeros(n), np.eye(n)])
    top = tuple(range(n + 1))
    message = (
        rf"^top simplex \({', '.join(map(str, top))}\) has volume .*: "
        r"its scale is outside double range$"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError, match=message):
            build_complex(unit * scale, [top])
    # well inside the range, the same simplex passes
    assert build_complex(unit * scale ** 0.5, [top]).volumes(n)[0] > 0.0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [1e80, 1e-80, 1e100, 1e-100])
def test_unit_simplex_builds_and_classifies_across_double_range(n, scale):
    # the geometry squares only coordinates scaled to the simplex, so a unit
    # simplex far out in double range keeps its volumes, statuses and
    # duals, and nothing warns of an overflow or a division by zero
    unit = np.vstack([np.zeros(n), np.eye(n)])
    top = tuple(range(n + 1))
    unit_mesh = build_complex(unit, [top])
    reference = classify_complex(unit_mesh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = build_complex(unit * scale, [top])
        report = classify_complex(mesh)
        negatives = [dual_table(mesh, p).num_negative_pieces.tolist() for p in range(n + 1)]
    for d in range(1, n + 1):
        # a face through the origin is a unit right simplex, the other has
        # sqrt(d + 1) times its volume
        exact = [(1.0 if 0 in face else np.sqrt(d + 1.0)) / math.factorial(d) * scale**d
                 for face in mesh.simplices[d].tolist()]
        assert np.abs(mesh.volumes(d) / exact - 1.0).max() <= 1e-15
    assert report.verdict == reference.verdict
    assert report.pair_statuses == reference.pair_statuses
    assert report.boundary_statuses == reference.boundary_statuses
    expected = [dual_table(unit_mesh, p).num_negative_pieces.tolist() for p in range(n + 1)]
    assert negatives == expected


@pytest.mark.parametrize("dim, count", [(2, 300), (3, 60)])
def test_fresh_build_and_classify_compute_volumes_once_per_dimension(dim, count, monkeypatch):
    # the build gate reads the cached top and edge volumes, which the
    # classification then reuses
    calls = []

    def counted(pts):
        calls.append(pts.shape[1] - 1)
        return batched_circumcenters(pts)

    monkeypatch.setattr(complexes, "batched_circumcenters", counted)
    points = np.random.default_rng(3).random((count, dim))
    classify_complex(build_complex(points, Delaunay(points).simplices))
    assert sorted(calls) == list(range(dim + 1))


def test_geometry_rejects_dimensions_out_of_range():
    complex_ = _two_tets()
    queries = (complex_.geometry, complex_.volumes, complex_.circumcenters, complex_.circumradii)
    for dim in (-1, complex_.n + 1):
        for query in queries:
            with pytest.raises(ValueError, match="0 <= dim <= 3"):
                query(dim)


def test_rejects_duplicate_top():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ComplexError):
        build_complex(points, [(0, 1, 2), (2, 1, 0)])


def test_rejects_bad_vertex_references():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ComplexError):
        build_complex(points, [(0, 1, 7)])
    with pytest.raises(ComplexError):
        build_complex(points, [(0, 1, 1)])


TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
SIX = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0], [0.5, -1.0]]
LINE = [[0.0], [1.0], [2.0], [3.0]]
NUMERIC_TEXT = [["0", "0"], ["1", "0"], ["0", "1"]]


@pytest.mark.parametrize("points, cells, message", [
    (TRIANGLE, [[0.7, 1.2, 2.9]], "must be integers, got float64 values"),
    (TRIANGLE, [[0.0, 1.0, np.nan]], "must be integers, got float64 values"),
    (TRIANGLE, [["0", "1", "2"]], "must be integers, got <U1 values"),
    (TRIANGLE, [[True, 1, 2]], "must be integers, got bool values"),
    (TRIANGLE, [[True, False, True]], "must be integers, got bool values"),
    (TRIANGLE, [[0, 1, 2 + 0j]], "must be integers, got complex128 values"),
    (TRIANGLE, [[0.0, 1.0, np.inf]], "vertex inf out of range in top simplex 0"),
    (TRIANGLE, [[0.0, 1e30, 2e30]], r"vertex 1e\+30 out of range in top simplex 0"),
    (TRIANGLE, [[0, 1, 1], [0.5, 1, 2]], "must be integers, got float64 values"),
    (TRIANGLE, [[0, 1, 1], [0, 1]], r"top simplex 0 repeats a vertex: \(0, 1, 1\)"),
    (TRIANGLE, [[0, 1, 2], [0.5, 1]], "top simplex 1 has 2 vertices, expected 3"),
    (TRIANGLE, [[[0], [1], [2]]], "rows of 3 vertex indices"),
    ([[0, 0], [1, 0], [0]], [[0, 1, 2]], "got ragged rows"),
    ([[0, 0], ["a", "b"], [0, 1]], [[0, 1, 2]], "must be real numbers, got <U21 values"),
    # numeric text is refused as points too, as it is as cells
    (NUMERIC_TEXT, [[0, 1, 2]], "^points must be real numbers, got <U1 values$"),
    (np.array(NUMERIC_TEXT, dtype=bytes), [[0, 1, 2]],
     r"^points must be real numbers, got \|S1 values$"),
    ([[0, 0], [1, "0"], [0, 1]], [[0, 1, 2]], "^points must be real numbers, got <U21 values$"),
    (np.array([[0, 0], ["1", 0], [0, 1]], dtype=object), [[0, 1, 2]],
     "^points must be real numbers, got object values$"),
    (np.array([[0, 0], [b"1", 0], [0, 1]], dtype=object), [[0, 1, 2]],
     "^points must be real numbers, got object values$"),
    # a duplicate before a later range fault is the earlier fault
    (SIX, [(0, 1, 2), (2, 1, 0), (0, 1, 9)], r"^duplicate top simplex \(0, 1, 2\)$"),
    (SIX, [(0, 1, 2), (1, 2, 3), (2, 1, 0), (0, 1, 1)], r"^duplicate top simplex \(0, 1, 2\)$"),
    # a range fault or a repeated vertex before a later duplicate wins
    (SIX, [(0, 1, 9), (0, 1, 2), (2, 1, 0)], "^vertex 9 out of range in top simplex 0$"),
    (SIX, [(0, 1, 2), (1, 2, 3), (0, 0, 1), (2, 1, 0)],
     r"^top simplex 2 repeats a vertex: \(0, 0, 1\)$"),
    # a cell that duplicates an earlier one and is out of range: the earlier
    # copy is out of range too, and it is the first fault
    (SIX, [(0, 1, 2), (0, 1, 9), (9, 1, 0)], "^vertex 9 out of range in top simplex 1$"),
    (SIX, [(0, 1, 9), (9, 1, 0)], "^vertex 9 out of range in top simplex 0$"),
    # of several duplicates, the first in input order
    (SIX, [(1, 2, 3), (0, 1, 2), (3, 2, 1), (2, 1, 0)], r"^duplicate top simplex \(1, 2, 3\)$"),
    # a duplicate and a ragged cell after it
    (SIX, [(0, 1, 2), (2, 1, 0), (0, 1)], r"^duplicate top simplex \(0, 1, 2\)$"),
    (SIX, [(0, 1, 2), (1, 2, 3), (0, 1)], "^top simplex 2 has 2 vertices, expected 3$"),
    # per-cell faults come before a facet with three cofaces
    (SIX, [(0, 1, 2), (0, 1, 3), (0, 1, 5), (2, 0, 1)], r"^duplicate top simplex \(0, 1, 2\)$"),
    (SIX, [(0, 1, 2), (0, 1, 3), (0, 1, 5), (0, 1, 9)],
     "^vertex 9 out of range in top simplex 3$"),
    (LINE, [(0, 1), (1, 2), (2, 1)], r"^duplicate top simplex \(1, 2\)$"),
    # the points, then the top dimension, are checked before any cell
    (np.zeros((0, 2)), [(0, 1, 2)], r"^points must be a nonempty \(P, N\) array, got \(0, 2\)$"),
    ([[0.0, 0.0], [1.0, np.inf], [0.0, 1.0]], [(0, 1, 2)], "^points must be finite$"),
    (TRIANGLE, [], "^at least one top simplex is required$"),
    (TRIANGLE, [(0,)], "^top simplices need at least 2 vertices$"),
    (SIX, [(0, 1, 2, 3)], r"^3-simplices cannot embed in R\^2$"),
    # integral floats are named in their own dtype
    (SIX, [[0.0, 1, 2], [2.0, 1, 0]], r"^duplicate top simplex \(0\.0, 1\.0, 2\.0\)$"),
], ids=["fractional", "nan", "strings", "bool-among-ints", "bools", "complex", "inf",
        "huge", "dtype-first", "earlier-fault-first", "ragged-cells", "nested",
        "ragged-points", "text-points", "numeric-text-points", "bytes-points",
        "mixed-text-points", "object-text-points", "object-bytes-points",
        "duplicate-before-range", "duplicate-before-repeat", "range-before-duplicate",
        "repeat-before-duplicate", "out-of-range-duplicate", "out-of-range-first",
        "first-duplicate", "duplicate-before-ragged", "ragged-after-cells",
        "duplicate-before-non-manifold", "range-before-non-manifold", "line-duplicate",
        "no-points", "non-finite-points", "no-tops", "one-vertex-tops", "tops-above-ambient",
        "float-duplicate"])
def test_rejects_cells_that_are_not_vertex_indices(points, cells, message):
    # a cell is built from what it says, never from a truncated or
    # coerced copy of it; integral floats are indices
    with pytest.raises(ComplexError, match=message):
        build_complex(points, cells)
    assert build_complex(TRIANGLE, [[0.0, 2.0, 1.0]]).simplices[2].tolist() == [[0, 1, 2]]


def test_rejects_mixed_dimension_tops():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ComplexError):
        build_complex(points, [(0, 1, 2), (2, 3)])


def test_points_are_frozen():
    complex_ = _square()
    with pytest.raises(ValueError):
        complex_.points[0, 0] = 9.0


def test_queries_name_their_fault():
    square = _square()
    with pytest.raises(ComplexError, match="^1-simplices have 2 vertices, got 3$"):
        square.simplex_indices(1, [[0, 1, 2]])
    with pytest.raises(ValueError, match="^face tables need 1 <= dim <= 2, got 0$"):
        square.face_table(0)


STORE_MESHES = [*FIXTURE_NAMES, "qhull_2d_300", "qhull_3d_50"]
SIGN_COLUMNS = (
    "pair_facets", "pair_tops", "pair_signs", "boundary_facets", "boundary_tops", "boundary_signs",
)


def _store_mesh(name):
    """A fixture family, or a Qhull triangulation of 300 random points in 2D
    or of 50 in 3D."""
    if name in FIXTURE_NAMES:
        return generate_fixture(name)
    dim, size, seed = {"qhull_2d_300": (2, 300, 7), "qhull_3d_50": (3, 50, 8)}[name]
    points = np.random.default_rng(seed).random((size, dim))
    return build_complex(points, Delaunay(points).simplices)


def _memoized(mesh, tol):
    """Every memoized table, by (accessor, dim), under the tolerance ``tol``;
    the classification's sign columns under ("signs", None)."""
    tables = {}
    for d in range(mesh.n + 1):
        tables["geometry", d] = mesh.geometry(d)
        tables["dual_table", d] = dual_table(mesh, d, tol)
    for d in range(1, mesh.n + 1):
        tables["face_table", d] = mesh.face_table(d)
        tables["coface_index", d] = mesh.coface_index(d)
        tables["link_table", d] = signed_dual._link_table(mesh, d, tolerance(tol))
    report = classify_complex(mesh, tol=tol)
    tables["signs", None] = tuple(getattr(report, column) for column in SIGN_COLUMNS)
    return tables


def _arrays(value):
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("name", STORE_MESHES)
def test_memo_store_keeps_one_frozen_entry_per_key(name, monkeypatch):
    # every table is built once per (dimension, resolved tolerance), frozen,
    # and handed out as the same objects after that
    monkeypatch.delenv("SIGNED_DEC_EPS", raising=False)
    mesh = _store_mesh(name)
    first = _memoized(mesh, None)
    for value in first.values():
        assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in _arrays(value))
    entries = len(mesh._store)
    # tol=None under the default and tol=DEFAULT_EPS share every entry
    for tol in (None, DEFAULT_EPS):
        again = _memoized(mesh, tol)
        for key, value in first.items():
            assert all(a is b for a, b in zip(_arrays(again[key]), _arrays(value), strict=True))
    assert len(mesh._store) == entries
    # another tolerance gets entries of its own; the geometry and topology do not
    other = _memoized(mesh, 1e-3)
    for key, value in first.items():
        same = [a is b for a, b in zip(_arrays(other[key]), _arrays(value), strict=True)]
        assert same == [key[0] in ("geometry", "face_table", "coface_index")] * len(same)
    assert len(mesh._store) == entries + 2 * mesh.n + 2


@pytest.mark.parametrize("name", STORE_MESHES)
def test_refused_inputs_leave_no_memo_entry(name):
    mesh = _store_mesh(name)
    n = mesh.n
    refusals = [
        (ValueError, mesh.geometry, (n + 1,)), (TypeError, mesh.geometry, (1.0,)),
        (ValueError, mesh.face_table, (0,)), (TypeError, mesh.face_table, (1.0,)),
        (ValueError, mesh.coface_index, (n + 1,)), (TypeError, mesh.coface_index, (1.0,)),
        (ValueError, dual_table, (mesh, n + 1, 2e-3)), (TypeError, dual_table, (mesh, 1.0, 2e-3)),
        (ToleranceError, dual_table, (mesh, 1, -2e-3)),
        (ToleranceError, dual_table, (mesh, 1, True)),
        (ToleranceError, classify_complex, (mesh, np.nan)),
        (ToleranceError, classify_complex, (mesh, np.True_)),
    ]
    for warm in (False, True):
        if warm:
            _memoized(mesh, None)
            _memoized(mesh, 1.0)
        keys = set(mesh._store)
        for error, query, args in refusals:
            with pytest.raises(error):
                query(*args)
        assert set(mesh._store) == keys


@pytest.mark.parametrize(
    "name", ["structured_square", "surface_pairwise_delaunay", "delaunay_tet_cube"]
)
def test_keyed_accessors_refuse_non_integer_dimensions(name):
    # 1.0 hashes as 1 does, so a memo looked up before the dimension is
    # checked would answer it once the dim-1 entry exists
    mesh = generate_fixture(name)
    accessors = (mesh.geometry, mesh.face_table, mesh.coface_index, lambda d: dual_table(mesh, d))
    for warm in (False, True):
        for accessor in accessors:
            if warm:
                accessor(1)
                accessor(np.int64(1))
            for dim in (1.0, np.float64(1.0)):
                with pytest.raises(TypeError):
                    accessor(dim)
        if warm:
            dual_table(mesh, 1, DEFAULT_EPS)
            with pytest.raises(TypeError):
                dual_table(mesh, 1.0, DEFAULT_EPS)
