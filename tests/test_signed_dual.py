"""Elementary dual chains, step signs, signed dual volumes."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import Delaunay

from conftest import _as_integers, exact_barycentric
from signeddec import signed_dual
from signeddec.complexes import build_complex
from signeddec.config import DEFAULT_EPS
from signeddec.delaunay import classify_complex
from signeddec.errors import ComplexError
from signeddec.fixtures import FIXTURE_NAMES, generate_fixture
from signeddec.geometry import circumcenter, simplex_volume
from signeddec.signed_dual import (
    dual_table,
    dual_volumes,
    elementary_duals,
    orientation_sign_via_determinant,
    signed_dual_volume,
    step_sign,
    step_signs,
)

SQRT17 = np.sqrt(17.0)


def _rhombus():
    h = np.sqrt(3.0) / 2.0
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h], [0.5, -h]])
    return build_complex(points, [(0, 1, 2), (0, 1, 3)])


def _skinny_tet():
    # obtuse base triangle with a low apex: its dual pieces realize step
    # sign patterns with one and with two -1 factors
    points = np.array([
        [0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, 0.5, 0.0], [2.0, 0.2, 0.3],
    ])
    return build_complex(points, [(0, 1, 2, 3)])


def test_obtuse_triangle_edge_duals(obtuse_triangle):
    signed, unsigned = dual_volumes(obtuse_triangle, 1)
    # edges in lexicographic order: (0,1), (0,2), (1,2); the long edge's
    # piece points away from the triangle
    assert np.allclose(signed, [-3.75, SQRT17, SQRT17], rtol=1e-12)
    assert np.allclose(unsigned, [3.75, SQRT17, SQRT17], rtol=1e-12)


def test_obtuse_triangle_vertex_duals(obtuse_triangle):
    signed, unsigned = dual_volumes(obtuse_triangle, 0)
    assert np.allclose(signed, [-1.625, -1.625, 4.25], rtol=1e-12)
    # signed pieces tile the triangle
    assert np.isclose(signed.sum(), obtuse_triangle.total_volume, rtol=1e-12)
    assert np.all(signed <= unsigned + 1e-15)
    assert np.any(signed < unsigned - 1e-3)


def test_obtuse_triangle_step_signs(obtuse_triangle):
    # circumcenter (2, -3.75) sits opposite vertex 2 across edge (0,1)
    long_edge = obtuse_triangle.simplex_index(1, (0, 1))
    assert step_sign(obtuse_triangle, 1, long_edge, 0) == -1
    for other in ((0, 2), (1, 2)):
        edge = obtuse_triangle.simplex_index(1, other)
        assert step_sign(obtuse_triangle, 1, edge, 0) == 1
    # vertex -> edge steps always point toward the edge midpoint
    for v in range(3):
        for edge, _ in obtuse_triangle.cofaces[0][v]:
            assert step_sign(obtuse_triangle, 0, v, edge) == 1


def test_chain_counts():
    tri = _rhombus()
    assert len(elementary_duals(tri, 0, 0)) == 4  # two edges in each triangle
    assert len(elementary_duals(tri, 1, tri.simplex_index(1, (0, 2)))) == 1
    tet = _skinny_tet()
    assert len(elementary_duals(tet, 0, 0)) == 6  # 3 edges x 2 faces
    assert len(elementary_duals(tet, 1, 0)) == 2
    assert len(elementary_duals(tet, 2, 0)) == 1
    assert len(elementary_duals(tet, 3, 0)) == 1


def test_piece_shapes(obtuse_triangle):
    piece = elementary_duals(obtuse_triangle, 0, 0)[0]
    assert piece.vertices.shape == (3, 2)
    assert len(piece.step_signs) == 2
    assert piece.top_index == 0
    top_piece = elementary_duals(obtuse_triangle, 2, 0)[0]
    assert top_piece.chain == ()
    assert top_piece.unsigned_volume == 1.0
    assert top_piece.sign == 1


def test_non_integer_index_is_rejected(obtuse_triangle):
    # a float in range would match no face and give an empty, zero-volume cell
    for query in (elementary_duals, signed_dual_volume):
        for index in (1.5, 1.0):
            with pytest.raises(TypeError):
                query(obtuse_triangle, 0, index)
    pieces = elementary_duals(obtuse_triangle, 0, 1)
    numpy_index = elementary_duals(obtuse_triangle, 0, np.int64(1))
    assert [p.chain for p in numpy_index] == [p.chain for p in pieces]


def test_duals_deterministic(obtuse_triangle):
    first = elementary_duals(obtuse_triangle, 0, 1)
    second = elementary_duals(obtuse_triangle, 0, 1)
    assert [p.chain for p in first] == [p.chain for p in second]
    assert [p.sign for p in first] == [p.sign for p in second]


def test_equilateral_shared_edge_dual():
    mesh = _rhombus()
    cell = signed_dual_volume(mesh, 1, mesh.simplex_index(1, (0, 1)))
    assert np.isclose(cell.signed_volume, 1.0 / np.sqrt(3.0), rtol=1e-12)
    assert cell.num_negative_pieces == 0
    assert len(cell.pieces) == 2


def test_split_square_marginal_duals(split_square):
    diag = split_square.simplex_index(1, (0, 2))
    cell = signed_dual_volume(split_square, 1, diag)
    # both triangle circumcenters sit on the diagonal's midpoint
    assert cell.signed_volume == 0.0
    assert any(p.sign == 0 for p in cell.pieces)
    signed, _ = dual_volumes(split_square, 0)
    assert np.allclose(signed, 0.25, atol=1e-15)


def test_right_triangle_hypotenuse_step():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = build_complex(points, [(0, 1, 2)])
    hyp = mesh.simplex_index(1, (1, 2))
    assert step_sign(mesh, 1, hyp, 0) == 0
    assert signed_dual_volume(mesh, 1, hyp).signed_volume == 0.0


def test_top_dimension_duals_are_ones(obtuse_triangle):
    signed, unsigned = dual_volumes(obtuse_triangle, 2)
    assert np.all(signed == 1.0)
    assert np.all(unsigned == 1.0)


def test_dual_volumes_cached_and_frozen(obtuse_triangle):
    signed_a, unsigned_a = dual_volumes(obtuse_triangle, 1)
    signed_b, _ = dual_volumes(obtuse_triangle, 1)
    assert signed_a is signed_b
    # a different tolerance is a different cache entry
    signed_c, _ = dual_volumes(obtuse_triangle, 1, tol=1e-6)
    assert signed_c is not signed_a
    with pytest.raises(ValueError):
        unsigned_a[0] = 0.0


def test_regular_simplex_well_centered():
    # alternate corners of a cube: a regular tet, every face of which
    # contains its circumcenter
    points = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    mesh = build_complex(np.array(points, dtype=float), [(0, 1, 2, 3)])
    for dim in range(3):
        for i in range(mesh.num_simplices(dim)):
            for piece in elementary_duals(mesh, dim, i):
                assert piece.step_signs == tuple([1] * len(piece.step_signs))
    signed, unsigned = dual_volumes(mesh, 0)
    assert np.allclose(signed, unsigned)
    # symmetry: each vertex gets a quarter of the volume
    assert np.allclose(signed, mesh.total_volume / 4.0, rtol=1e-12)


def test_vertex_pieces_tile_each_top(split_square, single_tet):
    for mesh in (split_square, single_tet, _skinny_tet()):
        cells = [signed_dual_volume(mesh, 0, v) for v in range(len(mesh.points))]
        for top in range(mesh.num_simplices(mesh.n)):
            total = sum(
                p.signed_volume for c in cells for p in c.pieces if p.top_index == top
            )
            assert np.isclose(total, mesh.volume_of(mesh.n, top), rtol=1e-10)


def test_determinant_orientation_matches_step_signs():
    # both parities occur in the skinny tet: patterns with one -1 give
    # sign -1, patterns with two give +1
    mesh = _skinny_tet()
    seen = set()
    for dim in range(3):
        for i in range(mesh.num_simplices(dim)):
            for piece in elementary_duals(mesh, dim, i):
                if piece.sign == 0:
                    continue
                negatives = piece.step_signs.count(-1)
                seen.add(negatives)
                assert piece.sign == (-1) ** negatives
                assert orientation_sign_via_determinant(mesh, piece) == piece.sign
    assert {0, 1, 2} <= seen


def test_determinant_orientation_needs_full_dimension():
    points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.1], [0.0, 1.0, 0.0]])
    mesh = build_complex(points, [(0, 1, 2)])
    piece = elementary_duals(mesh, 0, 0)[0]
    with pytest.raises(ValueError):
        orientation_sign_via_determinant(mesh, piece)


# small members of every fixture family, for the brute-force comparisons
_SMALL_FIXTURES = {
    "bad_boundary_square": dict(divisions=6),
    "delaunay_tet_cube": dict(divisions=2),
    "fan_around_edge": dict(),
    "non_delaunay_square": dict(divisions=6),
    "obtuse_delaunay_square": dict(divisions=5),
    "perturbed_delaunay_square": dict(divisions=5),
    "structured_square": dict(divisions=4),
    "surface_pairwise_delaunay": dict(divisions=4),
}


def _permutation_oracle(mesh, p, eps=1e-10):
    """Signed and unsigned duals, piece counts and negative-piece counts
    of every p-simplex, by walking all vertex orders of every top.

    The prefixes of one vertex order form a flag; its tail from the p-face
    is one elementary piece, counted once by keeping only the orders whose
    first p+1 vertices ascend. Circumcenters and volumes come from the
    scalar geometry routines, one simplex at a time. A link is marginal
    when its center step's component along the apex direction,
    (c_coface - c_face) . (apex - c_face) = lambda h^2 with h the apex's
    height over the face, is within eps h^2: the rule |lambda| <= eps,
    reached without barycentric coordinates.
    """
    count = mesh.num_simplices(p)
    signed, unsigned = np.zeros(count), np.zeros(count)
    pieces, negative = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    for top in mesh.simplices[mesh.n].tolist():
        for order in itertools.permutations(top):
            if list(order[: p + 1]) != sorted(order[: p + 1]):
                continue
            cells = [sorted(order[: k + 1]) for k in range(p, mesh.n + 1)]
            centers = [circumcenter(mesh.points[cell]).center for cell in cells]
            sign = 1
            for k in range(len(cells) - 1):
                across = centers[k + 1] - centers[k]
                toward = mesh.points[order[p + k + 1]] - centers[k]
                value = float(across @ toward)
                volumes = [simplex_volume(mesh.points[cell]) for cell in cells[k:k + 2]]
                height = (p + k + 1) * volumes[1] / volumes[0]
                if abs(value) <= max(eps, 1e-14) * height**2:
                    sign = 0
                elif value < 0.0:
                    sign = -sign
            volume = simplex_volume(np.array(centers))
            base = mesh.simplex_index(p, cells[0])
            signed[base] += sign * volume
            unsigned[base] += volume
            pieces[base] += 1
            negative[base] += sign < 0
    return signed, unsigned, pieces, negative


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_chain_table_matches_permutation_oracle(name):
    mesh = generate_fixture(name, **_SMALL_FIXTURES[name])
    for p in range(mesh.n + 1):
        table = dual_table(mesh, p)
        signed, unsigned, pieces, negative = _permutation_oracle(mesh, p)
        for got, want in ((table.signed_volume, signed), (table.unsigned_volume, unsigned)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        np.testing.assert_array_equal(table.num_pieces, pieces)
        np.testing.assert_array_equal(table.num_negative_pieces, negative)


@pytest.mark.parametrize("name", ["delaunay_tet_cube", "surface_pairwise_delaunay"])
def test_piece_counts_follow_chain_formula(name):
    # each top holding a p-simplex adds one chain per order of the other
    # n - p vertices
    mesh = generate_fixture(name, **_SMALL_FIXTURES[name])
    for p in range(mesh.n + 1):
        holders = {}
        for top in mesh.simplices[mesh.n].tolist():
            for face in itertools.combinations(top, p + 1):
                index = mesh.simplex_index(p, face)
                holders[index] = holders.get(index, 0) + 1
        expected = [holders[i] * math.factorial(mesh.n - p) for i in range(mesh.num_simplices(p))]
        np.testing.assert_array_equal(dual_table(mesh, p).num_pieces, expected)


def test_elementary_duals_in_depth_first_chain_order():
    mesh = generate_fixture("delaunay_tet_cube", divisions=2)

    def depth_first(dim, index):
        if dim == mesh.n:
            return [()]
        return [
            (coface,) + rest
            for coface, _ in mesh.cofaces[dim][index]
            for rest in depth_first(dim + 1, coface)
        ]

    for p in range(mesh.n + 1):
        for i in range(mesh.num_simplices(p)):
            chains = [piece.chain for piece in elementary_duals(mesh, p, i)]
            assert chains == sorted(chains)
            assert chains == depth_first(p, i)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_elementary_duals_sum_to_dual_table(name):
    # the two read paths, piece gather and totals sweep, agree per simplex
    mesh = generate_fixture(name, **_SMALL_FIXTURES[name])
    for p in range(mesh.n + 1):
        table = dual_table(mesh, p)
        cells = [signed_dual_volume(mesh, p, i) for i in range(mesh.num_simplices(p))]
        scale = np.abs(table.unsigned_volume).max()
        for got, want in (
            ([cell.signed_volume for cell in cells], table.signed_volume),
            ([cell.unsigned_volume for cell in cells], table.unsigned_volume),
        ):
            assert np.abs(np.array(got) - want).max() <= 1e-14 * scale
        assert [len(cell.pieces) for cell in cells] == table.num_pieces.tolist()
        assert [cell.num_negative_pieces for cell in cells] == table.num_negative_pieces.tolist()


@pytest.mark.parametrize("scale", [1e-6, 3.0, 1e6])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_duals_scale_and_statuses_hold_under_uniform_scaling(name, scale):
    # a p-dual is an (n-p)-volume; pair and boundary statuses and the
    # negative-piece counts are unit-free
    mesh = generate_fixture(name, **_SMALL_FIXTURES[name])
    scaled = build_complex(mesh.points * scale, mesh.simplices[mesh.n])
    for p in range(mesh.n + 1):
        table, scaled_table = dual_table(mesh, p), dual_table(scaled, p)
        factor = scale ** (mesh.n - p)
        for got, want in (
            (scaled_table.signed_volume, table.signed_volume),
            (scaled_table.unsigned_volume, table.unsigned_volume),
        ):
            assert np.abs(got / factor - want).max() <= 1e-13 * np.abs(table.unsigned_volume).max()
        np.testing.assert_array_equal(scaled_table.num_pieces, table.num_pieces)
        np.testing.assert_array_equal(scaled_table.num_negative_pieces, table.num_negative_pieces)
    report, scaled_report = classify_complex(mesh), classify_complex(scaled)
    assert scaled_report.pair_statuses == report.pair_statuses
    assert scaled_report.boundary_statuses == report.boundary_statuses
    assert scaled_report.verdict == report.verdict


@pytest.mark.parametrize("name, kwargs, num_zero", [
    ("delaunay_tet_cube", dict(divisions=2), 18),
    ("structured_square", dict(divisions=4), 32),
    ("obtuse_delaunay_square", dict(divisions=5), 3),
    ("surface_pairwise_delaunay", dict(divisions=4), 4),
])
def test_link_signs_match_exact_barycentric_signs(name, kwargs, num_zero):
    # the circumcenter of every simplex in exact arithmetic on its float
    # vertices: a link whose exact coordinate is 0 (a right angle) must be
    # marginal, and every signed link must carry the exact sign
    mesh = generate_fixture(name, **kwargs)
    zeros = 0
    for dim in range(1, mesh.n + 1):
        faces = mesh.face_table(dim)
        cofaces = np.repeat(np.arange(len(faces)), dim + 1)
        signs = step_signs(mesh, dim - 1, faces.ravel(), cofaces).reshape(faces.shape)
        exact = np.array([
            [(x > 0) - (x < 0) for x in exact_barycentric(mesh.points[row])]
            for row in mesh.simplices[dim]
        ])
        assert (signs[exact == 0] == 0).all()
        np.testing.assert_array_equal(signs[signs != 0], exact[signs != 0])
        zeros += (exact == 0).sum()
    assert zeros == num_zero


def _gram_det(rows):
    """det G of the Gram matrix G of the edge vectors r_i - r_0 of integer
    rows (1 for one row), by Bareiss's fraction-free elimination: every
    division is exact."""
    edges = [[a - b for a, b in zip(row, rows[0])] for row in rows[1:]]
    gram = [[sum(a * b for a, b in zip(ei, ej)) for ej in edges] for ei in edges]
    previous = 1
    for k in range(len(gram) - 1):  # G is positive definite: every pivot is positive
        for i in range(k + 1, len(gram)):
            gram[i] = [(gram[i][j] * gram[k][k] - gram[i][k] * gram[k][j]) // previous
                       for j in range(len(gram))]
        previous = gram[k][k]
    return gram[-1][-1] if gram else 1


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "qhull_2d_300"])
def test_link_lengths_match_exact_lengths(name):
    # link (t, j) has length |lambda_j| h_j, with h_j^2 = det G(t) / det G(face)
    # the squared height of vertex j over the face omitting it; in exact
    # arithmetic on the float vertices it is sqrt(lambda_j^2 h_j^2). The
    # error is bounded by 1e-13 of the larger of h_j and the length: the
    # Qhull mesh's slivers reach |lambda_j| = 467, where a few ulps of the
    # length are 2.9e-13 h_j (measured: at most 1.4e-14 of the larger)
    if name == "qhull_2d_300":
        points = np.random.default_rng(7).random((300, 2))
        mesh = build_complex(points, Delaunay(points).simplices)
    else:
        mesh = generate_fixture(name)
    # the points are integers over a common power of two d, so h_j^2 is the
    # ratio of the integer rows' Gram determinants over d^2
    integers, d = _as_integers(mesh.points)
    rows = np.array(integers, dtype=object).reshape(mesh.points.shape)
    face_dets = [1] * mesh.num_simplices(0)
    for dim in range(1, mesh.n + 1):
        lengths = signed_dual._link_table(mesh, dim, DEFAULT_EPS)[1]
        dets = [_gram_det(rows[row].tolist()) for row in mesh.simplices[dim]]
        for t, (row, faces) in enumerate(zip(mesh.simplices[dim], mesh.face_table(dim))):
            exact = exact_barycentric(mesh.points[row])
            for j, face in enumerate(faces.tolist()):
                squared_height = Fraction(dets[t], face_dets[face] * d * d)
                height = math.sqrt(squared_height)
                length = math.sqrt(exact[j] ** 2 * squared_height)
                assert abs(lengths[t, j] - length) <= 1e-13 * max(height, length)
        face_dets = dets


def test_dual_table_rejects_dimensions_out_of_range():
    mesh = generate_fixture("structured_square", divisions=2)
    for dim in (-1, mesh.n + 1):
        with pytest.raises(ValueError):
            dual_table(mesh, dim)
        for query in (elementary_duals, signed_dual_volume):
            with pytest.raises(ValueError, match=r"0 <= dim <= 2"):
                query(mesh, dim, 0)


def test_elementary_duals_rejects_indices_out_of_range():
    mesh = generate_fixture("structured_square", divisions=2)
    for index in (-1, mesh.num_simplices(1)):
        with pytest.raises(IndexError, match=f"^no 1-simplex with index {index}$"):
            elementary_duals(mesh, 1, index)


def test_step_signs_batch_matches_single_links():
    mesh = generate_fixture("non_delaunay_square", divisions=6)
    seen = set()
    for dim in range(mesh.n):
        links = [
            (face, coface)
            for face in range(mesh.num_simplices(dim))
            for coface, _ in mesh.cofaces[dim][face]
        ]
        faces, cofaces = zip(*links)
        batch = step_signs(mesh, dim, faces, cofaces).tolist()
        assert batch == [step_sign(mesh, dim, f, c) for f, c in links]
        seen.update(batch)
    assert {-1, 1} <= seen
    far_edge = next(e for e in range(mesh.num_simplices(1)) if 0 not in mesh.simplex_vertices(1, e))
    with pytest.raises(ComplexError):
        step_signs(mesh, 0, [0], [far_edge])
