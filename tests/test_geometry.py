"""Coordinate-level primitives: circumcenters, volumes, side tests,
pair flattening."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import special_ortho_group

from conftest import cayley_menger_volume, exact_barycentric, exact_side, random_rotation
from signeddec.complexes import build_complex
from signeddec.config import tolerance
from signeddec.delaunay import one_sided_status_points
from signeddec.errors import AffineHullError, DegeneracyError, MeshFormatError
from signeddec.fixtures import FIXTURE_NAMES, generate_fixture
from signeddec.geometry import (
    _factor,
    batched_circumcenters,
    batched_volumes,
    circumcenter,
    flatten_pair,
    halfspace_sign,
    simplex_volume,
)
from signeddec.hodge import HodgeStar
from signeddec.meshfile import write_mesh


@st.composite
def random_simplex(draw, max_k=3):
    seed = draw(st.integers(0, 2**31 - 1))
    k = draw(st.integers(1, max_k))
    ambient = draw(st.integers(k, 3))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, size=(k + 1, ambient))
    # reject flat draws; the predicates under test are meant for the
    # generic case, degeneracy is tested separately
    if cayley_menger_volume(pts) < 1e-3:
        pts = None
    return pts, rng


def test_circumcenter_known_triangle():
    data = circumcenter(np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]]))
    assert np.allclose(data.center, [2.0, -3.75])
    assert np.isclose(data.radius, 4.25)


def test_circumcenter_segment_is_midpoint():
    data = circumcenter(np.array([[1.0, 1.0, 0.0], [3.0, 1.0, 0.0]]))
    assert np.allclose(data.center, [2.0, 1.0, 0.0])
    assert np.isclose(data.radius, 1.0)


def test_circumcenter_point():
    data = circumcenter(np.array([[2.0, 7.0]]))
    assert np.allclose(data.center, [2.0, 7.0])
    assert data.radius == 0.0


def test_circumcenter_colinear_raises():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegeneracyError):
        circumcenter(pts)
    # in a stack, only the collinear row is flagged; the others still solve
    good = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]])
    stack = np.stack([good, pts, good])
    centers, radii, degenerate, barycentric, volumes = batched_circumcenters(stack)
    assert degenerate.tolist() == [False, True, False]
    assert np.allclose(centers[[0, 2]], [2.0, -3.75])
    assert np.allclose(radii[[0, 2]], 4.25)
    # the center is the barycentric combination of the vertices
    assert np.allclose(np.einsum("mi,min->mn", barycentric, stack)[[0, 2]], centers[[0, 2]])
    # the same factorisation gives the areas, and the flagged row finite placeholders
    assert np.allclose(volumes, [1.0, 0.0, 1.0])
    assert all(np.isfinite(column).all() for column in (centers, radii, barycentric, volumes))


@settings(max_examples=100, deadline=None)
@given(random_simplex())
def test_circumcenter_equidistant_in_hull(data):
    pts, _ = data
    if pts is None:
        return
    circ = circumcenter(pts)
    dists = np.linalg.norm(pts - circ.center, axis=1)
    assert np.allclose(dists, circ.radius, rtol=1e-9)
    # center lies in the affine hull of the vertices
    edges = (pts[1:] - pts[0]).T
    coeff, residual, *_ = np.linalg.lstsq(edges, circ.center - pts[0], rcond=None)
    rebuilt = pts[0] + edges @ coeff
    assert np.allclose(rebuilt, circ.center, atol=1e-9 * max(circ.radius, 1.0))


def test_volume_unit_right_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.isclose(simplex_volume(pts), 0.5)


def test_volume_regular_tet_edge_one():
    pts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, np.sqrt(3.0) / 2.0, 0.0],
        [0.5, np.sqrt(3.0) / 6.0, np.sqrt(2.0 / 3.0)],
    ])
    assert np.isclose(simplex_volume(pts), np.sqrt(2.0) / 12.0, rtol=1e-12)


def test_volume_single_point_convention():
    assert simplex_volume(np.array([[3.0, 4.0]])) == 1.0


@settings(max_examples=100, deadline=None)
@given(random_simplex())
def test_volume_matches_cayley_menger(data):
    pts, _ = data
    if pts is None:
        return
    assert np.isclose(simplex_volume(pts), cayley_menger_volume(pts), rtol=1e-8)


def _pinned_draw(seed, k, ambient):
    """A rigid-motion draw from its own stream: the points, then the rng
    that the test reads the rotation and the shift from."""
    rng = np.random.default_rng([seed, k, ambient])
    return rng.uniform(-2.0, 2.0, size=(k + 1, ambient)), rng


# draws that a Gram-matrix solve, which squares the condition number, failed
_PINNED_DRAWS = [
    (1070, 2, 2), (11151, 2, 2), (16675, 2, 2), (17391, 2, 2), (26689, 2, 2),
    (5982, 3, 3), (6641, 3, 3), (19822, 3, 3), (24881, 3, 3), (38224, 3, 3),
]


def _pinned(test):
    for draw in _PINNED_DRAWS:
        test = example(_pinned_draw(*draw))(test)
    return test


@settings(max_examples=50, deadline=None)
@given(random_simplex())
@_pinned
def test_rigid_motion_equivariance(data):
    pts, rng = data
    if pts is None:
        return
    rot = random_rotation(rng, pts.shape[1])
    shift = rng.uniform(-5.0, 5.0, pts.shape[1])
    moved = pts @ rot.T + shift
    before = circumcenter(pts)
    after = circumcenter(moved)
    assert np.isclose(after.radius, before.radius, rtol=1e-9)
    assert np.allclose(after.center, before.center @ rot.T + shift, atol=1e-9)
    assert np.isclose(simplex_volume(moved), simplex_volume(pts), rtol=1e-9)


_SLIVER_BASES = {2: np.array([[0.0], [1.0]]), 3: np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("height", [1e-3, 1e-4, 1e-5])
def test_sliver_barycentric_matches_exact(n, height):
    # an apex at the given height over a unit base, rotated, scaled by up to
    # 10^3 either way and moved by up to 1e3: the cached circumcenter
    # coordinates stay within 1e-9 of the exact ones, relative to the
    # largest; a Gram-matrix solve is off by up to ~1e-6 at height 1e-5
    rng = np.random.default_rng([n, round(-np.log10(height))])
    base = np.hstack([_SLIVER_BASES[n], np.zeros((n, 1))])
    for _ in range(20):
        apex = np.append(rng.dirichlet(np.ones(n)) @ _SLIVER_BASES[n], height)
        points = rng.permutation(np.vstack([base, apex]))
        rotation = special_ortho_group(dim=n, seed=rng).rvs()
        points = points @ rotation.T * 10.0 ** rng.uniform(-3.0, 3.0) + rng.uniform(-1e3, 1e3, n)
        got = build_complex(points, [range(n + 1)]).geometry(n)[4][0]
        exact = np.array([float(x) for x in exact_barycentric(points)])
        assert np.abs(got - exact).max() <= 1e-9 * np.abs(exact).max()


def test_halfspace_sign_square_cases():
    facet = np.array([[0.0, 0.0], [1.0, 0.0]])
    apex = np.array([0.0, 1.0])
    assert halfspace_sign(facet, apex, np.array([0.5, 2.0])) == 1
    assert halfspace_sign(facet, apex, np.array([0.5, -1.0])) == -1
    assert halfspace_sign(facet, apex, np.array([0.3, 0.0])) == 0


def test_halfspace_sign_degenerate_apex():
    # the tolerance decides only the status: a collinear apex raises at every
    # tolerance, and an apex 1e-5 over the facet at none
    facet = np.array([[0.0, 0.0], [1.0, 0.0]])
    for tol in (None, 1e-3):
        with pytest.raises(DegeneracyError):
            halfspace_sign(facet, np.array([2.0, 0.0]), np.array([0.5, 1.0]), tol=tol)
        assert halfspace_sign(facet, np.array([0.5, 1e-5]), np.array([0.5, 1.0]), tol=tol) == 1
    # the apex guard is scaled by facet+apex alone, so a far query does not
    # make an apex 1e-9 over the facet degenerate
    for query, sign in (([0.5, 1.0], 1), ([0.5, 100.0], 1), ([50.0, 0.0], 0)):
        assert halfspace_sign(facet, [0.5, 1e-9], query) == sign


def test_collinear_facets_and_apexes_raise_whatever_the_tolerance():
    line = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
    facet_message = "facet vertices are \\(nearly\\) affinely dependent$"
    for tol in (None, 1e-3, 0.0):
        with pytest.raises(DegeneracyError, match=facet_message):
            halfspace_sign(line, [0.0, 1.0, 0.0], [0.5, 2.0, 0.0], tol=tol)
    with pytest.raises(DegeneracyError, match=facet_message):
        flatten_pair(line, [0.0, 1.0, 0.0], [0.0, -1.0, 0.0])
    for apexes in (([2.0, 0.0], [0.5, -1.0]), ([0.5, 1.0], [-3.0, 0.0])):
        with pytest.raises(DegeneracyError, match="apex lies in the facet's affine hull"):
            flatten_pair([[0.0, 0.0], [1.0, 0.0]], *apexes)


def _side_inputs(rng, n, ambient, count):
    """(facet, apex, query) in R^ambient: a standard-normal facet of n points,
    an apex at 1e-6 to 1 times the longest facet edge over a random point of
    the facet's hull, and a query in the facet+apex hull on, near or off the
    facet's hyperplane."""
    for _ in range(count):
        facet = rng.standard_normal((n, ambient))
        edges = (facet[1:] - facet[0]).T
        normal = rng.standard_normal(ambient)
        normal -= edges @ np.linalg.lstsq(edges, normal, rcond=None)[0]
        normal /= np.linalg.norm(normal)
        longest = np.linalg.norm(edges, axis=0).max()
        weights = rng.dirichlet(np.ones(n), 2) + 0.3 * rng.standard_normal((2, n))
        feet = (weights / weights.sum(axis=1, keepdims=True)) @ facet
        apex = feet[0] + 10.0 ** rng.uniform(-6, 0) * longest * normal
        along = rng.choice([0.0, 1e-12, 1e-10, 1e-8, 1.0]) * rng.choice([-1.0, 1.0])
        yield facet, apex, feet[1] + along * rng.uniform(0.5, 2.0) * longest * normal


def test_halfspace_sign_matches_exact_side():
    # wherever the exact offset and the apex's height clear the tolerance
    # band by a factor of 2, the sign is the exact one; the band is the
    # tolerance times the longest of the facet's, the apex's and the query's
    # edges from facet point 0
    clear = 0
    for n, ambient in ((2, 2), (2, 3), (3, 3)):
        for facet, apex, query in _side_inputs(np.random.default_rng([n, ambient]), n, ambient, 80):
            coordinate, _, height2 = exact_side(facet, apex, query)
            rows = [[Fraction(x) for x in row] for row in np.vstack([facet, apex, query]).tolist()]
            scale2 = max(sum((a - b) ** 2 for a, b in zip(row, rows[0])) for row in rows[1:])
            for tol in (None, 1e-3):
                band2 = 4 * Fraction(tolerance(tol)) ** 2 * scale2
                if height2 > band2 and coordinate**2 * height2 > band2:
                    assert halfspace_sign(facet, apex, query, tol=tol) == np.sign(coordinate)
                    clear += 1
    assert clear > 100


def test_halfspace_sign_hull_check_follows_the_frame():
    # facet+apex spans less than R^N: a query whose exact residual is within
    # max(tol, 1e-9) L (L the stack's longest edge) never raises, and one
    # beyond twice that plus the frame's rounding 4 eps |query edge| L' / d
    # (L' the longest facet+apex edge, d their least R diagonal) always does
    rng = np.random.default_rng(29)
    checked = {"inside": 0, "beyond": 0}
    for n, ambient in ((1, 2), (1, 3), (2, 3)):
        for _ in range(100):
            facet = rng.standard_normal((n, ambient)) + rng.uniform(-3.0, 3.0, ambient)
            basis = np.hstack([(facet[1:] - facet[0]).T, rng.standard_normal((ambient, 2))])
            normal, off_hull = np.linalg.qr(basis)[0][:, n - 1:n + 1].T
            weights = rng.uniform(-0.5, 1.5, (2, n))
            weights[:, 0] = 1.0 - weights[:, 1:].sum(axis=1)
            foot, end = weights @ facet
            apex = foot + 10.0 ** rng.uniform(-9, 0) * normal
            query = end + rng.choice([0.0, 1.0, 10.0]) * rng.standard_normal() * normal
            query = query + rng.choice([0.0, 1.0]) * 10.0 ** rng.uniform(-15, 0) * off_hull
            _, residual2, height2 = exact_side(facet, apex, query)
            edges = np.vstack([facet, apex, query])[1:] - facet[0]
            lengths = np.linalg.norm(edges, axis=1)
            least = min([math.sqrt(height2), *lengths[:n - 1]])
            band = 1e-9 * lengths.max()
            rounding = 4 * np.finfo(float).eps * lengths[-1] * lengths[:-1].max() / least
            residual = math.sqrt(residual2)
            if residual <= band:
                assert halfspace_sign(facet, apex, query) in (-1, 0, 1)
                checked["inside"] += 1
            elif residual > 2 * (band + rounding):
                with pytest.raises(AffineHullError):
                    halfspace_sign(facet, apex, query)
                checked["beyond"] += 1
    assert min(checked.values()) > 50, checked


def test_halfspace_sign_query_off_hull():
    # in R^3 the facet+apex plane is z = 0; a query off that plane is an
    # error, not a sign
    facet = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    apex = np.array([0.0, 1.0, 0.0])
    with pytest.raises(AffineHullError):
        halfspace_sign(facet, apex, np.array([0.5, 0.5, 1.0]))


EDGE = [[0.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("call, error", [
    (lambda _: halfspace_sign(EDGE, [0.5, 1.0], [np.nan, np.nan]), ValueError),
    (lambda _: halfspace_sign(EDGE, [np.nan, np.nan], [0.5, -1.0]), ValueError),
    (lambda _: halfspace_sign(EDGE, [0.5, 1.0], np.array([0.5, 1j])), ValueError),
    (lambda _: flatten_pair(EDGE, [0.5, np.nan], [0.5, -1.0]), ValueError),
    (lambda _: one_sided_status_points(EDGE, np.array([0.5, 1.0 + 1j])), ValueError),
    (lambda path: write_mesh(path / "c", [[0, 0], [1, 0], [0, 1 + 1j]], [(0, 1, 2)]),
     MeshFormatError),
    (lambda path: write_mesh(path / "n", [[0, 0], [1, 0], [0, np.nan]], [(0, 1, 2)]),
     MeshFormatError),
    (lambda _: HodgeStar(0, "signed", np.ones(2)).inner_product([1.0, 1j], [1.0, 1.0]), ValueError),
], ids=["nan-query", "nan-apex", "complex-query", "flatten-nan-apex", "one-sided-complex-apex",
        "write-complex", "write-nan", "inner-product-complex"])
def test_point_routes_reject_complex_and_non_finite_input(call, error, tmp_path):
    # each once answered: a sign, NaN coordinates, a truncated value or a
    # written file that the reader rejects
    with pytest.raises(error, match="real|finite"):
        call(tmp_path)
    assert not list(tmp_path.iterdir())


def test_flatten_pair_folded_equilateral():
    # two unit equilateral triangles sharing an edge, folded to a 90
    # degree dihedral: apexes sit sqrt(3/2) apart in space, sqrt(3) once
    # both heights are laid out flat
    h = np.sqrt(3.0) / 2.0
    facet = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    apex_left = np.array([0.5, h, 0.0])
    apex_right = np.array([0.5, 0.0, h])
    assert np.isclose(np.linalg.norm(apex_left - apex_right), np.sqrt(1.5))
    flat = flatten_pair(facet, apex_left, apex_right)
    assert flat.facet.shape == (2, 2)
    assert np.allclose(flat.facet[:, 1], 0.0)
    assert flat.apex_left[1] < 0.0 < flat.apex_right[1]
    assert np.isclose(
        np.linalg.norm(flat.apex_left - flat.apex_right), np.sqrt(3.0), rtol=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 3))
def test_flatten_pair_is_isometric_per_simplex(seed, n):
    rng = np.random.default_rng(seed)
    facet = rng.uniform(-1.0, 1.0, size=(n, n))
    left = rng.uniform(-1.0, 1.0, n)
    right = rng.uniform(-1.0, 1.0, n)
    if cayley_menger_volume(np.vstack([facet, left])) < 1e-3:
        return
    if cayley_menger_volume(np.vstack([facet, right])) < 1e-3:
        return
    # apexes must land on opposite sides of the shared facet for the
    # layout to make sense as a pair
    if halfspace_sign(facet, left, right) != -1:
        return
    flat = flatten_pair(facet, left, right)
    for apex, image in ((left, flat.apex_left), (right, flat.apex_right)):
        original = np.vstack([facet, apex])
        mapped = np.vstack([flat.facet, image])
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                assert np.isclose(
                    np.linalg.norm(mapped[i] - mapped[j]),
                    np.linalg.norm(original[i] - original[j]),
                    rtol=1e-9,
                )


# the tet of a triangle facet about 1e-16 off collinear in R^3 and an apex:
# its second R diagonal is a few eps (3.1e-16, volume 7.3e-16, no flag), so
# a sum whose order followed the stack size could round it to 0 alone
_NEAR_COLLINEAR_TET = np.array([
    [0.8209908137478626, -0.7813057228326946, -1.4822420054941339],
    [-0.9761128065723194, 1.5056678521431621, -0.6274704979515173],
    [-1.4283632154882067, 2.081196565550565, -0.41236283279255204],
    [1.2402388831579207, 0.3461369218968523, 0.9919898852461907],
])


def _seeded_fixture(name, seed):
    """A fixture family at a seed; structured_square takes none."""
    return generate_fixture(name, **({} if name == "structured_square" else {"seed": seed}))


def _batch_inputs():
    """(label, stack) of every dimension of the 8 fixture families at seeds
    0-2 and of Qhull 2D 300 and 3D 50 meshes, random stacks of k-simplices
    in R^N, and the near-collinear tet beside a regular one."""
    from scipy.spatial import Delaunay

    meshes = {f"{name}/{seed}": _seeded_fixture(name, seed)
              for name in FIXTURE_NAMES for seed in range(3)}
    for dim, size, seed in ((2, 300, 7), (3, 50, 8)):
        points = np.random.default_rng(seed).random((size, dim))
        meshes[f"qhull_{dim}d_{size}"] = build_complex(points, Delaunay(points).simplices)
    for label, mesh in meshes.items():
        for dim in range(mesh.n + 1):
            yield f"{label}/{dim}", mesh.points[mesh.simplices[dim]]
    rng = np.random.default_rng(30)
    for k, ambient in [*itertools.product((1, 2, 3), (2, 3, 4)), (2, 7)]:
        yield f"random/{k}/{ambient}", rng.uniform(-2.0, 2.0, size=(40, k + 1, ambient))
    regular = np.vstack([np.eye(3), np.zeros(3)])
    yield "near-collinear tet", np.stack([_NEAR_COLLINEAR_TET, regular])


def test_a_simplex_alone_gets_the_bits_it_gets_in_a_stack():
    # the frames sum in index order whatever the stack size, so each output
    # of a one-row call equals its row in the stack, bit for bit
    for label, stack in _batch_inputs():
        rows_first = (*batched_circumcenters(stack), batched_volumes(stack))
        r = _factor(stack)[2]  # (k, k, M)
        for i, row in enumerate(stack):
            stacked = (*(out[i : i + 1] for out in rows_first), r[..., i : i + 1])
            alone = (*batched_circumcenters(row[None]), batched_volumes(row[None]),
                     _factor(row[None])[2])
            for a, b in zip(alone, stacked):
                assert a.tobytes() == b.tobytes(), f"{label} row {i}"
    # the near-collinear tet is not flagged, alone or stacked
    _, _, degenerate, _, volumes = batched_circumcenters(_NEAR_COLLINEAR_TET[None])
    assert not degenerate[0] and volumes[0] > 0.0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_point_calls_match_the_complex_cache(name):
    # circumcenter and simplex_volume of a simplex's rows are the complex's
    # cached values, bit for bit, in every dimension
    for seed in range(3):
        mesh = _seeded_fixture(name, seed)
        for dim in range(mesh.n + 1):
            for index, rows in enumerate(mesh.points[mesh.simplices[dim]]):
                alone, cached = circumcenter(rows), mesh.circumcenter_of(dim, index)
                assert alone.center.tobytes() == cached.center.tobytes()
                assert alone.radius.hex() == cached.radius.hex()
                assert simplex_volume(rows).hex() == mesh.volume_of(dim, index).hex()


def test_point_arrays_of_the_wrong_rank_are_refused():
    with pytest.raises(ValueError, match=r"^expected a 2-d point array, got shape \(3,\)$"):
        circumcenter([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match=r"^expected a 1-d point array, got shape \(1, 2\)$"):
        halfspace_sign(EDGE, [[0.5, 1.0]], [0.5, -1.0])
