"""Pair Delaunay predicates, one-sidedness, circumcenter ordering,
whole-mesh classification."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import special_ortho_group

from conftest import exact_barycentric, exact_pair_powers, incircle_sign, random_rotation
from signeddec import complexes
from signeddec.complexes import build_complex
from signeddec.delaunay import (
    PAIR_DEGENERATE,
    PAIR_STRICT,
    PAIR_VIOLATED,
    SIDE_MARGINAL,
    SIDE_NO,
    SIDE_YES,
    circumcenter_order_points,
    classify_complex,
    is_delaunay_pair,
    is_one_sided,
    one_sided_status_points,
    pair_status_points,
)
from signeddec.errors import DegeneracyError
from signeddec.fixtures import FIXTURE_NAMES, generate_fixture
from signeddec.geometry import batched_circumcenters, flatten_pair
from signeddec.signed_dual import dual_table, dual_volumes

EDGE = np.array([[0.0, 0.0], [1.0, 0.0]])


def _apex(mesh, facet, top):
    """The vertex of a top that one of its facets omits, found from the two
    vertex rows alone."""
    (apex,) = set(mesh.simplices[mesh.n][top].tolist()) - set(
        mesh.simplices[mesh.n - 1][facet].tolist()
    )
    return apex


def _equilateral_strip():
    """Two rows of equilateral triangles: strictly Delaunay, every
    boundary edge one-sided, all angles acute."""
    h = np.sqrt(3.0) / 2.0
    points = np.array([
        [0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
        [0.5, h], [1.5, h], [2.5, h],
    ])
    return build_complex(points, [(0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4)])


def test_polyline_one_point_facets():
    # n = 1 in R^2: every facet is one vertex, whose frame has no columns
    points = np.array([[0.0, 0.0], [1.0, 0.5], [2.5, 0.2], [3.0, 1.5]])
    mesh = build_complex(points, [(0, 1), (1, 2), (2, 3)])
    tops, columns = mesh.facet_cofaces
    apexes = np.where(tops >= 0, mesh.simplices[mesh.n][tops, columns], -1)
    internal = np.flatnonzero(tops[:, 1] >= 0)
    assert internal.tolist() == [1, 2]
    for facet in internal:
        facet_points = mesh.simplex_points(0, facet)
        left, right = mesh.points[apexes[facet]]
        flat = flatten_pair(facet_points, left, right)
        assert flat.facet.tolist() == [[0.0]]
        assert flat.apex_left.tolist() == [-np.linalg.norm(left - facet_points[0])]
        assert flat.apex_right.tolist() == [np.linalg.norm(right - facet_points[0])]
        status = pair_status_points(facet_points, left, right)
        assert status == is_delaunay_pair(mesh, *tops[facet], facet) == PAIR_STRICT
    for end in np.flatnonzero(tops[:, 1] < 0):
        top, apex = tops[end, 0], apexes[end, 0]
        status = one_sided_status_points(mesh.simplex_points(0, end), mesh.points[apex])
        assert status == is_one_sided(mesh, top, end) == SIDE_YES


def _flat_pairs(rng, n, count):
    """(mesh, facet, left, right) of ``count`` buildable pairs in R^n whose
    apex heights over a standard-normal facet range from 1e-6 to 1."""
    pairs = []
    while len(pairs) < count:
        facet = rng.standard_normal((n, n))
        normal = np.linalg.qr((facet[1:] - facet[0]).T, mode="complete")[0][:, -1]
        weights = rng.dirichlet(np.ones(n), 2) + 0.3 * rng.standard_normal((2, n))
        feet = (weights / weights.sum(axis=1, keepdims=True)) @ facet
        left, right = feet + np.outer([-1.0, 1.0] * 10.0 ** rng.uniform(-6, 0, 2), normal)
        try:
            mesh = build_complex(
                np.vstack([facet, left, right]), [tuple(range(n + 1)), (*range(n), n + 1)]
            )
        except DegeneracyError:
            continue
        pairs.append((mesh, facet, left, right))
    return pairs


@pytest.mark.parametrize("n", [2, 3])
def test_pair_routes_agree_on_flat_pairs(n):
    # the tolerance decides only the status: no flat pair that the complex
    # route classifies makes the point routes raise, at the default or at 1e-3,
    # and the centers are in order exactly on the strict ones
    for mesh, facet, left, right in _flat_pairs(np.random.default_rng(20 + n), n, 150):
        index = mesh.simplex_index(n - 1, range(n))
        _, order_correct = circumcenter_order_points(facet, left, right)
        for tol in (None, 1e-3):
            expected = is_delaunay_pair(mesh, 0, 1, index, tol=tol)
            assert pair_status_points(facet, left, right, tol=tol) == expected
            assert expected == PAIR_DEGENERATE or order_correct == (expected == PAIR_STRICT)


@st.composite
def planar_pair(draw):
    """Random facet with apexes on opposite sides, generic position."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    facet = rng.uniform(-1.0, 1.0, size=(2, 2))
    left = rng.uniform(-1.0, 1.0, 2)
    right = rng.uniform(-1.0, 1.0, 2)
    edge = facet[1] - facet[0]
    if np.linalg.norm(edge) < 0.2:
        return None
    normal = np.array([-edge[1], edge[0]])
    side_left = normal @ (left - facet[0])
    side_right = normal @ (right - facet[0])
    scale = np.linalg.norm(edge)
    if abs(side_left) < 0.05 * scale or abs(side_right) < 0.05 * scale:
        return None
    if side_left * side_right > 0:
        right = right - 2.0 * (side_right / (normal @ normal)) * normal
    return facet, left, right


def test_violated_pair_known():
    # apex 1.1 from the circumcenter (0.5, -1.2), circumradius 1.3
    status = pair_status_points(
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        np.array([0.5, 0.1]),
        np.array([0.5, -0.1]),
    )
    assert status == PAIR_VIOLATED


def test_strict_kite_known():
    status = pair_status_points(EDGE, np.array([0.5, 1.0]), np.array([0.5, -1.0]))
    assert status == PAIR_STRICT


def test_cocircular_square_degenerate():
    status = pair_status_points(
        np.array([[0.0, 0.0], [1.0, 1.0]]),
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
    )
    assert status == PAIR_DEGENERATE


def test_equilateral_rhombus_strict():
    h = np.sqrt(3.0) / 2.0
    status = pair_status_points(EDGE, np.array([0.5, h]), np.array([0.5, -h]))
    assert status == PAIR_STRICT


def test_folded_pair_same_status_as_flat():
    # folding two equilateral triangles about the shared edge must not
    # change the pair status: flattening undoes the fold isometrically
    h = np.sqrt(3.0) / 2.0
    facet = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    status = pair_status_points(
        facet, np.array([0.5, h, 0.0]), np.array([0.5, 0.0, h])
    )
    assert status == PAIR_STRICT


@settings(max_examples=100, deadline=None)
@given(planar_pair())
def test_pair_status_matches_incircle_determinant(pair):
    if pair is None:
        return
    facet, left, right = pair
    status = pair_status_points(facet, left, right)
    if status == PAIR_DEGENERATE:
        return
    oracle = incircle_sign(facet[0], facet[1], left, right)
    assert status == (PAIR_VIOLATED if oracle == 1 else PAIR_STRICT)


def test_one_sided_cases():
    assert one_sided_status_points(EDGE, np.array([0.5, 0.7])) == SIDE_YES
    # obtuse apex: circumcenter at (2, -3.75), opposite the apex
    long_edge = np.array([[0.0, 0.0], [4.0, 0.0]])
    assert one_sided_status_points(long_edge, np.array([2.0, 0.5])) == SIDE_NO
    # hypotenuse of a right triangle: circumcenter on the facet
    hyp = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert one_sided_status_points(hyp, np.array([0.0, 0.0])) == SIDE_MARGINAL


@pytest.mark.parametrize("n", [2, 3])
def test_one_sided_points_classify_every_buildable_facet(n):
    # apexes from 1e-7 to 1 over standard-normal facets: the point route
    # classifies every facet that builds, as is_one_sided does. The two
    # share batched_circumcenters, so the exact apex coordinate is the
    # independent check wherever it clears the tolerance
    rng = np.random.default_rng(24 + n)
    eps, statuses = 1e-10, []
    for height in np.geomspace(1e-7, 1.0, 8):
        for _ in range(25):
            facet = rng.standard_normal((n, n))
            normal = np.linalg.svd(facet[1:] - facet[0])[2][-1]
            offset = rng.standard_normal(n)
            offset -= (offset @ normal) * normal
            points = np.vstack([facet, facet.mean(axis=0) + offset + height * normal])
            try:
                mesh = build_complex(points, [list(range(n + 1))])
            except DegeneracyError:
                continue
            status = one_sided_status_points(facet, points[-1], tol=eps)
            assert status == is_one_sided(mesh, 0, mesh.simplex_index(n - 1, range(n)), tol=eps)
            exact = exact_barycentric(points)[-1]
            if abs(exact) > eps:
                assert status == (SIDE_YES if exact > 0 else SIDE_NO)
            statuses.append(status)
    assert len(statuses) > 150 and {SIDE_YES, SIDE_NO} <= set(statuses)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_one_sided_is_oriented_gabriel(seed):
    # one-sided iff the apex lies strictly outside the open ball whose
    # diameter is the facet
    rng = np.random.default_rng(seed)
    facet = rng.uniform(-1.0, 1.0, size=(2, 2))
    apex = rng.uniform(-1.0, 1.0, 2)
    if np.linalg.norm(facet[1] - facet[0]) < 0.2:
        return
    mid = facet.mean(axis=0)
    gap = np.linalg.norm(apex - mid)
    half = np.linalg.norm(facet[1] - mid)
    edge = facet[1] - facet[0]
    reach = apex - facet[0]
    area2 = abs(edge[0] * reach[1] - edge[1] * reach[0])
    if abs(gap - half) < 1e-6 or area2 < 1e-3:
        return
    status = one_sided_status_points(facet, apex)
    assert status == (SIDE_YES if gap > half else SIDE_NO)


def test_order_symmetric_rhombus():
    h = np.sqrt(3.0) / 2.0
    data, order_correct = circumcenter_order_points(
        EDGE, np.array([0.5, h]), np.array([0.5, -h])
    )
    assert order_correct
    assert np.isclose(data.center_offset_left, -data.center_offset_right)
    assert data.center_offset_right > 0.0
    assert np.isclose(data.facet_radius, 0.5)


def test_order_wrong_on_violated_pair():
    _, order_correct = circumcenter_order_points(
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        np.array([0.5, 0.1]),
        np.array([0.5, -0.1]),
    )
    assert not order_correct


@settings(max_examples=150, deadline=None)
@given(planar_pair())
def test_order_identity_and_equivalence(pair):
    """The axis positions satisfy the circumsphere identity
    r_facet^2 = r_apex^2 + h_apex^2 - 2 h_apex h_center, and correct
    ordering holds exactly for strict pairs."""
    if pair is None:
        return
    facet, left, right = pair
    data, order_correct = circumcenter_order_points(facet, left, right)
    lhs = data.facet_radius**2
    rhs = (
        data.apex_radial_distance**2
        + data.apex_offset**2
        - 2.0 * data.apex_offset * data.center_offset_right
    )
    assert np.isclose(lhs, rhs, rtol=1e-9)
    status = pair_status_points(facet, left, right)
    if status != PAIR_DEGENERATE:
        assert order_correct == (status == PAIR_STRICT)


def test_pair_predicates_on_complex_match_point_route():
    # the complex-level entry point runs the power test on the cached
    # facet and top geometry, for planar meshes and embedded surfaces
    # alike; it must agree with the flattening route on every internal facet
    from signeddec.fixtures import generate_fixture

    for mesh in (
        generate_fixture("non_delaunay_square", divisions=6),
        generate_fixture("surface_pairwise_delaunay"),
    ):
        for facet, (left, right) in mesh.internal_faces():
            facet_pts = mesh.simplex_points(1, facet)
            apexes = {top: mesh.points[_apex(mesh, facet, top)] for top in (left, right)}
            assert is_delaunay_pair(mesh, left, right, facet) == pair_status_points(
                facet_pts, apexes[left], apexes[right]
            )
            # symmetric in the order of the two tops
            assert is_delaunay_pair(mesh, left, right, facet) == is_delaunay_pair(
                mesh, right, left, facet
            )


def test_folded_over_pair_same_status_in_plane_and_lifted():
    # both apexes on one side of the shared edge: the pair is judged
    # unfolded, whatever the ambient dimension
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.3], [0.5, 2.0]])
    expected = pair_status_points(points[:2], points[2], points[3])
    assert expected == PAIR_STRICT
    for embedded in (points, np.hstack([points, np.zeros((4, 1))])):
        mesh = build_complex(embedded, [(0, 1, 2), (0, 1, 3)])
        report = classify_complex(mesh)
        assert [status for _, _, status in report.pair_statuses] == [expected]
        assert is_delaunay_pair(mesh, 0, 1, mesh.simplex_index(1, (0, 1))) == expected


SLIVER = np.array([[0.0, 0.0], [1.0, 0.0], [0.6234567, 1e-9], [0.5, -1.0]])


def _flagging(rows):
    """``batched_circumcenters`` that also reports degenerate every simplex
    whose vertex rows equal ``rows``: a circumcenter that fails its check,
    which no simplex of a complex that builds is known to do."""

    def flagged(pts):
        centers, radii, degenerate, barycentric, volumes = batched_circumcenters(pts)
        if pts.shape[1:] == rows.shape:
            degenerate = degenerate | (pts == rows).all(axis=(1, 2))
        return centers, radii, degenerate, barycentric, volumes

    return flagged


def test_degenerate_circumsphere_makes_every_pair_degenerate(monkeypatch):
    # the 1e-9 sliver's circumcenter passes its check, and the pair is
    # violated: the far apex lies inside the sliver's circumcircle
    assert incircle_sign(*SLIVER) == 1
    lifted = np.hstack([SLIVER, np.zeros((4, 1))])
    for embedded in (SLIVER, lifted):
        mesh = build_complex(embedded, [(0, 1, 2), (0, 1, 3)])
        assert not mesh.geometry(2)[3].any()
        report = classify_complex(mesh, check_duals=False)
        assert [status for _, _, status in report.pair_statuses] == [PAIR_VIOLATED]
    # a sliver whose circumcenter fails the check: the cached geometry
    # names it, and classification reports the pair degenerate
    for embedded in (SLIVER, lifted):
        monkeypatch.setattr(complexes, "batched_circumcenters", _flagging(embedded[:3]))
        mesh = build_complex(embedded, [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(DegeneracyError, match=r"2-simplex \(0, 1, 2\)"):
            mesh.circumcenters(2)
        report = classify_complex(mesh, check_duals=False)
        assert [status for _, _, status in report.pair_statuses] == [PAIR_DEGENERATE]


def test_degenerate_circumsphere_spoils_only_the_simplices_touching_it(monkeypatch):
    # 30 random points plus a disjoint copy of the sliver pair above, its
    # sliver flagged: only the sliver's pair and boundary edges may lose
    # their real status
    from scipy.spatial import Delaunay

    points = np.random.default_rng(11).uniform(size=(30, 2))
    cells = Delaunay(points).simplices
    sliver = SLIVER + [5.0, 0.0]
    monkeypatch.setattr(complexes, "batched_circumcenters", _flagging(sliver[:3]))
    joined = build_complex(
        np.vstack([points, sliver]), np.vstack([cells, [(30, 31, 32), (30, 31, 33)]])
    )
    alone = build_complex(points, cells)

    def statuses(mesh, rows):
        facets = mesh.simplices[1]
        return {tuple(facets[f].tolist()): status for f, _, status in rows}

    report = classify_complex(joined, check_duals=False)
    expected = classify_complex(alone, check_duals=False)
    pairs = statuses(joined, report.pair_statuses)
    sides = statuses(joined, report.boundary_statuses)
    assert pairs.pop((30, 31)) == PAIR_DEGENERATE
    assert pairs == statuses(alone, expected.pair_statuses)
    assert set(pairs.values()) == {PAIR_STRICT}
    assert [sides.pop(edge) for edge in ((30, 32), (31, 32))] == [SIDE_MARGINAL] * 2
    assert [sides.pop(edge) for edge in ((30, 33), (31, 33))] == [SIDE_YES] * 2
    assert sides == statuses(alone, expected.boundary_statuses)
    assert {SIDE_YES, SIDE_NO} <= set(sides.values())
    # the signed duals still refuse the degenerate dimension
    with pytest.raises(DegeneracyError):
        classify_complex(joined)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_boundary_statuses_match_per_facet_one_sidedness(name):
    # classify_complex reads each boundary facet's link-table column from
    # facet_cofaces and is_one_sided finds it by step_sign's face-table
    # search; the half-space route recomputes the side from coordinates
    mesh = generate_fixture(name)
    for tol in (None, 1e-3):
        report = classify_complex(mesh, tol=tol, check_duals=False)
        assert len(report.boundary_statuses) == len(mesh.boundary_faces())
        for facet, top, status in report.boundary_statuses:
            assert status == is_one_sided(mesh, top, facet, tol=tol)
            apex = mesh.points[_apex(mesh, facet, top)]
            facet_points = mesh.simplex_points(mesh.n - 1, facet)
            assert status == one_sided_status_points(facet_points, apex, tol=tol)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_report_views_match_rows_built_one_at_a_time(name):
    # the report holds arrays; its list views must be the tuples of plain
    # ints, strings and floats that one pair, facet and dual at a time give
    mesh = generate_fixture(name)
    for tol in (None, 1e-3):
        report = classify_complex(mesh, tol=tol)
        pairs = [
            (f, tops, is_delaunay_pair(mesh, *tops, f, tol=tol))
            for f, tops in mesh.internal_faces()
        ]
        sides = [
            (f, top, is_one_sided(mesh, top, f, tol=tol)) for f, top in mesh.boundary_faces()
        ]
        duals = [
            (dim, i, value)
            for dim in range(mesh.n + 1)
            for i, value in enumerate(dual_volumes(mesh, dim, tol=tol)[0].tolist())
            if value <= 0.0
        ]
        views = (report.pair_statuses, report.boundary_statuses, report.nonpositive_duals)
        assert views == (pairs, sides, duals)
        assert repr(views) == repr((pairs, sides, duals))  # no numpy scalars
        assert report.violated_pairs == [row for row in pairs if row[2] == PAIR_VIOLATED]
        assert report.degenerate_pairs == [row for row in pairs if row[2] == PAIR_DEGENERATE]
        assert report.non_one_sided == [row for row in sides if row[2] == SIDE_NO]
        assert report.marginal_boundary == [row for row in sides if row[2] == SIDE_MARGINAL]
        qualifying = all(row[2] == PAIR_STRICT for row in pairs) and all(
            row[2] == SIDE_YES for row in sides
        )
        assert report.is_qualifying == qualifying
        assert report.verdict == ("qualifying" if qualifying else "not qualifying")
        assert report.as_dict()["pairwise_delaunay"] == [
            {"facet": f, "tops": list(tops), "status": status} for f, tops, status in pairs
        ]
        assert not classify_complex(mesh, tol=tol, check_duals=False).nonpositive_duals


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_translation_flags_no_circumcenter_and_keeps_statuses(name):
    # the equidistance check measures from each simplex's first vertex, so
    # moving a unit-size mesh 1e6 away flags nothing and keeps every status
    # and every negative-piece count
    mesh = generate_fixture(name)
    moved = build_complex(mesh.points + 1e6, mesh.simplices[mesh.n])
    for dim in range(moved.n + 1):
        assert not moved.geometry(dim)[3].any()
        np.testing.assert_array_equal(
            dual_table(moved, dim).num_negative_pieces, dual_table(mesh, dim).num_negative_pieces
        )
    report, moved_report = classify_complex(mesh), classify_complex(moved)
    assert moved_report.pair_statuses == report.pair_statuses
    assert moved_report.boundary_statuses == report.boundary_statuses
    assert moved_report.verdict == report.verdict


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rotations_keep_statuses_and_negative_pieces(name):
    # every sign is read from barycentric coordinates, volumes and flags,
    # which rotation keeps: five fixed rotations of each mesh at seeds 0-2
    # keep every pair and boundary sign, the verdict and every
    # negative-piece count
    for params in [{}] if name == "structured_square" else [{"seed": s} for s in range(3)]:
        mesh = generate_fixture(name, **params)
        report = classify_complex(mesh)
        counts = [dual_table(mesh, p).num_negative_pieces for p in range(mesh.n + 1)]
        for k in range(5):
            rotation = special_ortho_group(dim=mesh.N, seed=k).rvs()
            turned = build_complex(mesh.points @ rotation.T, mesh.simplices[mesh.n])
            turned_report = classify_complex(turned)
            np.testing.assert_array_equal(turned_report.pair_signs, report.pair_signs)
            np.testing.assert_array_equal(turned_report.boundary_signs, report.boundary_signs)
            assert turned_report.verdict == report.verdict
            for p in range(mesh.n + 1):
                np.testing.assert_array_equal(dual_table(turned, p).num_negative_pieces, counts[p])


def _near_tie_grids():
    """(points, cells) of jittered structured grids, with their grid
    diagonals and with Qhull's: every diagonal pair lies within 1e-13 to
    1e-9 (relative) of cocircular, across the tolerance band."""
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(7)
    for k, jitter in enumerate(np.logspace(-13, -9, 60)):
        divisions = (2, 3, 4)[k % 3]
        grid = generate_fixture("structured_square", divisions=divisions)
        inner = ((grid.points > 0.0) & (grid.points < 1.0)).all(axis=1)[:, None]
        shift = inner * (jitter / divisions) * rng.uniform(-1.0, 1.0, grid.points.shape)
        points = grid.points + shift
        for cells in (grid.simplices[2], Delaunay(points).simplices):
            yield points, cells


def test_near_tie_grids_match_point_route_and_stay_positive():
    # Near-tie grids put their diagonal pairs across the tolerance band: the
    # batched statuses must match the point route, also after a random
    # rotation into R^3, and no qualifying mesh may have a nonpositive
    # signed dual.
    turns = np.random.default_rng(8)
    seen, qualifying = set(), 0
    for points, cells in _near_tie_grids():
        mesh = build_complex(points, cells)
        report = classify_complex(mesh)
        for facet, (left, right), status in report.pair_statuses:
            apexes = [_apex(mesh, facet, top) for top in (left, right)]
            assert status == pair_status_points(mesh.simplex_points(1, facet), *mesh.points[apexes])
            seen.add(status)
        lifted = np.hstack([points, np.zeros((len(points), 1))]) @ random_rotation(turns, 3).T
        lifted_report = classify_complex(build_complex(lifted, cells), check_duals=False)
        assert lifted_report.pair_statuses == report.pair_statuses
        if report.is_qualifying:
            qualifying += 1
            assert report.nonpositive_duals == []
    assert seen == {PAIR_STRICT, PAIR_DEGENERATE, PAIR_VIOLATED}
    assert qualifying > 0


def _exact_status(facet, left, right, eps=1e-10):
    """The status of an unfolded pair from its exact powers where both
    relative margins sqrt(1 + power / r^2) - 1 clear the band [-eps, eps],
    else None."""
    eps = Fraction(eps)
    relative = [power / radius2 for power, radius2 in exact_pair_powers(facet, left, right)]
    if min(relative) > 2 * eps + eps**2:
        return PAIR_STRICT
    if max(relative) < eps**2 - 2 * eps:
        return PAIR_VIOLATED
    return None


def test_pair_routes_match_exact_powers():
    # the exact stage of a robust in-sphere predicate, the one check of pair
    # statuses that shares no floating-point step with either route: where
    # both exact margins clear the band, both routes give the exact status.
    # On the grids it takes the near ties, the pairs across a cell diagonal
    # (an edge neither horizontal nor vertical); the others are far from it
    pairs = [
        (mesh, (0, 1), mesh.simplex_index(n - 1, range(n)), facet, left, right)
        for n in (2, 3)
        for mesh, facet, left, right in _flat_pairs(np.random.default_rng(20 + n), n, 150)
    ]
    for points, cells in _near_tie_grids():
        mesh = build_complex(points, cells)
        for facet, tops in mesh.internal_faces():
            facet_points = mesh.simplex_points(1, facet)
            if np.abs(facet_points[1] - facet_points[0]).min() > 1e-6:
                apexes = [mesh.points[_apex(mesh, facet, top)] for top in tops]
                pairs.append((mesh, tops, facet, facet_points, *apexes))
    seen = []
    for mesh, tops, index, facet, left, right in pairs:
        exact = _exact_status(facet, left, right)
        if exact is not None:
            assert pair_status_points(facet, left, right) == exact
            assert is_delaunay_pair(mesh, *tops, index) == exact
        seen.append(exact)
    assert {PAIR_STRICT, PAIR_VIOLATED, None} <= set(seen)


# A triangle facet in R^3 whose third point lies about 1e-17 of its edges
# off the line of the other two: the producer finds no circumcenter for it,
# alone or in any stack, but finds one for each of its two tets (a seeded
# search's find).
FLAGGED_FACET = np.array([
    [-0.3505002809933333, -0.6220636988728692, 0.08915334364609695],
    [-0.18921894732163347, 0.7437518504494558, 1.296576121715054],
    [-0.17985815714739378, 0.8230239675807864, 1.3666551012211885],
])
FLAGGED_FACET_APEXES = (
    np.array([-0.8626800916972157, -1.7092551910123994, 0.7615543010644514]),
    np.array([1.9055055380320538, 1.836578328974194, -0.470980041630388]),
)


def test_point_routes_on_a_facet_without_circumcenter():
    # the pair routes raise, whatever the tolerance; the side route reads
    # the facet as marginal, as the link table does
    assert batched_circumcenters(FLAGGED_FACET[None])[2].all()
    tops = np.stack([np.vstack([FLAGGED_FACET, apex]) for apex in FLAGGED_FACET_APEXES])
    assert not batched_circumcenters(tops)[2].any()
    message = re.escape("facet vertices are (nearly) affinely dependent, no circumcenter")
    for tol in (None, 1e-3, 0.0):
        with pytest.raises(DegeneracyError, match=message):
            pair_status_points(FLAGGED_FACET, *FLAGGED_FACET_APEXES, tol=tol)
        for apex in FLAGGED_FACET_APEXES:
            assert one_sided_status_points(FLAGGED_FACET, apex, tol=tol) == SIDE_MARGINAL
    with pytest.raises(DegeneracyError, match=message):
        circumcenter_order_points(FLAGGED_FACET, *FLAGGED_FACET_APEXES)


@pytest.mark.parametrize("apexes", [
    ([2.0, 0.0], [0.5, -1.0]),
    ([0.5, 1.0], [-3.0, 0.0]),
    ([0.5, 1.0], [0.5, 1e-300]),
], ids=["left-collinear", "right-collinear", "right-underflow"])
def test_point_routes_on_a_top_without_circumcenter(apexes):
    # the first top the producer flags is named, its rows as given
    flagged = next(
        apex for apex in apexes if batched_circumcenters(np.vstack([EDGE, apex])[None])[2][0]
    )
    message = re.escape(
        f"affinely dependent vertices, no circumcenter: {np.vstack([EDGE, flagged]).tolist()}"
    )
    for route in (pair_status_points, circumcenter_order_points):
        with pytest.raises(DegeneracyError, match=message):
            route(EDGE, *apexes)
    with pytest.raises(DegeneracyError, match=message):
        one_sided_status_points(EDGE, flagged)


def test_pair_rejects_non_neighbors():
    mesh = _equilateral_strip()
    facet = mesh.simplex_index(1, (0, 1))
    with pytest.raises(ValueError):
        is_delaunay_pair(mesh, 0, 2, facet)


def test_classify_acute_strip_qualifying():
    report = classify_complex(_equilateral_strip())
    assert report.is_qualifying
    assert report.verdict == "qualifying"
    assert report.nonpositive_duals == []
    assert all(s == PAIR_STRICT for _, _, s in report.pair_statuses)
    assert all(s == SIDE_YES for _, _, s in report.boundary_statuses)


def test_classify_structured_grid_degenerate():
    from signeddec.fixtures import structured_square

    report = classify_complex(structured_square(divisions=3))
    assert not report.is_qualifying
    # every diagonal sits on a cocircular square
    assert len(report.degenerate_pairs) > 0
    assert report.violated_pairs == []


def test_classify_complex_level_one_sidedness():
    # single obtuse triangle: the long edge's circumcenter falls outside
    points = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]])
    mesh = build_complex(points, [(0, 1, 2)])
    report = classify_complex(mesh)
    statuses = {
        mesh.simplex_vertices(1, f): s for f, _, s in report.boundary_statuses
    }
    assert statuses[(0, 1)] == SIDE_NO
    assert statuses[(0, 2)] == SIDE_YES
    assert statuses[(1, 2)] == SIDE_YES
    assert is_one_sided(mesh, 0, mesh.simplex_index(1, (0, 1))) == SIDE_NO
    assert not report.is_qualifying
    assert report.as_dict()["verdict"] == "not qualifying"


def test_is_one_sided_rejects_facets_that_are_not_boundary_facets_of_the_top():
    # internal facet 3 is shared by tops 0 and 2, and once read "marginal"
    # from one and "yes" from the other
    mesh = generate_fixture("obtuse_delaunay_square")
    assert mesh.facet_cofaces[0][3].tolist() == [0, 2]
    for top in (0, 2, 1):
        with pytest.raises(ValueError, match=r"^facet 3 is not a boundary facet of simplex"):
            is_one_sided(mesh, top, 3)
    facet, top = mesh.boundary_faces()[0]
    assert is_one_sided(mesh, top, facet) == SIDE_YES
    with pytest.raises(ValueError, match="not a boundary facet"):
        is_one_sided(mesh, top + 1, facet)


def test_classify_report_dict_shape():
    report = classify_complex(_equilateral_strip())
    data = report.as_dict()
    assert set(data) == {
        "verdict", "pairwise_delaunay", "one_sided", "nonpositive_duals",
    }
    assert all(
        set(row) == {"facet", "tops", "status"} for row in data["pairwise_delaunay"]
    )


def test_circumcenter_order_on_complex():
    mesh = _equilateral_strip()
    facet, (left, right) = mesh.internal_faces()[0]
    apexes = [_apex(mesh, facet, top) for top in (left, right)]
    data, order_correct = circumcenter_order_points(
        mesh.simplex_points(1, facet), *mesh.points[apexes]
    )
    assert order_correct
