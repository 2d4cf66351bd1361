"""Every named fixture must actually have its advertised property, and
the same seed must always give the same mesh."""

import logging

import numpy as np
import pytest

from signeddec.complexes import build_complex
from signeddec.delaunay import PAIR_STRICT, SIDE_NO, SIDE_YES, classify_complex
from signeddec.errors import DegeneracyError, FixtureError
from signeddec.fixtures import FIXTURE_NAMES, _has_obtuse_triangle, generate_fixture
from signeddec.hodge import hodge_star, validate_hodge


def _has_obtuse(mesh):
    for t in range(mesh.num_simplices(2)):
        pts = mesh.simplex_points(2, t)
        for k in range(3):
            u = pts[(k + 1) % 3] - pts[k]
            v = pts[(k + 2) % 3] - pts[k]
            if u @ v < 0.0:
                return True
    return False


def _winding_contains(polygon, point):
    """Crossing-count point-in-polygon, written independently of the
    generator's own containment check."""
    x, y = point
    inside = False
    m = len(polygon)
    for i in range(m):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % m]
        if (ay > y) != (by > y):
            if ax + (y - ay) / (by - ay) * (bx - ax) > x:
                inside = not inside
    return inside


def test_fixture_names():
    assert FIXTURE_NAMES == (
        "bad_boundary_square",
        "delaunay_tet_cube",
        "fan_around_edge",
        "non_delaunay_square",
        "obtuse_delaunay_square",
        "perturbed_delaunay_square",
        "structured_square",
        "surface_pairwise_delaunay",
    )


def test_structured_square_counts_and_angles():
    mesh = generate_fixture("structured_square", divisions=4)
    assert mesh.num_simplices(0) == 25
    assert mesh.num_simplices(2) == 32
    for t in range(32):
        pts = mesh.simplex_points(2, t)
        dots = sorted(
            abs((pts[(k + 1) % 3] - pts[k]) @ (pts[(k + 2) % 3] - pts[k]))
            for k in range(3)
        )
        assert dots[0] < 1e-12  # exactly one right angle
    report = classify_complex(mesh, check_duals=False)
    assert not report.is_qualifying
    assert all(s == SIDE_YES for _, _, s in report.boundary_statuses)
    assert len(report.degenerate_pairs) > 0


def test_perturbed_square_qualifies():
    mesh = generate_fixture("perturbed_delaunay_square", divisions=5)
    report = classify_complex(mesh)
    assert report.is_qualifying
    assert report.nonpositive_duals == []
    xs, ys = mesh.points[:, 0], mesh.points[:, 1]
    assert np.isclose(xs.min(), 0.0) and np.isclose(xs.max(), 1.0)
    assert np.isclose(ys.min(), 0.0) and np.isclose(ys.max(), 1.0)


def test_obtuse_square_qualifies_with_obtuse_triangle():
    mesh = generate_fixture("obtuse_delaunay_square", divisions=6)
    assert classify_complex(mesh, check_duals=False).is_qualifying
    assert _has_obtuse(mesh)


def test_obtuse_square_names_itself_when_it_fails():
    message = r"^no qualifying obtuse square in 1 attempts \(seed 0\)$"
    with pytest.raises(FixtureError, match=message):
        generate_fixture("obtuse_delaunay_square", divisions=1, max_tries=1)


def test_obtuse_gate_reads_barycentric_coordinates():
    # a circumcenter outside its triangle (a negative barycentric
    # coordinate) marks an obtuse angle; right angles are not obtuse
    acute = build_complex([[0.0, 0.0], [1.0, 0.0], [0.4, 0.9]], [(0, 1, 2)])
    obtuse = build_complex([[0.0, 0.0], [1.0, 0.0], [0.4, 0.2]], [(0, 1, 2)])
    assert not _has_obtuse_triangle(acute) and _has_obtuse_triangle(obtuse)
    assert not _has_obtuse_triangle(generate_fixture("structured_square"))
    for seed in range(3):
        mesh = generate_fixture("perturbed_delaunay_square", seed=seed)
        assert _has_obtuse_triangle(mesh) == _has_obtuse(mesh)


def test_bad_boundary_square_property():
    mesh = generate_fixture("bad_boundary_square")
    report = classify_complex(mesh)
    assert not report.is_qualifying
    assert all(s == PAIR_STRICT for _, _, s in report.pair_statuses)
    assert len(report.non_one_sided) == 1
    bad_facet = report.non_one_sided[0][0]
    assert np.allclose(mesh.simplex_points(1, bad_facet)[:, 0], 0.0)
    flagged = validate_hodge(hodge_star(mesh, 1))
    assert bad_facet in flagged


def test_non_delaunay_square_property():
    mesh = generate_fixture("non_delaunay_square")
    report = classify_complex(mesh)
    assert len(report.violated_pairs) >= 1
    assert report.degenerate_pairs == []
    assert report.marginal_boundary == []
    width = 1.0
    side_bad = [
        facet
        for facet, _, _ in report.non_one_sided
        if np.allclose(mesh.simplex_points(1, facet)[:, 0], 0.0)
        or np.allclose(mesh.simplex_points(1, facet)[:, 0], width)
    ]
    assert side_bad
    # connectivity is the structured grid, only the points moved
    divisions = 8
    assert mesh.num_simplices(2) == 2 * divisions**2
    assert validate_hodge(hodge_star(mesh, 1)) != []


def test_surface_fixture_is_folded_and_qualifying():
    mesh = generate_fixture("surface_pairwise_delaunay", divisions=4)
    assert mesh.N == 3 and mesh.n == 2
    assert np.ptp(mesh.points[:, 2]) > 0.1  # genuinely nonplanar
    report = classify_complex(mesh)
    assert report.is_qualifying
    assert report.nonpositive_duals == []
    with pytest.raises(FixtureError):
        generate_fixture("surface_pairwise_delaunay", divisions=5)


def test_tet_cube_qualifies():
    mesh = generate_fixture("delaunay_tet_cube", divisions=2)
    assert mesh.n == 3 and mesh.N == 3
    report = classify_complex(mesh, check_duals=False)
    assert report.is_qualifying


@pytest.mark.parametrize("mode", ["crossing", "missing"])
def test_fan_dual_polygon_regimes(mode):
    mesh = generate_fixture("fan_around_edge", mode=mode)
    ring = mesh.num_simplices(3)
    apex_lo, apex_hi = ring, ring + 1
    assert classify_complex(mesh, check_duals=False).is_qualifying
    # the interior edge pierces the mid-plane where its dual polygon
    # either contains that point (crossing) or not (missing)
    centers = np.array(
        [mesh.circumcenter_of(3, t).center for t in range(ring)]
    )
    assert np.abs(centers[:, 2]).max() < 1e-9
    pierce = mesh.points[[apex_lo, apex_hi]].mean(axis=0)
    assert abs(pierce[2]) < 1e-12
    contains = _winding_contains(centers[:, :2], pierce[:2])
    assert contains == (mode == "crossing")


def test_point_in_polygon_matches_the_edge_loop():
    # the fan gate's one array pass over the edges gives the per-edge loop's
    # answer, None near an edge included, on star-shaped polygons at several
    # scales with points anywhere, on an edge, about tol off one, or rounded
    from conftest import scalar_point_in_polygon
    from signeddec.fixtures import _point_in_polygon

    rng = np.random.default_rng(5)
    seen = set()
    for case in range(800):
        m = int(rng.integers(3, 12))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
        radii = rng.uniform(0.3, 2.0, m)
        polygon = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        polygon *= 10.0 ** float(rng.integers(-3, 4))
        i, s = int(rng.integers(m)), rng.uniform()
        edge = polygon[(i + 1) % m] - polygon[i]
        normal = np.array([-edge[1], edge[0]]) / np.hypot(*edge)
        scale = max(1.0, float(np.abs(polygon).max()))
        point = [
            rng.uniform(-2.0, 2.0, 2) * np.abs(polygon).max(),
            polygon[i] + s * edge,
            polygon[i] + s * edge + normal * 1e-9 * scale * rng.uniform(0.5, 1.5),
            np.round(rng.uniform(-2.0, 2.0, 2), 1),
        ][case % 4]
        if case % 4 == 3:
            polygon = np.round(polygon, 1)
        with np.errstate(all="ignore"):  # rounding can repeat a vertex
            expected = scalar_point_in_polygon(tuple(point), polygon)
            assert _point_in_polygon(tuple(point), polygon) is expected
        seen.add(expected)
    assert seen == {None, True, False}


def test_fan_rejects_bad_parameters():
    with pytest.raises(FixtureError):
        generate_fixture("fan_around_edge", mode="sideways")
    with pytest.raises(FixtureError):
        generate_fixture("fan_around_edge", ring=3)


def test_same_seed_same_mesh():
    for name, params in (
        ("perturbed_delaunay_square", {"divisions": 5, "seed": 3}),
        ("non_delaunay_square", {"divisions": 8, "seed": 2}),
        ("fan_around_edge", {"seed": 1}),
        ("fan_around_edge", {"seed": 2, "mode": "missing"}),
        ("obtuse_delaunay_square", {"divisions": 6, "seed": 4}),
        ("bad_boundary_square", {"divisions": 8, "seed": 1}),
        ("surface_pairwise_delaunay", {"divisions": 6, "seed": 5}),
        ("delaunay_tet_cube", {"divisions": 3, "seed": 2}),
        ("structured_square", {"divisions": 3, "width": 2.0}),
    ):
        first = generate_fixture(name, **params)
        second = generate_fixture(name, **params)
        assert np.array_equal(first.points, second.points)
        assert np.array_equal(first.simplices[first.n], second.simplices[second.n])


def test_grid_families_reject_nonpositive_divisions(tmp_path, capsys):
    # every grid family reads its axis from one checked place, so a grid
    # of no cells is an input error (CLI exit 2), never a numpy traceback
    from signeddec.cli import main

    grid_families = [name for name in FIXTURE_NAMES if name != "fan_around_edge"]
    for name in grid_families:
        for divisions in (0, -2):
            with pytest.raises(FixtureError):
                generate_fixture(name, divisions=divisions)
            code = main(
                ["fixture", name, "--divisions", str(divisions), "-o", str(tmp_path / name)]
            )
            assert code == 2
            assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.iterdir())


def test_rectangle_families_reject_empty_sides(tmp_path, capsys):
    # a side of zero, negative or infinite length is an input error that
    # names the side, not a Qhull traceback or a run of failed attempts
    from signeddec.cli import main

    rectangles = [n for n in FIXTURE_NAMES if n not in ("fan_around_edge", "delaunay_tet_cube")]
    for name in rectangles:
        for key, value in (("width", 0.0), ("height", -1.0), ("width", np.inf)):
            with pytest.raises(FixtureError, match=f"^{key} must be positive"):
                generate_fixture(name, divisions=4, **{key: value})
            code = main(["fixture", name, f"--{key}", str(value), "-o", str(tmp_path / name)])
            assert code == 2
            assert capsys.readouterr().err.startswith(f"error: {key} must be positive")
    assert not list(tmp_path.iterdir())


def test_attempt_count_is_logged(caplog):
    with caplog.at_level(logging.DEBUG, logger="signeddec.fixtures"):
        generate_fixture("non_delaunay_square", divisions=16, seed=0)
        with pytest.raises(FixtureError):
            generate_fixture("non_delaunay_square", divisions=16, seed=0, max_tries=2)
    accepted, exhausted = caplog.records
    assert accepted.name == "signeddec.fixtures"
    assert accepted.attempts > 2
    assert accepted.getMessage() == f"accepted attempt {accepted.attempts} of 400"
    assert exhausted.attempts == 2


def test_seeds_differ():
    a = generate_fixture("perturbed_delaunay_square", divisions=5, seed=0)
    b = generate_fixture("perturbed_delaunay_square", divisions=5, seed=1)
    assert not np.array_equal(a.points, b.points)


def test_generate_fixture_rejects_unknown():
    with pytest.raises(FixtureError, match="unknown fixture"):
        generate_fixture("spiral_galaxy")
    with pytest.raises(FixtureError, match="bad parameters"):
        generate_fixture("structured_square", jitter=0.5)


def test_triangulate_refuses_a_repeated_point():
    # Qhull keeps one copy of a repeated point and leaves the other out of
    # every cell
    from signeddec.fixtures import _triangulate

    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DegeneracyError, match="^Qhull dropped a coincident or coplanar point$"):
        _triangulate(points)


def test_grids_match_scalar_draws_bitwise():
    # one batched uniform draw per grid gives the very points, and leaves
    # the generator in the very state, of one scalar draw per coordinate
    from conftest import scalar_grid_2d, scalar_grid_3d
    from signeddec.fixtures import _jittered_grid, _rng

    for seed in range(4):
        for divisions in (1, 2, 3, 5, 8):
            for jitter in (0.0, 0.15, 0.4):
                for locked in ((), (divisions // 2,), (1, divisions - 1)):
                    rng_a, rng_b = _rng(seed, divisions), _rng(seed, divisions)
                    a = _jittered_grid(divisions, (2.0, 1.5), jitter, locked)(rng_a)
                    b = scalar_grid_2d(divisions, 2.0, 1.5, jitter, rng_b, locked_columns=locked)
                    assert a.tobytes() == b.tobytes()
                    assert rng_a.random() == rng_b.random()
                rng_a, rng_b = _rng(seed, divisions), _rng(seed, divisions)
                a = _jittered_grid(divisions, (1.0, 1.0, 1.0), jitter)(rng_a)
                assert a.tobytes() == scalar_grid_3d(divisions, rng_b, jitter).tobytes()
                assert rng_a.random() == rng_b.random()
