"""Every named fixture must actually have its advertised property, and
the same seed must always give the same mesh."""

import logging

import numpy as np
import pytest

from signeddec.delaunay import PAIR_STRICT, SIDE_NO, SIDE_YES, classify_complex
from signeddec.errors import FixtureError
from signeddec.fixtures import FIXTURE_NAMES, generate_fixture
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


def test_grids_match_scalar_draws_bitwise():
    # one batched uniform draw per grid gives the very points, and leaves
    # the generator in the very state, of one scalar draw per coordinate
    from conftest import scalar_grid_2d, scalar_grid_3d
    from signeddec.fixtures import _grid_2d, _grid_3d, _rng

    for seed in range(4):
        for divisions in (1, 2, 3, 5, 8):
            for jitter in (0.0, 0.15, 0.4):
                for locked in ((), (divisions // 2,), (1, divisions - 1)):
                    args = (divisions, 2.0, 1.5, jitter)
                    rng_a, rng_b = _rng(seed, divisions), _rng(seed, divisions)
                    a = _grid_2d(*args, rng_a, locked_columns=locked)
                    b = scalar_grid_2d(*args, rng_b, locked_columns=locked)
                    assert a.tobytes() == b.tobytes()
                    assert rng_a.random() == rng_b.random()
                rng_a, rng_b = _rng(seed, divisions), _rng(seed, divisions)
                a = _grid_3d(divisions, rng_a, jitter)
                assert a.tobytes() == scalar_grid_3d(divisions, rng_b, jitter).tobytes()
                assert rng_a.random() == rng_b.random()
