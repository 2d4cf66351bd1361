"""Deterministic mesh fixtures with verified properties.

Random generators derive their RNG from (seed, attempt) and re-verify the
advertised property after each attempt (strict pairwise-Delaunay pairs,
one-sided boundary, presence of an obtuse triangle, a planted defect, ...),
so a returned mesh always has the property and the same seed always gives
the same mesh. Qhull does the raw triangulations; all property checks go
through this package's own predicates.
"""

import numpy as np
from scipy.spatial import Delaunay as _QhullDelaunay

from .complexes import build_complex
from .delaunay import (
    PAIR_STRICT,
    SIDE_NO,
    SIDE_YES,
    classify_complex,
)
from .errors import DegeneracyError, FixtureError, NonManifoldError

__all__ = ["FIXTURE_NAMES", "generate_fixture"]


def _rng(seed, attempt):
    parts = tuple(int(s) for s in seed) if isinstance(seed, tuple) else (int(seed),)
    return np.random.default_rng(parts + (int(attempt), 0x5D))


def _jittered(points, free, scale, rng):
    """points plus scale * U(-1, 1) on each free coordinate, drawn in one
    call in row-major order: per point, x before y before z."""
    shift = np.zeros_like(points)
    draws = rng.uniform(-1.0, 1.0, size=int(free.sum()))
    shift[free] = np.broadcast_to(scale, points.shape)[free] * draws
    return points + shift


def _grid_2d(divisions, width, height, jitter, rng, locked_columns=()):
    """(divisions+1)^2 grid points; interior points jitter in both
    coordinates, side points only along their side, corners stay put, so
    the domain remains the exact rectangle. Columns in ``locked_columns``
    keep their exact x (used to reserve a straight fold line)."""
    xs = np.linspace(0.0, width, divisions + 1)
    ys = np.linspace(0.0, height, divisions + 1)
    lines = np.arange(divisions + 1)
    inner = (lines > 0) & (lines < divisions)
    free_x = inner & ~np.isin(lines, list(locked_columns))
    grid = np.stack(np.meshgrid(xs, ys), axis=-1)
    free = np.stack(np.meshgrid(free_x, inner), axis=-1)
    scale = jitter * np.array([width / divisions, height / divisions])
    return _jittered(grid.reshape(-1, 2), free.reshape(-1, 2), scale, rng)


def _grid_3d(divisions, rng, jitter):
    """(divisions+1)^3 points of the unit cube, x fastest; every coordinate
    strictly inside (0, 1) jitters."""
    axis = np.linspace(0.0, 1.0, divisions + 1)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij")[::-1], axis=-1).reshape(-1, 3)
    return _jittered(grid, (grid > 0.0) & (grid < 1.0), jitter * (1.0 / divisions), rng)


def _triangulate(points):
    """Qhull Delaunay cells; None if any input point was dropped."""
    cells = _QhullDelaunay(points).simplices
    if len(np.unique(cells)) != len(points):
        return None
    return cells


def _statuses_ok(report, allow_boundary_no=0):
    """All internal pairs strict; boundary one-sided except exactly
    ``allow_boundary_no`` facets with status "no" (and none marginal)."""
    if any(s != PAIR_STRICT for _, _, s in report.pair_statuses):
        return False
    sides = [s for _, _, s in report.boundary_statuses]
    return (
        sides.count(SIDE_NO) == allow_boundary_no
        and all(s in (SIDE_YES, SIDE_NO) for s in sides)
    )


def _has_obtuse_triangle(complex_, margin=1e-9):
    pts = complex_.points[complex_.simplices[complex_.n]]
    u = np.roll(pts, -1, axis=1) - pts
    v = np.roll(pts, -2, axis=1) - pts
    cosine = (u * v).sum(axis=-1) / (np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1))
    return bool((cosine < -margin).any())


def structured_square(divisions=4, width=1.0, height=1.0):
    """Uniform grid of right isoceles triangles (all diagonals parallel).

    Deliberately marginal: every diagonal pair is exactly cocircular, so
    the diagonal edges get zero signed dual length and the mesh does not
    qualify. Useful as the canonical boundary case.
    """
    xs = np.linspace(0.0, width, divisions + 1)
    ys = np.linspace(0.0, height, divisions + 1)
    points = np.array([(x, y) for y in ys for x in xs])
    cells = []
    stride = divisions + 1
    for j in range(divisions):
        for i in range(divisions):
            a = j * stride + i
            b = a + 1
            c = b + stride
            d = a + stride
            cells.append((a, b, c))
            cells.append((a, c, d))
    return build_complex(points, cells)


def _square_attempts(divisions, width, height, jitter, seed, max_tries, drop_left=False):
    for attempt in range(max_tries):
        rng = _rng(seed, attempt)
        points = _grid_2d(divisions, width, height, jitter, rng)
        if drop_left:
            keep = ~(
                (points[:, 0] == 0.0)
                & (points[:, 1] > 0.0)
                & (points[:, 1] < height)
            )
            points = points[keep]
        cells = _triangulate(points)
        if cells is None:
            continue
        try:
            complex_ = build_complex(points, cells)
        except (DegeneracyError, NonManifoldError):
            continue
        yield complex_


def perturbed_delaunay_square(
    divisions=6, width=1.0, height=1.0, jitter=0.25, seed=0, max_tries=60,
    require_obtuse=False,
):
    """Jittered-grid Delaunay triangulation of the rectangle, verified
    strict pairwise-Delaunay with fully one-sided boundary."""
    for complex_ in _square_attempts(divisions, width, height, jitter, seed, max_tries):
        if not _statuses_ok(classify_complex(complex_, check_duals=False)):
            continue
        if require_obtuse and not _has_obtuse_triangle(complex_):
            continue
        return complex_
    raise FixtureError(
        f"no qualifying perturbed square in {max_tries} attempts (seed {seed})"
    )


def obtuse_delaunay_square(
    divisions=6, width=1.0, height=1.0, jitter=0.3, seed=0, max_tries=60,
):
    """Qualifying jittered square guaranteed to contain at least one
    obtuse triangle (so signed and unsigned duals genuinely differ)."""
    return perturbed_delaunay_square(
        divisions=divisions, width=width, height=height, jitter=jitter,
        seed=seed, max_tries=max_tries, require_obtuse=True,
    )


def bad_boundary_square(
    divisions=8, width=1.0, height=1.0, jitter=0.25, seed=0, max_tries=120,
):
    """Strictly Delaunay triangulation whose left side is a single long
    boundary edge with a nearby apex: exactly one boundary facet fails the
    one-sidedness test, everything else is clean."""
    for complex_ in _square_attempts(
        divisions, width, height, jitter, seed, max_tries, drop_left=True
    ):
        report = classify_complex(complex_, check_duals=False)
        if not _statuses_ok(report, allow_boundary_no=1):
            continue
        bad_facet = report.non_one_sided[0][0]
        facet_pts = complex_.simplex_points(1, bad_facet)
        if not np.allclose(facet_pts[:, 0], 0.0):
            continue
        return complex_
    raise FixtureError(
        f"no single-bad-boundary square in {max_tries} attempts (seed {seed})"
    )


def _orient2d(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def non_delaunay_square(
    divisions=8, width=1.0, height=1.0, jitter=0.4, seed=0,
    min_violations=1, max_tries=400,
):
    """Square mesh that keeps the structured-grid connectivity while its
    points are jittered, as happens when a mesh is smoothed or deformed
    without re-flipping edges. Accepted when all triangles stay positively
    oriented and the defects are generic: at least ``min_violations``
    strictly violated adjacent pairs, at least one boundary facet on a
    vertical side not one-sided, and no marginal statuses."""
    stride = divisions + 1
    cells = []
    for j in range(divisions):
        for i in range(divisions):
            a = j * stride + i
            b = a + 1
            c = b + stride
            d = a + stride
            cells.append((a, b, c))
            cells.append((a, c, d))
    # Vertical-side boundary edges with the apex of their triangle, read
    # off the fixed connectivity: an apex inside the open diametral disc
    # makes that facet non-one-sided, a cheap gate worth testing before
    # any classification work.
    side_cells = []
    for j in range(divisions):
        left = j * stride
        side_cells.append((left, left + stride, left + stride + 1))
        right = j * stride + divisions
        side_cells.append((right, right + stride, right - 1))

    def _side_facet_bad(points):
        for lo, hi, apex in side_cells:
            mid = (points[lo] + points[hi]) / 2.0
            gap = points[apex] - mid
            half = points[hi] - mid
            if np.dot(gap, gap) < np.dot(half, half):
                return True
        return False

    area_floor = 1e-6 * (width / divisions) * (height / divisions)
    for attempt in range(max_tries):
        rng = _rng((seed, 1), attempt)
        points = _grid_2d(divisions, width, height, jitter, rng)
        if not _side_facet_bad(points):
            continue
        if min(_orient2d(*points[list(cell)]) for cell in cells) <= area_floor:
            continue
        try:
            complex_ = build_complex(points, cells)
        except (DegeneracyError, NonManifoldError):
            continue
        report = classify_complex(complex_, check_duals=False)
        if len(report.violated_pairs) < min_violations:
            continue
        if report.degenerate_pairs or report.marginal_boundary:
            continue
        side_bad = any(
            np.allclose(complex_.simplex_points(1, facet)[:, 0], 0.0)
            or np.allclose(complex_.simplex_points(1, facet)[:, 0], width)
            for facet, _, _ in report.non_one_sided
        )
        if not side_bad:
            continue
        return complex_
    raise FixtureError(
        f"no jittered non-Delaunay square in {max_tries} attempts (seed {seed})"
    )


def surface_pairwise_delaunay(
    divisions=6, width=1.0, height=1.0, jitter=0.2, fold_angle=0.9, seed=0,
    max_tries=120,
):
    """Non-flat triangle surface in R^3 that is strictly pairwise Delaunay
    with one-sided boundary: a qualifying planar mesh with a straight
    vertex column at mid-width, folded isometrically about that line.
    Flattening any hinge pair undoes the fold, so the planar statuses
    carry over exactly."""
    if divisions % 2:
        raise FixtureError("surface fixture needs an even number of divisions")
    mid_column = divisions // 2
    mid_x = np.linspace(0.0, width, divisions + 1)[mid_column]
    for attempt in range(max_tries):
        rng = _rng(seed, attempt)
        points = _grid_2d(
            divisions, width, height, jitter, rng, locked_columns=(mid_column,)
        )
        cells = _triangulate(points)
        if cells is None:
            continue
        straddles = False
        for cell in cells:
            xs = points[cell, 0]
            if xs.min() < mid_x - 1e-12 and xs.max() > mid_x + 1e-12:
                straddles = True
                break
        if straddles:
            continue
        try:
            flat = build_complex(points, cells)
        except (DegeneracyError, NonManifoldError):
            continue
        if not _statuses_ok(classify_complex(flat, check_duals=False)):
            continue

        folded = np.zeros((len(points), 3))
        folded[:, :2] = points
        right = points[:, 0] > mid_x
        folded[right, 0] = mid_x + (points[right, 0] - mid_x) * np.cos(fold_angle)
        folded[right, 2] = (points[right, 0] - mid_x) * np.sin(fold_angle)
        try:
            surface = build_complex(folded, cells)
        except (DegeneracyError, NonManifoldError):
            continue
        if _statuses_ok(classify_complex(surface, check_duals=False)):
            return surface
    raise FixtureError(
        f"no qualifying folded surface in {max_tries} attempts (seed {seed})"
    )


def delaunay_tet_cube(divisions=3, jitter=0.2, seed=0, max_tries=400):
    """Jittered-grid Delaunay tetrahedralization of the unit cube,
    verified strict pairwise-Delaunay with one-sided boundary."""
    for attempt in range(max_tries):
        rng = _rng(seed, attempt)
        points = _grid_3d(divisions, rng, jitter)
        cells = _triangulate(points)
        if cells is None:
            continue
        try:
            complex_ = build_complex(points, cells)
        except (DegeneracyError, NonManifoldError):
            continue
        if _statuses_ok(classify_complex(complex_, check_duals=False)):
            return complex_
    raise FixtureError(
        f"no qualifying tet cube in {max_tries} attempts (seed {seed})"
    )


def _point_in_polygon(point, polygon, tol=1e-9):
    """Strict point-in-polygon by crossing count; None if the point is
    within tol of the polygon boundary (ambiguous)."""
    x, y = point
    scale = max(1.0, float(np.abs(polygon).max()))
    crossings = 0
    m = len(polygon)
    for i in range(m):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % m]
        # distance to the segment, for the ambiguity guard
        seg = np.array([bx - ax, by - ay])
        rel = np.array([x - ax, y - ay])
        t = np.clip((rel @ seg) / (seg @ seg), 0.0, 1.0)
        if np.linalg.norm(rel - t * seg) < tol * scale:
            return None
        if (ay > y) != (by > y):
            x_cross = ax + (y - ay) / (by - ay) * (bx - ax)
            if x_cross > x:
                crossings += 1
    return crossings % 2 == 1


_FAN_DEFAULT_OFFSET = {"crossing": 0.0, "missing": 0.6}


def fan_around_edge(
    ring=8, half_length=0.45, offset=None, wobble=0.03, seed=0,
    mode="crossing", max_tries=120,
):
    """Closed fan of tetrahedra around one interior edge.

    The shared edge runs between two apex vertices slightly off the ring's
    axis; ``ring`` vertices surround it in the mid-plane. With mode
    "crossing" the interior edge's planar dual polygon contains the point
    where the edge pierces the mid-plane; with "missing" (larger apex
    offset) it does not, while every pair stays strictly Delaunay and the
    boundary one-sided.
    """
    if mode not in _FAN_DEFAULT_OFFSET:
        raise FixtureError(f"mode must be 'crossing' or 'missing', got {mode!r}")
    if ring < 4:
        raise FixtureError("need at least 4 ring vertices")
    if offset is None:
        offset = _FAN_DEFAULT_OFFSET[mode]
    for attempt in range(max_tries):
        rng = _rng(seed, attempt)
        angles = 2.0 * np.pi * (np.arange(ring) + wobble * rng.uniform(-1, 1, ring)) / ring
        radii = 1.0 + wobble * rng.uniform(-1, 1, ring)
        points = np.zeros((ring + 2, 3))
        points[:ring, 0] = radii * np.cos(angles)
        points[:ring, 1] = radii * np.sin(angles)
        points[ring] = (offset, 0.0, -half_length)
        points[ring + 1] = (offset, 0.0, half_length)
        cells = [
            (i, (i + 1) % ring, ring, ring + 1) for i in range(ring)
        ]
        try:
            complex_ = build_complex(points, cells)
        except (DegeneracyError, NonManifoldError):
            continue
        if not _statuses_ok(classify_complex(complex_, check_duals=False)):
            continue
        centers = complex_.circumcenters(3)[complex_.simplex_indices(3, cells)]
        if np.abs(centers[:, 2]).max() > 1e-9:
            continue
        inside = _point_in_polygon((offset, 0.0), centers[:, :2])
        if inside is None:
            continue
        if (mode == "crossing") == inside:
            return complex_
    raise FixtureError(
        f"no {mode} fan in {max_tries} attempts (seed {seed}, offset {offset})"
    )


_GENERATORS = {
    "structured_square": structured_square,
    "perturbed_delaunay_square": perturbed_delaunay_square,
    "obtuse_delaunay_square": obtuse_delaunay_square,
    "bad_boundary_square": bad_boundary_square,
    "non_delaunay_square": non_delaunay_square,
    "surface_pairwise_delaunay": surface_pairwise_delaunay,
    "delaunay_tet_cube": delaunay_tet_cube,
    "fan_around_edge": fan_around_edge,
}

FIXTURE_NAMES = tuple(sorted(_GENERATORS))


def generate_fixture(name, **params):
    """Build a named fixture; unknown names or parameters raise
    FixtureError."""
    try:
        generator = _GENERATORS[name]
    except KeyError:
        raise FixtureError(
            f"unknown fixture {name!r}; choose from {', '.join(FIXTURE_NAMES)}"
        ) from None
    try:
        return generator(**params)
    except TypeError as exc:
        raise FixtureError(f"bad parameters for {name}: {exc}") from None
