"""Deterministic mesh fixtures with verified properties.

Every random generator is an ``attempt(rng)`` body run by one seeded
attempt loop, :func:`_first_accepted`: attempt k draws from
``_rng(seed, k)`` for k < max_tries, builds a candidate mesh and
re-verifies the advertised property (strict pairwise-Delaunay pairs,
one-sided boundary, presence of an obtuse triangle, a planted defect, ...),
returning the mesh or None. A triangulation or build that raises
DegeneracyError or NonManifoldError rejects the attempt too, and when no
attempt is accepted the loop raises the generator's FixtureError. So a
returned mesh always has the property and the same seed always gives the
same mesh. Qhull does the raw triangulations; all property checks go
through this package's own predicates, and the cheap geometric gates
before them are array passes over all cells. The grid families share one
checked axis (``divisions`` >= 1), one box-grid builder, run once per
call (an attempt only draws its jitter), and one array of grid cells.
scipy is imported by the one function that calls it, ``_triangulate``, so
structured_square, non_delaunay_square and fan_around_edge never load it.
"""

import logging

import numpy as np

from .complexes import build_complex
from .delaunay import classify_complex
from .errors import DegeneracyError, FixtureError, NonManifoldError

__all__ = ["FIXTURE_NAMES", "generate_fixture"]

_log = logging.getLogger(__name__)


def _rng(seed, attempt):
    parts = tuple(int(s) for s in seed) if isinstance(seed, tuple) else (int(seed),)
    if min(parts) < 0:
        raise FixtureError(f"seed must be nonnegative, got {min(parts)}")
    return np.random.default_rng(parts + (int(attempt), 0x5D))


def _first_accepted(attempt, seed, max_tries, failure):
    """The first mesh that attempt(rng) returns for rng = _rng(seed, k),
    k = 0 .. max_tries - 1. An attempt is rejected when it returns None or
    raises DegeneracyError or NonManifoldError; if all are, raise
    FixtureError(failure). The number of attempts made is logged at DEBUG,
    and a handler reads it as the record's ``attempts`` attribute."""
    for k in range(max_tries):
        try:
            mesh = attempt(_rng(seed, k))
        except (DegeneracyError, NonManifoldError):
            continue
        if mesh is not None:
            _log.debug("accepted attempt %d of %d", k + 1, max_tries, extra={"attempts": k + 1})
            return mesh
    _log.debug("no attempt accepted in %d", max_tries, extra={"attempts": max_tries})
    raise FixtureError(failure)


def _lines(divisions, length, name):
    """divisions + 1 evenly spaced coordinates on [0, length]: the axis of
    every grid fixture, so a grid of no cells or of an empty side, whose
    length is called ``name``, is rejected here."""
    if divisions < 1:
        raise FixtureError(f"divisions must be at least 1, got {divisions}")
    if not 0.0 < length < np.inf:
        raise FixtureError(f"{name} must be positive and finite, got {length}")
    return np.linspace(0.0, length, divisions + 1)


def _box_grid(divisions, sides):
    """(divisions+1)^k points of the box with the given k side lengths, x
    fastest."""
    names = ("width", "height", "depth")
    axes = [_lines(divisions, side, name) for side, name in zip(sides, names)]
    return np.stack(np.meshgrid(*axes[::-1], indexing="ij")[::-1], axis=-1).reshape(-1, len(sides))


def _jittered_grid(divisions, sides, jitter, locked_columns=()):
    """draw(rng): the box grid, built once, with every coordinate strictly
    inside its side moved by jitter * side / divisions * U(-1, 1), one draw
    in row-major order (per point, x before y before z), so the box stays
    exact; columns in ``locked_columns`` keep their exact x (a fold line)."""
    grid = _box_grid(divisions, sides)
    if not np.isfinite(jitter):
        raise FixtureError(f"jitter must be finite, got {jitter}")
    free = (grid > 0.0) & (grid < np.array(sides))
    free[:, 0] &= ~np.isin(grid[:, 0], grid[list(locked_columns), 0])  # row 0 holds the x axis
    amplitudes = np.broadcast_to(jitter * (np.array(sides) / divisions), grid.shape)[free]

    def draw(rng):
        points = grid.copy()
        points[free] += amplitudes * rng.uniform(-1.0, 1.0, size=len(amplitudes))
        return points

    return draw


def _grid_cells(divisions):
    """The triangles (a, b, c) and (a, c, d) of each grid square, row by
    row, where a = j * stride + i, b = a + 1, c = b + stride, d = a + stride."""
    stride = divisions + 1
    corners = (np.arange(divisions)[:, None] * stride + np.arange(divisions)).ravel()
    halves = np.array([[0, 1, stride + 1], [0, stride + 1, stride]])
    return (corners[:, None, None] + halves).reshape(-1, 3)


def _triangulate(points):
    """Qhull Delaunay cells; DegeneracyError if Qhull fails or drops a point."""
    from scipy.spatial import Delaunay, QhullError

    try:
        cells = Delaunay(points).simplices
    except QhullError as exc:
        raise DegeneracyError("Qhull cannot triangulate the points") from exc
    if len(np.unique(cells)) != len(points):
        raise DegeneracyError("Qhull dropped a coincident or coplanar point")
    return cells


def _clean_report(complex_, allow_boundary_no=0):
    """The classification (no duals) of a complex whose internal pairs are
    all strict and whose boundary is one-sided except exactly
    ``allow_boundary_no`` facets with status "no" (and none marginal);
    None for any other complex."""
    report = classify_complex(complex_, check_duals=False)
    sides = report.boundary_signs
    clean = (report.pair_signs > 0).all() and (sides != 0).all()
    return report if clean and (sides < 0).sum() == allow_boundary_no else None


def _qualifying(points):
    """The Qhull Delaunay complex of points if it has a clean report, else None."""
    complex_ = build_complex(points, _triangulate(points))
    return complex_ if _clean_report(complex_) else None


def _has_obtuse_triangle(complex_, margin=1e-9):
    """Whether a triangle's circumcenter lies beyond one of its edges: a
    barycentric coordinate below -margin, which marks an obtuse angle."""
    return bool((complex_.geometry(2)[4] < -margin).any())


def _dots(vectors):
    """Each row's dot product with itself, as np.dot computes it."""
    return (vectors[:, None] @ vectors[:, :, None]).ravel()


def _on_side(complex_, facet, *sides):
    """Whether all vertices of an edge have x close to one of ``sides``."""
    xs = complex_.simplex_points(1, facet)[:, 0]
    return any(np.allclose(xs, x) for x in sides)


def structured_square(divisions=4, width=1.0, height=1.0):
    """Uniform grid of right isoceles triangles (all diagonals parallel).

    Deliberately marginal: every diagonal pair is exactly cocircular, so
    the diagonal edges get zero signed dual length and the mesh does not
    qualify. Useful as the canonical boundary case.
    """
    return build_complex(_box_grid(divisions, (width, height)), _grid_cells(divisions))


def perturbed_delaunay_square(
    divisions=6, width=1.0, height=1.0, jitter=0.25, seed=0, max_tries=60,
):
    """Jittered-grid Delaunay triangulation of the rectangle, verified
    strict pairwise-Delaunay with fully one-sided boundary."""
    grid = _jittered_grid(divisions, (width, height), jitter)
    failure = f"no qualifying perturbed square in {max_tries} attempts (seed {seed})"
    return _first_accepted(lambda rng: _qualifying(grid(rng)), seed, max_tries, failure)


def obtuse_delaunay_square(
    divisions=6, width=1.0, height=1.0, jitter=0.3, seed=0, max_tries=60,
):
    """Qualifying jittered square guaranteed to contain at least one
    obtuse triangle (so signed and unsigned duals genuinely differ)."""

    grid = _jittered_grid(divisions, (width, height), jitter)

    def attempt(rng):
        complex_ = _qualifying(grid(rng))
        return complex_ if complex_ is not None and _has_obtuse_triangle(complex_) else None

    failure = f"no qualifying obtuse square in {max_tries} attempts (seed {seed})"
    return _first_accepted(attempt, seed, max_tries, failure)


def bad_boundary_square(
    divisions=8, width=1.0, height=1.0, jitter=0.25, seed=0, max_tries=120,
):
    """Strictly Delaunay triangulation whose left side is a single long
    boundary edge with a nearby apex: exactly one boundary facet fails the
    one-sidedness test, everything else is clean."""

    grid = _jittered_grid(divisions, (width, height), jitter)

    def attempt(rng):
        points = grid(rng)
        ys = points[:, 1]
        points = points[~((points[:, 0] == 0.0) & (ys > 0.0) & (ys < height))]
        complex_ = build_complex(points, _triangulate(points))
        report = _clean_report(complex_, allow_boundary_no=1)
        if report is None:
            return None
        facet = report.boundary_facets[report.boundary_signs < 0][0]
        return complex_ if _on_side(complex_, facet, 0.0) else None

    failure = f"no single-bad-boundary square in {max_tries} attempts (seed {seed})"
    return _first_accepted(attempt, seed, max_tries, failure)


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
    cells = _grid_cells(divisions)
    # Vertical-side boundary edges (lo, hi) with the apex of their
    # triangle, read off the fixed connectivity: an apex inside the open
    # diametral disc makes that facet non-one-sided, a cheap gate worth
    # testing before any classification work.
    left = np.arange(divisions) * (divisions + 1)
    lo = np.concatenate([left, left + divisions])
    hi = lo + divisions + 1
    apex = np.concatenate([left + divisions + 2, left + divisions - 1])
    grid = _jittered_grid(divisions, (width, height), jitter)

    def attempt(rng):
        points = grid(rng)
        mid = (points[lo] + points[hi]) / 2.0
        with np.errstate(over="ignore", invalid="ignore"):  # a huge jitter overflows here
            if not (_dots(points[apex] - mid) < _dots(points[hi] - mid)).any():
                return None
            a, b, c = points[cells].transpose(1, 2, 0)
            doubled_area = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if doubled_area.min() <= 1e-6 * (width / divisions) * (height / divisions):
                return None
        complex_ = build_complex(points, cells)
        report = classify_complex(complex_, check_duals=False)
        pairs, sides = report.pair_signs, report.boundary_signs
        if (pairs < 0).sum() < min_violations:
            return None
        if (pairs == 0).any() or (sides == 0).any():
            return None
        facets = report.boundary_facets[sides < 0].tolist()
        return complex_ if any(_on_side(complex_, f, 0.0, width) for f in facets) else None

    failure = f"no jittered non-Delaunay square in {max_tries} attempts (seed {seed})"
    return _first_accepted(attempt, (seed, 1), max_tries, failure)


def surface_pairwise_delaunay(
    divisions=6, width=1.0, height=1.0, jitter=0.2, fold_angle=0.9, seed=0,
    max_tries=120,
):
    """Non-flat triangle surface in R^3 that is strictly pairwise Delaunay
    with one-sided boundary: a planar mesh with a straight vertex column at
    mid-width, folded isometrically about that line, kept when the surface
    classifies as qualifying. Flattening any hinge pair undoes the fold, so
    the surface's statuses are the planar mesh's."""
    if divisions % 2:
        raise FixtureError("surface fixture needs an even number of divisions")
    mid_column = divisions // 2
    mid_x = _lines(divisions, width, "width")[mid_column]
    grid = _jittered_grid(divisions, (width, height), jitter, (mid_column,))

    def attempt(rng):
        points = grid(rng)
        cells = _triangulate(points)
        xs = points[cells, 0]
        if ((xs.min(axis=1) < mid_x - 1e-12) & (xs.max(axis=1) > mid_x + 1e-12)).any():
            return None
        folded = np.zeros((len(points), 3))
        folded[:, :2] = points
        right = points[:, 0] > mid_x
        folded[right, 0] = mid_x + (points[right, 0] - mid_x) * np.cos(fold_angle)
        folded[right, 2] = (points[right, 0] - mid_x) * np.sin(fold_angle)
        surface = build_complex(folded, cells)
        return surface if _clean_report(surface) else None

    failure = f"no qualifying folded surface in {max_tries} attempts (seed {seed})"
    return _first_accepted(attempt, seed, max_tries, failure)


def delaunay_tet_cube(divisions=3, jitter=0.2, seed=0, max_tries=400):
    """Jittered-grid Delaunay tetrahedralization of the unit cube,
    verified strict pairwise-Delaunay with one-sided boundary."""
    grid = _jittered_grid(divisions, (1.0, 1.0, 1.0), jitter)
    failure = f"no qualifying tet cube in {max_tries} attempts (seed {seed})"
    return _first_accepted(lambda rng: _qualifying(grid(rng)), seed, max_tries, failure)


def _point_in_polygon(point, polygon, tol=1e-9):
    """Strict point-in-polygon (an (m, 2) array) by crossing count over all
    edges at once; None if the point is within tol of the boundary (ambiguous)."""
    x, y = point
    end = np.roll(polygon, -1, axis=0)
    # distance to each edge, for the ambiguity guard
    seg, rel = end - polygon, np.array([x, y]) - polygon
    t = np.clip((rel * seg).sum(axis=1) / (seg * seg).sum(axis=1), 0.0, 1.0)
    scale = max(1.0, float(np.abs(polygon).max()))
    if (np.linalg.norm(rel - t[:, None] * seg, axis=1) < tol * scale).any():
        return None
    straddle = (polygon[:, 1] > y) != (end[:, 1] > y)
    (ax, ay), (bx, by) = polygon[straddle].T, end[straddle].T
    return bool(np.count_nonzero(ax + (y - ay) / (by - ay) * (bx - ax) > x) % 2)


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
    cells = [(i, (i + 1) % ring, ring, ring + 1) for i in range(ring)]

    def attempt(rng):
        angles = 2.0 * np.pi * (np.arange(ring) + wobble * rng.uniform(-1, 1, ring)) / ring
        radii = 1.0 + wobble * rng.uniform(-1, 1, ring)
        points = np.zeros((ring + 2, 3))
        points[:ring, 0] = radii * np.cos(angles)
        points[:ring, 1] = radii * np.sin(angles)
        points[ring] = (offset, 0.0, -half_length)
        points[ring + 1] = (offset, 0.0, half_length)
        complex_ = build_complex(points, cells)
        if not _clean_report(complex_):
            return None
        centers = complex_.circumcenters(3)[complex_.simplex_indices(3, cells)]
        if np.abs(centers[:, 2]).max() > 1e-9:
            return None
        inside = _point_in_polygon((offset, 0.0), centers[:, :2])
        return complex_ if inside is not None and (mode == "crossing") == inside else None

    failure = f"no {mode} fan in {max_tries} attempts (seed {seed}, offset {offset})"
    return _first_accepted(attempt, seed, max_tries, failure)


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
