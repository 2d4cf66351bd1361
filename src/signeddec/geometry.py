"""Coordinate-level primitives: circumcenters, volumes, half-space signs.

Everything here works on raw point arrays in R^N and knows nothing about
complexes. Points within a call are rows of float arrays; a k-simplex is a
(k+1, N) array of affinely independent rows. ``_factor`` is the one
factorisation: a modified Gram-Schmidt QR of each simplex's scaled edges,
whose R gives the volumes. ``batched_circumcenters``, the one producer of
simplex geometry, adds the circumcenter, radius and the center's
barycentric coordinates. A circumcenter's barycentric coordinate j times
vertex j's height is its signed distance from the face opposite vertex j.
``halfspace_sign`` reads a query's offset and residual from the R of
[facet, apex, query], and the layout helper ``flatten_pair`` (no predicate
uses it) a pair's layout from the R of its two tops. ``_least_squares``,
the one least-squares solve, factors each problem's columns and right-hand
side together and back-substitutes R as the producer does; the flux
vectors, the Figure-1 fit and the circumcenter-order axis call it. Every
sum adds its terms in index order while it has under 8 (numpy sums 8 or
more pairwise), so a simplex gets the same bits alone as in any stack of
simplices with N <= 7, n <= 6; a least-squares problem sums over its rows
and has no such promise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import tolerance
from .errors import AffineHullError, DegeneracyError

__all__ = [
    "Circumdata",
    "FlattenedPair",
    "circumcenter",
    "simplex_volume",
    "halfspace_sign",
    "flatten_pair",
]


@dataclass(frozen=True)
class Circumdata:
    """Circumcenter and circumradius of a simplex.

    The center is equidistant from all vertices and lies in their affine
    hull; the radius is that common distance.
    """

    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class FlattenedPair:
    """Two n-simplices sharing a facet, laid out isometrically in R^n.

    The shared facet spans the hyperplane {x_n = 0}; apex_left has negative
    last coordinate, apex_right positive. Row i of ``facet`` is the image of
    the i-th input facet point.
    """

    facet: np.ndarray
    apex_left: np.ndarray
    apex_right: np.ndarray


_TINY, _EPS = np.finfo(float).tiny, np.finfo(float).eps


def _real_floats(points, error=ValueError):
    """Points as a float array; ``error`` if they are complex (numpy would
    only warn and drop the imaginary part) or not numbers. Ragged rows raise
    numpy's ValueError."""
    array = np.asarray(points)
    if np.iscomplexobj(array):
        raise error("points must be real, got complex values")
    try:  # numpy would read numeric text, in objects too, as numbers
        if (np.asarray(array.tolist()) if array.dtype == object else array).dtype.kind in "SU":
            raise TypeError("text")
        return np.asarray(array, dtype=float)
    except (TypeError, ValueError):  # text, say
        raise error(f"points must be real numbers, got {array.dtype} values") from None


def _as_points(points, ndim=2):
    """Points as a real, finite float array of ``ndim`` dimensions (2 for
    rows of points, 1 for one point); ValueError otherwise."""
    pts = _real_floats(points)
    if pts.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def simplex_volume(points):
    """Unsigned k-volume of the simplex spanned by the given k+1 points.

    Valid in any ambient dimension N >= k; a one-row call of
    :func:`batched_volumes`. A single point has 0-volume 1 by convention;
    degenerate input yields (near) zero rather than an error.
    """
    pts = _as_points(points)
    return float(batched_volumes(pts[np.newaxis])[0])


def batched_volumes(pts):
    """Unsigned volumes of a (M, k+1, N) stack of simplices; no centers."""
    return _factor(pts)[3]


def _factor(pts):
    """The one factorisation of a (M, k+1, N) stack of simplices: (rows,
    scale, r, volumes). ``rows`` (k+1, N, M) holds each simplex's offsets to
    vertex 0, one row per coordinate, divided by ``scale``, the power of two
    at most their largest component (exact). ``r`` (k, k, M) is R, with a
    nonnegative diagonal, of the scaled edges' modified Gram-Schmidt
    factorisation E^T = QR: vertex j + 1 is column j of R in the frame Q.
    The volume is prod diag R * scale^k / k!."""
    m, k = len(pts), pts.shape[1] - 1
    rows = np.ascontiguousarray((pts - pts[:, :1]).transpose(1, 2, 0))  # (k+1, N, M)
    # 0.5 for coincident vertices, whose R is zero and whose row is degenerate
    scale = np.ldexp(0.5, np.frexp(np.abs(rows).max(axis=(0, 1)))[1])
    rows /= scale
    q, r = list(rows[1:]), np.zeros((k, k, m))
    for i in range(k):
        r[i, i] = np.sqrt((q[i] * q[i]).sum(axis=0))
        # a zero column stays zero, so later diagonals and the volume stay finite
        q[i] = q[i] / np.maximum(r[i, i], _TINY)
        for j in range(i + 1, k):
            r[i, j] = (q[i] * q[j]).sum(axis=0)
            q[j] = q[j] - r[i, j] * q[i]
    volumes = math.prod((r[i, i] * scale for i in range(k)), start=np.ones(m))
    return rows, scale, r, volumes / math.factorial(k)


def _back_substitute(r, y):
    """The (k, M) solution x of R x = y for a (k, k, M) stack of upper
    triangular R and k rows y of length M, from the last row up."""
    k = len(r)
    x = [0.0] * k
    for i in reversed(range(k)):
        x[i] = (y[i] - sum(r[i, j] * x[j] for j in range(i + 1, k))) / r[i, i]
    return np.array(x).reshape(k, r.shape[-1])


def _least_squares(columns, values):
    """Least-squares solutions x (M, n) of columns^T x = values for a stack
    of M problems: ``columns`` (M, n, P) holds each problem's n columns of
    length P, ``values`` (M, P) its right-hand side. :func:`_factor` of the
    stack [0, column_1, ..., column_n, values] is the Gram-Schmidt of the
    augmented matrix [A b] = QR: R's leading block is A's R, its last column
    above the diagonal is Q^T b, and x solves R x = Q^T b. The common scale
    cancels. Sums over the P rows are pairwise from 8 rows on, so a problem
    gets no promise of the same bits alone as in a stack."""
    zeros = np.zeros_like(values)[:, None]
    _, _, r, _ = _factor(np.concatenate([zeros, columns, values[:, None]], axis=1))
    return _back_substitute(r[:-1, :-1], r[:-1, -1]).T


def batched_circumcenters(pts):
    """Circumcenters, radii and volumes of a (M, k+1, N) stack of simplices.

    From the factorisation E^T = QR of :func:`_factor`, the center is
    p_0 + E^T coeff, where R^T y = |e|^2 / 2 and R coeff = y: the Gram system
    E E^T coeff = |e|^2 / 2 without forming E E^T.

    Returns (centers, radii, degenerate, barycentric, volumes).
    ``degenerate`` flags the rows whose vertices are (nearly) affinely
    dependent: their center is not finite or not equidistant from the
    vertices to 1e-9 relative, a fixed bound that no tolerance moves, and
    their centers, radii and barycentric coordinates are finite
    placeholders. ``barycentric`` (M, k+1) holds the centers' coordinates:
    coeff, after one minus its sum.
    """
    m, kp1, _ = pts.shape
    k = kp1 - 1
    if k == 0:
        centers = pts[:, 0, :].copy()
        return centers, np.zeros(m), np.zeros(m, dtype=bool), np.ones((m, 1)), np.ones(m)
    spokes, scale, r, volumes = _factor(pts)
    edges = spokes[1:]
    # in the frame Q vertex i is column i of R, and the center y is as far
    # from it as from vertex 0: R_i . (y - R_i / 2) = 0, one row of R^T y = |e|^2 / 2
    y = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # singular R: NaN
        for i in range(k):
            y.append(r[i, i] / 2 + sum(r[j, i] * (r[j, i] / 2 - y[j]) for j in range(i)) / r[i, i])
        coeff = _back_substitute(r, y)
        offset = (coeff[:, None] * edges).sum(axis=0)
        # measured from offsets, so the check does not depend on where the simplex sits
        spokes -= offset
        dists = np.sqrt((spokes * spokes).sum(axis=1))
        radii = dists.sum(axis=0) / kp1
        spread = dists.max(axis=0) - dists.min(axis=0)
        degenerate = ~(radii > 0.0) | ~(spread <= 1e-9 * radii)
    coeff[:, degenerate] = offset[:, degenerate] = radii[degenerate] = 0.0
    barycentric = np.concatenate([1.0 - coeff.sum(axis=0, keepdims=True), coeff]).T.copy()
    return (pts[:, 0].T + scale * offset).T.copy(), radii * scale, degenerate, barycentric, volumes


def circumcenter(points):
    """Circumcenter and circumradius of a k-simplex in R^N.

    A one-row call of :func:`batched_circumcenters`, so it takes no
    tolerance. Raises DegeneracyError when the vertices are (nearly)
    affinely dependent.
    """
    pts = _as_points(points)
    centers, radii, degenerate, *_ = batched_circumcenters(pts[np.newaxis])
    if degenerate[0]:
        raise DegeneracyError(f"affinely dependent vertices, no circumcenter: {pts.tolist()}")
    return Circumdata(centers[0], float(radii[0]))


def halfspace_sign(facet_points, apex, query, tol=None):
    """Side of ``query`` relative to the hyperplane of ``facet_points``,
    within the affine hull of facet + apex: +1 the apex side, -1 the
    opposite side, 0 on the hyperplane within tolerance.

    ``facet_points`` spans a (k-1)-dimensional hull (k rows). One
    :func:`_factor` call on the stack [facet, apex, query] gives the query's
    offset toward the apex (R's apex row), 0 within tol times the longest
    edge L, and its residual off the hull (the entry below). A residual
    beyond max(tol, 1e-9) L plus the rounding of the facet+apex frame,
    4 eps |query edge| L' / d (L' the longest facet+apex edge, d their least
    R diagonal), raises AffineHullError. No tolerance moves the
    DegeneracyError raised where the R diagonal of a facet edge or of the
    apex is at most 1e-10 times the longest edge of the facet, resp. of
    facet+apex. Complex or non-finite coordinates raise ValueError.
    """
    eps = tolerance(tol)
    stack = np.vstack([_as_points(facet_points), _as_points(apex, 1), _as_points(query, 1)])
    rows, (unit,), r, _ = _factor(stack[np.newaxis])
    lengths = np.sqrt((rows * rows).sum(axis=(1, 2)))  # scaled edges, 0 at facet point 0
    scale, frame, diagonal = lengths.max(), lengths[:-1].max(), r[..., 0].diagonal()
    if (diagonal[:-2] <= 1e-10 * lengths[:-2].max()).any():
        raise DegeneracyError("facet vertices are (nearly) affinely dependent")
    if diagonal[-2] <= 1e-10 * frame:
        raise DegeneracyError("apex is affinely dependent on the facet")
    offset, residual = r[-2:, -1, 0]
    bound = max(eps, 1e-9) * scale + 4 * _EPS * lengths[-1] * frame / diagonal[:-1].min()
    # where facet+apex spans R^N every query is in its hull, and the residual is rounding
    if len(stack) - 2 < stack.shape[1] and residual > bound:
        raise AffineHullError(
            f"query off the facet+apex affine hull by {residual * unit:.3e} "
            f"(scale {scale * unit:.3e})"
        )
    return 0 if abs(offset) <= eps * scale else int(np.sign(offset))


def flatten_pair(facet_points, apex_left, apex_right):
    """Lay out two n-simplices sharing an (n-1)-facet isometrically in R^n.

    The facet (n rows in R^N) maps into {x_n = 0}; each apex keeps its
    tangential coordinates and moves to signed height -h (left) or +h
    (right), where h is its distance to the facet's affine hull, so volumes,
    circumcenters and circumradii are preserved. The layout is R of one
    :func:`_factor` call on [facet+left, facet+right]: the facet's from its
    leading columns, each apex's from its last. It takes no tolerance: a
    facet whose edges, or an apex whose height, fall below a fixed 1e-10
    relative raise DegeneracyError, and complex or non-finite coordinates
    raise ValueError.
    """
    facet = _as_points(facet_points)
    tops = np.stack([np.vstack([facet, _as_points(apex, 1)]) for apex in (apex_left, apex_right)])
    rows, scale, r, _ = _factor(tops)
    lengths, diagonal = np.sqrt((rows * rows).sum(axis=1).T), r.diagonal()  # per top
    if (diagonal[0, :-1] <= 1e-10 * lengths[0, :-1].max()).any():
        raise DegeneracyError("facet vertices are (nearly) affinely dependent")
    if (diagonal[:, -1] <= 1e-10 * lengths[:, -1]).any():
        raise DegeneracyError("apex lies in the facet's affine hull")
    left, right = (r[:, -1] * scale).T.copy()  # the apex's tangential coordinates, its height
    left[-1] = -left[-1]
    flat_facet = np.zeros((len(facet), len(facet)))
    flat_facet[1:, :-1] = r[:-1, :-1, 0].T * scale[0]
    return FlattenedPair(facet=flat_facet, apex_left=left, apex_right=right)
