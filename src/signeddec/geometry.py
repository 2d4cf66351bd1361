"""Coordinate-level primitives: circumcenters, volumes, half-space signs.

Everything here works on raw point arrays in R^N and knows nothing about
complexes. Points within a call are rows of float arrays; a k-simplex is a
(k+1, N) array of affinely independent rows. ``batched_circumcenters`` is
the one producer of simplex geometry: volume, circumcenter, radius and the
center's barycentric coordinates, from one QR factorisation of the scaled
edges. A circumcenter's barycentric coordinate j times vertex j's height is
its signed distance from the face opposite vertex j. ``halfspace_sign`` and
the layout helper ``flatten_pair`` (no predicate uses it) use a facet frame.
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


_TINY = np.finfo(float).tiny


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
    """Unsigned volumes of a (M, k+1, N) stack of simplices: the last
    column of :func:`batched_circumcenters`."""
    return batched_circumcenters(pts)[4]


def batched_circumcenters(pts):
    """Circumcenters, radii and volumes of a (M, k+1, N) stack of simplices.

    Each simplex's edges from vertex 0 are divided by the power of two at
    most their largest component (exact), and the scaled edge matrix is
    factorised once, E^T = QR, by modified Gram-Schmidt. The volume is
    prod diag R * scale^k / k!. The center is p_0 + E^T coeff, where
    R^T y = |e|^2 / 2 and R coeff = y: the Gram system E E^T coeff = |e|^2 / 2
    without forming E E^T.

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
    coords = np.ascontiguousarray(pts.transpose(1, 2, 0))  # (k+1, N, M): one row per coordinate
    spokes = coords - coords[0]  # vertex offsets to vertex 0
    # 0.5 for coincident vertices, whose R is zero and whose row is degenerate
    scale = np.ldexp(0.5, np.frexp(np.abs(spokes).max(axis=(0, 1)))[1])
    spokes /= scale
    edges = spokes[1:]
    q, r = list(edges), {}
    for i in range(k):
        r[i, i] = np.sqrt(np.einsum("nm,nm->m", q[i], q[i]))
        # a zero column stays zero, so later diagonals and the volume stay finite
        q[i] = q[i] / np.maximum(r[i, i], _TINY)
        for j in range(i + 1, k):
            r[i, j] = np.einsum("nm,nm->m", q[i], q[j])
            q[j] = q[j] - r[i, j] * q[i]
    volumes = math.prod(r[i, i] * scale for i in range(k)) / math.factorial(k)
    # in the frame Q vertex i is column i of R, and the center y is as far
    # from it as from vertex 0: R_i . (y - R_i / 2) = 0, one row of R^T y = |e|^2 / 2
    y, coeff = [], [0.0] * k
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # singular R: NaN
        for i in range(k):
            y.append(r[i, i] / 2 + sum(r[j, i] * (r[j, i] / 2 - y[j]) for j in range(i)) / r[i, i])
        for i in reversed(range(k)):  # back substitution, R coeff = y
            coeff[i] = (y[i] - sum(r[i, j] * coeff[j] for j in range(i + 1, k))) / r[i, i]
        coeff = np.array(coeff)
        offset = np.einsum("km,knm->nm", coeff, edges)
        # measured from offsets, so the check does not depend on where the simplex sits
        spokes -= offset
        dists = np.sqrt(np.einsum("knm,knm->km", spokes, spokes))
        radii = dists.sum(axis=0) / kp1
        spread = dists.max(axis=0) - dists.min(axis=0)
        degenerate = ~(radii > 0.0) | ~(spread <= 1e-9 * radii)
    coeff[:, degenerate] = offset[:, degenerate] = radii[degenerate] = 0.0
    barycentric = np.concatenate([1.0 - coeff.sum(axis=0, keepdims=True), coeff]).T.copy()
    return (coords[0] + scale * offset).T.copy(), radii * scale, degenerate, barycentric, volumes


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


def _facet_frame(facet_points, eps):
    """(facet, origin, basis) of k facet points in R^N: the points, the first
    of them, and an orthonormal (N, k-1) column basis of the edges from it (no
    columns for one point). DegeneracyError if the edges are (nearly) dependent.
    """
    facet = _as_points(facet_points)
    origin = facet[0]
    edges = (facet[1:] - origin).T
    basis, r = np.linalg.qr(edges)
    scale = np.linalg.norm(edges, axis=0).max(initial=0.0)
    if (np.abs(np.diag(r)) <= eps * scale).any():
        raise DegeneracyError("facet vertices are (nearly) affinely dependent")
    return facet, origin, basis


def halfspace_sign(facet_points, apex, query, tol=None):
    """Side of ``query`` relative to the hyperplane of ``facet_points``,
    within the affine hull of facet + apex. +1 means the apex side, -1 the
    opposite side, 0 on the hyperplane within tolerance.

    ``facet_points`` spans a (k-1)-dimensional hull (k rows); apex must be
    affinely independent of it (else DegeneracyError), and query must lie
    in the combined affine hull within tolerance (else AffineHullError).
    Complex or non-finite coordinates raise ValueError.
    """
    eps = tolerance(tol)
    facet, origin, basis = _facet_frame(facet_points, eps)
    apex_vec = _as_points(apex, 1) - origin
    query_vec = _as_points(query, 1) - origin
    scale = max(
        float(np.linalg.norm(apex_vec)),
        float(np.linalg.norm(query_vec)),
        float(np.linalg.norm(facet[1:] - origin, axis=1).max(initial=0.0)),
    )
    if scale == 0.0:
        raise DegeneracyError("all points coincide")
    apex_perp = apex_vec - basis @ (basis.T @ apex_vec)
    height = float(np.linalg.norm(apex_perp))
    if height <= eps * scale:
        raise DegeneracyError("apex is affinely dependent on the facet")
    normal = apex_perp / height
    query_perp = query_vec - basis @ (basis.T @ query_vec)
    offset = float(query_perp @ normal)
    residual = float(np.linalg.norm(query_perp - offset * normal))
    if residual > max(eps, 1e-9) * scale:
        raise AffineHullError(
            f"query off the facet+apex affine hull by {residual:.3e} (scale {scale:.3e})"
        )
    if abs(offset) <= eps * scale:
        return 0
    return 1 if offset > 0 else -1


def flatten_pair(facet_points, apex_left, apex_right):
    """Lay out two n-simplices sharing an (n-1)-facet isometrically in R^n.

    The facet (n rows in R^N) maps into {x_n = 0}; each apex keeps its
    tangential coordinates and moves to signed height -h (left) or +h
    (right), where h is its distance to the facet's affine hull. Each
    simplex is mapped isometrically, so volumes, circumcenters and
    circumradii are preserved; the two apexes end up in opposite open
    half-spaces. It takes no tolerance: a facet whose edges, or an apex
    whose height, fall below a fixed 1e-10 relative raise DegeneracyError,
    and complex or non-finite coordinates raise ValueError.
    """
    eps = 1e-10
    facet, origin, basis = _facet_frame(facet_points, eps)
    flat_facet = np.zeros((len(facet), len(facet)))
    flat_facet[1:, :-1] = (facet[1:] - origin) @ basis

    def place(apex, side):
        vec = _as_points(apex, 1) - origin
        tang = basis.T @ vec
        height = float(np.linalg.norm(vec - basis @ tang))
        if height <= eps * max(float(np.linalg.norm(vec)), 1.0e-300):
            raise DegeneracyError("apex lies in the facet's affine hull")
        return np.append(tang, side * height)

    return FlattenedPair(
        facet=flat_facet,
        apex_left=place(apex_left, -1.0),
        apex_right=place(apex_right, +1.0),
    )
