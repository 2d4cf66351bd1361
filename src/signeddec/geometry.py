"""Coordinate-level primitives: circumcenters, volumes, half-space signs.

Everything here works on raw point arrays in R^N and knows nothing about
complexes. Points within a call are rows of float arrays; a k-simplex is a
(k+1, N) array of affinely independent rows. A circumcenter's barycentric
coordinate j times vertex j's height is its signed distance from the face
opposite vertex j; ``halfspace_sign`` finds that side by an explicit frame.
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


def _as_points(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected a 2-d point array, got shape {pts.shape}")
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
    """Unsigned volumes of a (M, k+1, N) stack of simplices.

    The low dimensions use direct determinant/cross-product formulas and
    the general case the R diagonal of a QR factorization of the edge
    matrix; both keep absolute accuracy ~eps * scale^k on nearly degenerate
    simplices, where a Gram-determinant route would bottom out at
    sqrt(eps).
    """
    m, kp1, ambient = pts.shape
    k = kp1 - 1
    if k == 0:
        return np.ones(m)
    if k > ambient:
        return np.zeros(m)
    edges = pts[:, 1:, :] - pts[:, :1, :]
    if k == 1:
        return np.linalg.norm(edges[:, 0, :], axis=1)
    if k == 2 and ambient == 2:
        return (
            np.abs(
                edges[:, 0, 0] * edges[:, 1, 1]
                - edges[:, 0, 1] * edges[:, 1, 0]
            )
            / 2.0
        )
    if k == 2 and ambient == 3:
        a, b = edges[:, 0, :], edges[:, 1, :]
        cx = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
        cy = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
        cz = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        return np.sqrt(cx * cx + cy * cy + cz * cz) / 2.0
    if k == 3 and ambient == 3:
        a, b, c = edges[:, 0, :], edges[:, 1, :], edges[:, 2, :]
        triple = (
            a[:, 0] * (b[:, 1] * c[:, 2] - b[:, 2] * c[:, 1])
            - a[:, 1] * (b[:, 0] * c[:, 2] - b[:, 2] * c[:, 0])
            + a[:, 2] * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        )
        return np.abs(triple) / 6.0
    r = np.linalg.qr(edges.transpose(0, 2, 1), mode="r")
    return np.abs(np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1)) / math.factorial(k)


def batched_circumcenters(pts, tol=None):
    """Circumcenters and radii of a (M, k+1, N) stack of simplices.

    Solves each Gram system 2 (p_i - p_0) . (c - p_0) = |p_i - p_0|^2,
    which keeps the center inside the affine hull of the vertices. Returns
    (centers, radii, degenerate, barycentric): ``degenerate`` flags the
    rows whose vertices are (nearly) affinely dependent, i.e. whose Gram
    matrix is singular or whose center is not equidistant to relative
    tolerance; their other values are meaningless. ``barycentric`` (M, k+1)
    holds the centers' coordinates: the solution, after one minus its sum.
    """
    eps = tolerance(tol)
    m, kp1, ambient = pts.shape
    k = kp1 - 1
    if k == 0:
        return pts[:, 0, :].copy(), np.zeros(m), np.zeros(m, dtype=bool), np.ones((m, 1))
    spokes = pts - pts[:, :1, :]  # vertex offsets to vertex 0
    edges = spokes[:, 1:]
    gram = edges @ edges.transpose(0, 2, 1)
    rhs = 0.5 * np.einsum("mii->mi", gram)
    singular = np.zeros(m, dtype=bool)
    try:
        coeff = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # an exactly singular Gram matrix stops the stacked solve: give
        # those rows the identity and report them degenerate
        singular = np.linalg.slogdet(gram)[0] == 0.0
        gram[singular] = np.eye(k)
        coeff = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    offset = np.einsum("mk,mkn->mn", coeff, edges)
    # measured from offsets, so the check does not depend on where the simplex sits
    dists = np.linalg.norm(spokes - offset[:, None], axis=2)
    radii = dists.mean(axis=1)
    spread = dists.max(axis=1) - dists.min(axis=1)
    degenerate = singular | (radii == 0.0) | ~(spread <= max(eps, 1e-9) * radii)
    barycentric = np.hstack([1.0 - coeff.sum(axis=1, keepdims=True), coeff])
    return pts[:, 0, :] + offset, radii, degenerate, barycentric


def circumcenter(points, tol=None):
    """Circumcenter and circumradius of a k-simplex in R^N.

    A one-row call of :func:`batched_circumcenters`. Raises
    DegeneracyError when the vertices are (nearly) affinely dependent.
    """
    pts = _as_points(points)
    centers, radii, degenerate, _ = batched_circumcenters(pts[np.newaxis], tol=tol)
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
    """
    eps = tolerance(tol)
    facet, origin, basis = _facet_frame(facet_points, eps)
    apex_vec = np.asarray(apex, dtype=float) - origin
    query_vec = np.asarray(query, dtype=float) - origin
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


def flatten_pair(facet_points, apex_left, apex_right, tol=None):
    """Lay out two n-simplices sharing an (n-1)-facet isometrically in R^n.

    The facet (n rows in R^N) maps into {x_n = 0}; each apex keeps its
    tangential coordinates and moves to signed height -h (left) or +h
    (right), where h is its distance to the facet's affine hull. Each
    simplex is mapped isometrically, so volumes, circumcenters and
    circumradii are preserved; the two apexes end up in opposite open
    half-spaces.
    """
    eps = tolerance(tol)
    facet, origin, basis = _facet_frame(facet_points, eps)
    flat_facet = np.zeros((len(facet), len(facet)))
    flat_facet[1:, :-1] = (facet[1:] - origin) @ basis

    def place(apex, side):
        vec = np.asarray(apex, dtype=float) - origin
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
