"""Signed circumcentric duals of simplices in an embedded complex.

The dual of a p-simplex is assembled from elementary pieces, one per
ascending chain of cofaces up to the top dimension n. Each piece is the
simplex spanned by the circumcenters along the chain; its sign is the
product of one step sign per chain link. The step sign at a link compares,
within the affine hull of the larger simplex, the side of the larger
simplex's circumcenter against the side of the vertex that extends the
smaller simplex: +1 same side, -1 opposite, 0 on the dividing hyperplane
(such a piece is marginal and contributes zero). Both circumcenters project
onto the face's hull at the same point, so with lambda the barycentric
coordinates of the larger one, the link from the face omitting vertex j
has sign sign(lambda_j) and length |lambda_j| h_j, h_j being vertex j's
height over that face; it is marginal when |lambda_j| <= eps.

Each link of a chain is orthogonal to all earlier ones, so a piece's volume
is the product of its link lengths over (n-p)!, and the sum over chains
factorises: D_p(s) = 1/(n-p) sum_{t > s} sign(s, t) |c_t - c_s| D_{p+1}(t),
with D_n = 1. The link table of dimension d holds the sign and length of
every link into a d-simplex t, entry (t, j) for the face omitting vertex j
(the complex's face table), from cached barycentric coordinates and
volumes; every step sign is read from it. One sweep from n down to p applies
the recursion with ``np.bincount`` to signed and unsigned volumes and to
signed and nonzero chain counts, whose difference counts the negative
pieces; run from n-1 on per-facet weights, it gives the Poisson load.
Pieces are gathered per simplex on request, by growing its chains upward
through the complex's coface index, so a call reads only the simplex's
star. Link tables and DualTables are memoized on the complex per (dim,
tolerance).
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .config import tolerance
from .errors import ComplexError, DegeneracyError

__all__ = [
    "ElementaryDual",
    "DualCell",
    "DualTable",
    "step_sign",
    "step_signs",
    "elementary_duals",
    "signed_dual_volume",
    "dual_table",
    "dual_volumes",
    "orientation_sign_via_determinant",
]


@dataclass(frozen=True)
class ElementaryDual:
    """One piece of the dual of a p-simplex.

    ``chain`` holds simplex indices at dimensions base_dim+1 .. n;
    ``vertices`` stacks the circumcenters of base simplex and chain, in
    chain order; ``step_signs`` has one entry per link (n - base_dim of
    them) and ``sign`` is their product, or 0 if any step is marginal.
    """

    base_dim: int
    base_index: int
    chain: tuple
    vertices: np.ndarray
    step_signs: tuple
    sign: int
    unsigned_volume: float

    @property
    def top_index(self):
        """Index of the top simplex this piece lies in."""
        return self.chain[-1] if self.chain else self.base_index

    @property
    def signed_volume(self):
        return self.sign * self.unsigned_volume


@dataclass
class DualCell:
    """All elementary dual pieces of one p-simplex."""

    base_dim: int
    base_index: int
    pieces: list

    @property
    def signed_volume(self):
        return float(sum(p.signed_volume for p in self.pieces))

    @property
    def unsigned_volume(self):
        return float(sum(p.unsigned_volume for p in self.pieces))

    @property
    def num_negative_pieces(self):
        return sum(1 for p in self.pieces if p.sign < 0)


@dataclass(frozen=True)
class DualTable:
    """The duals of every p-simplex of one dimension, as read-only arrays:
    ``signed_volume``, ``unsigned_volume``, ``num_pieces`` and
    ``num_negative_pieces``."""

    signed_volume: np.ndarray
    unsigned_volume: np.ndarray
    num_pieces: np.ndarray
    num_negative_pieces: np.ndarray


def step_signs(complex_, dim, face_indices, coface_indices, tol=None):
    """Step signs of many chain links at once: link i goes from the
    dim-simplex face_indices[i] to its coface coface_indices[i].

    Returns an int8 array of +1/0/-1 read from the link table; a link
    touching a simplex whose circumcenter is degenerate gets 0. Raises
    ComplexError if a coface does not extend its face.
    """
    faces = np.asarray(face_indices, dtype=np.intp)
    cofaces = np.asarray(coface_indices, dtype=np.intp)
    match = complex_.face_table(dim + 1)[cofaces] == faces[:, None]
    if not match.any(axis=1).all():
        raise ComplexError("coface does not extend face")
    signs = _link_table(complex_, dim + 1, tolerance(tol))[0]
    return signs[cofaces, match.argmax(axis=1)]


def _boundary_step_signs(complex_, tol):
    """(facets, signs): the boundary facets in ``boundary_faces()`` order
    and the step sign of the link from each to its one top, read from the
    link table at the column that ``facet_cofaces`` holds, under the
    resolved tolerance ``tol``."""
    tops, columns = complex_.facet_cofaces
    facets = np.flatnonzero(tops[:, 1] < 0)
    signs = _link_table(complex_, complex_.n, tol)[0]
    return facets, signs[tops[facets, 0], columns[facets, 0]]


def step_sign(complex_, dim, face_index, coface_index, tol=None):
    """Sign of one chain link: side of the coface's circumcenter relative
    to the face's affine hull, measured against the extending vertex.

    Returns +1 (circumcenter on the extending vertex's side), -1
    (opposite side), or 0 (on the hull within tolerance).
    """
    return int(step_signs(complex_, dim, [face_index], [coface_index], tol=tol)[0])


def _link_table(complex_, dim, tol):
    """Read-only (signs, lengths) of every link into a dim-simplex, each of
    shape (num_simplices(dim), dim + 1): entry (t, j) is the link from the
    face of simplex t that omits its vertex j. With lambda the barycentric
    coordinates of t's circumcenter and h_j = dim vol(t) / vol(face), the
    sign is sign(lambda_j) by :func:`_side_signs`, 0 within the resolved
    tolerance ``tol`` or where either circumcenter is degenerate, and the
    length is |lambda_j| h_j. Memoized per (dim, tol)."""
    cache = complex_._link_cache
    if (dim, tol) not in cache:
        faces = complex_.face_table(dim)
        face_volumes, _, _, face_flags, _ = complex_.geometry(dim - 1)
        volumes, _, _, flags, barycentric = complex_.geometry(dim)
        signs = _side_signs(barycentric, face_flags[faces] | flags[:, None], tol)
        lengths = np.abs(barycentric) * (dim * volumes[:, None] / face_volumes[faces])
        for column in (signs, lengths):
            column.setflags(write=False)
        cache[dim, tol] = signs, lengths
    return cache[dim, tol]


def _side_signs(barycentric, flagged, tol):
    """Step signs from circumcenters' barycentric coordinates lambda: sign(lambda),
    0 where |lambda| <= max(tol, 1e-14) (tol resolved) or where ``flagged``."""
    marginal = (np.abs(barycentric) <= max(tol, 1e-14)) | flagged
    return np.where(marginal, 0, np.sign(barycentric)).astype(np.int8)


def _sweep(complex_, top, totals, tol):
    """Yield (p, totals) for p = top down to 0, where ``totals`` starts as
    rows of values on the top-simplices (top <= n) and each step applies
    D_p(s) = 1/(top - p) sum_t w(s, t) D_{p+1}(t) to row k, w the link's
    signed length, length, sign or nonzero sign for k = 0, 1, 2 or 3."""
    for p in range(top, -1, -1):
        if p < top:
            signs, lengths = _link_table(complex_, p + 1, tol)
            faces = complex_.face_table(p + 1).ravel()
            weights = (signs * lengths / (top - p), lengths / (top - p), signs, np.abs(signs))
            totals = np.array([
                np.bincount(faces, (w * t[:, None]).ravel(), complex_.num_simplices(p))
                for w, t in zip(weights, totals)
            ])
        yield p, totals


def dual_table(complex_, dim, tol=None):
    """The :class:`DualTable` of signed duals at one dimension.

    For p = n every simplex has one piece of volume 1 (point measure).
    One sweep from n down to dim computes the tables of all dimensions in
    between; each is memoized on the complex per (dim, resolved tolerance),
    and the geometry is immutable so the memo never goes stale. Its keys
    are resolved tolerances, so a hit needs no check.
    """
    cache, n = complex_._dual_volume_cache, complex_.n
    if (dim, tol) in cache:
        return cache[dim, tol]
    tol = tolerance(tol)
    if not 0 <= dim <= n:
        raise ValueError(f"dual tables need 0 <= dim <= {n}, got {dim}")
    for d in range(dim, n + 1):
        complex_.circumcenters(d)  # raises on the lowest degenerate dimension
    # per simplex: signed and unsigned dual volume, signed and nonzero chain count
    for p, totals in _sweep(complex_, n, np.ones((4, complex_.num_simplices(n))), tol):
        signed, unsigned, signed_count, nonzero_count = totals
        table = DualTable(
            signed, unsigned, np.bincount(complex_.face_of_top[p].ravel()) * math.factorial(n - p),
            ((nonzero_count - signed_count) / 2).astype(np.intp),
        )
        for column in vars(table).values():
            column.setflags(write=False)
        cache.setdefault((p, tol), table)
        if p == dim:
            return cache[dim, tol]


def dual_volumes(complex_, dim, tol=None):
    """Signed and unsigned dual volumes for every p-simplex.

    Returns a pair of read-only arrays (signed, unsigned), indexed like the
    p-simplices; two columns of the memoized :func:`dual_table`.
    """
    table = dual_table(complex_, dim, tol=tol)
    return table.signed_volume, table.unsigned_volume


def elementary_duals(complex_, dim, index, tol=None):
    """All elementary dual pieces of the given p-simplex, in depth-first
    (lexicographic) order of their chains. The chains grow upward from the
    simplex: each level extends every chain by the cofaces of its last
    simplex, ascending, read from the coface index with the column of each
    link's sign and length in the link tables. For a top simplex the single
    piece is its circumcenter with 0-volume 1 and empty chain. A non-integer
    index raises TypeError.
    """
    n, tol, index = complex_.n, tolerance(tol), operator.index(index)
    if not 0 <= dim <= n:
        raise ValueError(f"dual pieces need 0 <= dim <= {n}, got {dim}")
    if not 0 <= index < complex_.num_simplices(dim):
        raise IndexError(f"no {dim}-simplex with index {index}")
    centers = [complex_.circumcenters(d) for d in range(dim, n + 1)]
    # simplex index of every level of every chain, base first, and each link's sign and length
    chain, steps, lengths = np.array([[index]]), np.ones((1, 0), np.int8), np.ones((1, 0))
    for d in range(dim + 1, n + 1):
        offsets, cofaces, columns = complex_.coface_index(d)
        first = offsets[chain[:, -1]]
        counts = offsets[chain[:, -1] + 1] - first
        # each chain, once per coface of its last simplex s: entries offsets[s] + 0, 1, ...
        parent = np.arange(len(chain)).repeat(counts)
        entry = (first - counts.cumsum() + counts).repeat(counts) + np.arange(len(parent))
        signs, length = _link_table(complex_, d, tol)
        link = cofaces[entry], columns[entry]
        chain = np.concatenate((chain[parent], link[0][:, None]), axis=1)
        steps = np.concatenate((steps[parent], signs[link][:, None]), axis=1)
        lengths = np.concatenate((lengths[parent], length[link][:, None]), axis=1)
    volumes = lengths.prod(axis=1) / math.factorial(n - dim)
    vertices = np.stack([c[chain[:, k]] for k, c in enumerate(centers)], axis=1)
    pieces = zip(chain[:, 1:].tolist(), vertices, steps.tolist(), volumes.tolist())
    return [
        ElementaryDual(dim, index, tuple(rest), points, tuple(signs), math.prod(signs), volume)
        for rest, points, signs, volume in pieces
    ]


def signed_dual_volume(complex_, dim, index, tol=None):
    """The dual cell of a p-simplex with its signed volume."""
    return DualCell(
        base_dim=dim, base_index=index,
        pieces=elementary_duals(complex_, dim, index, tol=tol),
    )


def orientation_sign_via_determinant(complex_, piece):
    """Recompute an elementary dual's sign by determinant comparison.

    Returns sign det of the piece's chain frame [base-simplex edges,
    successive circumcenter differences] times sign det of the top's
    vertex frame in chain order: the base's vertices, then the vertex each
    link adds. Each circumcenter step is the added vertex's offset from the
    face's hull scaled by the step's signed length, so the two frames agree
    exactly when the step signs multiply to +1; this equals the piece's
    step-sign product whenever no step is marginal. Requires a
    full-dimensional complex (N == n).
    """
    n = complex_.n
    if complex_.N != n:
        raise ValueError(
            "determinant orientation check needs a full-dimensional complex "
            f"(N == n), got N={complex_.N}, n={n}"
        )
    cells = [
        complex_.simplex_vertices(piece.base_dim + k, index)
        for k, index in enumerate((piece.base_index, *piece.chain))
    ]
    order = list(cells[0])
    for cell in cells[1:]:
        order += set(cell).difference(order)
    top = complex_.points[order]
    edges = top[1:] - top[0]  # the base's edges come first
    chain = np.vstack([edges[:piece.base_dim], np.diff(piece.vertices, axis=0)])
    chain_sign, top_sign = np.sign(np.linalg.det(np.stack([chain, edges])))
    if top_sign == 0:
        raise DegeneracyError("top simplex of the piece is degenerate")
    return int(chain_sign * top_sign)
