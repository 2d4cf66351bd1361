"""Signed circumcentric duals of simplices in an embedded complex.

The dual of a p-simplex is assembled from elementary pieces, one per
ascending chain of cofaces up to the top dimension n. Each piece is the
simplex spanned by the circumcenters along the chain; its sign is the
product of one step sign per chain link. The step sign at a link compares,
within the affine hull of the larger simplex, the side of the larger
simplex's circumcenter against the side of the vertex that extends the
smaller simplex: +1 same side, -1 opposite, 0 on the dividing hyperplane
(such a piece is marginal and contributes zero).

Every chain ends in exactly one top simplex. In a top with sorted vertices
0..n, a chain from a p-face is fixed by its base face and the order in
which the other n - p vertices are added, so each top holds
C(n+1, p+1) (n-p)! chains. These local patterns are enumerated once per
(n, p). The chain table of dimension p applies them to all tops in one
numpy pass: faces along each chain are read from the complex's
``face_of_top`` tables, every link sign and piece volume is computed at
once, and ``np.bincount`` sums the pieces per base simplex. Tops go through
in fixed-size blocks so the arrays stay small. Each table, totals and
pieces, is memoized on the complex per (p, tolerance).
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import tolerance
from .errors import ComplexError, DegeneracyError
from .geometry import batched_volumes, circumcenter, halfspace_sign

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
    "regular_simplex",
]

# Top simplices per block of the chain table. A block of tetrahedra at
# p = 0 (24 chains of 4 circumcenters each) then holds a few MiB of arrays.
_TOP_BLOCK = 512


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
        return float(sum(p.sign * p.unsigned_volume for p in self.pieces))

    @property
    def unsigned_volume(self):
        return float(sum(p.unsigned_volume for p in self.pieces))

    @property
    def num_negative_pieces(self):
        return sum(1 for p in self.pieces if p.sign < 0)

    @property
    def has_marginal_piece(self):
        return any(p.sign == 0 for p in self.pieces)

    def restricted_signed_volume(self, top_index):
        """Signed volume of the pieces inside one top simplex."""
        return float(
            sum(
                p.sign * p.unsigned_volume
                for p in self.pieces
                if p.top_index == top_index
            )
        )


@dataclass(frozen=True)
class DualTable:
    """The chain table of one dimension p, as read-only arrays.

    Per p-simplex: ``signed_volume``, ``unsigned_volume``, ``num_pieces``
    and ``num_negative_pieces``. Per piece, sorted by base simplex and then
    chain: ``chain`` (simplex indices at dimensions p+1 .. n),
    ``step_signs`` (one per link) and ``piece_volume`` (unsigned). The
    pieces of p-simplex i are rows offsets[i]:offsets[i+1].
    """

    signed_volume: np.ndarray
    unsigned_volume: np.ndarray
    num_pieces: np.ndarray
    num_negative_pieces: np.ndarray
    offsets: np.ndarray
    chain: np.ndarray
    step_signs: np.ndarray
    piece_volume: np.ndarray


def _link_signs(face_centers, coface_centers, apexes, eps):
    """Step signs of a stack of links, one per row of the (..., N) inputs.

    The sign of (c_coface - c_face) . (apex - c_face); 0 when either factor
    vanishes or the dot product is within eps of their norms' product.
    """
    across = coface_centers - face_centers
    toward = apexes - face_centers
    value = (across * toward).sum(axis=-1)
    scale = np.linalg.norm(across, axis=-1) * np.linalg.norm(toward, axis=-1)
    marginal = (scale == 0.0) | (np.abs(value) <= eps * scale)
    return np.where(marginal, 0, np.sign(value)).astype(np.int8)


def step_signs(complex_, dim, face_indices, coface_indices, tol=None):
    """Step signs of many chain links at once: link i goes from the
    dim-simplex face_indices[i] to its coface coface_indices[i].

    Returns an int8 array of +1/0/-1 as :func:`step_sign` would give for
    each link; a link touching a simplex whose circumcenter is degenerate
    gets 0. Raises ComplexError if a coface does not extend its face.
    """
    faces = np.asarray(face_indices, dtype=np.intp)
    cofaces = np.asarray(coface_indices, dtype=np.intp)
    face_rows = complex_.simplices[dim][faces]
    coface_rows = complex_.simplices[dim + 1][cofaces]
    extra = (coface_rows[:, :, None] != face_rows[:, None, :]).all(axis=2)
    if (extra.sum(axis=1) != 1).any():
        raise ComplexError("coface does not extend face")
    _, face_centers, _, face_flags = complex_.geometry(dim)
    _, coface_centers, _, coface_flags = complex_.geometry(dim + 1)
    signs = _link_signs(
        face_centers[faces], coface_centers[cofaces], complex_.points[coface_rows[extra]],
        max(tolerance(tol), 1e-14),
    )
    signs[face_flags[faces] | coface_flags[cofaces]] = 0
    return signs


def step_sign(complex_, dim, face_index, coface_index, tol=None):
    """Sign of one chain link: side of the coface's circumcenter relative
    to the face's affine hull, measured against the extending vertex.

    Returns +1 (circumcenter on the extending vertex's side), -1
    (opposite side), or 0 (on the hull within tolerance).

    Both circumcenters project onto the face's hull at the same point, so
    the half-space test reduces to one dot product against cached centers.
    """
    return int(step_signs(complex_, dim, [face_index], [coface_index], tol=tol)[0])


@functools.lru_cache(maxsize=None)
def _chain_patterns(n, p):
    """Chains of a top with sorted local vertices 0..n, from a p-face.

    Returns (levels, apexes): levels[c, k] is the position of chain c's
    (p+k)-face among the top's local (p+k)-faces in lexicographic order,
    which is the column order of ``face_of_top[p+k]``, and apexes[c, k]
    the local vertex that link k adds.
    """
    faces = [list(itertools.combinations(range(n + 1), d + 1)) for d in range(p, n + 1)]
    chains = [
        (base, order)
        for base in faces[0]
        for order in itertools.permutations(sorted(set(range(n + 1)) - set(base)))
    ]
    levels = [
        [faces[k].index(tuple(sorted(base + order[:k]))) for k in range(n - p + 1)]
        for base, order in chains
    ]
    levels = np.array(levels)
    apexes = np.array([order for _, order in chains], dtype=np.intp).reshape(len(chains), n - p)
    for arr in (levels, apexes):  # shared by every caller of the cache
        arr.setflags(write=False)
    return levels, apexes


def _chain_table(complex_, dim, eps):
    """Build the DualTable of one dimension, one block of tops at a time."""
    n = complex_.n
    levels, apexes = _chain_patterns(n, dim)
    centers = [complex_.circumcenters(d) for d in range(dim, n + 1)]
    parts = []
    tops = complex_.simplices[n]
    for start in range(0, len(tops), _TOP_BLOCK):
        block = slice(start, start + _TOP_BLOCK)
        # simplex index of every level of every chain: (tops, chains, levels)
        chain = np.stack(
            [
                complex_.face_of_top[dim + k][block][:, levels[:, k]]
                for k in range(n - dim + 1)
            ],
            axis=-1,
        )
        path = np.stack([c[chain[..., k]] for k, c in enumerate(centers)], axis=2)
        steps = _link_signs(
            path[:, :, :-1], path[:, :, 1:], complex_.points[tops[block][:, apexes]], eps
        )
        volume = batched_volumes(path.reshape(-1, *path.shape[2:]))
        parts.append(
            (chain.reshape(len(volume), -1), steps.reshape(len(volume), -1), volume)
        )
    chain, steps, volume = (np.concatenate(columns) for columns in zip(*parts))
    del parts  # the blocks are copied; free them before sorting copies again
    # base simplex first, then the chain: the depth-first order of cofaces
    order = np.lexsort(chain.T[::-1])
    chain, steps, volume = chain[order], steps[order], volume[order]
    base, sign = chain[:, 0], steps.prod(axis=1)
    count = complex_.num_simplices(dim)
    num_pieces = np.bincount(base, minlength=count)
    table = DualTable(
        signed_volume=np.bincount(base, weights=sign * volume, minlength=count),
        unsigned_volume=np.bincount(base, weights=volume, minlength=count),
        num_pieces=num_pieces,
        num_negative_pieces=np.bincount(base[sign < 0], minlength=count),
        offsets=np.concatenate([[0], np.cumsum(num_pieces)]),
        chain=chain[:, 1:],
        step_signs=steps,
        piece_volume=volume,
    )
    for column in vars(table).values():
        column.setflags(write=False)
    return table


def dual_table(complex_, dim, tol=None):
    """The :class:`DualTable` of signed duals at one dimension.

    For p = n every simplex has one piece of volume 1 (point measure).
    Memoized on the complex per (dim, resolved tolerance); the geometry is
    immutable so the memo never goes stale.
    """
    key = (dim, tolerance(tol))
    cache = complex_._dual_volume_cache
    if key not in cache:
        cache[key] = _chain_table(complex_, dim, max(key[1], 1e-14))
    return cache[key]


def dual_volumes(complex_, dim, tol=None):
    """Signed and unsigned dual volumes for every p-simplex.

    Returns a pair of read-only arrays (signed, unsigned), indexed like the
    p-simplices; two columns of the memoized :func:`dual_table`.
    """
    table = dual_table(complex_, dim, tol=tol)
    return table.signed_volume, table.unsigned_volume


def elementary_duals(complex_, dim, index, tol=None):
    """All elementary dual pieces of the given p-simplex, read from the
    chain table in lexicographic order of their chains. For a top simplex
    the single piece is its circumcenter with 0-volume 1 and empty chain.
    """
    if not 0 <= index < complex_.num_simplices(dim):
        raise IndexError(f"no {dim}-simplex with index {index}")
    table = dual_table(complex_, dim, tol=tol)
    rows = slice(table.offsets[index], table.offsets[index + 1])
    centers = [complex_.circumcenters(d) for d in range(dim, complex_.n + 1)]
    pieces = []
    for chain, steps, volume in zip(
        table.chain[rows].tolist(), table.step_signs[rows].tolist(),
        table.piece_volume[rows].tolist(),
    ):
        pieces.append(
            ElementaryDual(
                base_dim=dim, base_index=index, chain=tuple(chain),
                vertices=np.vstack([c[i] for c, i in zip(centers, [index, *chain])]),
                step_signs=tuple(steps), sign=math.prod(steps), unsigned_volume=volume,
            )
        )
    return pieces


def signed_dual_volume(complex_, dim, index, tol=None):
    """The dual cell of a p-simplex with its signed volume."""
    return DualCell(
        base_dim=dim, base_index=index,
        pieces=elementary_duals(complex_, dim, index, tol=tol),
    )


def regular_simplex(n):
    """Vertices of a regular n-simplex in R^n (edge length sqrt(2)).

    Isometric image of the standard-basis simplex in R^(n+1); regular, so
    every face of every dimension contains its circumcenter.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    corners = np.eye(n + 1)
    edges = (corners[1:] - corners[0]).T
    basis, _ = np.linalg.qr(edges)
    flat = np.vstack([np.zeros(n), edges.T @ basis])
    return flat


def _edge_frame(points):
    pts = np.asarray(points, dtype=float)
    return pts[1:] - pts[0]


def _sign_of_det(matrix):
    det = np.linalg.det(matrix)
    if det == 0.0:
        return 0
    return 1 if det > 0 else -1


def _reference_sign(reference, cells, tol):
    """Determinant sign of the reference frame of a chain given as local
    vertex tuples (base first); raises ValueError unless the reference is
    well-centered along the chain (all step signs +1)."""
    centers = [circumcenter(reference[list(cell)]).center for cell in cells]
    for face, coface, center in zip(cells, cells[1:], centers[1:]):
        apex = next(v for v in coface if v not in face)
        if halfspace_sign(reference[list(face)], reference[apex], center, tol=tol) <= 0:
            raise ValueError("reference simplex is not well-centered")
    base = reference[list(cells[0])]
    rows = [base[k] - base[0] for k in range(1, len(base))]
    rows.extend(np.diff(np.vstack(centers), axis=0))
    return _sign_of_det(np.vstack(rows))


@functools.lru_cache(maxsize=None)
def _regular_reference_sign(n, det_top, cells, tol):
    """:func:`_reference_sign` for the default regular reference, which
    depends only on n, the top's orientation and the chain's local pattern."""
    reference = regular_simplex(n)
    if _sign_of_det(_edge_frame(reference)) != det_top:
        reference = reference[list(range(n - 1)) + [n, n - 1]]
    return _reference_sign(reference, cells, tol)


def orientation_sign_via_determinant(complex_, piece, reference_points=None, tol=None):
    """Recompute an elementary dual's sign by determinant comparison.

    Builds the n-frame [base-simplex edges, successive circumcenter
    differences] for the piece, builds the same frame for a well-centered
    reference simplex under the vertex bijection given by sorted vertex
    order, and returns the product of the two determinant signs. Requires a
    full-dimensional complex (N == n). With the default reference (a
    regular simplex, reflected if needed so the bijection preserves
    orientation) this equals the piece's step-sign product whenever no step
    is marginal; its half of the product is memoized per local pattern.
    """
    n = complex_.n
    if complex_.N != n:
        raise ValueError(
            "determinant orientation check needs a full-dimensional complex "
            f"(N == n), got N={complex_.N}, n={n}"
        )
    top_cell = complex_.simplex_vertices(n, piece.top_index)
    top_points = complex_.points[list(top_cell)]
    det_top = _sign_of_det(_edge_frame(top_points))
    if det_top == 0:
        raise DegeneracyError("top simplex of the piece is degenerate")

    position = {v: k for k, v in enumerate(top_cell)}
    cells = [complex_.simplex_vertices(piece.base_dim, piece.base_index)]
    cells.extend(
        complex_.simplex_vertices(piece.base_dim + 1 + k, ci)
        for k, ci in enumerate(piece.chain)
    )
    local = tuple(tuple(position[v] for v in cell) for cell in cells)

    if reference_points is None:
        ref_sign = _regular_reference_sign(n, det_top, local, tolerance(tol))
    else:
        reference = np.asarray(reference_points, dtype=float)
        if reference.shape != (n + 1, n):
            raise ValueError(
                f"reference must have shape {(n + 1, n)}, got {reference.shape}"
            )
        if _sign_of_det(_edge_frame(reference)) != det_top:
            raise ValueError(
                "vertex bijection to the reference does not preserve orientation"
            )
        ref_sign = _reference_sign(reference, local, tol)

    base_points = complex_.points[list(cells[0])]
    test_rows = [base_points[k] - base_points[0] for k in range(1, len(cells[0]))]
    test_rows.extend(np.diff(piece.vertices, axis=0))
    return _sign_of_det(np.vstack(test_rows)) * ref_sign
