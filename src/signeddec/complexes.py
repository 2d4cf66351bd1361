"""Simplicial complexes embedded in R^N, built from top-dimensional cells.

A complex stores, per dimension p, the p-simplices as sorted vertex tuples
in lexicographic order, an orientation flag (+-1, only meaningful for top
simplices where it records the parity of the user's vertex ordering), the
coface incidences, and cached volumes/circumcenters. Instances are
immutable after build; all queries are read-only.
"""

import itertools
from typing import Sequence

import numpy as np
from scipy import sparse

from .config import DEGENERACY_FACTOR
from .errors import ComplexError, DegeneracyError, NonManifoldError
from .geometry import (
    Circumdata,
    batched_circumcenters,
    batched_volumes,
    circumcenter,
)

__all__ = ["SimplicialComplex", "build_complex", "boundary_operator"]


def _permutation_parity(seq):
    """+1 if seq is an even permutation of sorted(seq), else -1."""
    inversions = sum(
        1
        for a, b in itertools.combinations(range(len(seq)), 2)
        if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1


class SimplicialComplex:
    """Embedded simplicial complex; construct via :func:`build_complex`."""

    def __init__(self, points, simplices, orientations, cofaces, index):
        self.points = points
        self.simplices = simplices
        self.orientations = orientations
        self.cofaces = cofaces
        self._index = index
        self.n = len(simplices) - 1
        self.N = points.shape[1]
        self._volumes = [None] * (self.n + 1)
        self._centers = [None] * (self.n + 1)
        self._radii = [None] * (self.n + 1)
        # signed_dual's DualTable memo, keyed by (dim, resolved tolerance)
        self._dual_volume_cache = {}

    # -- basic queries -------------------------------------------------

    def num_simplices(self, dim):
        return len(self.simplices[dim])

    def simplex_vertices(self, dim, index):
        return tuple(int(v) for v in self.simplices[dim][index])

    def simplex_points(self, dim, index):
        return self.points[self.simplices[dim][index]]

    def simplex_index(self, dim, vertices):
        key = tuple(sorted(int(v) for v in vertices))
        try:
            return self._index[dim][key]
        except KeyError:
            raise ComplexError(f"no {dim}-simplex with vertices {key}") from None

    def simplex_indices(self, dim, rows):
        """Indices of the dim-simplices with the given vertex rows.

        Batched twin of :meth:`simplex_index`: ``rows`` is an integer array
        of shape (..., dim + 1) and the result has shape rows.shape[:-1].
        Sorted rows are coded as mixed-radix integers and found by binary
        search in the simplex table, whose lexicographic order keeps the
        codes ascending.
        """
        rows = np.sort(np.asarray(rows, dtype=np.intp), axis=-1)
        radices = (len(self.points),) * (dim + 1)
        try:
            keys = np.ravel_multi_index(tuple(self.simplices[dim].T), radices)
            query = np.ravel_multi_index(tuple(np.moveaxis(rows, -1, 0)), radices)
        except ValueError:  # codes would overflow int64, or a vertex is out of range
            flat = [self.simplex_index(dim, row) for row in rows.reshape(-1, dim + 1)]
            return np.array(flat, dtype=np.intp).reshape(rows.shape[:-1])
        found = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        if (keys[found] != query).any():
            raise ComplexError(f"some queried {dim}-simplices are not in the complex")
        return found

    def orientation(self, dim, index):
        return int(self.orientations[dim][index])

    def apex_vertex(self, dim, face_index, coface_index):
        """The vertex of the coface not in the face (face dim = dim)."""
        face = set(self.simplices[dim][face_index])
        for v in self.simplices[dim + 1][coface_index]:
            if int(v) not in face:
                return int(v)
        raise ComplexError("coface does not extend face")

    # -- cached geometry -----------------------------------------------

    def _fill_geometry(self, dim):
        sims = self.simplices[dim]
        stacked = self.points[sims]
        vols = batched_volumes(stacked)
        batched = batched_circumcenters(stacked)
        if batched is not None:
            centers, radii = batched
        else:
            # scalar route recovers which simplex is degenerate
            centers = np.empty((len(sims), self.N))
            radii = np.empty(len(sims))
            for i, row in enumerate(sims):
                try:
                    data = circumcenter(self.points[row])
                except DegeneracyError as exc:
                    raise DegeneracyError(
                        f"{dim}-simplex {tuple(int(v) for v in row)} is degenerate"
                    ) from exc
                centers[i] = data.center
                radii[i] = data.radius
        for arr in (vols, centers, radii):
            arr.setflags(write=False)
        self._volumes[dim] = vols
        self._centers[dim] = centers
        self._radii[dim] = radii

    def volume_of(self, dim, index):
        return float(self.volumes(dim)[index])

    def volumes(self, dim):
        """Read-only array of all volumes at one dimension."""
        if self._volumes[dim] is None:
            self._fill_geometry(dim)
        return self._volumes[dim]

    def circumcenter_of(self, dim, index):
        if self._centers[dim] is None:
            self._fill_geometry(dim)
        return Circumdata(self._centers[dim][index], float(self._radii[dim][index]))

    def circumcenters(self, dim):
        """Read-only (count, N) array of all circumcenters at one dimension."""
        if self._centers[dim] is None:
            self._fill_geometry(dim)
        return self._centers[dim]

    @property
    def total_volume(self):
        if self._volumes[self.n] is None:
            self._fill_geometry(self.n)
        return float(self._volumes[self.n].sum())

    # -- facet adjacency -----------------------------------------------

    def boundary_faces(self):
        """Codim-1 simplices with exactly one coface, paired with it."""
        out = []
        for i, cofs in enumerate(self.cofaces[self.n - 1]):
            if len(cofs) == 1:
                out.append((i, cofs[0][0]))
        return out

    def internal_faces(self):
        """Codim-1 simplices with two cofaces, paired with both."""
        out = []
        for i, cofs in enumerate(self.cofaces[self.n - 1]):
            if len(cofs) == 2:
                out.append((i, (cofs[0][0], cofs[1][0])))
        return out


def build_complex(points, top_simplices: Sequence[Sequence[int]]):
    """Build a simplicial complex from points and top-dimensional cells.

    Closes the top cells under taking faces, deduplicates per dimension
    (lexicographic order of sorted vertex tuples), records coface
    incidences, and validates: vertex indices in range and distinct per
    cell, uniform top dimension n with 1 <= n <= N, every codim-1 simplex
    has one or two cofaces (else NonManifoldError), no duplicate top cells,
    and no (near-)zero-volume top cell (else DegeneracyError).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ComplexError(f"points must be a nonempty (P, N) array, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ComplexError("points must be finite")
    num_points, ambient = pts.shape

    tops = [tuple(int(v) for v in cell) for cell in top_simplices]
    if not tops:
        raise ComplexError("at least one top simplex is required")
    n = len(tops[0]) - 1
    if n < 1:
        raise ComplexError("top simplices need at least 2 vertices")
    if n > ambient:
        raise ComplexError(f"{n}-simplices cannot embed in R^{ambient}")

    seen_tops = {}
    top_orient = []
    for cell_num, cell in enumerate(tops):
        if len(cell) != n + 1:
            raise ComplexError(
                f"top simplex {cell_num} has {len(cell)} vertices, expected {n + 1}"
            )
        if len(set(cell)) != n + 1:
            raise ComplexError(f"top simplex {cell_num} repeats a vertex: {cell}")
        for v in cell:
            if not 0 <= v < num_points:
                raise ComplexError(f"vertex {v} out of range in top simplex {cell_num}")
        key = tuple(sorted(cell))
        if key in seen_tops:
            raise ComplexError(f"duplicate top simplex {key}")
        seen_tops[key] = cell_num
        top_orient.append(_permutation_parity(cell))

    # Collect faces per dimension; tops keep input order of first mention
    # only transiently, final storage is lexicographic.
    keys = [None] * (n + 1)
    keys[n] = sorted(seen_tops)
    for p in range(n - 1, -1, -1):
        face_set = set()
        for cell in keys[p + 1]:
            face_set.update(itertools.combinations(cell, p + 1))
        keys[p] = sorted(face_set)

    simplices = []
    index = []
    orientations = []
    for p in range(n + 1):
        arr = np.asarray(keys[p], dtype=np.intp).reshape(len(keys[p]), p + 1)
        arr.setflags(write=False)
        simplices.append(arr)
        index.append({cell: i for i, cell in enumerate(keys[p])})
    for p in range(n):
        orient = np.ones(len(keys[p]), dtype=np.int8)
        orient.setflags(write=False)
        orientations.append(orient)
    top_orient_arr = np.empty(len(keys[n]), dtype=np.int8)
    for key, cell_num in seen_tops.items():
        top_orient_arr[index[n][key]] = top_orient[cell_num]
    top_orient_arr.setflags(write=False)
    orientations.append(top_orient_arr)

    cofaces = []
    for p in range(n):
        cofaces.append([[] for _ in range(len(keys[p]))])
    for p in range(1, n + 1):
        for j, cell in enumerate(keys[p]):
            orient = int(orientations[p][j])
            for pos in range(p + 1):
                face = cell[:pos] + cell[pos + 1 :]
                sign = orient * (1 if pos % 2 == 0 else -1)
                cofaces[p - 1][index[p - 1][face]].append((j, sign))

    for i, cofs in enumerate(cofaces[n - 1]):
        if len(cofs) > 2:
            raise NonManifoldError(
                f"codim-1 simplex {keys[n - 1][i]} has {len(cofs)} cofaces"
            )

    complex_ = SimplicialComplex(
        points=pts.copy(), simplices=simplices, orientations=orientations,
        cofaces=cofaces, index=index,
    )
    complex_.points.setflags(write=False)

    # Reject (near-)zero-volume top cells: threshold far below predicate
    # tolerance, scaled by the longest edge to stay unit-free.
    cell_pts = pts[simplices[n]]
    longest = np.linalg.norm(cell_pts[:, :, None] - cell_pts[:, None], axis=-1).max(axis=(1, 2))
    vols = batched_volumes(cell_pts)
    for i in np.nonzero((longest == 0.0) | (vols < DEGENERACY_FACTOR * longest**n))[0][:1]:
        if longest[i] == 0.0:
            raise DegeneracyError(f"top simplex {keys[n][i]} has coincident vertices")
        raise DegeneracyError(
            f"top simplex {keys[n][i]} is degenerate (volume {vols[i]:.3e})"
        )

    return complex_


def boundary_operator(complex_, dim):
    """Signed incidence matrix from dim-simplices to their (dim-1)-faces.

    Returns a scipy.sparse CSR matrix of shape (num_{dim-1}, num_dim) with
    entries +-1: column j holds the boundary chain of simplex j, including
    its stored orientation. Composing two successive operators gives zero.
    """
    if not 1 <= dim <= complex_.n:
        raise ValueError(f"boundary operator needs 1 <= dim <= {complex_.n}, got {dim}")
    cells = complex_.simplices[dim]
    faces = np.stack([np.delete(cells, pos, axis=1) for pos in range(dim + 1)], axis=1)
    rows = complex_.simplex_indices(dim - 1, faces).ravel()
    cols = np.repeat(np.arange(len(cells)), dim + 1)
    vals = np.outer(complex_.orientations[dim], (-1.0) ** np.arange(dim + 1)).ravel()
    shape = (complex_.num_simplices(dim - 1), len(cells))
    return sparse.csr_matrix((vals, (rows, cols)), shape=shape)
