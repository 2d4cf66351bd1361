"""Simplicial complexes embedded in R^N, built from top-dimensional cells.

A complex holds its topology in index arrays. Per dimension p,
``simplices[p]`` lists the p-simplices as sorted vertex rows in
lexicographic order; ``orientations[p]`` holds +-1 per simplex, for top
simplices the parity of the user's vertex ordering; ``face_of_top[p]``
holds, per top and local p-face (in ``itertools.combinations`` order),
that face's index in ``simplices[p]``. The face table of dimension d >= 1
holds in column j of row i the face of d-simplex i that omits its vertex j;
its inverse, the coface index, lists each (d-1)-simplex's cofaces. The
signed incidences ``cofaces`` are its rows, and ``facet_cofaces`` its d = n
case. Both tables are built on first use; volumes, circumcenters and
barycentric coordinates are cached per dimension. Instances are immutable
after build; all queries are read-only. Build makes one sort per face
dimension p >= 1, the top one giving the top order and the duplicate tops.
scipy is imported by boundary_operator alone, the one function that calls
it, so building and querying a complex loads numpy alone.
"""

import itertools
from typing import Sequence

import numpy as np

from .config import DEGENERACY_FACTOR
from .errors import ComplexError, DegeneracyError, NonManifoldError
from .geometry import Circumdata, _real_floats, batched_circumcenters

__all__ = ["SimplicialComplex", "build_complex", "boundary_operator"]


class SimplicialComplex:
    """Embedded simplicial complex; construct via :func:`build_complex`."""

    def __init__(self, points, simplices, orientations, face_of_top, facet_cofaces, codes):
        self.points = points
        self.simplices = simplices
        self.orientations = orientations
        self.face_of_top = face_of_top
        # (tops, columns), read-only (F, 2): row f holds the tops of facet f
        # in ascending order and the vertex column f omits; -1 pads boundary rows
        self.facet_cofaces = facet_cofaces
        self._codes = codes
        self.n = len(simplices) - 1
        self.N = points.shape[1]
        self._geometry = [None] * (self.n + 1)  # see geometry()
        self._face_tables = [None] * (self.n + 1)  # see face_table()
        self._coface_indices = [None] * (self.n + 1)  # see coface_index()
        self._cofaces = None
        # signed_dual's link-table and DualTable memos, keyed by (dim, tolerance),
        # and classify_complex's pair and boundary signs, keyed by tolerance
        self._link_cache, self._dual_volume_cache, self._sign_cache = {}, {}, {}

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
            return int(self.simplex_indices(dim, [key])[0])
        except ComplexError:
            raise ComplexError(f"no {dim}-simplex with vertices {key}") from None

    def simplex_indices(self, dim, rows):
        """Indices of the dim-simplices with the given vertex rows.

        Batched twin of :meth:`simplex_index`: ``rows`` is an integer array
        of shape (..., dim + 1) and the result has shape rows.shape[:-1].
        Sorted rows are found by binary search on the codes of their leading
        faces, one dimension at a time; no code exceeds num_simplices(d - 1)
        times the number of points, so none overflows.
        """
        rows = np.sort(np.asarray(rows, dtype=np.intp), axis=-1)
        if rows.shape[-1] != dim + 1:
            raise ComplexError(f"{dim}-simplices have {dim + 1} vertices, got {rows.shape[-1]}")
        num_points = len(self.points)
        found = np.zeros(rows.shape[:-1], dtype=np.intp)
        valid = ((rows >= 0) & (rows < num_points)).all(axis=-1)
        for d in range(dim + 1):
            codes = self._codes[d]
            query = found * num_points + rows[..., d]
            found = np.minimum(np.searchsorted(codes, query), len(codes) - 1)
            valid &= codes[found] == query
        if not valid.all():
            raise ComplexError(f"some queried {dim}-simplices are not in the complex")
        return found

    def face_table(self, dim):
        """Read-only (num_simplices(dim), dim + 1) array: entry (i, j) is the
        index of the (dim-1)-face of dim-simplex i that omits its vertex j.
        Built on first use, for 1 <= dim <= n."""
        if not 1 <= dim <= self.n:
            raise ValueError(f"face tables need 1 <= dim <= {self.n}, got {dim}")
        if self._face_tables[dim] is None:
            # local face k of a top, less its vertex j, is local (dim-1)-face omit[k][j]
            lower = list(itertools.combinations(range(self.n + 1), dim))
            local = itertools.combinations(range(self.n + 1), dim + 1)
            omit = [[lower.index(c[:j] + c[j + 1:]) for j in range(dim + 1)] for c in local]
            table = np.empty((self.num_simplices(dim), dim + 1), dtype=np.intp)
            table[self.face_of_top[dim]] = self.face_of_top[dim - 1][:, omit]
            table.setflags(write=False)
            self._face_tables[dim] = table
        return self._face_tables[dim]

    def coface_index(self, dim):
        """Read-only (offsets, cofaces, columns), the inverse of
        ``face_table(dim)``: (dim-1)-simplex i is entry (cofaces[k], columns[k])
        of the face table for k in offsets[i]:offsets[i + 1], cofaces ascending."""
        if not 1 <= dim <= self.n:
            raise ValueError(f"coface indices need 1 <= dim <= {self.n}, got {dim}")
        if self._coface_indices[dim] is None:
            self._coface_indices[dim] = _invert(self.face_table(dim))
        return self._coface_indices[dim]

    # -- cached geometry -----------------------------------------------

    def geometry(self, dim):
        """Read-only (volumes, circumcenters, circumradii, degenerate,
        barycentric) of all dim-simplices, 0 <= dim <= n (else ValueError);
        raises no DegeneracyError. ``degenerate`` flags the simplices whose
        circumcenter failed its check; their other values are placeholders,
        and the accessors below raise for the whole dimension."""
        if not 0 <= dim <= self.n:
            raise ValueError(f"geometry needs 0 <= dim <= {self.n}, got {dim}")
        if self._geometry[dim] is None:
            stacked = self.points[self.simplices[dim]]
            *circumdata, volumes = batched_circumcenters(stacked)
            geometry = volumes, *circumdata
            for arr in geometry:
                arr.setflags(write=False)
            self._geometry[dim] = geometry, np.flatnonzero(geometry[3])[:1]
        return self._geometry[dim][0]

    def _checked_geometry(self, dim):
        geometry = self.geometry(dim)
        for i in self._geometry[dim][1]:  # its first degenerate simplex, if any
            raise DegeneracyError(f"{dim}-simplex {self.simplex_vertices(dim, i)} is degenerate")
        return geometry

    def volume_of(self, dim, index):
        return float(self.volumes(dim)[index])

    def volumes(self, dim):
        """Read-only array of all volumes at one dimension."""
        return self._checked_geometry(dim)[0]

    def circumcenter_of(self, dim, index):
        return Circumdata(self.circumcenters(dim)[index], float(self.circumradii(dim)[index]))

    def circumcenters(self, dim):
        """Read-only (count, N) array of all circumcenters at one dimension."""
        return self._checked_geometry(dim)[1]

    def circumradii(self, dim):
        """Read-only array of all circumradii at one dimension."""
        return self._checked_geometry(dim)[2]

    @property
    def total_volume(self):
        return float(self.volumes(self.n).sum())

    # -- incidence -----------------------------------------------------

    @property
    def cofaces(self):
        """Per dimension p < n and p-simplex i, its (coface, sign) pairs in
        ascending coface order: row i of ``boundary_operator(self, p + 1)``."""
        if self._cofaces is None:
            self._cofaces = []
            for dim in range(1, self.n + 1):
                offsets, cofaces, columns = self.coface_index(dim)
                signs = self.orientations[dim][cofaces] * (-1) ** columns
                pairs = list(zip(cofaces.tolist(), signs.tolist()))
                self._cofaces.append([pairs[a:b] for a, b in itertools.pairwise(offsets.tolist())])
        return self._cofaces

    def boundary_faces(self):
        """Codim-1 simplices with exactly one coface, paired with it."""
        tops, _ = self.facet_cofaces
        facets = np.flatnonzero(tops[:, 1] < 0)
        return list(zip(facets.tolist(), tops[facets, 0].tolist()))

    def internal_faces(self):
        """Codim-1 simplices with two cofaces, paired with both."""
        tops, _ = self.facet_cofaces
        facets = np.flatnonzero(tops[:, 1] >= 0)
        return list(zip(facets.tolist(), map(tuple, tops[facets].tolist())))


def _invert(table):
    """Read-only (offsets, rows, columns) of a table holding 0..max: value i
    is at (rows[k], columns[k]) for k in offsets[i]:offsets[i + 1], rows ascending."""
    flat = table.ravel()
    offsets = np.concatenate([[0], np.cumsum(np.bincount(flat))])
    index = offsets, *np.divmod(np.argsort(flat, kind="stable"), table.shape[1])
    for arr in index:
        arr.setflags(write=False)
    return index


def _non_index_dtype(values, array):
    """The dtype to name when ``array``, numpy's reading of ``values``, is
    not vertex indices, else None. Integer arrays pass, and so do float
    arrays whose values are all integral (inf passes, for the range check to
    refuse); a bool among the ints or floats of a list fails, as numpy
    would read it as 0 or 1."""
    kind = array.dtype.kind
    if kind not in "iuf" or kind == "f" and not (np.floor(array) == array).all():
        return array.dtype
    if isinstance(values, np.ndarray) or not any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat
    ):
        return None
    return "bool"


def _top_array(top_simplices, n, num_points):
    """The top cells as a (T, n + 1) array in input order, the same as ints
    with each row sorted, and the ComplexError of the first cell whose vertex
    count is wrong, that repeats a vertex or that holds one out of range;
    the arrays then stop before that cell. Entries that are not integers
    (float arrays of integral values pass) raise ComplexError at once,
    naming their dtype."""
    try:
        cells = np.asarray(top_simplices)
    except ValueError:  # ragged cells
        cells = None
    if cells is None or cells.shape != (len(top_simplices), n + 1):
        for cell_num, cell in enumerate(top_simplices):
            if len(cell) != n + 1:
                cells, rows, fault = _top_array(top_simplices[:cell_num], n, num_points)
                return cells, rows, fault or ComplexError(
                    f"top simplex {cell_num} has {len(cell)} vertices, expected {n + 1}"
                )
        raise ComplexError(f"top simplices must be rows of {n + 1} vertex indices")
    bad = _non_index_dtype(top_simplices, cells)
    if bad is not None:
        raise ComplexError(f"top simplex vertex indices must be integers, got {bad} values")
    # checked in the input's dtype, so a float too large for an int is out of range
    ordered = np.sort(cells, axis=1)
    repeats = np.any([ordered[:, j] == ordered[:, j + 1] for j in range(n)], axis=0)
    outside = (ordered[:, 0] < 0) | (ordered[:, n] >= num_points)
    for i in np.flatnonzero(repeats | outside)[:1]:
        cell = tuple(cells[i].tolist())
        if repeats[i]:
            fault = ComplexError(f"top simplex {i} repeats a vertex: {cell}")
        else:
            vertex = next(v for v in cell if not 0 <= v < num_points)
            fault = ComplexError(f"vertex {vertex} out of range in top simplex {i}")
        return cells[:i], ordered[:i].astype(np.intp), fault
    return cells, ordered.astype(np.intp, copy=False), None


def build_complex(points, top_simplices: Sequence[Sequence[int]]):
    """Build a simplicial complex from points and top-dimensional cells.

    Closes the top cells under taking faces, deduplicates per dimension
    (lexicographic order of sorted vertex rows), records which simplex each
    face of each top is, and validates: vertex indices in range and distinct
    per cell, uniform top dimension n with 1 <= n <= N, every codim-1 simplex
    has one or two cofaces (else NonManifoldError), no duplicate top cells,
    and no (near-)zero-volume top cell (else DegeneracyError).
    """
    try:
        pts = _real_floats(points, ComplexError)
    except ValueError:  # ragged rows
        raise ComplexError("points must be a nonempty (P, N) array, got ragged rows") from None
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ComplexError(f"points must be a nonempty (P, N) array, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ComplexError("points must be finite")
    num_points, ambient = pts.shape

    if len(top_simplices) == 0:
        raise ComplexError("at least one top simplex is required")
    n = len(top_simplices[0]) - 1
    if n < 1:
        raise ComplexError("top simplices need at least 2 vertices")
    if n > ambient:
        raise ComplexError(f"{n}-simplices cannot embed in R^{ambient}")
    cells, rows, fault = _top_array(top_simplices, n, num_points)
    column_pairs = itertools.combinations(range(n + 1), 2)
    inversions = sum(cells[:, a] > cells[:, b] for a, b in column_pairs)

    # Vertices are ranked by presence. A p-face's code, its leading (p-1)-face's
    # index times the number of points plus its last vertex, ascends in
    # lexicographic order: unique codes list the p-simplices, and their inverse,
    # tops in input order, is face_of_top[p].
    present = np.bincount(rows.ravel(), minlength=num_points) > 0
    codes, face_of_top = [np.flatnonzero(present)], [(np.cumsum(present) - 1)[rows]]
    simplices = [codes[0][:, None]]
    for p in range(1, n + 1):
        local = list(itertools.combinations(range(n + 1), p + 1))
        leading = {c: k for k, c in enumerate(itertools.combinations(range(n + 1), p))}
        lead = face_of_top[-1][:, [leading[c[:-1]] for c in local]]
        face_code = lead * num_points + rows[:, [c[-1] for c in local]]
        code, *first, inverse = np.unique(face_code, return_index=p == n, return_inverse=True)
        lead, last = np.divmod(code, num_points)
        simplices.append(np.hstack([np.take(simplices[-1], lead, axis=0), last[:, None]]))
        face_of_top.append(inverse.reshape(face_code.shape))
        codes.append(code)
    order = first[0]  # each top code's first top; a top left out repeats one
    for i in np.flatnonzero(np.bincount(order, minlength=len(rows)) == 0)[:1]:
        raise ComplexError(f"duplicate top simplex {tuple(np.sort(cells[i]).tolist())}")
    if fault is not None:
        raise fault
    face_of_top = [np.take(table, order, axis=0) for table in face_of_top]
    orientations = [np.ones(len(level), dtype=np.int8) for level in simplices[:-1]]
    orientations.append(np.where(inversions[order] % 2, -1, 1).astype(np.int8))

    # The coface index of dimension n, kept, is face_of_top[n - 1] inverted with
    # its columns reversed, as local facet k of a top omits its vertex n - k.
    top_index = offsets, holders, columns = _invert(face_of_top[n - 1][:, ::-1])
    counts = np.diff(offsets)
    for i in np.flatnonzero(counts > 2)[:1]:
        raise NonManifoldError(
            f"codim-1 simplex {tuple(simplices[n - 1][i].tolist())} has {counts[i]} cofaces"
        )
    ends = np.stack([offsets[:-1], offsets[1:] - 1], axis=1)
    facet_tops, facet_columns = holders[ends], columns[ends]
    facet_tops[counts == 1, 1] = facet_columns[counts == 1, 1] = -1
    for arr in (*simplices, *face_of_top, *codes, *orientations, facet_tops, facet_columns):
        arr.setflags(write=False)

    complex_ = SimplicialComplex(
        points=pts.copy(), simplices=simplices, orientations=orientations,
        face_of_top=face_of_top, facet_cofaces=(facet_tops, facet_columns), codes=codes,
    )
    complex_.points.setflags(write=False)
    complex_._coface_indices[n] = top_index

    # Reject (near-)zero-volume top cells: threshold far below predicate
    # tolerance, scaled by the longest cached edge to stay unit-free. A top
    # whose volume is no finite normal double, or whose longest edge^n
    # overflows, has a scale outside double range: reported, not warned of.
    with np.errstate(over="ignore", invalid="ignore"):
        volumes = complex_.geometry(n)[0]
        span = complex_.geometry(1)[0][face_of_top[1]].max(axis=1) ** n
    floor = np.maximum(DEGENERACY_FACTOR * span, np.finfo(float).tiny)
    for i in np.flatnonzero(~(floor <= volumes) | (volumes == np.inf))[:1]:
        top = complex_.simplex_vertices(n, i)
        if (pts[list(top)] == pts[top[0]]).all():
            raise DegeneracyError(f"top simplex {top} has coincident vertices")
        if volumes[i] < DEGENERACY_FACTOR * span[i] < np.inf:
            raise DegeneracyError(f"top simplex {top} is degenerate (volume {volumes[i]:.3e})")
        raise DegeneracyError(
            f"top simplex {top} has volume {volumes[i]:.3e}: its scale is outside double range"
        )

    return complex_


def boundary_operator(complex_, dim):
    """Signed incidence matrix from dim-simplices to their (dim-1)-faces.

    Returns a scipy.sparse CSR matrix of shape (num_{dim-1}, num_dim) with
    entries +-1: column j holds the boundary chain of simplex j, including
    its stored orientation. Composing two successive operators gives zero.
    """
    from scipy import sparse

    faces = complex_.face_table(dim)  # raises ValueError unless 1 <= dim <= n
    cols = np.repeat(np.arange(len(faces)), dim + 1)
    vals = np.outer(complex_.orientations[dim], (-1.0) ** np.arange(dim + 1)).ravel()
    shape = (complex_.num_simplices(dim - 1), len(faces))
    return sparse.csr_matrix((vals, (faces.ravel(), cols)), shape=shape)
