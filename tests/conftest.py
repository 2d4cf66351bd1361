"""Shared oracle helpers for the test suite.

These deliberately recompute geometry through routes independent of the
package internals (Cayley-Menger determinants, explicit in-circle
determinants, per-angle cotangent sums) so tests compare two derivations
rather than an implementation with itself.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from signeddec.complexes import boundary_operator, build_complex
from signeddec.config import tolerance
from signeddec.hodge import hodge_star
from signeddec.signed_dual import _boundary_step_signs, _sweep


def cayley_menger_volume(points):
    """k-volume of a simplex from squared distances only."""
    points = np.asarray(points, dtype=float)
    k = len(points) - 1
    if k == 0:
        return 0.0
    m = np.zeros((k + 2, k + 2))
    m[0, 1:] = 1.0
    m[1:, 0] = 1.0
    for i in range(k + 1):
        for j in range(k + 1):
            diff = points[i] - points[j]
            m[i + 1, j + 1] = np.dot(diff, diff)
    det = np.linalg.det(m)
    vol2 = (-1.0) ** (k + 1) / (2.0 ** k * math.factorial(k) ** 2) * det
    return float(np.sqrt(max(vol2, 0.0)))


def exact_barycentric(points):
    """Exact barycentric coordinates, as Fractions, of the circumcenter of
    the simplex with the given float vertices: Gauss-Jordan elimination on
    the Gram system 2 (p_i - p_0) . (c - p_0) = |p_i - p_0|^2 in rational
    arithmetic, whose solution is coordinates 1..k; coordinate 0 is one
    minus their sum. Every float is a rational, so nothing is rounded."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(points, dtype=float).tolist()]
    edges = [[a - b for a, b in zip(row, rows[0])] for row in rows[1:]]
    k = len(edges)
    system = [
        [sum(a * b for a, b in zip(ei, ej)) for ej in edges] + [sum(a * a for a in ei) / 2]
        for ei in edges
    ]
    for col in range(k):
        pivot = next(r for r in range(col, k) if system[r][col] != 0)
        system[col], system[pivot] = system[pivot], system[col]
        for r in range(k):
            if r != col and system[r][col] != 0:
                factor = system[r][col] / system[col][col]
                system[r] = [a - factor * b for a, b in zip(system[r], system[col])]
    coeff = [system[i][k] / system[i][i] for i in range(k)]
    return [1 - sum(coeff), *coeff]


def exact_pair_powers(facet, left, right):
    """Exact (power, squared radius) pairs, as Fractions, of each far apex
    with respect to the other top's circumsphere: first the right apex
    against facet+left, then the left apex against facet+right. With
    exact_barycentric's coordinates lambda_i of the center c of vertices
    p_0..p_n and edges e_i = p_i - p_0, c - p_0 = sum_i lambda_i e_i and
    e_i . (c - p_0) = |e_i|^2 / 2, so r^2 = sum_i lambda_i |e_i|^2 / 2 and
    far apex b has power |b - p_0|^2 - 2 (b - p_0) . (c - p_0). For pairs in
    R^n (N = n) whose apexes lie on opposite sides of the facet, which are
    already unfolded."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    powers = []
    for near, far in ((left, right), (right, left)):
        rows = [[Fraction(x) for x in row] for row in np.vstack([facet, near, far]).tolist()]
        *edges, reach = ([a - b for a, b in zip(row, rows[0])] for row in rows[1:])
        weights = exact_barycentric(np.vstack([facet, near]))[1:]
        radius2 = sum(w * dot(e, e) for w, e in zip(weights, edges)) / 2
        power = dot(reach, reach) - 2 * sum(w * dot(reach, e) for w, e in zip(weights, edges))
        powers.append((power, radius2))
    return powers


def exact_side(facet, apex, query):
    """Exact (coordinate, residual^2, height^2), as Fractions, of query
    against the hull of facet+apex: its apex coordinate c (the apex edge's
    coefficient in the query's projection onto the span of the facet+apex
    edges from facet point 0), its squared distance off that hull, and the
    apex's squared height over the facet's hull. The signed offset of the
    query from the facet's hyperplane, toward the apex, is c times the
    height. Symmetric elimination, L D L^T, of the exact Gram system of the
    facet, apex and query edges: pivot i is edge i's squared distance from
    the span of the edges before it, and the multiplier of the apex pivot in
    the query's row is c. For a nondegenerate facet+apex."""
    rows = [[Fraction(x) for x in row] for row in np.vstack([facet, apex, query]).tolist()]
    edges = [[a - b for a, b in zip(row, rows[0])] for row in rows[1:]]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in edges] for u in edges]
    k = len(edges)
    for i in range(k - 1):
        for j in range(i + 1, k):
            factor = gram[j][i] / gram[i][i]
            gram[j] = [a - factor * b if col > i else a for col, (a, b) in
                       enumerate(zip(gram[j], gram[i]))]
            gram[j][i] = factor
    return gram[k - 1][k - 2], gram[k - 1][k - 1], gram[k - 2][k - 2]


def incircle_sign(a, b, c, d):
    """Classic in-circle determinant, +1 if d is inside the circle
    through a, b, c taken counterclockwise, -1 outside, 0 on it."""
    rows = []
    for p in (a, b, c):
        dx, dy = p[0] - d[0], p[1] - d[1]
        rows.append([dx, dy, dx * dx + dy * dy])
    det = np.linalg.det(np.array(rows))
    orient = np.linalg.det(np.array([[b[0] - a[0], b[1] - a[1]],
                                     [c[0] - a[0], c[1] - a[1]]]))
    value = det * np.sign(orient)
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def _cot(apex, p, q):
    """Cotangent of the angle at apex between p and q, any ambient dim."""
    u = p - apex
    v = q - apex
    # |u||v| sin(angle) via the Gram identity
    sine_area = math.sqrt(max(np.dot(u, u) * np.dot(v, v) - np.dot(u, v) ** 2, 0.0))
    return np.dot(u, v) / sine_area


def cotan_weights(points, triangles):
    """Per-edge sum of half-cotangents of the opposite angles.

    Returns a dict {(i, j): weight} with i < j. This is the standard
    finite element assembly, no circumcenters involved.
    """
    weights = {}
    for tri in triangles:
        for k in range(3):
            apex = tri[k]
            i, j = sorted((tri[(k + 1) % 3], tri[(k + 2) % 3]))
            cot = _cot(points[apex], points[i], points[j])
            weights[(i, j)] = weights.get((i, j), 0.0) + 0.5 * cot
    return weights


def voronoi_shares(corners):
    """Signed Voronoi area of each corner a of a triangle by the cotangent
    formula (|ab|^2 cot c + |ac|^2 cot b) / 8, no circumcenters involved."""
    shares = []
    for k in range(3):
        a, b, c = corners[k], corners[(k + 1) % 3], corners[(k + 2) % 3]
        ab, ac = b - a, c - a
        shares.append((np.dot(ab, ab) * _cot(c, a, b) + np.dot(ac, ac) * _cot(b, a, c)) / 8.0)
    return shares


def brute_face_count(tops, dim):
    """Number of distinct dim-faces of a set of top simplices, counted
    with plain itertools instead of the complex builder."""
    faces = set()
    for top in tops:
        for combo in itertools.combinations(sorted(top), dim + 1):
            faces.add(combo)
    return len(faces)


def brute_closure(top_cells):
    """The complex spanned by ``top_cells`` (user vertex order), closed under
    faces with tuples, sets and dicts only, in the package's conventions.

    Returns a dict of plain lists, per dimension p unless said otherwise:
    - ``simplices``: the sorted vertex tuples in lexicographic order;
    - ``index``: a dict from each of those tuples to its position;
    - ``face_of_top``: per top, in ``simplices[n]`` order, the positions of
      its (p+1)-vertex subsets in ``itertools.combinations`` order;
    - ``orientations``: 1 below the top dimension, and per top the parity of
      its user ordering;
    - ``facet_cofaces`` (one pair, not per dimension): per codim-1 face its
      cofaces in ascending order and the position, in each coface's vertex
      tuple, of the vertex it omits; -1 pads a face with one coface.
    """
    n = len(top_cells[0]) - 1
    parity = {}
    for cell in top_cells:
        inversions = sum(cell[a] > cell[b] for a, b in itertools.combinations(range(n + 1), 2))
        parity[tuple(sorted(cell))] = -1 if inversions % 2 else 1
    simplices = [
        sorted({face for top in parity for face in itertools.combinations(top, p + 1)})
        for p in range(n + 1)
    ]
    index = [{cell: i for i, cell in enumerate(level)} for level in simplices]
    face_of_top = [
        [[index[p][face] for face in itertools.combinations(top, p + 1)] for top in simplices[n]]
        for p in range(n + 1)
    ]
    orientations = [[1] * len(level) for level in simplices[:-1]]
    orientations.append([parity[top] for top in simplices[n]])
    tops, columns = [[] for _ in simplices[n - 1]], [[] for _ in simplices[n - 1]]
    for t, top in enumerate(simplices[n]):
        for j in range(n + 1):
            facet = index[n - 1][top[:j] + top[j + 1:]]
            tops[facet].append(t)
            columns[facet].append(j)
    facet_cofaces = tuple([row + [-1] * (2 - len(row)) for row in rows] for rows in (tops, columns))
    return {"simplices": simplices, "index": index, "face_of_top": face_of_top,
            "orientations": orientations, "facet_cofaces": facet_cofaces}


def brute_incidence(top_cells):
    """Topology of the complex spanned by ``top_cells`` (user vertex order),
    rebuilt with itertools, sets and dicts only (see :func:`brute_closure`).

    Returns (simplices, top_orientations, cofaces, internal, boundary) in
    the package's conventions: per dimension the sorted vertex tuples in
    lexicographic order; per sorted top the parity of its user ordering;
    per face of dimension p < n its (coface, sign) pairs in ascending
    coface order, sign (-1)^pos times the coface's orientation; and the
    codim-1 faces with two cofaces or one.
    """
    closure = brute_closure(top_cells)
    simplices, index = closure["simplices"], closure["index"]
    top_orientations = closure["orientations"][-1]
    n = len(simplices) - 1
    cofaces = [[[] for _ in level] for level in simplices[:-1]]
    for p in range(1, n + 1):
        for j, cell in enumerate(simplices[p]):
            orient = top_orientations[j] if p == n else 1
            for pos in range(p + 1):
                face = cell[:pos] + cell[pos + 1:]
                cofaces[p - 1][index[p - 1][face]].append((j, orient * (-1) ** pos))
    internal = [(f, (c[0][0], c[1][0])) for f, c in enumerate(cofaces[n - 1]) if len(c) == 2]
    boundary = [(f, c[0][0]) for f, c in enumerate(cofaces[n - 1]) if len(c) == 1]
    return simplices, top_orientations, cofaces, internal, boundary


def sparse_algebra_poisson(mesh, source, flux, gauge, hodge_mode, form):
    """The gauged mixed Poisson system and its solution by sparse algebra:
    d0 = boundary_operator(mesh, 1).T, star1 by sparse.diags, the products
    d0^T star1 d0 or star1 d0, sparse.bmat for the saddle blocks and the
    zero-mean border, row and column slicing for a pin, and
    sigma = -(d0 @ u). ``source`` is per vertex, ``flux`` per boundary facet.

    Returns the CSR matrix, the rhs, the raw solution, u and sigma; the last
    three are None when the solve is singular or not finite.
    """
    star0 = hodge_star(mesh, 0, mode=hodge_mode).entries
    star1 = sparse.diags(hodge_star(mesh, 1, mode=hodge_mode).entries)
    d0 = boundary_operator(mesh, 1).T.tocsr()
    facets, sides = _boundary_step_signs(mesh, tolerance())
    seed = np.bincount(facets, flux * sides, mesh.num_simplices(mesh.n - 1))
    *_, (_, (load,)) = _sweep(mesh, mesh.n - 1, seed[None], tolerance())
    weighted_source = star0 * source
    num_vertices, num_edges = mesh.num_simplices(0), mesh.num_simplices(1)
    if form == "reduced":
        first = 0
        matrix = d0.T @ star1 @ d0
        rhs = weighted_source - load
    else:
        coupling = star1 @ d0
        first = num_edges
        matrix = sparse.bmat([[star1, coupling], [coupling.T, None]])
        rhs = np.concatenate([np.zeros(num_edges), load - weighted_source])
    if gauge == "zero_mean":
        ones = np.repeat([[0.0], [1.0]], [first, num_vertices], axis=0)
        matrix = sparse.bmat([[matrix, ones], [ones.T, None]])
        rhs = np.append(rhs, 0.0)
    else:
        keep = np.arange(first + num_vertices) != first + gauge[1]
        matrix = matrix.tocsr()[keep][:, keep]
        rhs = rhs[keep]
    matrix = matrix.tocsr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MatrixRankWarning)
        raw = spsolve(matrix.tocsc(), rhs)
    if not np.isfinite(raw).all():
        return matrix, rhs, None, None, None
    u = raw[first:][:num_vertices]
    if gauge != "zero_mean":
        u = np.insert(u, gauge[1], 0.0)
    sigma = raw[:first].copy() if form == "saddle" else -(d0 @ u)
    u = u - (u.mean() if gauge == "zero_mean" else u[gauge[1]])
    return matrix, rhs, raw, u, sigma


def random_rotation(rng, n):
    """Haar-ish random rotation via QR with positive diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture(scope="session")
def obtuse_triangle():
    """Single triangle whose circumcenter falls outside, with simple
    closed-form dual values used as frozen references."""
    points = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]])
    return build_complex(points, [(0, 1, 2)])


@pytest.fixture(scope="session")
def split_square():
    """Unit square cut along a diagonal: the shared edge is exactly
    cocircular, so its dual length is zero."""
    points = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return build_complex(points, [(0, 1, 2), (0, 2, 3)])


@pytest.fixture(scope="session")
def single_tet():
    points = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    return build_complex(points, [(0, 1, 2, 3)])


def scalar_grid_2d(divisions, width, height, jitter, rng, locked_columns=()):
    """The jittered planar grid drawn one scalar at a time, in the order the
    fixture generators have always drawn it: row by row, x before y."""
    xs = np.linspace(0.0, width, divisions + 1)
    ys = np.linspace(0.0, height, divisions + 1)
    points = []
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            dx = dy = 0.0
            if 0 < i < divisions and i not in locked_columns:
                dx = jitter * (width / divisions) * rng.uniform(-1.0, 1.0)
            if 0 < j < divisions:
                dy = jitter * (height / divisions) * rng.uniform(-1.0, 1.0)
            points.append((x + dx, y + dy))
    return np.array(points)


def scalar_grid_3d(divisions, rng, jitter):
    """The jittered cube grid drawn one scalar at a time, x fastest."""
    axis = np.linspace(0.0, 1.0, divisions + 1)
    points = []
    for c in axis:
        for b in axis:
            for a in axis:
                shift = np.zeros(3)
                for k, value in enumerate((a, b, c)):
                    if 0.0 < value < 1.0:
                        shift[k] = jitter * (1.0 / divisions) * rng.uniform(-1.0, 1.0)
                points.append((a, b, c) + shift)
    return np.array(points)


def scalar_point_in_polygon(point, polygon, tol=1e-9):
    """Point-in-polygon one edge at a time, as the fan fixture once gated:
    None within tol of any edge, else the parity of the crossings."""
    x, y = point
    scale = max(1.0, float(np.abs(polygon).max()))
    crossings = 0
    m = len(polygon)
    for i in range(m):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % m]
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
