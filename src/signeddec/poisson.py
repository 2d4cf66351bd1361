"""Mixed-form Poisson solves on full-dimensional meshes of any dimension.

Unknowns are a vertex potential u and an edge flux cochain sigma = -d0 u.
With diagonal Hodge stars the flux balance at each vertex's dual cell reads
d0^T star1 sigma = b - star0 f, where f is the source density (per volume)
and b integrates the prescribed outward boundary flux density g over each
boundary vertex's share of the boundary (its signed dual in each facet).
Eliminating sigma gives the reduced system
    d0^T star1 d0 u = star0 f - b,
a pure-flux (Neumann) problem, solvable only when total source matches
total outflux and determined up to a constant fixed by a gauge. The saddle
form keeps both cochains: [[star1, star1 d0], [(star1 d0)^T, 0]]. Either
form is gauged by one pin on its vertex block: ("pin", v) drops vertex v's
row and column; "zero_mean" pins vertex 0 once the load's vertex block is
mean-free, as a multiplier on sum(u) = 0 would make it, and the solve
projects u to zero mean, matching that bordered system to round-off.
The gauged matrix is one sparse construction (CSC) from the edge
table (tail, head, orientation) and the star entries, with no sparse
products; the solve gathers the reduced form's sigma from the same table.
figure1_columns runs the flux patch test (figure1_experiment) over
a list of (family, hodge_mode) columns, generating one mesh per family.
scipy.sparse is imported by the functions that call it, assemble and solve,
so importing this module loads numpy alone.
"""

import time
import warnings
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .config import tolerance
from .delaunay import classify_complex
from .errors import ProblemDefinitionError, SolveError
from .hodge import MODES, hodge_star
from .signed_dual import _boundary_step_signs, _sweep

__all__ = [
    "MixedPoissonProblem",
    "LinearSystem",
    "MixedPoissonSolution",
    "ExperimentResult",
    "assemble_mixed_poisson",
    "solve_mixed_poisson",
    "sigma_vectors",
    "figure1_experiment",
    "figure1_columns",
    "FIGURE1_COLUMNS",
]


@dataclass
class MixedPoissonProblem:
    """Problem data: mesh, source density f, outward boundary flux density
    g, and the gauge fixing the additive constant in u.

    ``source``: scalar, per-vertex array, or callable on the (V, N) vertex
    points. ``boundary_flux``: scalar, array over boundary facets (in
    boundary_faces() order), or callable on the (F, N) array of their
    centroids in that order. A callable is called once and returns one
    value per row. ``gauge``: "zero_mean" (u sums to zero, and the load's
    mean is dropped) or ("pin", vertex_index) (u is 0 there).
    """

    mesh: object
    source: object = 0.0
    boundary_flux: object = 0.0
    gauge: object = "zero_mean"


@dataclass
class LinearSystem:
    """Assembled gauged linear system, a CSC matrix built in one sparse
    construction from the edge table less the pinned vertex's row and
    column (vertex 0 under zero_mean), plus what solve needs to put the
    pinned 0 back and gather sigma from that table."""

    matrix: "scipy.sparse.csc_matrix"
    rhs: np.ndarray
    form: str
    gauge: object
    hodge_mode: str
    mesh: object


@dataclass
class MixedPoissonSolution:
    u: np.ndarray
    sigma: np.ndarray
    residual_norm: float
    form: str
    hodge_mode: str


def _values(data, points, name, per):
    """One finite float per row of ``points`` from a scalar, an array, or a
    callable called once on all the points. A NaN or infinite value is
    rejected: it would pass the compatibility check (NaN compares false)
    and fail only in the solve."""
    count = len(points)
    values = data(points) if callable(data) else data  # a callable's own error propagates
    try:
        if np.iscomplexobj(values):  # numpy would only warn and drop the imaginary part
            raise TypeError("complex values are not real")
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemDefinitionError(f"{name} must convert to floats: {exc}") from None
    if np.isscalar(data):
        values = np.full(count, values)
    if values.shape != (count,):
        raise ProblemDefinitionError(
            f"{name} must give one value per {per} ({count}), got shape {values.shape}"
        )
    for i in np.flatnonzero(~np.isfinite(values))[:1]:
        raise ProblemDefinitionError(f"{name} must be finite, got {values[i]} at entry {i}")
    return values


def _check_gauge(gauge, num_vertices):
    if gauge == "zero_mean":
        return gauge
    if (
        isinstance(gauge, tuple)
        and len(gauge) == 2
        and gauge[0] == "pin"
        and isinstance(gauge[1], Integral)
        and not isinstance(gauge[1], bool)
        and 0 <= gauge[1] < num_vertices
    ):
        return ("pin", int(gauge[1]))
    raise ProblemDefinitionError(f"unrecognized gauge {gauge!r}")


def _pinned_vertex(gauge):
    """The vertex whose row and column the gauge drops: 0 under zero_mean."""
    return 0 if gauge == "zero_mean" else gauge[1]


def assemble_mixed_poisson(problem, hodge_mode="signed", form="reduced"):
    """Assemble the gauged linear system for a mixed Poisson problem.

    ``form`` "reduced" eliminates sigma (vertex unknowns only); "saddle"
    keeps both cochains in a symmetric block system. Verifies the
    compatibility condition (total source equals total outflux under the
    requested star's quadrature) and raises ProblemDefinitionError if it
    fails beyond 1e-8 relative to the gross source and flux. The predicate
    tolerance is read once, for both stars and the boundary load.
    """
    from scipy import sparse

    mesh = problem.mesh
    if mesh.n != mesh.N:
        raise ProblemDefinitionError(
            f"mixed Poisson needs a full-dimensional mesh (n=N), got n={mesh.n}, N={mesh.N}"
        )
    if form not in ("reduced", "saddle"):
        raise ProblemDefinitionError(f"form must be 'reduced' or 'saddle', got {form!r}")
    gauge = _check_gauge(problem.gauge, mesh.num_simplices(0))

    tol = tolerance()
    star0 = hodge_star(mesh, 0, mode=hodge_mode, tol=tol)
    star1 = hodge_star(mesh, 1, mode=hodge_mode, tol=tol)
    facets, sides = _boundary_step_signs(mesh, tol)
    centroids = mesh.points[mesh.simplices[mesh.n - 1][facets]].mean(axis=1)
    flux = _values(problem.boundary_flux, centroids, "boundary flux", "boundary facet")
    num_vertices = mesh.num_simplices(0)
    num_edges = mesh.num_simplices(1)
    # Prescribed flux integrated over the boundary portions of the dual
    # cells: vertex v's part in boundary facet f is v's signed dual within f
    # times the step sign s_f of f -> its top, so the signed-dual sweep runs
    # from g_f s_f on the facets (|e|/2 per end in 2D). A facet that is not
    # one-sided carries a nonpositive trace and the load degrades accordingly.
    areas = mesh.volumes(mesh.n - 1)[facets]
    outflux = float(flux @ areas)
    gross_flux = float(np.abs(flux) @ areas)
    seed = np.bincount(facets, flux * sides, mesh.num_simplices(mesh.n - 1))  # 0 off the boundary
    *_, (_, (b,)) = _sweep(mesh, mesh.n - 1, seed[None], tol)  # its last step, at dimension 0

    source = _values(problem.source, mesh.points, "source", "vertex")
    weighted_source = star0.entries * source
    # Solvability is a property of the data, checked with plain arc-length
    # quadrature; the assembled load b may differ from it on meshes whose
    # boundary traces are not all positive.
    budget = float(weighted_source.sum() - outflux)
    scale = float(np.abs(weighted_source).sum() + gross_flux)
    if abs(budget) > 1e-8 * max(scale, 1e-300):
        raise ProblemDefinitionError(
            "incompatible data for a pure-flux problem: total source "
            f"{weighted_source.sum():.6e} vs total outflux {outflux:.6e}"
        )

    # One block per form, whose vertex block starts at row ``first``, read
    # off the edge table: d0 has -o_e at (e, tail) and +o_e at (e, head).
    ends = mesh.simplices[1]
    tails, heads = ends.T
    weights = star1.entries
    if form == "reduced":
        # d0^T star1 d0: -w_e at (tail, head) and (head, tail), and each
        # vertex's weights summed in edge order on the diagonal
        first = 0
        vertices = np.arange(num_vertices)
        diagonal = np.bincount(ends.ravel(), np.repeat(weights, 2), num_vertices)
        rows = [tails, heads, vertices]
        cols = [heads, tails, vertices]
        vals = [-weights, -weights, diagonal]
        rhs = weighted_source - b
    else:
        # [[star1, star1 d0], [(star1 d0)^T, 0]]
        first = num_edges
        edges = np.arange(num_edges)
        coupling = mesh.orientations[1] * weights
        rows = [edges, edges, edges, first + tails, first + heads]
        cols = [edges, first + tails, first + heads, edges, edges]
        vals = [weights, -coupling, coupling, -coupling, coupling]
        rhs = np.concatenate([np.zeros(num_edges), b - weighted_source])
    if gauge == "zero_mean":  # the vertex rows sum to zero, so a multiplier on
        rhs[first:] -= rhs[first:].mean()  # sum(u) = 0 would absorb the mean
    # the pinned row and column go, the later ones move up
    pinned = first + _pinned_vertex(gauge)
    index = np.insert(np.arange(first + num_vertices - 1), pinned, -1)
    rows, cols = index[np.concatenate(rows)], index[np.concatenate(cols)]
    keep = (rows >= 0) & (cols >= 0)
    rows, cols, vals = rows[keep], cols[keep], np.concatenate(vals)[keep]
    rhs = np.delete(rhs, pinned)
    matrix = sparse.csc_matrix((vals, (rows, cols)), shape=(len(rhs), len(rhs)))
    matrix.eliminate_zeros()  # a zero star entry stores nothing, as in d0^T star1 d0
    return LinearSystem(
        matrix=matrix, rhs=rhs, form=form, gauge=gauge, hodge_mode=hodge_mode, mesh=mesh,
    )


def solve_mixed_poisson(system):
    """Direct sparse solve; reconstructs u and sigma and enforces the
    gauge exactly. Raises SolveError on a singular matrix or non-finite
    results."""
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    mesh = system.mesh
    with warnings.catch_warnings():
        # a singular matrix solves to NaNs, which raise SolveError below
        warnings.simplefilter("ignore", MatrixRankWarning)
        raw = spsolve(system.matrix, system.rhs)
    if not np.isfinite(raw).all():
        raise SolveError(
            f"{system.form}/{system.hodge_mode} solve produced non-finite values "
            "(singular star weights?)"
        )
    residual = float(
        np.linalg.norm(system.matrix @ raw - system.rhs)
        / max(np.linalg.norm(system.rhs), 1e-300)
    )

    # the vertex block follows the edge block in the saddle form; the
    # pinned vertex has no unknown and gets its 0 back
    first = mesh.num_simplices(1) if system.form == "saddle" else 0
    u = np.insert(raw[first:], _pinned_vertex(system.gauge), 0.0)
    if system.form == "saddle":
        sigma = raw[:first].copy()
    else:  # -d0 u, each row summed from 0.0 as a sparse product would: tail, then head
        tails, heads = mesh.simplices[1].T
        signs = mesh.orientations[1]
        sigma = -((0.0 - signs * u[tails]) + signs * u[heads])
    if system.gauge == "zero_mean":
        u = u - u.mean()
    return MixedPoissonSolution(
        u=u, sigma=sigma, residual_norm=residual,
        form=system.form, hodge_mode=system.hodge_mode,
    )


def sigma_vectors(mesh, sigma):
    """Per-top constant vector field reproducing the edge cochain:
    least-squares fit of s with s . (head - tail) = sigma_e over the
    n(n+1)/2 edges of each top simplex."""
    edges = mesh.face_of_top[1]
    tails, heads = mesh.simplices[1][edges].transpose(2, 0, 1)
    rows = mesh.points[heads] - mesh.points[tails]
    vals = np.asarray(sigma)[edges]
    # all tops' least-squares problems at once, by Householder QR
    q, r = np.linalg.qr(rows)
    return np.linalg.solve(r, np.einsum("tij,ti->tj", q, vals)[..., None])[..., 0]


@dataclass
class ExperimentResult:
    """One column of the flux patch-test experiment."""

    family: str
    hodge_mode: str
    mesh: object
    solution: MixedPoissonSolution
    u_error: float
    sigma_error: float
    flux_vectors: np.ndarray  # per-triangle sigma_vectors, which sigma_error measures
    report: object
    star0_nonpositive: list
    star1_nonpositive: list
    elapsed_seconds: float
    config: dict = field(default_factory=dict)


FIGURE1_COLUMNS = (
    ("good", "signed"),
    ("good", "unsigned"),
    ("bad_boundary", "signed"),
    ("non_delaunay", "signed"),
)

_FAMILY_FIXTURES = {
    "good": "obtuse_delaunay_square",
    "bad_boundary": "bad_boundary_square",
    "non_delaunay": "non_delaunay_square",
}


def figure1_experiment(
    family="good",
    hodge_mode="signed",
    divisions=16,
    seed=0,
    width=1.0,
    height=1.0,
    influx=1.0,
    mesh=None,
):
    """Flux patch test on one mesh family with one star mode.

    Constant influx on the left side, equal outflux on the right, zero
    source: the exact potential is affine, u = -influx * x + const, with
    constant horizontal flux. Reports the relative max-norm deviation of u
    from that affine solution and of the reconstructed per-triangle flux
    vectors from (influx, 0), plus the mesh classification and any
    nonpositive star entries. It solves the reduced form under zero_mean.
    """
    from .fixtures import generate_fixture

    if not isinstance(family, str) or family not in _FAMILY_FIXTURES:  # before it is hashed
        raise ProblemDefinitionError(
            f"family must be one of {sorted(_FAMILY_FIXTURES)}, got {family!r}"
        )
    if hodge_mode not in MODES:
        raise ProblemDefinitionError(f"hodge_mode must be one of {MODES}, got {hodge_mode!r}")
    params = {"width": width, "height": height, "influx": influx}
    for name, value in params.items():  # once, up front, as the CLI does
        try:
            params[name] = float(value)
        except OverflowError:
            raise ProblemDefinitionError(f"{name} is beyond float range") from None
    width, height, influx = params.values()
    if not 0 < abs(influx) < np.inf:
        raise ProblemDefinitionError(f"influx must be finite and nonzero, got {influx!r}")
    start = time.perf_counter()
    if mesh is None:
        mesh = generate_fixture(
            _FAMILY_FIXTURES[family],
            divisions=divisions, seed=seed, width=width, height=height,
        )

    def flux(centroids):  # influx in on the left side, out on the right
        x, near = centroids[:, 0], 1e-9 * max(width, 1.0)
        return np.where(np.abs(x) < near, -influx, np.where(np.abs(x - width) < near, influx, 0.0))

    problem = MixedPoissonProblem(mesh=mesh, boundary_flux=flux)
    system = assemble_mixed_poisson(problem, hodge_mode=hodge_mode, form="reduced")
    solution = solve_mixed_poisson(system)

    # Error metric: relative max deviation of u from its best-fit field
    # a*x + c, normalized by the exact range |influx| * width.
    design = np.column_stack([mesh.points[:, 0], np.ones(len(mesh.points))])
    fit, *_ = np.linalg.lstsq(design, solution.u, rcond=None)
    deviation = solution.u - design @ fit
    u_error = float(np.abs(deviation).max() / (abs(influx) * width))
    vectors = sigma_vectors(mesh, solution.sigma)
    sigma_error = float(
        np.linalg.norm(vectors - np.array([influx, 0.0]), axis=1).max() / abs(influx)
    )
    report = classify_complex(mesh)

    return ExperimentResult(
        family=family,
        hodge_mode=hodge_mode,
        mesh=mesh,
        solution=solution,
        u_error=u_error,
        sigma_error=sigma_error,
        flux_vectors=vectors,
        report=report,
        star0_nonpositive=report.dual_indices[report.dual_dims == 0].tolist(),
        star1_nonpositive=report.dual_indices[report.dual_dims == 1].tolist(),
        elapsed_seconds=time.perf_counter() - start,
        config={
            "divisions": divisions, "seed": seed, "width": width,
            "height": height, "influx": influx,
        },
    )


def figure1_columns(divisions=16, seed=0, columns=FIGURE1_COLUMNS, **kwargs):
    """The experiment over ``columns``, (family, hodge_mode) pairs that
    default to the four canonical ones: signed and unsigned stars on the
    good mesh, signed star on the bad-boundary and non-Delaunay meshes.
    Each family's mesh is generated by its first column and shared by the
    rest, so the two good-mesh columns literally share one mesh."""
    results = []
    for family, mode in columns:
        shared = (result.mesh for result in results if result.family == family)
        results.append(figure1_experiment(
            family=family, hodge_mode=mode, divisions=divisions, seed=seed,
            mesh=next(shared, None), **kwargs,
        ))
    return results
