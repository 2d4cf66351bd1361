"""Mixed-form Poisson assembly and solves: patch test, gauges, forms,
boundary handling."""

import itertools
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import Delaunay

from conftest import (
    cotan_weights,
    exact_least_squares,
    sparse_algebra_poisson,
    voronoi_shares,
)
from signeddec.complexes import build_complex
from signeddec.config import tolerance
from signeddec.delaunay import circumcenter_order_points, classify_complex
from signeddec.errors import ComplexError, ProblemDefinitionError, SolveError
from signeddec.fixtures import generate_fixture
from signeddec.geometry import circumcenter, simplex_volume
from signeddec.hodge import hodge_star, validate_hodge
from signeddec.poisson import (
    FIGURE1_COLUMNS,
    MixedPoissonProblem,
    assemble_mixed_poisson,
    figure1_columns,
    figure1_experiment,
    sigma_vectors,
    solve_mixed_poisson,
)
from signeddec.signed_dual import _boundary_step_signs


@pytest.fixture(scope="module")
def good_mesh():
    return generate_fixture("obtuse_delaunay_square", divisions=8)


def _side_flux(width=1.0, influx=1.0):
    def flux(centroids):
        x = centroids[:, 0]
        return np.where(np.abs(x) < 1e-9, -influx, np.where(np.abs(x - width) < 1e-9, influx, 0.0))

    return flux


def _within(got, want, tol):
    """Relative max-norm agreement; zero arrays agree only exactly."""
    return np.abs(got - want).max() <= tol * np.abs(want).max()


def _solve(mesh, hodge_mode="signed", form="reduced", gauge="zero_mean", flux=None):
    if flux is None:
        flux = _side_flux()
    problem = MixedPoissonProblem(
        mesh=mesh, source=0.0, boundary_flux=flux, gauge=gauge
    )
    system = assemble_mixed_poisson(problem, hodge_mode=hodge_mode, form=form)
    return solve_mixed_poisson(system)


def test_affine_patch_test(good_mesh):
    solution = _solve(good_mesh)
    exact = -good_mesh.points[:, 0]
    exact -= exact.mean()
    assert np.max(np.abs(solution.u - exact)) < 1e-10
    assert solution.residual_norm < 1e-10
    # integrated flux is exact per edge, not just in least squares
    heads = good_mesh.simplices[1][:, 1]
    tails = good_mesh.simplices[1][:, 0]
    dx = good_mesh.points[heads, 0] - good_mesh.points[tails, 0]
    assert np.max(np.abs(solution.sigma - dx)) < 1e-10


def test_stiffness_matches_cotan_assembly(good_mesh):
    nv = good_mesh.num_simplices(0)
    oracle = np.zeros((nv, nv))
    for (i, j), w in cotan_weights(good_mesh.points, good_mesh.simplices[2]).items():
        oracle[i, j] -= w
        oracle[j, i] -= w
        oracle[i, i] += w
        oracle[j, j] += w
    # a pinned system is the stiffness less one row and column; three pins
    # see every entry, where pins {a, b} alone would miss entry (a, b)
    for pin in (0, 1, nv - 1):
        problem = MixedPoissonProblem(good_mesh, boundary_flux=_side_flux(), gauge=("pin", pin))
        stiffness = assemble_mixed_poisson(problem).matrix.toarray()
        kept = np.delete(np.delete(oracle, pin, axis=0), pin, axis=1)
        assert np.allclose(stiffness, kept, atol=1e-12)


def test_gauges_differ_by_constant(good_mesh):
    base = _solve(good_mesh)
    pinned = _solve(good_mesh, gauge=("pin", 5))
    assert np.isclose(base.u.mean(), 0.0, atol=1e-12)
    assert pinned.u[5] == 0.0
    shift = pinned.u - base.u
    assert np.max(np.abs(shift - shift[0])) < 1e-9
    assert np.allclose(pinned.sigma, base.sigma, atol=1e-9)


def test_saddle_matches_reduced(good_mesh):
    last = good_mesh.num_simplices(0) - 1  # the pinned 0 goes back at the end
    for gauge in ("zero_mean", ("pin", 0), ("pin", last)):
        reduced = _solve(good_mesh, form="reduced", gauge=gauge)
        saddle = _solve(good_mesh, form="saddle", gauge=gauge)
        assert np.max(np.abs(reduced.u - saddle.u)) < 1e-8
        assert np.max(np.abs(reduced.sigma - saddle.sigma)) < 1e-8


def test_saddle_matrix_is_symmetric(good_mesh):
    problem = MixedPoissonProblem(mesh=good_mesh, boundary_flux=_side_flux())
    system = assemble_mixed_poisson(problem, form="saddle")
    gap = (system.matrix - system.matrix.T).tocoo()
    assert gap.nnz == 0 or np.max(np.abs(gap.data)) == 0.0


def test_zero_data_gives_gauge_constant(good_mesh):
    solution = _solve(good_mesh, flux=0.0)
    assert np.max(np.abs(solution.u)) < 1e-12
    assert np.max(np.abs(solution.sigma)) < 1e-12


def test_source_flux_balance_enforced(good_mesh):
    with pytest.raises(ProblemDefinitionError):
        assemble_mixed_poisson(
            MixedPoissonProblem(mesh=good_mesh, source=1.0, boundary_flux=0.0)
        )


def test_balanced_source_and_flux_solves(good_mesh):
    # uniform source exactly balanced by uniform outflow
    area = good_mesh.total_volume
    perimeter = sum(
        good_mesh.volume_of(1, f) for f, _ in good_mesh.boundary_faces()
    )
    problem = MixedPoissonProblem(
        mesh=good_mesh, source=1.0, boundary_flux=area / perimeter
    )
    solution = solve_mixed_poisson(assemble_mixed_poisson(problem))
    assert solution.residual_norm < 1e-10


def test_source_input_forms(good_mesh):
    nv = good_mesh.num_simplices(0)
    as_callable = MixedPoissonProblem(
        mesh=good_mesh, source=lambda pts: pts[:, 0] * 0.0, boundary_flux=0.0
    )
    as_array = MixedPoissonProblem(
        mesh=good_mesh, source=np.zeros(nv), boundary_flux=0.0
    )
    u_callable = solve_mixed_poisson(assemble_mixed_poisson(as_callable)).u
    u_array = solve_mixed_poisson(assemble_mixed_poisson(as_array)).u
    assert np.allclose(u_callable, u_array)
    with pytest.raises(ProblemDefinitionError):
        assemble_mixed_poisson(
            MixedPoissonProblem(mesh=good_mesh, source=np.zeros(nv - 1))
        )


def test_flux_array_form(good_mesh):
    boundary = good_mesh.boundary_faces()
    width = 1.0
    table = np.zeros(len(boundary))
    for k, (facet, _) in enumerate(boundary):
        mid = good_mesh.simplex_points(1, facet).mean(axis=0)
        if abs(mid[0]) < 1e-9:
            table[k] = -1.0
        elif abs(mid[0] - width) < 1e-9:
            table[k] = 1.0
    by_array = _solve(good_mesh, flux=table)
    by_callable = _solve(good_mesh)
    assert np.allclose(by_array.u, by_callable.u, atol=1e-12)
    with pytest.raises(ProblemDefinitionError):
        _solve(good_mesh, flux=np.zeros(3))


def test_flux_callable_is_called_once_on_the_centroids(good_mesh):
    calls = []

    def flux(centroids):
        calls.append(centroids.copy())
        return _side_flux()(centroids)

    _solve(good_mesh, flux=flux)
    boundary = good_mesh.boundary_faces()
    want = np.array([good_mesh.simplex_points(1, facet).mean(axis=0) for facet, _ in boundary])
    assert len(calls) == 1
    assert calls[0].shape == (len(boundary), 2)
    assert np.array_equal(calls[0], want)
    count = len(boundary)
    message = f"boundary flux must give one value per boundary facet ({count}), got shape (3,)"
    with pytest.raises(ProblemDefinitionError, match=f"^{re.escape(message)}$"):
        _solve(good_mesh, flux=lambda centroids: np.zeros(3))


@pytest.mark.parametrize("data, name", [
    ({"source": "abc"}, "source"),
    ({"source": ["a", "b"]}, "source"),
    ({"source": lambda points: "x"}, "source"),
    ({"boundary_flux": 1j}, "boundary flux"),
    ({"boundary_flux": ["a", "b"]}, "boundary flux"),
    ({"boundary_flux": lambda centroids: "x"}, "boundary flux"),
    ({"boundary_flux": {0: 1.0}}, "boundary flux"),
])
def test_non_numeric_data_is_rejected_by_name(good_mesh, data, name):
    with pytest.raises(ProblemDefinitionError, match=f"^{name} must convert to floats"):
        assemble_mixed_poisson(MixedPoissonProblem(mesh=good_mesh, **data))


_COMPLEX_TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0 + 1j]]


@pytest.mark.parametrize("call, error, message", [
    (lambda mesh: build_complex(_COMPLEX_TRIANGLE, [(0, 1, 2)]), ComplexError, "points"),
    (lambda mesh: simplex_volume(_COMPLEX_TRIANGLE), ValueError, "points"),
    (lambda mesh: circumcenter(np.array(_COMPLEX_TRIANGLE)), ValueError, "points"),
    (lambda mesh: MixedPoissonProblem(mesh, source=np.full(mesh.num_simplices(0), 1j)),
     ProblemDefinitionError, "source"),
    (lambda mesh: MixedPoissonProblem(mesh, source=lambda points: points[:, 0] * 1j),
     ProblemDefinitionError, "source"),
    (lambda mesh: MixedPoissonProblem(mesh, boundary_flux=lambda centroids: 0j * centroids[:, 0]),
     ProblemDefinitionError, "boundary flux"),
])
def test_complex_input_is_rejected_not_truncated(good_mesh, call, error, message):
    # numpy casts complex to float with only a ComplexWarning and drops the
    # imaginary part: the triangle would build on (0, 1), its volume would
    # be 0.5, and a source of 1j everywhere would load as zero
    with pytest.raises(error, match=f"^{message} must"):
        result = call(good_mesh)
        if isinstance(result, MixedPoissonProblem):
            assemble_mixed_poisson(result)


def test_error_inside_a_data_callable_propagates(good_mesh):
    # a per-point callable sees the whole (F, N) array; its own error is
    # the user's to read, not one about the values it never returned
    def per_point(midpoint):
        return -1.0 if abs(midpoint[0]) < 1e-9 else 0.0

    with pytest.raises(ValueError, match="truth value of an array"):
        _solve(good_mesh, flux=per_point)


def test_non_finite_data_is_rejected_by_name(good_mesh):
    # NaN compares false, so such data once passed the compatibility check
    # and failed only in the solve
    facets = [facet for facet, _ in good_mesh.boundary_faces()]
    source = np.zeros(good_mesh.num_simplices(0))
    source[3] = np.nan
    flux = np.zeros(len(facets))
    flux[1] = -np.inf
    for data, name in (
        ({"source": np.nan}, "source"),
        ({"source": source}, "source"),
        ({"boundary_flux": np.inf}, "boundary flux"),
        ({"boundary_flux": flux}, "boundary flux"),
        ({"boundary_flux": lambda centroids: np.full(len(facets), np.nan)}, "boundary flux"),
    ):
        with pytest.raises(ProblemDefinitionError, match=f"^{name} must be finite"):
            assemble_mixed_poisson(MixedPoissonProblem(mesh=good_mesh, **data))


def test_gauge_validation(good_mesh):
    with pytest.raises(ProblemDefinitionError):
        _solve(good_mesh, gauge="fix_somewhere")
    for gauge in (("pin", 10**6), ("pin", 2.7), ("pin", True), ("pin", "a")):
        with pytest.raises(ProblemDefinitionError):
            _solve(good_mesh, gauge=gauge)


def test_rejects_non_planar_mesh():
    surface = generate_fixture("surface_pairwise_delaunay", divisions=4)
    with pytest.raises(ProblemDefinitionError, match="full-dimensional"):
        assemble_mixed_poisson(MixedPoissonProblem(mesh=surface))


@pytest.mark.parametrize("divisions", [2, 3, 4])
def test_tet_cube_flux_patch_test(divisions):
    # the solve has no planar special case: on pairwise-Delaunay tets the
    # signed stars give the affine potential and the constant flux, the
    # unsigned stars do not
    for seed in range(3):
        mesh = generate_fixture("delaunay_tet_cube", divisions=divisions, seed=seed)
        exact = -mesh.points[:, 0]
        exact -= exact.mean()
        for form in ("reduced", "saddle"):
            signed = _solve(mesh, form=form)
            assert np.abs(signed.u - exact).max() < 1e-12
            assert np.abs(sigma_vectors(mesh, signed.sigma) - [1.0, 0.0, 0.0]).max() < 1e-8
            assert np.abs(_solve(mesh, "unsigned", form).u - exact).max() > 1e-3


def test_segment_flux_patch_test():
    inner = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 9))
    points = np.concatenate([[0.0], inner, [1.0]])[:, None]
    mesh = build_complex(points, [(i, i + 1) for i in range(len(points) - 1)])
    exact = -points[:, 0] + points[:, 0].mean()
    for form in ("reduced", "saddle"):
        solution = _solve(mesh, form=form)
        assert np.abs(solution.u - exact).max() < 1e-12
        assert np.abs(sigma_vectors(mesh, solution.sigma) - 1.0).max() < 1e-12


def _half_edge_load(mesh, flux):
    """The planar boundary load by the half-edge rule: boundary edge e puts
    g_e s_e |e| / 2 on each of its ends, s_e the step sign of e -> its
    triangle."""
    facets, sides = _boundary_step_signs(mesh, tolerance())
    b = np.zeros(mesh.num_simplices(0))
    lengths = mesh.volumes(1)[facets]
    np.add.at(b, mesh.simplices[1][facets], (flux * sides * lengths / 2.0)[:, None])
    return b


def _balanced_rhs(mesh, flux):
    """The reduced system's ungauged vertex rhs for boundary flux ``flux``
    and the uniform source that balances it, and that source. A pin drops
    one rhs entry and leaves the rest as they are, so pins 0 and V-1
    together give every entry."""
    star0 = hodge_star(mesh, 0).entries
    facets = np.array([facet for facet, _ in mesh.boundary_faces()])
    source = np.full(len(star0), flux @ mesh.volumes(mesh.n - 1)[facets] / star0.sum())
    without_first, without_last = (
        assemble_mixed_poisson(MixedPoissonProblem(mesh, source, flux, ("pin", pin))).rhs
        for pin in (0, len(star0) - 1)
    )
    return np.append(without_last, without_first[-1]), star0 * source


@pytest.mark.parametrize("name", [
    "structured_square", "perturbed_delaunay_square", "obtuse_delaunay_square",
    "bad_boundary_square", "non_delaunay_square",
])
def test_planar_load_is_the_half_edge_rule_bitwise(name):
    # the dual sweep's link from a vertex into an edge is exactly |e| / 2
    for divisions in (4, 8):
        for seed in range(3) if name != "structured_square" else (None,):
            params = {"divisions": divisions} | ({} if seed is None else {"seed": seed})
            mesh = generate_fixture(name, **params)
            rng = np.random.default_rng(divisions)
            count = len(mesh.boundary_faces())
            for flux in (rng.standard_normal(count), rng.choice([-1.0, 1.0], count)):
                rhs, weighted_source = _balanced_rhs(mesh, flux)
                assert rhs.tobytes() == (weighted_source - _half_edge_load(mesh, flux)).tobytes()


def test_tet_load_is_the_cotangent_shares():
    # on one-sided boundary facets the load is the flux times each corner's
    # signed Voronoi share of its triangle
    for seed in range(3):
        mesh = generate_fixture("delaunay_tet_cube", divisions=3, seed=seed)
        facets = [facet for facet, _ in mesh.boundary_faces()]
        flux = np.random.default_rng(seed).standard_normal(len(facets))
        want = np.zeros(mesh.num_simplices(0))
        for g, facet in zip(flux, facets):
            corners = mesh.simplices[2][facet]
            want[corners] += g * np.array(voronoi_shares(mesh.points[corners]))
        rhs, weighted_source = _balanced_rhs(mesh, flux)
        got = weighted_source - rhs
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_rejects_unknown_form(good_mesh):
    with pytest.raises(ProblemDefinitionError):
        assemble_mixed_poisson(
            MixedPoissonProblem(mesh=good_mesh, boundary_flux=0.0), form="direct"
        )


def _reversed_segment():
    """Ten segments on [0, 1], the fourth given head first (o_e = -1)."""
    inner = np.sort(np.random.default_rng(1).uniform(0.0, 1.0, 9))
    points = np.concatenate([[0.0], inner, [1.0]])[:, None]
    return build_complex(points, [(i + 1, i) if i == 3 else (i, i + 1) for i in range(10)])


@pytest.mark.parametrize("name", [
    "obtuse_delaunay_square", "structured_square", "delaunay_tet_cube", "reversed_segment",
])
def test_edge_table_assembly_is_the_sparse_algebra_bitwise(name):
    # pinned matrix, rhs, u and sigma are bitwise those of d0^T star1 d0 and
    # the bmat blocks, signed zeros of the zero data included; the structured
    # square has zero star entries, and the segment's reversed top pins the
    # sign of sigma. zero_mean is pin 0 on a mean-free load: its system is
    # checked bitwise against pin 0's and its solution against the bordered
    # system's, which it matches to round-off
    if name == "reversed_segment":
        mesh = _reversed_segment()
        assert mesh.orientations[1].tolist().count(-1) == 1
    else:
        mesh = generate_fixture(name, divisions=2 if name == "delaunay_tet_cube" else 6)
    facets = np.array([facet for facet, _ in mesh.boundary_faces()])
    flux = np.random.default_rng(len(facets)).standard_normal(len(facets))
    outflux = flux @ mesh.volumes(mesh.n - 1)[facets]
    last = mesh.num_simplices(0) - 1
    for mode in ("signed", "unsigned"):
        star0 = hodge_star(mesh, 0, mode=mode).entries
        balanced = (np.full(len(star0), outflux / star0.sum()), flux)
        cases = itertools.product((balanced, (0.0 * star0, 0.0 * flux)), ("reduced", "saddle"))
        for (source, data), form in cases:
            for gauge in ("zero_mean", ("pin", 0), ("pin", last)):
                problem = MixedPoissonProblem(mesh, source, data, gauge)
                system = assemble_mixed_poisson(problem, hodge_mode=mode, form=form)
                pinned = ("pin", 0) if gauge == "zero_mean" else gauge
                want, rhs, raw, u, sigma = sparse_algebra_poisson(
                    mesh, source, data, pinned, mode, form
                )
                if gauge == "zero_mean":
                    _, bordered, _, u, sigma = sparse_algebra_poisson(
                        mesh, source, data, gauge, mode, form
                    )
                    first = len(rhs) + 1 - mesh.num_simplices(0)  # the vertex block's start
                    rhs = np.concatenate([rhs[:first], rhs[first:] - bordered[first:-1].mean()])
                got = system.matrix.tocsr()
                for matrix in (got, want):
                    matrix.sort_indices()
                assert got.shape == want.shape
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert got.data.tobytes() == want.data.tobytes()
                assert system.rhs.tobytes() == rhs.tobytes()
                if raw is None:  # the structured square's saddle systems
                    assert u is None  # singular in the bordered route too
                    with pytest.raises(SolveError):
                        solve_mixed_poisson(system)
                    continue
                solution = solve_mixed_poisson(system)
                if gauge == "zero_mean":
                    assert _within(solution.u, u, 1e-12)
                    assert _within(solution.sigma, sigma, 1e-11)
                    assert solution.residual_norm < 1e-12
                    continue
                assert solution.u.tobytes() == u.tobytes()
                assert solution.sigma.tobytes() == sigma.tobytes()
                residual = np.linalg.norm(want @ raw - rhs) / max(np.linalg.norm(rhs), 1e-300)
                assert solution.residual_norm == residual


@pytest.mark.parametrize("dim, count", [(3, 300), (2, 1000)])
def test_zero_mean_matches_the_bordered_system_on_random_delaunay_meshes(dim, count):
    # random Delaunay meshes are not qualifying (their hull facets are not
    # all one-sided), so the signed stars are ill-conditioned; the data
    # balance, or miss by half of the compatibility bound, which the gauge drops
    points = np.random.default_rng(0).random((count, dim))
    mesh = build_complex(points, Delaunay(points).simplices)
    assert not classify_complex(mesh).is_qualifying
    rng = np.random.default_rng(1)
    facets = np.array([facet for facet, _ in mesh.boundary_faces()])
    flux = rng.standard_normal(len(facets))
    areas = mesh.volumes(mesh.n - 1)[facets]
    noise = rng.standard_normal(mesh.num_simplices(0))
    for mode in ("signed", "unsigned"):
        star0 = hodge_star(mesh, 0, mode=mode).entries
        star1 = hodge_star(mesh, 1, mode=mode).entries
        balanced = noise + (flux @ areas - star0 @ noise) / star0.sum()
        scale = np.abs(star0 * balanced).sum() + np.abs(flux) @ areas
        for source in (balanced, balanced + 0.5e-8 * scale / star0.sum()):
            for form in ("reduced", "saddle"):
                problem = MixedPoissonProblem(mesh, source, flux)
                solution = solve_mixed_poisson(
                    assemble_mixed_poisson(problem, hodge_mode=mode, form=form)
                )
                *_, u, sigma = sparse_algebra_poisson(mesh, source, flux, "zero_mean", mode, form)
                assert _within(solution.u, u, 1e-10)
                if form == "reduced":
                    assert _within(solution.sigma, sigma, 1e-10)
                else:
                    # the saddle form fixes sigma_e only to residual / |star1_e|,
                    # and some signed star1 entries here are tiny (3e-10 of the
                    # largest on the 3D mesh): on those edges both solves leave
                    # sigma loose, while star1 sigma, the flux that balances
                    # each dual cell, agrees to round-off
                    assert _within(star1 * solution.sigma, star1 * sigma, 1e-10)


@pytest.mark.parametrize("gauge", ["zero_mean", ("pin", 0)])
@pytest.mark.parametrize("mode", ["signed", "unsigned"])
def test_singular_system_raises_solve_error_and_no_warning(mode, gauge):
    # the structured square's zero star entries make its saddle system singular
    mesh = generate_fixture("structured_square", divisions=4)
    problem = MixedPoissonProblem(mesh=mesh, boundary_flux=_side_flux(), gauge=gauge)
    system = assemble_mixed_poisson(problem, hodge_mode=mode, form="saddle")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolveError, match="non-finite"):
            solve_mixed_poisson(system)


def test_sigma_vectors_reconstruct_linear_field(good_mesh):
    u = 2.0 * good_mesh.points[:, 0] + 3.0 * good_mesh.points[:, 1]
    heads = good_mesh.simplices[1][:, 1]
    tails = good_mesh.simplices[1][:, 0]
    sigma = -(u[heads] - u[tails])
    vectors = sigma_vectors(good_mesh, sigma)
    assert np.max(np.abs(vectors - np.array([-2.0, -3.0]))) < 1e-10


def _exact_sigma_vectors(mesh, sigma):
    """Reference fit: each top's exact rational least-squares solution over
    its n(n+1)/2 edges, rounded once."""
    out = np.empty((mesh.num_simplices(mesh.n), mesh.N))
    for t in range(mesh.num_simplices(mesh.n)):
        pairs = list(itertools.combinations(mesh.simplex_vertices(mesh.n, t), 2))
        rows = [mesh.points[b] - mesh.points[a] for a, b in pairs]
        vals = [sigma[mesh.simplex_index(1, pair)] for pair in pairs]
        out[t] = [float(x) for x in exact_least_squares(rows, vals)]
    return out


@pytest.mark.parametrize("family", ["good", "bad_boundary", "non_delaunay", "tet_cube"])
def test_sigma_vectors_match_exact_least_squares(family):
    # On non-Delaunay meshes triangle condition numbers reach ~2e3; the fit
    # stays within 1e-13 of the largest vector of the exact solution (1.7e-14
    # measured), where a per-triangle np.linalg.lstsq is 1.5e-13 off.
    for seed in range(6 if family != "tet_cube" else 2):
        if family == "tet_cube":
            mesh = generate_fixture("delaunay_tet_cube", divisions=3, seed=seed)
            solved = _solve(mesh).sigma
        else:
            result = figure1_experiment(family=family, divisions=8, seed=seed)
            mesh, solved = result.mesh, result.solution.sigma
        random = np.random.default_rng(seed).standard_normal(mesh.num_simplices(1))
        for sigma in (solved, random):
            want = _exact_sigma_vectors(mesh, sigma)
            got = sigma_vectors(mesh, sigma)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_sigma_vectors_require_one_finite_real_value_per_edge(good_mesh):
    # a longer cochain was truncated, a shorter one raised a bare IndexError,
    # a complex one gave complex vectors and a 2-D one failed inside the fit
    count = good_mesh.num_simplices(1)
    nan, inf = np.zeros(count), np.zeros(count)
    nan[3], inf[-1] = np.nan, -np.inf
    for values, got in [
        (np.zeros(count + 1), f"shape ({count + 1},)"),
        (np.zeros(count - 1), f"shape ({count - 1},)"),
        (np.zeros((count, 1)), f"shape ({count}, 1)"),
        (np.zeros(count) + 0j, "complex128 values"),
        (np.zeros(count, dtype=bool), "bool values"),
        (np.full(count, "a"), "<U1 values"),
        (nan, "nan at edge 3"),
        (inf, f"-inf at edge {count - 1}"),
    ]:
        message = f"sigma must be one finite real value per edge ({count}), got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sigma_vectors(good_mesh, values)
    # integers, in a list too, are real values
    want = sigma_vectors(good_mesh, np.arange(count, dtype=float))
    assert np.array_equal(sigma_vectors(good_mesh, list(range(count))), want)


def test_fits_never_call_numpy_linalg_factorisations(monkeypatch):
    # the flux vectors, the affine fit of u and the order axis are least
    # squares on geometry's Gram-Schmidt R, not numpy's LAPACK
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy.linalg factorisation was called")

    for name in ("qr", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    results = figure1_columns(divisions=4)
    assert [(r.family, r.hodge_mode) for r in results] == list(FIGURE1_COLUMNS)
    data, correct = circumcenter_order_points([[0.0, 0.0], [1.0, 0.0]], [0.3, -0.5], [0.6, 0.8])
    assert abs(data.apex_radial_distance - 0.1) <= 1e-15 and correct


def _exact_u_error(result):
    """u_error from the exact rational affine fit a x + c of u, rounded once."""
    x, u = result.mesh.points[:, 0], result.solution.u
    slope, intercept = exact_least_squares(np.column_stack([x, np.ones(len(x))]), u)
    deviation = max(
        abs(Fraction(ui) - slope * Fraction(xi) - intercept) for xi, ui in zip(x.tolist(), u.tolist())
    )
    return float(deviation / abs(Fraction(result.config["influx"]) * Fraction(result.config["width"])))


@pytest.mark.parametrize("divisions", [4, 8, 12])
def test_u_error_is_the_deviation_from_the_exact_affine_fit(divisions):
    for seed in range(10):
        for result in figure1_columns(divisions=divisions, seed=seed):
            assert abs(result.u_error - _exact_u_error(result)) <= 1e-13


def test_experiment_good_column(good_mesh):
    result = figure1_experiment(family="good", mesh=good_mesh)
    assert result.u_error < 1e-10
    assert result.sigma_error < 1e-10
    assert result.report.is_qualifying
    assert result.star1_nonpositive == []
    assert result.elapsed_seconds > 0.0
    assert result.config["divisions"] == 16  # generation params, mesh reused


def test_experiment_keeps_the_flux_vectors_it_measures():
    result = figure1_experiment(family="bad_boundary", divisions=8)
    vectors = sigma_vectors(result.mesh, result.solution.sigma)
    assert np.array_equal(result.flux_vectors, vectors)
    assert result.sigma_error == np.linalg.norm(vectors - [1.0, 0.0], axis=1).max()


def test_experiment_failure_columns_small():
    # small versions of the failure columns: wrong answers, flagged stars
    bad = figure1_experiment(family="bad_boundary", divisions=8)
    assert bad.u_error > 1e-2
    assert bad.star1_nonpositive != []
    assert not bad.report.is_qualifying
    skew = figure1_experiment(family="non_delaunay", divisions=8)
    assert skew.u_error > 1e-2
    assert skew.star1_nonpositive != []
    assert len(skew.report.violated_pairs) >= 1
    # the nonpositive star entries are the report's nonpositive duals
    for result in (bad, skew):
        for p, found in enumerate((result.star0_nonpositive, result.star1_nonpositive)):
            assert found == validate_hodge(hodge_star(result.mesh, p))


def test_experiment_rejects_zero_or_infinite_influx():
    for influx in (0, 0.0, np.inf, np.nan):
        with pytest.raises(ProblemDefinitionError, match="influx"):
            figure1_experiment(influx=influx, mesh=object())  # before any mesh work


def test_experiment_rejects_integers_beyond_float_range():
    for name in ("width", "height", "influx"):
        with pytest.raises(ProblemDefinitionError, match=name):
            figure1_experiment(mesh=object(), **{name: 10**400})  # before any mesh work


def test_columns_share_each_family_mesh():
    columns = [("good", "signed"), ("good", "unsigned"), ("non_delaunay", "signed")]
    results = figure1_columns(divisions=8, columns=columns)
    assert [(r.family, r.hodge_mode) for r in results] == columns
    assert results[0].mesh is results[1].mesh
    assert results[2].mesh is not results[0].mesh
    for result in results:
        alone = figure1_experiment(
            family=result.family, hodge_mode=result.hodge_mode, divisions=8, mesh=result.mesh
        )
        assert alone.solution.u.tobytes() == result.solution.u.tobytes()


def test_columns_classify_each_mesh_once(monkeypatch):
    # the fixture gates classify each mesh, and the columns reuse that work:
    # pair signs are computed only while a generator runs
    from signeddec import delaunay, fixtures

    running, calls = [], []  # per _pair_signs call: whether a generator ran
    pair_signs, generate = delaunay._pair_signs, fixtures.generate_fixture

    def counted(*args):
        calls.append(bool(running))
        return pair_signs(*args)

    def generating(*args, **kwargs):
        running.append(True)
        try:
            return generate(*args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(delaunay, "_pair_signs", counted)
    monkeypatch.setattr(fixtures, "generate_fixture", generating)
    results = figure1_columns(divisions=6)
    assert calls and all(calls)
    for result in results:
        mesh = result.mesh
        fresh = classify_complex(build_complex(mesh.points, mesh.simplices[2]))
        for name, column in vars(result.report).items():
            expected = getattr(fresh, name)
            assert column.dtype == expected.dtype and np.array_equal(column, expected)


def test_experiment_rejects_unknown_family():
    with pytest.raises(ProblemDefinitionError):
        figure1_experiment(family="great")
    with pytest.raises(ProblemDefinitionError, match="hodge_mode"):
        figure1_experiment(hodge_mode="weird", mesh=object())  # before any mesh work
    # a family that is not a string fails before it is hashed
    with pytest.raises(ProblemDefinitionError, match="family"):
        figure1_experiment(family=["good"], mesh=object())
    with pytest.raises(ProblemDefinitionError, match="family"):
        figure1_columns(divisions=4, columns=[("good", "signed"), (["good"], "signed")])


def test_column_table_is_fixed():
    assert FIGURE1_COLUMNS == (
        ("good", "signed"),
        ("good", "unsigned"),
        ("bad_boundary", "signed"),
        ("non_delaunay", "signed"),
    )
