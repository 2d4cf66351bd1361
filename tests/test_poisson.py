"""Mixed-form Poisson assembly and solves: patch test, gauges, forms,
boundary handling."""

import numpy as np
import pytest
from scipy import sparse

from conftest import cotan_weights
from signeddec.errors import ProblemDefinitionError
from signeddec.fixtures import generate_fixture
from signeddec.poisson import (
    FIGURE1_COLUMNS,
    MixedPoissonProblem,
    assemble_mixed_poisson,
    boundary_outward_normals,
    figure1_columns,
    figure1_experiment,
    sigma_vectors,
    solve_mixed_poisson,
)


@pytest.fixture(scope="module")
def good_mesh():
    return generate_fixture("obtuse_delaunay_square", divisions=8)


def _side_flux(width=1.0, influx=1.0):
    def flux(midpoint):
        if abs(midpoint[0]) < 1e-9:
            return -influx
        if abs(midpoint[0] - width) < 1e-9:
            return influx
        return 0.0

    return flux


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
    problem = MixedPoissonProblem(mesh=good_mesh, boundary_flux=_side_flux())
    system = assemble_mixed_poisson(problem)
    nv = good_mesh.num_simplices(0)
    stiffness = system.matrix.toarray()[:nv, :nv]
    oracle = np.zeros((nv, nv))
    for (i, j), w in cotan_weights(good_mesh.points, good_mesh.simplices[2]).items():
        oracle[i, j] -= w
        oracle[j, i] -= w
        oracle[i, i] += w
        oracle[j, j] += w
    assert np.allclose(stiffness, oracle, atol=1e-12)


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


def test_flux_dict_form(good_mesh):
    boundary = good_mesh.boundary_faces()
    width = 1.0
    table = {}
    for facet, _ in boundary:
        mid = good_mesh.simplex_points(1, facet).mean(axis=0)
        if abs(mid[0]) < 1e-9:
            table[facet] = -1.0
        elif abs(mid[0] - width) < 1e-9:
            table[facet] = 1.0
    by_dict = _solve(good_mesh, flux=table)
    by_callable = _solve(good_mesh)
    assert np.allclose(by_dict.u, by_callable.u, atol=1e-12)
    with pytest.raises(ProblemDefinitionError):
        _solve(good_mesh, flux=np.zeros(3))


def test_gauge_validation(good_mesh):
    with pytest.raises(ProblemDefinitionError):
        _solve(good_mesh, gauge="fix_somewhere")
    for gauge in (("pin", 10**6), ("pin", 2.7), ("pin", True), ("pin", "a")):
        with pytest.raises(ProblemDefinitionError):
            _solve(good_mesh, gauge=gauge)


def test_rejects_non_planar_mesh():
    from signeddec.complexes import build_complex

    points = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
        [0.3, 0.3, 1.0], [0.3, 0.3, -1.0],
    ])
    tets = build_complex(points, [(0, 1, 2, 3), (0, 1, 2, 4)])
    with pytest.raises(ProblemDefinitionError):
        assemble_mixed_poisson(MixedPoissonProblem(mesh=tets))
    surface = generate_fixture("surface_pairwise_delaunay", divisions=4)
    with pytest.raises(ProblemDefinitionError):
        assemble_mixed_poisson(MixedPoissonProblem(mesh=surface))


def test_rejects_unknown_form(good_mesh):
    with pytest.raises(ProblemDefinitionError):
        assemble_mixed_poisson(
            MixedPoissonProblem(mesh=good_mesh, boundary_flux=0.0), form="direct"
        )


def test_boundary_outward_normals_on_square():
    mesh = generate_fixture("structured_square", divisions=2)
    normals = boundary_outward_normals(mesh)
    center = mesh.points.mean(axis=0)
    for (facet, _), normal in zip(mesh.boundary_faces(), normals):
        assert np.isclose(np.linalg.norm(normal), 1.0)
        mid = mesh.simplex_points(1, facet).mean(axis=0)
        assert normal @ (mid - center) > 0.0


def test_sigma_vectors_reconstruct_linear_field(good_mesh):
    u = 2.0 * good_mesh.points[:, 0] + 3.0 * good_mesh.points[:, 1]
    heads = good_mesh.simplices[1][:, 1]
    tails = good_mesh.simplices[1][:, 0]
    sigma = -(u[heads] - u[tails])
    vectors = sigma_vectors(good_mesh, sigma)
    assert np.max(np.abs(vectors - np.array([-2.0, -3.0]))) < 1e-10


def _lstsq_sigma_vectors(mesh, sigma):
    """Reference fit: one np.linalg.lstsq per triangle."""
    out = np.empty((mesh.num_simplices(2), 2))
    for t in range(mesh.num_simplices(2)):
        cell = mesh.simplex_vertices(2, t)
        rows = [mesh.points[cell[b]] - mesh.points[cell[a]] for a, b in ((0, 1), (0, 2), (1, 2))]
        vals = [sigma[mesh.simplex_index(1, (cell[a], cell[b]))] for a, b in ((0, 1), (0, 2), (1, 2))]
        out[t] = np.linalg.lstsq(np.array(rows), np.array(vals), rcond=None)[0]
    return out


@pytest.mark.parametrize("family", ["good", "bad_boundary", "non_delaunay"])
def test_sigma_vectors_match_per_triangle_lstsq(family):
    # Both fits are backward stable; on non-Delaunay meshes triangle
    # condition numbers reach ~2e3, where the per-triangle lstsq itself is
    # up to ~5e-14 off the exact least-squares solution, so the bound is
    # 1e-13 of the largest vector rather than a few ulps.
    for seed in range(6):
        result = figure1_experiment(family=family, divisions=8, seed=seed)
        mesh = result.mesh
        random = np.random.default_rng(seed).standard_normal(mesh.num_simplices(1))
        for sigma in (result.solution.sigma, random):
            want = _lstsq_sigma_vectors(mesh, sigma)
            got = sigma_vectors(mesh, sigma)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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


def test_experiment_rejects_zero_or_infinite_influx():
    for influx in (0, 0.0, np.inf, np.nan):
        with pytest.raises(ProblemDefinitionError, match="influx"):
            figure1_experiment(influx=influx, mesh=object())  # before any mesh work


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


def test_experiment_rejects_unknown_family():
    with pytest.raises(ProblemDefinitionError):
        figure1_experiment(family="great")
    with pytest.raises(ProblemDefinitionError, match="hodge_mode"):
        figure1_experiment(hodge_mode="weird", mesh=object())  # before any mesh work


def test_column_table_is_fixed():
    assert FIGURE1_COLUMNS == (
        ("good", "signed"),
        ("good", "unsigned"),
        ("bad_boundary", "signed"),
        ("non_delaunay", "signed"),
    )
