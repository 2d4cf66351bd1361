"""Whole-mesh oracles in every dimension: the support-volume identity,
exact invariance under translation, invariance under rotation, scaling,
vertex relabelling and top reordering, and the tolerance band of the side
rule."""

import itertools
import math

import numpy as np
import pytest
from scipy.spatial import Delaunay

from conftest import random_rotation
from signeddec.complexes import build_complex
from signeddec.delaunay import classify_complex
from signeddec.fixtures import FIXTURE_NAMES, generate_fixture
from signeddec.signed_dual import dual_volumes


def _qhull(dim, size, seed):
    points = np.random.default_rng(seed).random((size, dim))
    return points, Delaunay(points).simplices


MESHES = [*FIXTURE_NAMES, "qhull_2d_300", "qhull_3d_50"]


@pytest.fixture(scope="module")
def inputs():
    """(points, top cells) of every fixture family and of a Qhull
    triangulation of 300 random points in 2D and of 50 in 3D."""
    meshes = {name: generate_fixture(name) for name in FIXTURE_NAMES}
    found = {name: (mesh.points, mesh.simplices[mesh.n]) for name, mesh in meshes.items()}
    return {**found, "qhull_2d_300": _qhull(2, 300, 7), "qhull_3d_50": _qhull(3, 50, 8)}


@pytest.mark.parametrize("name", MESHES)
def test_support_volumes_tile_the_mesh(inputs, name):
    # the joins of each p-simplex with its signed dual pieces tile every top
    # with signs: sum |s| D_p(s) = C(n, p) |M| at every p (measured: at most
    # 2.3e-15 relative)
    mesh = build_complex(*inputs[name])
    total = mesh.total_volume
    for p in range(mesh.n + 1):
        support = mesh.volumes(p) @ dual_volumes(mesh, p)[0]
        assert support == pytest.approx(math.comb(mesh.n, p) * total, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name", MESHES)
def test_translation_is_exact(inputs, name):
    # the geometry reads edge vectors alone, so once the input is rounded a
    # translation loses nothing: a mesh built from X + s has the volumes,
    # duals and classification of the one built from (X + s) - s, bit for bit
    points, cells = inputs[name]
    for shift in (1e3, 1e6, 1e8):
        moved = points + shift
        far, back = build_complex(moved, cells), build_complex(moved - shift, cells)
        for p in range(far.n + 1):
            for a, b in ((far.volumes(p), back.volumes(p)), *zip(dual_volumes(far, p),
                                                                  dual_volumes(back, p))):
                assert a.tobytes() == b.tobytes()
        reports = (vars(classify_complex(mesh)) for mesh in (far, back))
        for (key, a), b in zip(next(reports).items(), next(reports).values()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key


def _statuses(mesh, labels=None):
    """Pair and boundary signs keyed by each facet's sorted vertices, named
    by ``labels`` (the original label of each vertex; default the same)."""
    report = classify_complex(mesh, check_duals=False)
    facets = mesh.simplices[mesh.n - 1]
    facets = np.sort(facets if labels is None else labels[facets], axis=1)
    return [dict(zip(map(tuple, facets[ids].tolist()), signs.tolist()))
            for ids, signs in ((report.pair_facets, report.pair_signs),
                               (report.boundary_facets, report.boundary_signs))]


def _assert_invariant(mesh, moved, scale=1.0, labels=None):
    """``moved`` is ``mesh`` rotated, scaled by ``scale``, relabelled (vertex
    v of ``moved`` is vertex labels[v] of ``mesh``) or with its tops
    reordered: the same pair and boundary statuses, and signed duals
    scale^(n - p) times the originals within 1e-11 of the largest (at most
    5.5e-14 measured)."""
    assert _statuses(moved, labels) == _statuses(mesh)
    relabel = np.argsort(labels) if labels is not None else np.arange(len(mesh.points))
    for p in range(mesh.n + 1):
        original = dual_volumes(mesh, p)[0]
        found = dual_volumes(moved, p)[0][moved.simplex_indices(p, relabel[mesh.simplices[p]])]
        expected = scale ** (mesh.n - p) * original
        assert np.abs(found - expected).max() <= 1e-11 * np.abs(expected).max()


@pytest.mark.parametrize("name", MESHES)
def test_rotation_relabelling_and_top_order_change_no_status(inputs, name):
    points, cells = inputs[name]
    mesh = build_complex(points, cells)
    rng = np.random.default_rng(15)
    rotated = points @ random_rotation(rng, points.shape[1]).T
    _assert_invariant(mesh, build_complex(rotated, cells))
    labels = rng.permutation(len(points))  # new vertex v is old vertex labels[v]
    _assert_invariant(mesh, build_complex(points[labels], np.argsort(labels)[cells]), labels=labels)
    _assert_invariant(mesh, build_complex(points, cells[rng.permutation(len(cells))]))


@pytest.mark.parametrize("name", ["qhull_2d_300", "qhull_3d_50"])
@pytest.mark.parametrize("scale", [1e-4, 1e4])
def test_scaling_changes_no_status(inputs, name, scale):
    points, cells = inputs[name]
    _assert_invariant(build_complex(points, cells), build_complex(points * scale, cells), scale)


@pytest.mark.parametrize("name", MESHES)
def test_boundary_statuses_move_only_inside_the_tolerance_band(inputs, name):
    # for tol < tol', a boundary facet may change status only where its
    # apex's |lambda| lies in (max(tol, 1e-14), max(tol', 1e-14)], and then
    # it becomes marginal; the ladder holds every third |lambda| itself, so
    # statuses do move, at both ends of a band
    mesh = build_complex(*inputs[name])
    tops, columns = mesh.facet_cofaces
    facets = classify_complex(mesh, check_duals=False).boundary_facets
    apex = np.abs(mesh.geometry(mesh.n)[4][tops[facets, 0], columns[facets, 0]])
    ladder = sorted({0.0, 1e-14, 1e-10, 1e-6, 1e-3, *np.sort(apex)[::3].tolist()})
    signs = [classify_complex(mesh, tol=tol, check_duals=False).boundary_signs for tol in ladder]
    for (tol, tight), (loose_tol, loose) in itertools.combinations(zip(ladder, signs), 2):
        moved = tight != loose
        band = (max(tol, 1e-14) < apex) & (apex <= max(loose_tol, 1e-14))
        assert (band | ~moved).all() and (loose[moved] == 0).all()
    assert (signs[0] != signs[-1]).any()
