"""Whole-mesh oracles in every dimension: the support-volume identity and
exact invariance under translation."""

import math

import numpy as np
import pytest
from scipy.spatial import Delaunay

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
