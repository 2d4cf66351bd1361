"""Diagonal Hodge stars: dual volume over primal volume, per p-simplex.

The signed mode uses signed circumcentric dual volumes and is the star
whose positivity is guaranteed on qualifying meshes; the unsigned mode
(absolute piece volumes) is kept for comparison, as the historically
common variant that miscomputes on non-well-centered meshes. scipy is
imported by the one method that calls it, HodgeStar.as_matrix, so computing
a star loads numpy alone.
"""

from dataclasses import dataclass

import numpy as np

from .signed_dual import dual_volumes

__all__ = ["HodgeStar", "hodge_star", "validate_hodge"]

MODES = ("signed", "unsigned")


@dataclass(frozen=True)
class HodgeStar:
    """Diagonal discrete Hodge star on p-cochains."""

    dim: int
    mode: str
    entries: np.ndarray

    def as_matrix(self):
        """The star as a sparse diagonal matrix."""
        from scipy import sparse

        return sparse.diags(self.entries)

    def inner_product(self, a, b):
        """Cochain inner product a^T (star) b; complex cochains raise
        ValueError."""
        if np.iscomplexobj(a) or np.iscomplexobj(b):
            raise ValueError("cochains must be real, got complex values")
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return float(a @ (self.entries * b))


def hodge_star(complex_, dim, mode="signed", tol=None):
    """Diagonal Hodge star on p-cochains: (signed or unsigned) dual volume
    divided by primal volume, one entry per p-simplex.

    Vertices have primal volume 1, so the 0-star is just the dual area or
    volume; the n-star is one over the top simplex volume.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    signed, unsigned = dual_volumes(complex_, dim, tol=tol)
    dual = signed if mode == "signed" else unsigned
    entries = dual / complex_.volumes(dim)
    entries.setflags(write=False)
    return HodgeStar(dim=dim, mode=mode, entries=entries)


def validate_hodge(star):
    """Indices of nonpositive star entries (empty list means positive
    definite, the guaranteed outcome on qualifying meshes)."""
    return [int(i) for i in np.nonzero(star.entries <= 0.0)[0]]
