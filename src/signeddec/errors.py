"""Exception types shared across the package."""


class SignedDecError(Exception):
    """Base class for all package errors."""


class ToleranceError(SignedDecError, ValueError):
    """A tolerance, given or read from SIGNED_DEC_EPS, is not a finite
    nonnegative float."""


class DegeneracyError(SignedDecError):
    """Geometric degeneracy: affinely dependent points, zero-volume simplex."""


class AffineHullError(SignedDecError):
    """A query point lies outside the relevant affine hull beyond tolerance."""


class NonManifoldError(SignedDecError):
    """A codimension-1 simplex has more than two cofaces."""


class ComplexError(SignedDecError):
    """Structural problem with complex input (bad indices, duplicate cells)."""


class MeshFormatError(SignedDecError):
    """A mesh file failed to parse or validate."""


class FixtureError(SignedDecError):
    """A fixture generator could not realize the requested property."""


class ProblemDefinitionError(SignedDecError):
    """A PDE problem is ill-posed as stated (incompatible data, bad domain)."""


class SolveError(SignedDecError):
    """A linear solve failed or returned non-finite values."""
