"""Signed circumcentric dual volumes and diagonal Hodge stars for
simplicial meshes, with pairwise-Delaunay / one-sided-boundary
classification and a mixed-form Poisson demonstration."""

from .complexes import SimplicialComplex, boundary_operator, build_complex
from .config import DEFAULT_EPS, tolerance
from .delaunay import (
    CircumcenterOrder,
    MeshReport,
    circumcenter_order_points,
    classify_complex,
    is_delaunay_pair,
    is_one_sided,
    one_sided_status_points,
    pair_status_points,
)
from .errors import (
    AffineHullError,
    ComplexError,
    DegeneracyError,
    FixtureError,
    MeshFormatError,
    NonManifoldError,
    ProblemDefinitionError,
    SignedDecError,
    SolveError,
    ToleranceError,
)
from .fixtures import FIXTURE_NAMES, generate_fixture
from .geometry import (
    Circumdata,
    FlattenedPair,
    circumcenter,
    flatten_pair,
    halfspace_sign,
    simplex_volume,
)
from .hodge import HodgeStar, hodge_star, validate_hodge
from .meshfile import MeshFile, load_complex, read_mesh, write_mesh
from .poisson import (
    ExperimentResult,
    MixedPoissonProblem,
    MixedPoissonSolution,
    assemble_mixed_poisson,
    figure1_columns,
    figure1_experiment,
    solve_mixed_poisson,
)
from .signed_dual import (
    DualCell,
    ElementaryDual,
    dual_volumes,
    elementary_duals,
    orientation_sign_via_determinant,
    signed_dual_volume,
    step_sign,
)

__version__ = "0.1.0"

__all__ = [
    "AffineHullError",
    "Circumdata",
    "CircumcenterOrder",
    "ComplexError",
    "DEFAULT_EPS",
    "DegeneracyError",
    "DualCell",
    "ElementaryDual",
    "ExperimentResult",
    "FIXTURE_NAMES",
    "FixtureError",
    "FlattenedPair",
    "HodgeStar",
    "MeshFile",
    "MeshFormatError",
    "MeshReport",
    "MixedPoissonProblem",
    "MixedPoissonSolution",
    "NonManifoldError",
    "ProblemDefinitionError",
    "SignedDecError",
    "SimplicialComplex",
    "SolveError",
    "ToleranceError",
    "assemble_mixed_poisson",
    "boundary_operator",
    "build_complex",
    "circumcenter",
    "circumcenter_order_points",
    "classify_complex",
    "dual_volumes",
    "elementary_duals",
    "figure1_columns",
    "figure1_experiment",
    "flatten_pair",
    "generate_fixture",
    "halfspace_sign",
    "hodge_star",
    "is_delaunay_pair",
    "is_one_sided",
    "load_complex",
    "one_sided_status_points",
    "orientation_sign_via_determinant",
    "pair_status_points",
    "read_mesh",
    "signed_dual_volume",
    "simplex_volume",
    "solve_mixed_poisson",
    "step_sign",
    "tolerance",
    "validate_hodge",
    "write_mesh",
]
