"""Finite-element lattice schemes for linear parabolic SPDEs on a torus.

The package builds shift-invariant finite elements from one symmetric mother
function, verifies the assumptions that make the lattice scheme well posed
and second-order consistent, integrates the resulting system of SDEs with a
drift-implicit Euler-Maruyama stepper under noise shared across nested mesh
levels, and accelerates the spatial convergence by Richardson extrapolation.
"""

__version__ = "0.1.0"

from .assembly import AssembledProblem, StencilOperator, assemble_drift, assemble_mass, assemble_noise, mollify_data
from .checks import AssumptionReport, check_cardinal, check_compatibility, check_invertibility, check_parabolicity, verify_element
from .elements import FiniteElement, build_element, parse_element_text, validate_element
from .expr import EvalError, ExprSyntaxError, evaluate, parse, to_source
from .integrator import (
    IntegrationError,
    NoisePath,
    SolverError,
    Trajectory,
    integrate,
    integrate_multilevel,
    sample_seed,
    step_implicit_em,
)
from .lattice import (
    GridFunction,
    TorusLattice,
    build_torus,
    restrict,
)
from .problem import Problem, parse_problem_text
from .richardson import (
    ConvergenceReport,
    ExtrapolationPlan,
    combine,
    error_norm,
    estimate_order,
    extrapolation_coefficients,
)
from .study import StudyConfig, StudyResult, run_convergence_study
from .tensors import ReferenceTensors, compute_reference_tensors

__all__ = [
    "AssembledProblem",
    "AssumptionReport",
    "ConvergenceReport",
    "EvalError",
    "ExprSyntaxError",
    "ExtrapolationPlan",
    "FiniteElement",
    "GridFunction",
    "IntegrationError",
    "NoisePath",
    "Problem",
    "ReferenceTensors",
    "SolverError",
    "StencilOperator",
    "StudyConfig",
    "StudyResult",
    "TorusLattice",
    "Trajectory",
    "assemble_drift",
    "assemble_mass",
    "assemble_noise",
    "build_element",
    "build_torus",
    "check_cardinal",
    "check_compatibility",
    "check_invertibility",
    "check_parabolicity",
    "combine",
    "compute_reference_tensors",
    "error_norm",
    "estimate_order",
    "evaluate",
    "extrapolation_coefficients",
    "integrate",
    "integrate_multilevel",
    "mollify_data",
    "parse",
    "parse_element_text",
    "parse_problem_text",
    "restrict",
    "run_convergence_study",
    "sample_seed",
    "step_implicit_em",
    "to_source",
    "validate_element",
    "verify_element",
]
