"""Explicit solution and verification of a moving-boundary heat problem
with sqrt(t)-dependent latent heat, and its reciprocal transformation to a
source-term evolution equation with two free boundaries."""

from .errors import (
    DegenerateDenominator,
    DomainError,
    InvalidParameters,
    NonmonotoneFront,
    NoSignChange,
    NotMonotone,
    OutOfRange,
    QuadratureFailure,
    StabilityViolation,
    StefanError,
)
from .oracle import OracleConfig, OracleResult, compare_to_closed_form
from .oracle import solve as solve_oracle
from .similarity import (
    GammaRoot,
    PhysicalParams,
    StefanField,
    check_physical_condition,
    eval_F,
    eval_G,
    physical_margin,
    solve_gamma,
    solve_gammas,
)
from .transform import (
    BoundaryCoefficients,
    PsiField,
    c_of_t_general,
    compute_boundary_coefficients,
    theta_quadrature,
)
from .verify import (
    GridSpec,
    ResidualReport,
    burgers_bc_residuals,
    burgers_residual,
    evolution_residual,
    h_ratio_residual,
    heat_residual,
    psi_bc_residuals,
    reciprocal_identity_residual,
    run_verification_suite,
    stefan_bc_residuals,
)

__all__ = [
    "BoundaryCoefficients",
    "DegenerateDenominator",
    "DomainError",
    "GammaRoot",
    "GridSpec",
    "InvalidParameters",
    "NonmonotoneFront",
    "NoSignChange",
    "NotMonotone",
    "OracleConfig",
    "OracleResult",
    "OutOfRange",
    "PhysicalParams",
    "PsiField",
    "QuadratureFailure",
    "ResidualReport",
    "StabilityViolation",
    "StefanError",
    "StefanField",
    "burgers_bc_residuals",
    "burgers_residual",
    "c_of_t_general",
    "check_physical_condition",
    "compare_to_closed_form",
    "compute_boundary_coefficients",
    "eval_F",
    "eval_G",
    "evolution_residual",
    "h_ratio_residual",
    "heat_residual",
    "physical_margin",
    "psi_bc_residuals",
    "reciprocal_identity_residual",
    "run_verification_suite",
    "solve_gamma",
    "solve_gammas",
    "solve_oracle",
    "stefan_bc_residuals",
    "theta_quadrature",
]

__version__ = "0.1.0"
