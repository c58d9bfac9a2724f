"""Explicit solution and verification of a moving-boundary heat problem
with sqrt(t)-dependent latent heat, and its reciprocal transformation to a
source-term evolution equation with two free boundaries.

The exports load lazily (PEP 562): ``import stefan_reciprocal`` imports no
submodule, and the first access to an export imports the one module that
defines it.  So a caller that solves only for gamma loads neither numpy nor
the closed-form fields, and one that uses only the similarity solution never
loads the reciprocal map, the identity checks or the oracle.
"""

import importlib

#: Each export and its module, as ``module`` or, where the export is renamed,
#: ``module.attribute``; in the order of ``__all__``.
_EXPORTS = {
    "BoundaryCoefficients": "transform",
    "DomainError": "errors",
    "GammaRoot": "roots",
    "GridSpec": "verify",
    "InvalidParameters": "errors",
    "NonmonotoneFront": "errors",
    "NoSignChange": "errors",
    "NotMonotone": "errors",
    "OracleConfig": "oracle",
    "OracleResult": "oracle",
    "OutOfRange": "errors",
    "PhysicalParams": "roots",
    "PsiField": "transform",
    "QuadratureFailure": "errors",
    "ResidualReport": "verify",
    "StabilityViolation": "errors",
    "StefanError": "errors",
    "StefanField": "similarity",
    "burgers_bc_residuals": "verify",
    "burgers_residual": "verify",
    "c_of_t_general": "verify",
    "compare_to_closed_form": "oracle",
    "compute_boundary_coefficients": "transform",
    "eval_F": "roots",
    "eval_G": "roots",
    "evolution_residual": "verify",
    "h_ratio_residual": "verify",
    "heat_residual": "verify",
    "physical_margin": "roots",
    "psi_bc_residuals": "verify",
    "reciprocal_identity_residual": "verify",
    "run_verification_suite": "verify",
    "solve_gamma": "roots",
    "solve_oracle": "oracle.solve",
    "stefan_bc_residuals": "verify",
    "theta_quadrature": "verify",
}

_SUBMODULES = ("cli", "errors", "forms", "oracle", "roots", "similarity", "transform", "verify")

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    """Import the module behind an export or a submodule on first access."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attr = _EXPORTS[name].partition(".")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attr or name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
