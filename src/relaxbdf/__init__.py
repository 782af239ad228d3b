"""Solvers for 1-D linear hyperbolic relaxation systems with stiff sources.

The package combines a Fourier-Galerkin spatial discretization with
implicit-explicit backward-differentiation time integrators of orders 1-4
whose accuracy does not degrade as the relaxation time goes to zero.  It
ships a structural-stability verifier, an exact per-mode reference solver,
three ready-made linearized models and a convergence-study harness.
"""

from .harness import (
    ConvergenceTable,
    ExperimentConfig,
    compute_error,
    emit_table,
    grid_error,
    run_convergence_study,
)
from .integrator import (
    BDFCoefficients,
    ars_startup,
    bdf_coefficients,
    imex_bdf_step,
    make_solver_state,
    run,
)
from .models import ModelSpec, build_model, initial_data, make_arz, make_broadwell, make_grad
from .oracle import exact_evolve, fine_step_reference
from .spectral import SpectralField, project, zero_field
from .system import (
    CertificateReport,
    RelaxationSystem,
    StabilityWitness,
    check_structural_stability,
    find_symmetrizer,
    system_from_json,
    system_to_json,
)
from .theory import (
    discrete_energy,
    fit_order,
    multiplier_data,
    truncation_residual,
    verify_multiplier_identity,
)

__version__ = "0.1.0"

__all__ = [
    "BDFCoefficients",
    "CertificateReport",
    "ConvergenceTable",
    "ExperimentConfig",
    "ModelSpec",
    "RelaxationSystem",
    "SpectralField",
    "StabilityWitness",
    "ars_startup",
    "bdf_coefficients",
    "build_model",
    "check_structural_stability",
    "compute_error",
    "discrete_energy",
    "emit_table",
    "exact_evolve",
    "find_symmetrizer",
    "fine_step_reference",
    "fit_order",
    "grid_error",
    "imex_bdf_step",
    "initial_data",
    "make_arz",
    "make_broadwell",
    "make_grad",
    "make_solver_state",
    "multiplier_data",
    "project",
    "run",
    "run_convergence_study",
    "system_from_json",
    "system_to_json",
    "truncation_residual",
    "verify_multiplier_identity",
    "zero_field",
]
