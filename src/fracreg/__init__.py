"""Fourier-truncation regularization of the ill-posed Cauchy problem for
semilinear time-fractional elliptic equations with Gaussian white-noise data.

The package is organized around the pipeline

    mittag_leffler -> spectral -> mild_solver -> noise_model -> regularizer
    -> experiments (CLI: ``fracreg``)

Import the pieces you need from the submodules, or the common entry points
from here.
"""

from .errors import DomainError, NoConvergence, NonConvergence
from .experiments import (
    ErrorReport,
    ExperimentConfig,
    convergence_table,
    emit,
    illposed_demo,
    mise_check,
)
from .mild_solver import (
    FourierField,
    InitialData,
    NonlinearitySpec,
    ProblemSpec,
    manufacture,
    solve_mild,
)
from .mittag_leffler import MLValue, kernel_primitive, ml
from .noise_model import NoisyObservation, mise_bound_check, monte_carlo, observe
from .regularizer import (
    RateParams,
    RegConfig,
    choose_params,
    regularized_solve,
    theory_bound_hq,
    theory_bound_l2,
)
from .spectral import EigenSystem, hq_norm

__all__ = [
    "DomainError",
    "NoConvergence",
    "NonConvergence",
    "ErrorReport",
    "ExperimentConfig",
    "convergence_table",
    "emit",
    "illposed_demo",
    "mise_check",
    "FourierField",
    "InitialData",
    "NonlinearitySpec",
    "ProblemSpec",
    "manufacture",
    "solve_mild",
    "MLValue",
    "kernel_primitive",
    "ml",
    "NoisyObservation",
    "mise_bound_check",
    "monte_carlo",
    "observe",
    "RateParams",
    "RegConfig",
    "choose_params",
    "regularized_solve",
    "theory_bound_hq",
    "theory_bound_l2",
    "EigenSystem",
    "hq_norm",
]

__version__ = "0.1.0"
