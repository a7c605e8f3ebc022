"""Projection methods for basic semi-algebraic convex feasibility problems.

Cyclic and two-set alternating projection drivers, closed-form and numerical
projectors for polynomially described convex sets, empirical convergence-rate
fitting against explicit worst-case exponents, and a catalog of geometry
with exact oracles for cross-validation.
"""

from .analysis import (
    ErrorBoundReport,
    GeometricFit,
    PowerFit,
    RateReport,
    compare_with_theory,
    error_bound_exponent_on_curve,
    error_bound_probe,
    fit_geometric_rate,
    fit_power_rate,
    trace_error_sequence,
)
from .catalog import CatalogEntry, get_entry
from .engine import (
    AlternatingResult,
    ProjectionStepError,
    Trace,
    alternating_project,
    check_descent_inequality,
    cyclic_project,
)
from .poly import Monomial, Polynomial
from .rates import (
    ExponentOverflowError,
    Linear,
    PowerLaw,
    central_binomial,
    cyclic_rate,
    holder_exponent_tau,
    kappa,
    recurrence_bound,
)
from .sets import (
    Ball,
    CapabilityError,
    ConvexSetDescriptor,
    FeasibilityProblem,
    Halfspace,
    NumericalError,
    ProjectionError,
    Singleton,
    distance,
    feasible,
    project,
    residual,
)

__version__ = "0.1.0"
