"""Empirical convergence-rate fitting and error-bound probing.

Rate fits are ordinary least squares in log space: log e_k against log k for
a power law, log e_k against k for a geometric law.  The probe samples a
neighborhood of a feasible point and fits the regularity inequality
``dist^theta(x, C) <= c (sum_i dist^theta(x, C_i))^tau`` to estimate tau
empirically, next to the worst-case theoretical exponent.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from . import rates
from .engine import Trace, _run_steps
from .rates import PowerLaw, RateClass
from .sets import (
    OPTIMALITY_TOL,
    CapabilityError,
    FeasibilityProblem,
    as_vector,
    distance,
    feasible,
    finite_vector,
    residual,
    vdist,
    vdot,
)

ErrorSeq = Sequence[Tuple[int, float]]

MIN_FIT_POINTS = 20
_TIE_R2 = 1e-6


@dataclass(frozen=True)
class PowerFit:
    exponent: float
    r2: float


@dataclass(frozen=True)
class GeometricFit:
    ratio: float
    r2: float


@dataclass(frozen=True)
class RateReport:
    theoretical: RateClass
    power_fit: PowerFit
    geometric_fit: GeometricFit
    chosen: str  # "power" | "geometric"
    fit_window: Tuple[int, int]
    errors_used: str
    verdict: str  # "CONSISTENT" | "INCONSISTENT"


def _ols(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares slope, intercept and r^2 (r^2 = 1 for zero-variance ys)."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((a - mx) ** 2 for a in xs)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    syy = math.fsum((b - my) ** 2 for b in ys)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all abscissae identical")
    slope = sxy / sxx
    intercept = my - slope * mx
    r2 = 1.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return slope, intercept, r2


def _log_window(errors: ErrorSeq, window: Tuple[int, int]) -> Tuple[array, array]:
    """The window's step indices and the logs of their errors, which both
    fits share.  ``errors`` is read once, so it may be a generator."""
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}")
    ks = array("q")
    log_errors = array("d")
    bad = None  # the first point whose error has no log
    for k, e in errors:
        if lo <= k <= hi:
            ks.append(k)
            if bad is not None:
                continue
            if math.isfinite(e) and e > 0.0:
                log_errors.append(math.log(e))
            else:
                bad = k, e
    if len(ks) < MIN_FIT_POINTS:
        raise ValueError(
            f"window {window} holds {len(ks)} points; at least {MIN_FIT_POINTS} required"
        )
    if bad is not None:
        k, e = bad
        if not math.isfinite(e):
            raise ValueError(f"non-finite error {e} at k={k} inside the fit window")
        raise ValueError(f"nonpositive error {e} at k={k} inside the fit window")
    return ks, log_errors


def _power_fit(ks: array, log_errors: array) -> PowerFit:
    slope, _, r2 = _ols(array("d", map(math.log, ks)), log_errors)
    return PowerFit(exponent=slope, r2=r2)


def _geometric_fit(ks: array, log_errors: array) -> GeometricFit:
    slope, _, r2 = _ols(array("d", ks), log_errors)
    return GeometricFit(ratio=math.exp(slope), r2=r2)


def fit_power_rate(errors: ErrorSeq, window: Tuple[int, int]) -> PowerFit:
    """Slope and r^2 of log e_k against log k over the window."""
    return _power_fit(*_log_window(errors, window))


def fit_geometric_rate(errors: ErrorSeq, window: Tuple[int, int]) -> GeometricFit:
    """exp(slope) and r^2 of log e_k against k over the window."""
    return _geometric_fit(*_log_window(errors, window))


def _fit_both(errors: ErrorSeq, window: Tuple[int, int]) -> Tuple[PowerFit, GeometricFit, str]:
    """Both fits over the window and the better-fitting model's name; near
    ties go to geometric, the stronger claim."""
    ks, log_errors = _log_window(errors, window)
    pf = _power_fit(ks, log_errors)
    gf = _geometric_fit(ks, log_errors)
    return pf, gf, "geometric" if gf.r2 >= pf.r2 - _TIE_R2 else "power"


_POWER_SLACK = 0.05


def compare_with_theory(
    errors: ErrorSeq,
    n: int,
    d: int,
    window: Tuple[int, int],
    errors_used: str = "unspecified",
) -> RateReport:
    """Fit both empirical models over ``window`` (LO, HI in step index) and
    compare against the guaranteed class.

    CONSISTENT means the observed decay is at least as fast as the guarantee:
    a fitted power exponent <= -rho + 0.05, or any genuinely decaying
    geometric fit (which beats every power law).
    """
    theoretical = rates.cyclic_rate(n, d)
    pf, gf, chosen = _fit_both(errors, window)
    if isinstance(theoretical, PowerLaw):
        if chosen == "geometric":
            consistent = gf.ratio < 1.0
        else:
            consistent = pf.exponent <= -theoretical.rho + _POWER_SLACK
    else:
        consistent = chosen == "geometric" and gf.ratio < 1.0
    return RateReport(
        theoretical=theoretical,
        power_fit=pf,
        geometric_fit=gf,
        chosen=chosen,
        fit_window=window,
        errors_used=errors_used,
        verdict="CONSISTENT" if consistent else "INCONSISTENT",
    )


def trace_error_sequence(
    trace: Trace,
    limit: Optional[Sequence[float]] = None,
) -> List[Tuple[int, float]]:
    """(k, e_k) pairs from a trace: distance to the problem's singleton oracle
    when available, else to ``limit`` (default: the last recorded iterate)."""
    oracle = trace.problem.intersection_oracle
    if limit is None and oracle is not None:
        target = oracle.point
    elif limit is not None:
        target = finite_vector(limit, "limit")
    else:
        target = trace.last_iterate()
    return [(k, vdist(x, target)) for k, x in zip(trace.ks, trace.iterates)]


# ---------------------------------------------------------------------------
# error-bound probe


@dataclass(frozen=True)
class ErrorBoundReport:
    """Sampled regularity of an intersection around a feasible center.

    ``violations_at_theoretical_tau`` counts samples violating the inequality
    with unit constant at the theoretical exponent; ``best_constant`` is the
    smallest constant that repairs them all.
    """

    theta: float
    theoretical_tau: float
    fitted_tau: float
    fitted_log_c: float
    r2: float
    sample_count: int
    samples_used: int
    radius: float
    seed: int
    violations_at_theoretical_tau: int
    best_constant: float
    heuristic_distances: bool


_CERT_TOL = 1e-8
_REFINE_SWEEPS = 2000


def _dist_to_intersection(problem: FeasibilityProblem, x) -> Tuple[float, Optional[Sequence[float]]]:
    """dist(x, C): exact via the oracle, else heuristic, via long cyclic
    refinement, which also returns its first step, the cold projection of x
    onto the first set (None with the oracle).

    The refined value is accepted only when the refined point x^ is itself
    within 1e-8 of every set (summed), otherwise the distance cannot be
    certified and a CapabilityError is raised.  The final sweep's y_i passed
    ``feasible`` for C_i, so dist(x^, C_i) <= |x^ - y_i|, summed at most (m - 1)
    stop tolerances when the stop rule fired; only past 1e-8 are the m exact
    distances computed.
    """
    oracle = problem.intersection_oracle
    if oracle is not None:
        return oracle.distance(x), None
    stop_tol = OPTIMALITY_TOL * 1e-2
    first = []

    def stop(moved, last):
        if not first:  # the first sweep's end: last[0] is still P_1(x)
            first.append(last[0])
        return moved < stop_tol

    # only the final point is used, so only the final sweep is recorded
    _, last = _run_steps(problem, as_vector(x), _REFINE_SWEEPS, 0, stop)
    xhat = last[-1]
    if sum(vdist(xhat, y) for y in last) > _CERT_TOL and sum(distance(s, xhat) for s in problem.sets) > _CERT_TOL:
        raise CapabilityError(
            "distance to the intersection could not be certified; provide an oracle"
        )
    return vdist(x, xhat), first[0]


def error_bound_probe(
    problem: FeasibilityProblem,
    xbar: Sequence[float],
    theta: float,
    n_samples: int,
    radius: float,
    seed: int,
) -> ErrorBoundReport:
    """Sample the ball around ``xbar`` and fit the regularity exponent.

    ``xbar`` must pass :func:`sets.feasible` for every set, the rule the
    projections meet, else ValueError names the first set it fails.  For
    each sample x, L = dist(x, C) and R = sum_i dist^theta(x, C_i); the
    fitted tau is the log-log slope of L^theta against R; without an oracle,
    dist(x, C_1) comes from the refinement's first step, the cold projection
    ``distance`` would repeat.  Samples with L = 0 or R = 0 enter the counts
    but not the fit.  A distance to the power theta past the float range
    raises OverflowError.  The samples come from a Mersenne Twister,
    ``random.Random(seed)`` for an int ``seed >= 0``: each candidate reads
    ``uniform(-1, 1)`` once per coordinate in index order and is rejected
    outside the unit ball.
    """
    if not 0.0 < theta < math.inf:
        raise ValueError("theta must be positive and finite")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    xbar = finite_vector(xbar, "center")
    for s in problem.sets:
        if not feasible(s, xbar):
            raise ValueError(f"center is infeasible for set {s.name!r}")
    n = problem.dimension
    rng = random.Random(seed)
    tau_theory = rates.holder_exponent_tau(n, problem.max_degree)
    log_l: List[float] = []
    log_r: List[float] = []
    violations = 0
    best_c = 0.0
    drawn = 0
    while drawn < n_samples:
        cand = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        if vdot(cand, cand) > 1.0:
            continue
        drawn += 1
        x = tuple(xi + radius * ci for xi, ci in zip(xbar, cand))
        dist_c, first = _dist_to_intersection(problem, x)
        r_sum = (distance(problem.sets[0], x) if first is None else vdist(x, first)) ** theta
        for s in problem.sets[1:]:
            r_sum += distance(s, x) ** theta
        l_theta = dist_c**theta
        if r_sum > 0.0:
            ratio = l_theta / r_sum**tau_theory
            if ratio > best_c:
                best_c = ratio
            if ratio > 1.0:
                violations += 1
        if dist_c > 0.0 and r_sum > 0.0:
            log_l.append(theta * math.log(dist_c))
            log_r.append(math.log(r_sum))
    if len(log_l) < 2:
        raise CapabilityError("too few informative samples to fit an exponent")
    slope, intercept, r2 = _ols(log_r, log_l)
    return ErrorBoundReport(
        theta=theta,
        theoretical_tau=tau_theory,
        fitted_tau=slope,
        fitted_log_c=intercept,
        r2=r2,
        sample_count=n_samples,
        samples_used=len(log_l),
        radius=radius,
        seed=seed,
        violations_at_theoretical_tau=violations,
        best_constant=best_c,
        heuristic_distances=problem.intersection_oracle is None,
    )


def error_bound_exponent_on_curve(
    problem: FeasibilityProblem,
    curve: Callable[[float], Sequence[float]],
    ts: Sequence[float],
) -> Tuple[float, float]:
    """Fitted exponent of dist(x(t), C) against the pooled constraint residual
    max_i [g_i(x(t))]_+ along a parametrized curve; needs a singleton oracle.
    """
    oracle = problem.intersection_oracle
    if oracle is None:
        raise CapabilityError("curve-mode fit needs a singleton intersection oracle")
    log_r: List[float] = []
    log_d: List[float] = []
    for t in ts:
        x = as_vector(curve(t))
        r = max(residual(s, x) for s in problem.sets)
        dd = oracle.distance(x)
        if r > 0.0 and dd > 0.0:
            log_r.append(math.log(r))
            log_d.append(math.log(dd))
    if len(log_r) < 2:
        raise ValueError("curve produced fewer than 2 informative points")
    slope, _, r2 = _ols(log_r, log_d)
    return slope, r2

