import math

import numpy as np
import pytest

from cycproj import analysis
from cycproj.analysis import (
    compare_with_theory,
    error_bound_exponent_on_curve,
    error_bound_probe,
    fit_geometric_rate,
    fit_power_rate,
    trace_error_sequence,
)
from cycproj.catalog import alpha_step, get_entry
from cycproj.engine import cyclic_project
from cycproj.poly import Polynomial
from cycproj.rates import Linear, PowerLaw
from cycproj.sets import (
    CapabilityError,
    ConvexSetDescriptor,
    FeasibilityProblem,
    NumericalError,
    vdist,
)


def power_errors(M, rho, ks):
    return [(k, M * k ** (-rho)) for k in ks]


# -- fits -----------------------------------------------------------------------


def test_fit_power_exact_inverse_sqrt():
    errors = [(k, 1.0 / math.sqrt(2.0 * k)) for k in range(1, 201)]
    fit = fit_power_rate(errors, (1, 200))
    assert abs(fit.exponent + 0.5) <= 1e-9
    assert abs(fit.r2 - 1.0) <= 1e-12


def test_fit_power_recovers_scale_and_exponent():
    ks = range(5, 400)
    for M in (0.1, 1.0, 10.0):
        for rho in (1.0 / 6.0, 0.5, 1.0):
            fit = fit_power_rate(power_errors(M, rho, ks), (5, 399))
            assert abs(fit.exponent + rho) <= 1e-9
            assert abs(fit.r2 - 1.0) <= 1e-12


def test_fit_power_window_validation():
    errors = power_errors(1.0, 0.5, range(1, 100))
    with pytest.raises(ValueError):
        fit_power_rate(errors, (1, 5))  # too few points
    with pytest.raises(ValueError):
        fit_power_rate([(k, e - 1.0) for k, e in errors], (1, 99))  # nonpositive
    with pytest.raises(ValueError):
        fit_power_rate(errors, (50, 10))


def test_fit_power_rejects_identical_abscissae():
    with pytest.raises(ValueError, match="^degenerate fit: all abscissae identical$"):
        fit_power_rate([(5, 1.0)] * 20, (5, 5))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_rejects_non_finite_error_naming_k(bad):
    errors = [(k, bad if k == 40 else 1.0 / k) for k in range(1, 100)]
    for fit in (fit_power_rate, fit_geometric_rate):
        with pytest.raises(ValueError, match="non-finite error .* at k=40 inside the fit window"):
            fit(errors, (1, 99))
    assert fit_power_rate(errors, (41, 99)).exponent == pytest.approx(-1.0)


def test_fit_geometric_exact_ratio():
    errors = [(k, (2.0 / 3.0) ** k) for k in range(1, 80)]
    fit = fit_geometric_rate(errors, (1, 79))
    assert abs(fit.ratio - 2.0 / 3.0) <= 1e-9
    assert abs(fit.r2 - 1.0) <= 1e-12


def test_fit_geometric_constant_errors():
    errors = [(k, 0.7) for k in range(1, 50)]
    fit = fit_geometric_rate(errors, (1, 49))
    assert abs(fit.ratio - 1.0) <= 1e-9


def test_fit_geometric_scale_invariant():
    errors = [(k, (0.8) ** k * 1.3) for k in range(1, 60)]
    f1 = fit_geometric_rate(errors, (1, 59))
    f2 = fit_geometric_rate([(k, 77.0 * e) for k, e in errors], (1, 59))
    assert abs(f1.ratio - f2.ratio) <= 1e-12
    assert abs(f1.r2 - f2.r2) <= 1e-12


def test_classify_pure_power_and_geometric():
    power = power_errors(1.0, 0.5, range(1, 300))
    geo = [(k, 0.9**k) for k in range(1, 300)]
    assert compare_with_theory(power, 2, 2, (1, 299)).chosen == "power"
    assert compare_with_theory(geo, 2, 2, (1, 299)).chosen == "geometric"


def test_classify_simulated_tangent_disk_errors():
    a = 1.0
    errors = []
    for k in range(1, 3001):
        errors.append((k, math.sqrt(2.0 * a)))
        a = alpha_step(a)
    report = compare_with_theory(errors, 2, 2, (100, 3000))
    assert report.chosen == "power"
    assert abs(report.power_fit.exponent + 0.5) <= 0.02


# -- theory comparison -------------------------------------------------------------


def test_compare_consistent_power():
    errors = power_errors(1.0, 0.5, range(1, 500))
    report = compare_with_theory(errors, n=2, d=2, window=(1, 499), errors_used="synthetic")
    assert report.theoretical == PowerLaw(1.0 / 6.0)
    assert report.verdict == "CONSISTENT"
    assert report.chosen == "power"


def test_compare_consistent_geometric_degree_one():
    errors = [(k, 0.5**k) for k in range(1, 60)]
    report = compare_with_theory(errors, n=2, d=1, window=(1, 59))
    assert report.theoretical == Linear()
    assert report.chosen == "geometric"
    assert report.verdict == "CONSISTENT"


def test_compare_flags_slower_than_guarantee():
    errors = [(k, 1.0 / math.log(k)) for k in range(10**4, 10**5 + 1, 100)]
    report = compare_with_theory(errors, n=2, d=2, window=(10**4, 10**5))
    assert report.verdict == "INCONSISTENT"


def test_compare_verdict_stable_under_reindexing():
    a = 1.0
    errors = []
    for k in range(1, 2001):
        errors.append((k, math.sqrt(2.0 * a)))
        a = alpha_step(a)
    base = compare_with_theory(errors, 2, 2, window=(200, 2000))
    for k0 in (1, 5, 10):
        shifted = [(k + k0, e) for k, e in errors]
        rep = compare_with_theory(shifted, 2, 2, window=(200 + k0, 2000 + k0))
        assert rep.verdict == base.verdict
        assert abs(rep.power_fit.exponent - base.power_fit.exponent) <= 0.02


def test_error_sequence_rejects_a_bad_limit():
    trace = cyclic_project(get_entry("ex5.5").problem, (0.3, 1.9), max_sweeps=10, stop_tol=1e-300)
    assert len(trace_error_sequence(trace, limit=(0.0, 0.0))) == len(trace.ks)
    for limit in ((0.0, 0.0, 0.0), (0.0,), (math.nan, 0.0)):
        with pytest.raises(ValueError):
            trace_error_sequence(trace, limit=limit)


def test_error_sequence_without_oracle_or_limit_measures_to_the_last_iterate():
    problem = FeasibilityProblem(2, get_entry("ex5.5").problem.sets)  # no oracle
    trace = cyclic_project(problem, (0.3, 1.9), max_sweeps=10, stop_tol=1e-300)
    last = trace.iterates[-1]
    errors = trace_error_sequence(trace)
    assert errors == [(k, vdist(x, last)) for k, x in zip(trace.ks, trace.iterates)]
    assert errors[-1] == (trace.total_steps, 0.0)


# -- error-bound probe ---------------------------------------------------------------


def test_probe_single_set_identity():
    disk = ConvexSetDescriptor(
        "disk", [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})]
    )
    prob = FeasibilityProblem(2, (disk,))
    report = error_bound_probe(prob, (0.0, 0.0), theta=1.0, n_samples=80, radius=2.0, seed=3)
    # L = R exactly, so the fitted inequality is L = 1 * R^1
    assert abs(report.fitted_tau - 1.0) <= 1e-12
    assert abs(report.fitted_log_c) <= 1e-12
    assert report.best_constant <= 1.0 + 1e-12
    assert report.violations_at_theoretical_tau == 0
    # m = 1 with no oracle: distances come from the refinement path
    assert report.heuristic_distances


def test_probe_tangent_disks_square_root_regularity():
    entry = get_entry("ex5.5")
    report = error_bound_probe(entry.problem, (0.0, 0.0), theta=2.0, n_samples=150, radius=0.5, seed=11)
    assert report.theoretical_tau == 0.25
    assert 0.4 <= report.fitted_tau <= 0.6
    assert report.fitted_tau >= report.theoretical_tau - 0.05


def test_probe_fitted_tau_never_below_theory_on_catalog():
    for entry_id in ("ex5.1", "ex5.5", "ex5.7:d=2"):
        problem = get_entry(entry_id).problem
        report = error_bound_probe(
            problem, problem.intersection_oracle.point, theta=2.0, n_samples=120, radius=0.4, seed=29
        )
        assert report.fitted_tau >= report.theoretical_tau - 0.05, entry_id


def test_probe_rejects_infeasible_center():
    entry = get_entry("ex5.5")
    with pytest.raises(ValueError):
        error_bound_probe(entry.problem, (2.0, 2.0), theta=2.0, n_samples=60, radius=0.1, seed=0)


def test_probe_rejects_non_finite_center():
    # a NaN center used to pass the feasibility check and fail on a sample
    entry = get_entry("ex5.5")
    for center in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="center must be finite"):
            error_bound_probe(entry.problem, center, theta=2.0, n_samples=60, radius=0.1, seed=0)


def test_probe_input_validation():
    entry = get_entry("ex5.5")
    with pytest.raises(ValueError):
        error_bound_probe(entry.problem, (0.0, 0.0), theta=0.0, n_samples=60, radius=0.1, seed=0)
    with pytest.raises(ValueError):
        error_bound_probe(entry.problem, (0.0, 0.0), theta=1.0, n_samples=0, radius=0.1, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        error_bound_probe(entry.problem, (0.0, 0.0), theta=1.0, n_samples=60, radius=0.1, seed=-5)


@pytest.mark.parametrize(
    "theta, radius",
    [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf), (1.0, -0.1)],
)
def test_probe_rejects_nan_and_unbounded_options(theta, radius):
    entry = get_entry("ex5.5")
    with pytest.raises(ValueError):
        error_bound_probe(entry.problem, (0.0, 0.0), theta=theta, n_samples=60, radius=radius, seed=0)


def test_probe_samples_past_the_float_range_are_a_numerical_error():
    # samples ~1e300 from the center: their squared distances overflow, which
    # the projector reports as a numerical error
    entry = get_entry("ex5.5")
    with pytest.raises(NumericalError):
        error_bound_probe(entry.problem, (0.0, 0.0), theta=2.0, n_samples=5, radius=1e300, seed=1)


def test_probe_without_oracle_uses_refinement_on_regular_intersection():
    # interior-overlap pair: refinement certifies, and tau fits ~1
    a = ConvexSetDescriptor("x<=1", [Polynomial(2, {(1, 0): 1.0, (0, 0): -1.0})])
    b = ConvexSetDescriptor("y<=1", [Polynomial(2, {(0, 1): 1.0, (0, 0): -1.0})])
    prob = FeasibilityProblem(2, (a, b))
    report = error_bound_probe(prob, (0.0, 0.0), theta=1.0, n_samples=120, radius=3.0, seed=5)
    assert report.heuristic_distances
    assert abs(report.fitted_tau - 1.0) <= 0.05


# -- curve-mode fit -----------------------------------------------------------------


def test_curve_exponent_on_chain_system():
    entry = get_entry("ex3.2:n=2,d=2")
    ts = np.logspace(-3, -1, 50)
    exponent, r2 = error_bound_exponent_on_curve(entry.problem, entry.curve, ts)
    assert abs(exponent - 0.25) <= 1e-3
    assert r2 > 0.999999


def test_curve_mode_needs_singleton_oracle():
    entry = get_entry("ex5.5")
    prob = FeasibilityProblem(2, entry.problem.sets)  # strip oracle
    with pytest.raises(CapabilityError):
        error_bound_exponent_on_curve(prob, lambda t: (t, t), [0.1, 0.2])

