import math

import pytest

from cycproj import catalog
from cycproj.catalog import (
    alpha_after,
    alpha_step,
    get_entry,
    power_chain_step,
)
from cycproj.engine import alternating_project
from cycproj.rates import ExponentOverflowError, PowerLaw
from cycproj.sets import ConvexSetDescriptor, Singleton, project, residual, vdist, vnorm


def test_registry_ids_and_parsing():
    assert len(catalog.default_ids()) >= 6
    assert get_entry("ex5.7:d=4").problem.max_degree == 4
    assert get_entry("ex3.2:n=3,d=2").problem.dimension == 3
    with pytest.raises(ValueError, match="unknown catalog id"):
        get_entry("ex9.9")
    with pytest.raises(ValueError):
        get_entry("ex5.7:d=")


@pytest.mark.parametrize("entry_id", ["ex5.8:n=70", "ex3.2:n=70,d=2"])
def test_builders_refuse_an_n_past_the_rate_range_before_building_a_set(monkeypatch, entry_id):
    # the sets of an n-variable entry take O(n^2) exponent entries, so the rate is checked first
    built = []

    def counting(name, constraints):
        built.append(name)
        return ConvexSetDescriptor(name, constraints)

    monkeypatch.setattr(catalog, "ConvexSetDescriptor", counting)
    with pytest.raises(ExponentOverflowError):
        get_entry(entry_id)
    assert built == []


# -- ex5.1 -------------------------------------------------------------------


def test_ex51_structure():
    entry = get_entry("ex5.1")
    assert entry.problem.max_degree == 2
    assert residual(entry.problem.sets[2], (0.0, 0.0)) == 0.0
    assert all(residual(s, (0.0, 0.0)) == 0.0 or residual(s, (0.0, 0.0)) < 1 for s in entry.problem.sets)
    assert entry.theory_rate == PowerLaw(1.0 / 6.0)
    assert entry.problem.intersection_oracle == Singleton((0.0, 0.0))


# -- ex5.3 -------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
def test_ex53_closed_form_matches_one_driver_step(alpha):
    entry = get_entry(f"ex5.3:alpha={alpha:g}")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=2, stop_tol=1e-16)
    b1_formula, a2_formula = entry.closed_form(1)
    assert vdist(result.b_trace.iterates[0], b1_formula) <= 1e-10
    assert vdist(result.a_trace.iterates[1], a2_formula) <= 1e-10


def test_ex53_formula_value_at_k2():
    # alpha = 0, t1 = 1/sqrt(2) from b_0 = (0, 1): b_2 = (0, 1/sqrt(3))
    entry = catalog.example_5_3(alpha=0.0)
    b2, _ = entry.closed_form(2)
    assert vdist(b2, (0.0, 1.0 / math.sqrt(3.0))) <= 1e-15


def test_ex53_oracle_engine_agreement_long():
    entry = get_entry("ex5.3:alpha=0.5")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=1000, stop_tol=1e-30)
    worst = 0.0
    for i, k in enumerate(result.b_trace.ks):
        pair_idx = k // 2
        b_formula, _ = entry.closed_form(pair_idx)
        worst = max(worst, vdist(result.b_trace.iterates[i], b_formula))
    assert worst <= 1e-9


def test_ex53_rates_and_gap_metadata():
    feasible = get_entry("ex5.3:alpha=0")
    assert feasible.documented_power == 0.5
    assert feasible.known_gap == (0.0, 0.0)
    infeasible = get_entry("ex5.3:alpha=0.5")
    assert infeasible.known_gap == (0.5, 0.0)
    with pytest.raises(ValueError):
        catalog.example_5_3(alpha=-0.1)


# -- ex5.5 -------------------------------------------------------------------


def test_ex55_alpha_step_fixed_point():
    assert alpha_step(0.0) == 0.0


def test_ex55_alpha_after_one_million():
    value = alpha_after(1.0, 10**6)
    assert abs(value - 2.499992442e-7) / 2.499992442e-7 <= 1e-6


def test_ex55_oracle_engine_agreement():
    entry = get_entry("ex5.5")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=500, stop_tol=1e-30)
    tr = result.combined
    alpha = entry.scalar_start(entry.default_start)
    worst = 0.0
    for i, k in enumerate(tr.ks):
        if k > 1000:
            break
        worst = max(worst, abs(abs(tr.iterates[i][0]) - alpha))
        alpha = alpha_step(alpha)
    assert worst <= 1e-9


def test_ex55_engine_r_squared_identity():
    entry = get_entry("ex5.5")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=500, stop_tol=1e-30)
    for x in result.combined.iterates:
        assert abs(x[0] * x[0] + x[1] * x[1] - 2.0 * abs(x[0])) <= 1e-9


# -- ex5.7 -------------------------------------------------------------------


def test_ex57_scalar_solver():
    root = power_chain_step(1.0, 2)
    assert abs(root - 0.589754512301) <= 1e-10
    assert abs(2.0 * root**3 + root - 1.0) <= 1e-12
    assert power_chain_step(0.0, 2) == 0.0
    assert power_chain_step(-1.0, 2) == -root
    with pytest.raises(ValueError):
        power_chain_step(1.0, 3)


def test_ex57_documented_rate():
    assert get_entry("ex5.7:d=2").documented_power == 0.5
    assert get_entry("ex5.7:d=4").documented_power == pytest.approx(1.0 / 6.0)


def test_ex57_oracle_engine_agreement():
    entry = get_entry("ex5.7:d=2")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=1000, stop_tol=1e-30)
    y = entry.scalar_start(entry.default_start)
    worst = 0.0
    for i, k in enumerate(result.b_trace.ks):
        y = power_chain_step(y, 2)
        worst = max(worst, abs(result.b_trace.iterates[i][1] - y))
    assert worst <= 1e-9


def test_ex57_higher_degree_engine_agreement():
    entry = get_entry("ex5.7:d=4")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=200, stop_tol=1e-30)
    y = entry.scalar_start(entry.default_start)
    worst = 0.0
    for i, k in enumerate(result.b_trace.ks):
        y = power_chain_step(y, 4)
        worst = max(worst, abs(result.b_trace.iterates[i][1] - y))
    assert worst <= 1e-9


# -- ex5.8 -------------------------------------------------------------------


def test_ex58_metadata_and_boundaries():
    entry = get_entry("ex5.8:n=2")
    assert entry.theory_rate == PowerLaw(1.0 / 30.0)
    assert entry.known_gap == (1.0, 0.0)
    A, B = entry.pair
    assert residual(A, (0.0, 0.0)) == 0.0
    assert residual(B, (1.0, 0.0)) == 0.0
    assert entry.problem.max_degree == 4


def test_ex58_one_dimensional_converges_immediately():
    entry = get_entry("ex5.8:n=1")
    A, B = entry.pair
    result = alternating_project(A, B, (2.0,), max_iters=5, stop_tol=1e-14)
    assert vdist(result.limits[0], (0.0,)) <= 1e-9
    assert vdist(result.limits[1], (1.0,)) <= 1e-9
    assert abs(result.gap_norm - 1.0) <= 1e-9


def test_ex58_rate_formula_for_n3():
    # min{7^3 - 1, 2*beta(2)*4^3 - 2} = min{342, 254}
    assert get_entry("ex5.8:n=3").theory_rate == PowerLaw(1.0 / 254.0)


# -- ex3.2 -------------------------------------------------------------------


def test_ex32_curve_residual_identity():
    entry = get_entry("ex3.2:n=2,d=2")
    t = 0.1
    x = entry.curve(t)
    assert x == (t * t, t)
    res = max(residual(s, x) for s in entry.problem.sets)
    assert abs(res - t**4) <= 1e-18
    d = entry.problem.intersection_oracle.distance(x)
    assert d == vnorm(x)
    assert abs(d - 0.1004987562112089) <= 1e-15


def test_ex32_higher_dimension_curve():
    entry = get_entry("ex3.2:n=3,d=2")
    t = 0.5
    x = entry.curve(t)
    assert x == (t**4, t**2, t)
    # all chain constraints except the first vanish along the curve
    assert residual(entry.problem.sets[1], x) == 0.0
    assert residual(entry.problem.sets[2], x) == 0.0
    assert residual(entry.problem.sets[0], x) == t**8


def test_entry_parameter_validation():
    with pytest.raises(ValueError):
        catalog.example_5_7(d=3)
    with pytest.raises(ValueError):
        catalog.example_3_2(n=2, d=3)
    with pytest.raises(ValueError):
        catalog.example_5_8(n=0)
