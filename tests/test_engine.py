import math

import numpy as np
import pytest

from cycproj import engine, sets
from cycproj.catalog import get_entry
from cycproj.engine import (
    ProjectionStepError,
    Trace,
    alternating_project,
    check_descent_inequality,
    cyclic_project,
)
from cycproj.poly import Polynomial
from cycproj.sets import (
    CapabilityError,
    ConvexSetDescriptor,
    FeasibilityProblem,
    Singleton,
    project,
    residual,
    vdist,
    vnorm,
)


def two_halfplanes():
    a = ConvexSetDescriptor("x<=0", [Polynomial(2, {(1, 0): 1.0})])
    b = ConvexSetDescriptor("y<=0", [Polynomial(2, {(0, 1): 1.0})])
    return FeasibilityProblem(2, (a, b))


# -- cyclic driver -------------------------------------------------------------


def test_cyclic_fixed_point_start_terminates_after_one_sweep():
    prob = two_halfplanes()
    trace = cyclic_project(prob, (-1.0, -2.0), max_sweeps=50, stop_tol=1e-12)
    assert trace.total_steps == 2  # one sweep
    assert all(x == (-1.0, -2.0) for x in trace.iterates)


def test_cyclic_single_set_is_idempotent():
    s = ConvexSetDescriptor("x<=0", [Polynomial(2, {(1, 0): 1.0})])
    prob = FeasibilityProblem(2, (s,))
    trace = cyclic_project(prob, (3.0, 4.0), max_sweeps=10, stop_tol=1e-12)
    assert trace.iterates[0] == (0.0, 4.0)
    assert trace.iterates[-1] == (0.0, 4.0)
    assert trace.total_steps <= 2


def test_cyclic_trace_bookkeeping():
    entry = get_entry("ex5.5")
    trace = cyclic_project(entry.problem, (0.0, 2.0), max_sweeps=200, stop_tol=1e-14)
    assert trace.ks == list(range(1, trace.total_steps + 1))
    # step norms recomputable from consecutive iterates
    prev = trace.x0
    for i, k in enumerate(trace.ks):
        x = trace.iterates[i]
        assert abs(trace.step_norms[i] - vdist(x, prev)) <= 1e-12
        # post-projection feasibility w.r.t. the target set
        s = entry.problem.sets[trace.set_indices[i]]
        assert residual(s, x) <= 1e-10
        # residual_before is the target-set residual at the pre-step point
        assert trace.residuals_before[i] == residual(s, prev)
        prev = x


def test_cyclic_input_validation():
    prob = two_halfplanes()
    with pytest.raises(ValueError):
        cyclic_project(prob, (1.0,), max_sweeps=5, stop_tol=1e-10)
    with pytest.raises(ValueError):
        cyclic_project(prob, (1.0, 1.0), max_sweeps=0, stop_tol=1e-10)
    with pytest.raises(ValueError):
        cyclic_project(prob, (1.0, 1.0), max_sweeps=5, stop_tol=0.0)


def test_drivers_reject_non_finite_start():
    prob = two_halfplanes()
    with pytest.raises(ValueError):
        cyclic_project(prob, (math.nan, 0.0), max_sweeps=5, stop_tol=1e-10)
    A, B = prob.sets
    with pytest.raises(ValueError):
        alternating_project(A, B, (0.0, math.inf), max_iters=5, stop_tol=1e-10)


def test_cyclic_determinism_bitwise():
    entry = get_entry("ex5.1")
    t1 = cyclic_project(entry.problem, (1.0, 1.0), max_sweeps=300, stop_tol=1e-13)
    t2 = cyclic_project(entry.problem, (1.0, 1.0), max_sweeps=300, stop_tol=1e-13)
    assert t1.iterates == t2.iterates
    assert t1.step_norms == t2.step_norms
    assert t1.residuals_before == t2.residuals_before


def test_projection_failure_carries_step_index_and_partial_trace():
    good = ConvexSetDescriptor("x<=0", [Polynomial(1, {(1,): 1.0})])
    empty = ConvexSetDescriptor("empty", [Polynomial(1, {(2,): 1.0, (0,): 1.0})])
    prob = FeasibilityProblem(1, (good, empty))
    with pytest.raises(ProjectionStepError) as exc_info:
        cyclic_project(prob, (5.0,), max_sweeps=3, stop_tol=1e-12)
    err = exc_info.value
    assert err.step_index == 2
    assert err.set_index == 1
    assert err.partial_trace.total_steps == 1
    assert err.partial_trace.iterates == [(0.0,)]


def test_post_projection_check_stops_the_run(monkeypatch):
    # a projector that returns a point outside the set at step 3 fails the
    # step, and the partial trace holds steps 1 and 2
    calls = []

    def stub(s, x, start=None):
        calls.append(x)
        return (1.0, 1.0) if len(calls) == 3 else project(s, x, start=start)

    monkeypatch.setattr(engine, "project", stub)
    with pytest.raises(ProjectionStepError) as exc_info:
        cyclic_project(two_halfplanes(), (1.0, 2.0), max_sweeps=5, stop_tol=1e-12)
    err = exc_info.value
    assert str(err) == "post-projection iterate violates set 0 ('x<=0') beyond tolerance at step 3"
    assert err.step_index == 3
    assert err.set_index == 0
    assert err.partial_trace.total_steps == 2
    assert err.partial_trace.ks == [1, 2]
    assert err.partial_trace.set_indices == [0, 1]
    assert err.partial_trace.iterates == [(0.0, 2.0), (0.0, 0.0)]


# -- warm starts ---------------------------------------------------------------


@pytest.mark.parametrize("entry_id", ["ex5.8:n=3", "ex5.7:d=4"])
def test_warm_started_iterates_match_cold_projections(entry_id):
    entry = get_entry(entry_id)
    A, B = entry.pair
    tr = alternating_project(A, B, entry.default_start, max_iters=200, stop_tol=1e-16).combined
    assert tr.ks == list(range(1, 401))
    prev = tr.x0
    for idx, x in zip(tr.set_indices, tr.iterates):
        assert vdist(x, project(entry.problem.sets[idx], prev)) <= 1e-12
        prev = x


# cold-start counts over these runs are 7.9225 (ex5.8) and 1.595 (ex5.7)
@pytest.mark.parametrize("entry_id, bound", [("ex5.8:n=2", 4.2), ("ex5.7:d=4", 1.595)])
def test_warm_start_dense_solves_per_step(monkeypatch, entry_id, bound):
    calls = [0]
    solve = sets._solve_dense

    def counting_solve(A, b):
        calls[0] += 1
        return solve(A, b)

    monkeypatch.setattr(sets, "_solve_dense", counting_solve)
    entry = get_entry(entry_id)
    A, B = entry.pair
    tr = alternating_project(A, B, entry.default_start, max_iters=200, stop_tol=1e-16).combined
    assert tr.total_steps == 400
    assert calls[0] / tr.total_steps <= bound


# counts over these runs: 4.035 (ex5.8) and 1.595 (ex5.7) with two polish steps
# always tried, 3.1425 and 1.1325 with the second one skipped at the rounding floor
@pytest.mark.parametrize("entry_id, bound", [("ex5.8:n=2", 3.3), ("ex5.7:d=4", 1.19)])
def test_polish_at_the_rounding_floor_dense_solves_per_step(monkeypatch, entry_id, bound):
    test_warm_start_dense_solves_per_step(monkeypatch, entry_id, bound)


# -- thinned recording ---------------------------------------------------------


def test_thinned_recording_structure():
    entry = get_entry("ex5.5")
    A, B = entry.pair
    result = alternating_project(
        A, B, (0.0, 2.0), max_iters=15000, stop_tol=1e-30, record_cap=1000
    )
    tr = result.combined
    assert tr.thinned
    assert tr.total_steps == 30000
    ks = tr.ks
    assert ks == sorted(ks)
    # dense head
    assert ks[: 10**4] == list(range(1, 10**4 + 1))
    # sparse geometric tail
    tail = [k for k in ks if k > 10**4]
    assert len(tail) < 1500
    gaps = [b - a for a, b in zip(tail, tail[1:])]
    assert max(gaps) > 1
    assert tail[-1] <= 30000


def test_dense_recording_below_cap():
    entry = get_entry("ex5.5")
    A, B = entry.pair
    result = alternating_project(A, B, (0.0, 2.0), max_iters=50, stop_tol=1e-30)
    assert not result.combined.thinned
    assert result.combined.ks == list(range(1, 101))


def test_thinned_recording_keeps_final_step():
    entry = get_entry("ex5.5")
    A, B = entry.pair
    result = alternating_project(
        A, B, (0.0, 2.0), max_iters=15000, stop_tol=1e-30, record_cap=1000
    )
    tr = result.combined
    assert tr.thinned
    assert tr.ks[-1] == tr.total_steps == 30000
    assert tr.set_indices[-1] == 1
    assert tr.last_iterate() == result.limits[1]
    assert result.b_trace.ks[-1] == 30000


def test_thinned_recording_keeps_final_sweep():
    entry = get_entry("ex5.5")
    A, B = entry.pair
    result = alternating_project(
        A, B, (0.0, 2.0), max_iters=15000, stop_tol=1e-30, record_cap=1000
    )
    assert result.a_trace.ks[-1] == 29999
    assert result.a_trace.last_iterate() == result.limits[0]
    assert result.combined.ks[-2:] == [29999, 30000]


def test_thinned_final_sweep_merges_with_a_recorded_checkpoint():
    # step 29256 is a thinning checkpoint and step 29255 is not
    entry = get_entry("ex5.5")
    A, B = entry.pair
    result = alternating_project(
        A, B, (0.0, 2.0), max_iters=14628, stop_tol=1e-30, record_cap=1000
    )
    tr = result.combined
    assert tr.ks[-3:] == [27862, 29255, 29256]
    assert tr.set_indices[-2:] == [0, 1]
    assert (tr.iterates[-2], tr.iterates[-1]) == result.limits


# -- alternating driver ---------------------------------------------------------


def test_alternating_identical_sets():
    s = ConvexSetDescriptor("x<=0", [Polynomial(2, {(1, 0): 1.0})])
    result = alternating_project(s, s, (2.0, 1.0), max_iters=10, stop_tol=1e-12)
    assert vnorm(result.gap_vector) <= 1e-15
    for a, b in zip(result.a_trace.iterates, result.b_trace.iterates):
        assert a == b


def test_alternating_rejects_wrong_length_start_up_front():
    A, B = get_entry("ex5.5").pair
    with pytest.raises(ValueError, match=r"^b0 length 3 != dimension 2$"):
        alternating_project(A, B, (0.0, 2.0, 1.0), max_iters=10, stop_tol=1e-12)


def test_alternating_input_validation():
    A, B = get_entry("ex5.5").pair
    with pytest.raises(ValueError, match="^max_iters must be >= 1$"):
        alternating_project(A, B, (0.0, 2.0), max_iters=0, stop_tol=1e-12)


def test_alternating_interleaving_indices():
    entry = get_entry("ex5.5")
    A, B = entry.pair
    result = alternating_project(A, B, (0.0, 2.0), max_iters=20, stop_tol=1e-30)
    assert result.a_trace.ks == [2 * j - 1 for j in range(1, 21)]
    assert result.b_trace.ks == [2 * j for j in range(1, 21)]
    assert result.a_trace.set_indices == [0] * 20
    assert result.b_trace.set_indices == [1] * 20
    # limits are the final pair
    assert result.limits[0] == result.a_trace.iterates[-1]
    assert result.limits[1] == result.b_trace.iterates[-1]


def test_alternating_stop_rule():
    entry = get_entry("ex5.3:alpha=0.5")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=500, stop_tol=1e-12)
    # geometric decay with ratio 2/3 reaches 1e-12 displacement around k ~ 70
    assert result.combined.total_steps < 250


def test_alternating_gap_monotone_tail():
    entry = get_entry("ex5.3:alpha=0.5")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=60, stop_tol=1e-16)
    gaps = []
    for a, b in zip(result.a_trace.iterates, result.b_trace.iterates):
        gaps.append(vdist(b, a))
    for g1, g2 in zip(gaps, gaps[1:]):
        assert g2 <= g1 + 1e-8
    # ||(b_k - a_k) - v|| is non-increasing over the tail
    v = result.gap_vector
    devs = [
        vnorm(tuple(bb - aa - vv for aa, bb, vv in zip(a, b, v)))
        for a, b in zip(result.a_trace.iterates, result.b_trace.iterates)
    ]
    for d1, d2 in zip(devs[5:], devs[6:]):
        assert d2 <= d1 + 1e-8


# -- structural checks ------------------------------------------------------------


def test_descent_inequality_on_catalog_run():
    entry = get_entry("ex5.1")
    trace = cyclic_project(entry.problem, (1.0, 1.0), max_sweeps=500, stop_tol=1e-14)
    report = check_descent_inequality(trace, entry.problem)
    assert report.violations == []
    assert trace.ks[0] == 1 and not trace.thinned


def test_descent_inequality_constant_trace_zero_slack():
    entry = get_entry("ex5.1")
    trace = cyclic_project(entry.problem, (0.0, 0.0), max_sweeps=3, stop_tol=1e-12)
    report = check_descent_inequality(trace, entry.problem)
    assert report.violations == []
    assert abs(report.min_slack) <= 1e-12


def test_descent_inequality_without_consecutive_steps_reports_zero_slack():
    entry = get_entry("ex5.1")
    pts = [(0.5, 0.5), (0.25, 0.25)]
    trace = Trace(entry.problem, (1.0, 1.0), [2, 4], pts, [1, 3], [0.0, 0.0], [0.1, 0.1], 4, 4, True)
    report = check_descent_inequality(trace, entry.problem)
    assert report.min_slack == 0.0 and report.violations == []


def test_descent_inequality_flags_non_projection_trace():
    entry = get_entry("ex5.1")
    rng = np.random.default_rng(17)
    pts = [tuple(rng.uniform(-1, 1, size=2)) for _ in range(6)]
    fake = Trace(
        problem=entry.problem,
        x0=(1.0, 1.0),
        ks=list(range(1, 7)),
        iterates=pts,
        set_indices=[0, 1, 2, 3, 0, 1],
        residuals_before=[0.0] * 6,
        step_norms=[vdist(a, b) for a, b in zip([(1.0, 1.0)] + pts, pts)],
        sets_per_sweep=4,
        total_steps=6,
        thinned=False,
    )
    report = check_descent_inequality(fake, entry.problem)
    assert report.violations  # random walks are not Fejer-descent sequences


def test_descent_inequality_needs_oracle():
    prob = two_halfplanes()
    trace = cyclic_project(prob, (1.0, 1.0), max_sweeps=3, stop_tol=1e-12)
    with pytest.raises(CapabilityError):
        check_descent_inequality(trace, prob)


# -- pinned stop steps -----------------------------------------------------------


def test_cyclic_stop_step_pinned():
    trace = cyclic_project(get_entry("ex5.1").problem, (1.0, 1.0), max_sweeps=1000, stop_tol=1e-13)
    assert trace.total_steps == 48


@pytest.mark.parametrize("entry_id, stop_tol", [("ex5.3:alpha=0.5", 1e-12), ("ex5.7:d=2", 1e-3)])
def test_alternating_stop_step_pinned(entry_id, stop_tol):
    entry = get_entry(entry_id)
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=1000, stop_tol=stop_tol)
    assert result.combined.total_steps == 136


def test_drivers_reject_nan_stop_tol():
    with pytest.raises(ValueError):
        cyclic_project(two_halfplanes(), (1.0, 1.0), max_sweeps=10, stop_tol=math.nan)
    A, B = get_entry("ex5.5").pair
    with pytest.raises(ValueError):
        alternating_project(A, B, (0.0, 2.0), max_iters=10, stop_tol=math.nan)
