"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from cycproj import analysis, cli
from cycproj.catalog import alpha_after, get_entry
from cycproj.engine import alternating_project, check_descent_inequality, cyclic_project
from cycproj.rates import Linear, PowerLaw, cyclic_rate, holder_exponent_tau, recurrence_bound
from cycproj.sets import Singleton, project, residual, distance, vdist, vnorm, vsub
from helpers import brute_force_distances

ALPHA_1E6 = 2.499992442e-7  # documented value of the scalar recurrence after 1e6 steps


@pytest.fixture(scope="module")
def ex55_run():
    entry = get_entry("ex5.5")
    A, B = entry.pair
    t0 = time.perf_counter()
    result = alternating_project(
        A, B, entry.default_start, max_iters=50000, stop_tol=1e-30,
        oracle=Singleton((0.0, 0.0)),
    )
    elapsed = time.perf_counter() - t0
    return result, elapsed


@pytest.fixture(scope="module")
def ex57_run():
    entry = get_entry("ex5.7:d=2")
    A, B = entry.pair
    result = alternating_project(
        A, B, entry.default_start, max_iters=50000, stop_tol=1e-30,
        oracle=Singleton((0.0, 0.0)),
    )
    return result


def test_criterion_1_scalar_recurrence_value_and_speed():
    t0 = time.perf_counter()
    value = alpha_after(1.0, 10**6)
    elapsed = time.perf_counter() - t0
    rel = abs(value - ALPHA_1E6) / ALPHA_1E6
    assert rel <= 1e-6
    assert elapsed < 1.0
    print(f"PASS criterion 1: alpha_1e6 = {value:.12e} (rel err {rel:.2e}, {elapsed:.2f} s)")


def test_criterion_2_tangent_disks_geometry_and_rate(ex55_run):
    result, elapsed = ex55_run
    assert elapsed < 30.0
    tr = result.combined
    worst = 0.0
    for i, k in enumerate(tr.ks):
        if k > 10**4:
            break
        x = tr.iterates[i]
        worst = max(worst, abs(x[0] * x[0] + x[1] * x[1] - 2.0 * abs(x[0])))
    assert worst <= 1e-9
    errors = analysis.trace_error_sequence(tr)
    fit = analysis.fit_power_rate(errors, (10**4, 10**5))
    assert -0.52 <= fit.exponent <= -0.48
    report = analysis.compare_with_theory(
        errors, n=2, d=2, window=(10**4, 10**5), errors_used="dist-to-oracle"
    )
    assert report.theoretical == PowerLaw(1.0 / 6.0)
    assert report.verdict == "CONSISTENT"
    print(
        f"PASS criterion 2: r^2=2alpha dev {worst:.2e} <= 1e-9; exponent "
        f"{fit.exponent:.4f} in [-0.52,-0.48]; verdict {report.verdict}; {elapsed:.1f} s"
    )


def test_criterion_3_disk_halfplane_closed_form():
    worst = 0.0
    for alpha in (0.0, 0.25, 0.5):
        entry = get_entry(f"ex5.3:alpha={alpha:g}")
        A, B = entry.pair
        result = alternating_project(A, B, entry.default_start, max_iters=60, stop_tol=1e-16)
        for i, k in enumerate(result.b_trace.ks):
            pair_idx = k // 2
            if pair_idx < 1 or pair_idx > 50:
                continue
            b_formula, _ = entry.closed_form(pair_idx)
            worst = max(worst, vdist(result.b_trace.iterates[i], b_formula))
    assert worst <= 1e-10
    entry = get_entry("ex5.3:alpha=0.5")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=50, stop_tol=1e-16)
    errors = [
        (k // 2, vdist(x, (0.5, 0.0)))
        for k, x in zip(result.b_trace.ks, result.b_trace.iterates)
    ]
    fit = analysis.fit_geometric_rate(errors, (10, 50))
    assert abs(fit.ratio - 2.0 / 3.0) <= 0.01
    report = analysis.compare_with_theory(errors, n=2, d=2, window=(10, 50))
    assert report.verdict == "CONSISTENT"
    print(
        f"PASS criterion 3: closed-form dev {worst:.2e} <= 1e-10; geometric ratio "
        f"{fit.ratio:.6f} within 0.01 of 2/3; verdict {report.verdict}"
    )


def test_criterion_4_power_region_recurrence_and_rate(ex57_run):
    result = ex57_run
    tr = result.b_trace
    entry = get_entry("ex5.7:d=2")
    y_prev = entry.scalar_start(entry.default_start)
    worst = 0.0
    for i, k in enumerate(tr.ks):
        y_next = tr.iterates[i][1]
        worst = max(worst, abs(2.0 * y_next**3 + y_next - y_prev))
        y_prev = y_next
    assert worst <= 1e-9
    errors = analysis.trace_error_sequence(result.combined)
    fit = analysis.fit_power_rate(errors, (10**3, 10**5))
    assert -0.55 <= fit.exponent <= -0.45
    report = analysis.compare_with_theory(
        errors, n=2, d=2, window=(10**3, 10**5), errors_used="dist-to-oracle"
    )
    assert report.verdict == "CONSISTENT"
    print(
        f"PASS criterion 4: per-step residual {worst:.2e} <= 1e-9; exponent "
        f"{fit.exponent:.4f} in [-0.55,-0.45]; verdict {report.verdict}"
    )


def test_criterion_5_exponent_formulas():
    assert cyclic_rate(2, 2) == PowerLaw(1.0 / 6.0)
    for n in range(1, 9):
        assert cyclic_rate(n, 1) == Linear()
    for d in range(1, 11):
        assert holder_exponent_tau(1, d) == 1.0 / d
    for n in range(1, 9):
        assert holder_exponent_tau(n, 1) == 1.0
    print(
        "PASS criterion 5: cyclic_rate(2,2)=PowerLaw(1/6); cyclic_rate(n,1)=Linear; "
        "tau(1,d)=1/d; tau(n,1)=1"
    )


def test_criterion_6_recurrence_bound_property():
    rng = np.random.default_rng(20131116)
    worst_slack = math.inf
    for _ in range(1000):
        p = float(rng.uniform(0.2, 3.0))
        beta0 = float(rng.uniform(0.0, 2.0))
        n_steps = int(rng.integers(1, 60))
        betas = [beta0]
        deltas = []
        for _ in range(n_steps):
            b = betas[-1]
            cap = b**p if b > 0 else 0.0
            delta = float(rng.uniform(0.0, 1.0 / cap)) if cap > 0 else float(rng.uniform(0.0, 2.0))
            shrink = float(rng.uniform(0.0, 1.0))
            betas.append(max(b * (1.0 - delta * cap) * shrink, 0.0))
            deltas.append(delta)
        bound = recurrence_bound(beta0, p, deltas)
        for k in range(1, len(betas)):
            worst_slack = min(worst_slack, bound[k - 1] - betas[k])
            assert betas[k] <= bound[k - 1] + 1e-12
    print(f"PASS criterion 6: 1000 admissible sequences; worst slack {worst_slack:.2e} >= -1e-12")


# box per catalog set for the grid oracle: contains the set region any query
# in [-1.2, 1.2]^2 can project to
_BOXES = {
    "left-disk": ((-2.2, 0.2), (-1.2, 1.2)),
    "right-disk": ((-0.2, 2.2), (-1.2, 1.2)),
    "halfplane": ((-2.1, 1.6), (-2.1, 1.6)),
    "parabola-region": ((-3.2, 3.2), (-3.2, 3.2)),
    "right-halfplane": ((0.4, 1.6), (-1.6, 1.6)),
    "left-halfplane": ((-1.8, 0.1), (-1.6, 1.6)),
    "power-region": ((-0.1, 2.6), (-1.6, 1.6)),
    "left-quartic-ball": ((-2.2, 0.2), (-1.2, 1.2)),
    "right-quartic-ball": ((0.8, 3.2), (-1.2, 1.2)),
}


def _property_sets():
    """The sets of the projection-driven catalog entries, deduplicated."""
    seen = set()
    out = []
    for eid in ("ex5.1", "ex5.3:alpha=0.5", "ex5.5", "ex5.7:d=2", "ex5.8:n=2"):
        for s in get_entry(eid).problem.sets:
            key = (s.name, s.constraints)
            if key in seen:
                continue
            seen.add(key)
            out.append(s)
    return out


def test_criterion_7_projector_property_suite():
    sets = _property_sets()
    assert len(sets) >= 8
    worst_idem = 0.0
    worst_nonexp = -math.inf
    worst_vi = -math.inf
    for si, s in enumerate(sets):
        rng = np.random.default_rng(1000 + si)
        pts = [tuple(rng.uniform(-2.5, 2.5, size=2)) for _ in range(400)]
        for x in pts[:200]:
            px = project(s, x)
            worst_idem = max(worst_idem, vdist(project(s, px), px))
        for x, y in zip(pts[:200], pts[200:]):
            gap = vdist(project(s, x), project(s, y)) - vdist(x, y)
            worst_nonexp = max(worst_nonexp, gap)
        witnesses = []
        while len(witnesses) < 50:
            c = project(s, tuple(rng.uniform(-2.5, 2.5, size=2)))
            if residual(s, c) <= 1e-8:
                witnesses.append(c)
        for x in pts[:50]:
            px = project(s, x)
            for c in witnesses:
                inner = sum((a - b) * (cc - b) for a, b, cc in zip(x, px, c))
                worst_vi = max(worst_vi, inner)
    assert worst_idem <= 1e-8
    assert worst_nonexp <= 1e-8
    assert worst_vi <= 1e-8

    worst_grid = 0.0
    for si, s in enumerate(sets):
        rng = np.random.default_rng(2000 + si)
        box = _BOXES[s.name]
        queries = [tuple(rng.uniform(-1.2, 1.2, size=2)) for _ in range(20)]
        solver = [distance(s, q) for q in queries]
        # sanity: each projection must land inside the grid box
        for q in queries:
            p = project(s, q)
            assert box[0][0] <= p[0] <= box[0][1] and box[1][0] <= p[1] <= box[1][1]
        brute = brute_force_distances(s, queries, box)
        for dsol, dgrid in zip(solver, brute):
            worst_grid = max(worst_grid, abs(dsol - dgrid))
    assert worst_grid <= 2e-3
    print(
        f"PASS criterion 7: idempotence {worst_idem:.1e}, nonexpansiveness "
        f"{worst_nonexp:.1e}, variational {worst_vi:.1e} (all <= 1e-8); "
        f"grid-oracle dev {worst_grid:.1e} <= 2e-3 over {len(sets)} sets"
    )


def test_criterion_8_descent_inequality(ex57_run):
    entry1 = get_entry("ex5.1")
    trace1 = cyclic_project(entry1.problem, entry1.default_start, max_sweeps=2500, stop_tol=1e-300)
    # the run must either use the full 1e4-step budget or end at an exact
    # fixed point (every step of the last sweep moved by 0)
    if trace1.total_steps < 10**4:
        assert all(sn == 0.0 for sn in trace1.step_norms[-trace1.sets_per_sweep :])
    rep1 = check_descent_inequality(trace1, entry1.problem)
    assert rep1.violations == []

    entry7 = get_entry("ex5.7:d=2")
    combined = ex57_run.combined
    rep7 = check_descent_inequality(combined, entry7.problem)
    assert combined.total_steps >= 10**4
    assert rep7.violations == []
    print(
        f"PASS criterion 8: descent slack ex5.1 {rep1.min_slack:.1e}, ex5.7 "
        f"{rep7.min_slack:.1e} (no violations beyond -1e-8; "
        f"{len(trace1.ks)}+{len(combined.ks)} recorded steps)"
    )


def test_criterion_9_error_bound_probe_on_chain_curve():
    entry = get_entry("ex3.2:n=2,d=2")
    ts = np.logspace(-3, -1, 50)
    exponent, r2 = analysis.error_bound_exponent_on_curve(entry.problem, entry.curve, ts)
    assert abs(exponent - 0.25) <= 1e-3
    print(f"PASS criterion 9: curve exponent {exponent:.6f} within 1e-3 of 0.25 (r2={r2:.8f})")


def test_criterion_10_quartic_gap_vector():
    entry = get_entry("ex5.8:n=2")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=10000, stop_tol=1e-16)
    gap_dev = vnorm(vsub(result.gap_vector, (1.0, 0.0)))
    norm_dev = abs(result.gap_norm - 1.0)
    assert gap_dev <= 1e-6
    assert norm_dev <= 1e-6
    print(
        f"PASS criterion 10: gap vector dev {gap_dev:.2e} <= 1e-6; "
        f"| ||v|| - 1 | = {norm_dev:.2e} <= 1e-6"
    )


def test_criterion_11_byte_identical_outputs(tmp_path):
    run_a = tmp_path / "a.csv"
    run_b = tmp_path / "b.csv"
    flags = ["run", "--example", "ex5.1", "--x0", "1,1", "--sweeps", "500", "--seed", "3"]
    assert cli.main(flags + ["--out", str(run_a)]) == 0
    assert cli.main(flags + ["--out", str(run_b)]) == 0
    assert run_a.read_bytes() == run_b.read_bytes()

    eb_a = tmp_path / "eb_a.json"
    eb_b = tmp_path / "eb_b.json"
    eb_flags = [
        "errorbound", "--example", "ex5.5", "--center", "0,0", "--theta", "2.0",
        "--samples", "120", "--radius", "0.5", "--seed", "9",
    ]
    assert cli.main(eb_flags + ["--out", str(eb_a)]) == 0
    assert cli.main(eb_flags + ["--out", str(eb_b)]) == 0
    assert eb_a.read_bytes() == eb_b.read_bytes()
    print(
        f"PASS criterion 11: cmd_run and cmd_errorbound outputs byte-identical "
        f"({run_a.stat().st_size} and {eb_a.stat().st_size} bytes)"
    )
