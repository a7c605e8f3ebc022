"""Golden bytes of the trace pipeline: ``write_trace`` output, the ``rate``
report and the ``errorbound`` report are pinned by SHA-256.

The digests were first computed with the earlier csv.writer-based trace
writer, so a change in row formatting, line ends, the header or the thinned
marker shows up here.  They assume IEEE-754 doubles and an x86-64 glibc
``pow``; the runs use closed-form ball projections, single-constraint KKT
Newton solves, and working-set solves by Newton on two active constraints.
A float.hex dump of projections solved on two and three active constraints
is pinned the same way, and so is one of warm-started projections onto the
two-constraint sets; projections onto a degenerate constraint, which has no
KKT point, must raise.
"""

import hashlib
import json
import math

import pytest

from cycproj import cli, engine
from cycproj.catalog import get_entry
from cycproj.cli import read_trace, write_trace
from cycproj.engine import Trace, alternating_project, cyclic_project
from cycproj.poly import Polynomial
from cycproj.sets import ConvexSetDescriptor, ProjectionError, project

DENSE_EX55_SHA = "933c82e940436f78fbdb0d17693b1a9d77e7e42c6c634301eb3db9d886f7e64b"
RATE_EX55_SHA = "268096575c4eeb04371f4946478239b49cd45581e988a966e1911db31e5b9bcf"
THINNED_EX55_SHA = "d470e1295cf54d86c326684587735a57267897d4788eed1cae74cf01559743ce"
EX58_N3_SHA = "d1b63cd751a9dfbf7c735ca8a49a16095dfca83b968b20523a92c95e89094043"
HAND_BUILT_SHA = "297f3e2b5eb93672831e74d27c3aa6b3881c3b7ffd8445d556d22f3465013a14"
LENS_ERRORBOUND_SHA = "d222ac48cc2cc6cc8c8def36925ff4f736395119204b8ee6fff741dd3a686760"
EX57_D4_SHA = "ab91800786f4a5e4f45d3f4acd366dff5abc25af6cdc863f0e8ca2a35cb3057e"
CROSSED_LENS_ERRORBOUND_SHA = "4c8814b64d59b8d1f40b5956b621a1e9696dfa61c6c396c6195d180efbbb41da"
EX58_N2_ALTERNATING_SHA = "3e353c5123c409f7425a54664b72d6c00beefb6c9db7de32d02ab00316910794"
EX57_D2_SHA = "d3c11038ab138b24e6d0fe42ed508b12ce2ef50070f44d41fa39fcdfc665b6aa"
MULTI_CONSTRAINT_PROJECTIONS_SHA = "61ce64b6ea298ea0e232854fc3078e8e3afa11fff40fd00729da47e9d4566b49"
WARM_MULTI_CONSTRAINT_PROJECTIONS_SHA = "8c027088cdb616a93f71b33543d60bc9fb00ca91b83df80b5621a06f42befd6c"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hex(values):
    return [float(v).hex() for v in values]


def _assert_round_trip(trace: Trace, path, tmp_path):
    """read_trace gives back every field bit for bit (NaN and -0.0 included),
    and writing what was read reproduces the file."""
    data = read_trace(str(path))
    assert data.dimension == trace.problem.dimension
    assert data.thinned == trace.thinned
    assert data.ks == trace.ks
    assert data.set_indices == trace.set_indices
    assert _hex(data.residuals_before) == _hex(trace.residuals_before)
    assert _hex(data.step_norms) == _hex(trace.step_norms)
    assert [_hex(p) for p in data.points] == [_hex(x) for x in trace.iterates]
    again = Trace(
        problem=trace.problem,
        x0=trace.x0,
        ks=data.ks,
        iterates=data.points,
        set_indices=data.set_indices,
        residuals_before=data.residuals_before,
        step_norms=data.step_norms,
        sets_per_sweep=trace.sets_per_sweep,
        total_steps=trace.total_steps,
        thinned=data.thinned,
    )
    copy_path = tmp_path / ("again-" + path.name)
    write_trace(again, str(copy_path))
    assert copy_path.read_bytes() == path.read_bytes()


def test_dense_ex55_trace_and_rate_report_bytes(tmp_path):
    trace = cyclic_project(get_entry("ex5.5").problem, (0.3, 1.9), max_sweeps=3000, stop_tol=1e-300)
    assert len(trace.ks) == 6000 and not trace.thinned
    path = tmp_path / "dense.csv"
    write_trace(trace, str(path))
    assert _sha256(path) == DENSE_EX55_SHA
    _assert_round_trip(trace, path, tmp_path)
    report = tmp_path / "rate.json"
    args = ["rate", "--trace", str(path), "--n", "2", "--d", "2", "--window", "100:6000",
            "--limit", "0,0", "--out", str(report)]
    assert cli.main(args) == 0
    assert _sha256(report) == RATE_EX55_SHA


def test_thinned_alternating_trace_bytes(tmp_path):
    A, B = get_entry("ex5.5").pair
    combined = alternating_project(
        A, B, (0.0, 2.0), max_iters=6000, stop_tol=1e-30, record_cap=100
    ).combined
    assert combined.thinned and len(combined.ks) == 10006
    path = tmp_path / "thinned.csv"
    write_trace(combined, str(path))
    assert path.read_bytes().startswith(b"# thinned=true\r\nk,set_index,")
    assert _sha256(path) == THINNED_EX55_SHA
    _assert_round_trip(combined, path, tmp_path)


def test_three_dimensional_quartic_trace_bytes(tmp_path):
    entry = get_entry("ex5.8:n=3")
    trace = cyclic_project(entry.problem, (2.0, 1.0, 0.0), max_sweeps=100, stop_tol=1e-300)
    assert len(trace.ks) == 200
    path = tmp_path / "ex58.csv"
    write_trace(trace, str(path))
    assert _sha256(path) == EX58_N3_SHA
    _assert_round_trip(trace, path, tmp_path)


def test_power_region_trace_bytes(tmp_path):
    entry = get_entry("ex5.7:d=4")
    trace = cyclic_project(entry.problem, entry.default_start, max_sweeps=2000, stop_tol=1e-300)
    assert len(trace.ks) == 4000
    path = tmp_path / "ex57.csv"
    write_trace(trace, str(path))
    assert _sha256(path) == EX57_D4_SHA
    _assert_round_trip(trace, path, tmp_path)


def test_quartic_balls_alternating_trace_bytes(tmp_path):
    # the replicate entry: warm-started Newton projections onto two quartic balls
    entry = get_entry("ex5.8:n=2")
    A, B = entry.pair
    trace = alternating_project(A, B, entry.default_start, max_iters=1000, stop_tol=1e-300).combined
    assert len(trace.ks) == 2000 and not trace.thinned
    path = tmp_path / "ex58-alt.csv"
    write_trace(trace, str(path))
    assert _sha256(path) == EX58_N2_ALTERNATING_SHA
    _assert_round_trip(trace, path, tmp_path)


def test_quadratic_power_region_trace_bytes(tmp_path):
    entry = get_entry("ex5.7:d=2")
    trace = cyclic_project(entry.problem, entry.default_start, max_sweeps=1000, stop_tol=1e-300)
    assert len(trace.ks) == 2000
    path = tmp_path / "ex57-d2.csv"
    write_trace(trace, str(path))
    assert _sha256(path) == EX57_D2_SHA
    _assert_round_trip(trace, path, tmp_path)


def test_hand_built_trace_with_extreme_values(tmp_path):
    trace = Trace(
        problem=get_entry("ex5.5").problem,
        x0=(0.0, 2.0),
        ks=[1, 2, 5],
        iterates=[(-0.0, 5e-324), (1e300, -1e300), (0.1, -5e-324)],
        set_indices=[0, 1, 0],
        residuals_before=[math.nan, 0.0, 1e300],
        step_norms=[5e-324, -0.0, 0.30000000000000004],
        sets_per_sweep=2,
        total_steps=5,
        thinned=False,
    )
    path = tmp_path / "hand.csv"
    write_trace(trace, str(path))
    assert path.read_bytes() == (
        b"k,set_index,residual_before,step_norm,x_0,x_1\r\n"
        b"1,0,nan,4.9406564584124654e-324,-0,4.9406564584124654e-324\r\n"
        b"2,1,0,-0,1.0000000000000001e+300,-1.0000000000000001e+300\r\n"
        b"5,0,1.0000000000000001e+300,0.30000000000000004,0.10000000000000001,"
        b"-4.9406564584124654e-324\r\n"
    )
    assert _sha256(path) == HAND_BUILT_SHA
    _assert_round_trip(trace, path, tmp_path)


def test_write_trace_spans_several_chunks(tmp_path):
    # more rows than one write holds; every row lands once, in order
    rows = 2 * cli._ROWS_PER_WRITE + 3
    trace = Trace(
        problem=get_entry("ex5.5").problem,
        x0=(0.0, 2.0),
        ks=list(range(1, rows + 1)),
        iterates=[(0.5 * k, -1.0 / k) for k in range(1, rows + 1)],
        set_indices=[k % 2 for k in range(rows)],
        residuals_before=[1.0 / k for k in range(1, rows + 1)],
        step_norms=[0.25] * rows,
        sets_per_sweep=2,
        total_steps=rows,
        thinned=False,
    )
    path = tmp_path / "long.csv"
    write_trace(trace, str(path))
    lines = path.read_bytes().split(b"\r\n")
    assert len(lines) == rows + 2 and lines[-1] == b""
    assert [int(line.split(b",")[0]) for line in lines[1:-1]] == trace.ks
    _assert_round_trip(trace, path, tmp_path)


def test_read_trace_accepts_quoted_fields(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text(
        'k,set_index,residual_before,step_norm,x_0,x_1\r\n"1","0","0.5","0.25","0.1","0.2"\r\n'
    )
    data = read_trace(str(path))
    assert data.ks == [1] and data.set_indices == [0]
    assert data.points == [(0.1, 0.2)]


# -- refinement runs keep only their final sweep ----------------------------------


def _write_lens_problem(tmp_path):
    def disk(cx):
        return {
            "name": f"disk{cx:+g}",
            "constraints": [{"terms": [
                {"exponents": [2, 0], "coefficient": 1.0},
                {"exponents": [1, 0], "coefficient": -2.0 * cx},
                {"exponents": [0, 2], "coefficient": 1.0},
                {"exponents": [0, 0], "coefficient": cx * cx - 1.0},
            ]}],
        }

    path = tmp_path / "lens.json"
    path.write_text(json.dumps({"dimension": 2, "sets": [disk(-0.5), disk(0.5)]}))
    return path


def test_final_sweep_only_recording():
    problem = get_entry("ex5.5").problem
    thinned, after_thinned = engine._run_steps(problem, (0.3, 1.9), 2000, 1, None)
    final, after = engine._run_steps(problem, (0.3, 1.9), 2000, 0, None)
    assert len(thinned.ks) == 4000
    assert final.ks == [3999, 4000] and final.set_indices == [0, 1]
    assert final.thinned and final.total_steps == 4000
    assert after == after_thinned
    assert final.iterates == list(after) == thinned.iterates[-2:]
    # the final sweep's residuals are computed from its kept pre-step points
    assert final.residuals_before == thinned.residuals_before[-2:]
    assert final.step_norms == thinned.step_norms[-2:]


def test_thinned_run_records_the_dense_run_columns():
    # 12,000 steps, past the dense head of 10^4: a thinned run computes the
    # residual of a recorded step only, and its columns are the dense run's
    problem = get_entry("ex5.5").problem
    dense, _ = engine._run_steps(problem, (0.3, 1.9), 6000, 10**6, None)
    thinned, _ = engine._run_steps(problem, (0.3, 1.9), 6000, 1, None)
    assert thinned.thinned and not dense.thinned
    assert 10**4 < len(thinned.ks) < 12000 and thinned.ks[-1] == 12000
    rows = [k - 1 for k in thinned.ks]
    assert _hex(thinned.residuals_before) == _hex(dense.residuals_before[i] for i in rows)
    assert _hex(thinned.step_norms) == _hex(dense.step_norms[i] for i in rows)
    assert thinned.iterates == [dense.iterates[i] for i in rows]


@pytest.mark.parametrize("record_cap", [0, 1])
def test_failing_thinned_run_keeps_its_residual_column(monkeypatch, record_cap):
    # a projection that fails at step 7 ends a thinned run; its partial
    # trace holds the final sweep before it, residuals included
    problem = get_entry("ex5.5").problem
    dense, _ = engine._run_steps(problem, (0.3, 1.9), 10, 10**6, None)
    calls = []
    project_once = engine.project

    def failing(s, x, start=None):
        calls.append(x)
        if len(calls) == 7:
            raise ProjectionError("injected failure")
        return project_once(s, x, start=start)

    monkeypatch.setattr(engine, "project", failing)
    with pytest.raises(engine.ProjectionStepError) as exc_info:
        engine._run_steps(problem, (0.3, 1.9), 10, record_cap, None)
    partial = exc_info.value.partial_trace
    assert exc_info.value.step_index == 7 and partial.total_steps == 6
    assert partial.ks[-2:] == [5, 6] and len(partial.ks) == (2 if record_cap == 0 else 6)
    rows = [k - 1 for k in partial.ks]
    assert _hex(partial.residuals_before) == _hex(dense.residuals_before[i] for i in rows)
    assert _hex(partial.step_norms) == _hex(dense.step_norms[i] for i in rows)


def test_refinement_records_at_most_one_sweep(tmp_path, monkeypatch):
    from cycproj import analysis

    sizes = []
    run_steps = analysis._run_steps

    def recording(problem, *args):
        trace, after = run_steps(problem, *args)
        sizes.append(len(trace.ks))
        return trace, after

    monkeypatch.setattr(analysis, "_run_steps", recording)
    out = tmp_path / "eb.json"
    args = ["errorbound", "--problem", str(_write_lens_problem(tmp_path)), "--center", "0,0",
            "--samples", "40", "--radius", "1.2", "--seed", "5", "--out", str(out)]
    assert cli.main(args) == 0
    assert len(sizes) == 40 and max(sizes) <= 2
    assert _sha256(out) == LENS_ERRORBOUND_SHA


def _disk_constraint(cx, cy):
    # (x - cx)^2 + (y - cy)^2 - 1
    return {"terms": [
        {"exponents": [2, 0], "coefficient": 1.0},
        {"exponents": [1, 0], "coefficient": -2.0 * cx},
        {"exponents": [0, 2], "coefficient": 1.0},
        {"exponents": [0, 1], "coefficient": -2.0 * cy},
        {"exponents": [0, 0], "coefficient": cx * cx + cy * cy - 1.0},
    ]}


def _crossed_lens_errorbound_args(tmp_path):
    # each set is a lens given as two unhinted disk constraints, so samples
    # beyond a lens tip take the working set, which runs the KKT Newton solve
    # on both constraints
    doc = {"dimension": 2, "sets": [
        {"name": "lens", "constraints": [_disk_constraint(-0.5, 0.0), _disk_constraint(0.5, 0.0)]},
        {"name": "lens-t", "constraints": [_disk_constraint(0.0, -0.5), _disk_constraint(0.0, 0.5)]},
    ]}
    problem = tmp_path / "crossed-lenses.json"
    problem.write_text(json.dumps(doc))
    return ["errorbound", "--problem", str(problem), "--center", "0,0", "--samples", "40",
            "--radius", "1.2", "--seed", "5", "--out", str(tmp_path / "eb.json")]


def test_two_active_constraint_polish_errorbound_bytes(tmp_path, monkeypatch):
    from cycproj import sets

    active_sizes = []
    kkt_newton = sets._kkt_newton

    def recording(s, active, *args, **kwargs):
        active_sizes.append(len(active))
        return kkt_newton(s, active, *args, **kwargs)

    monkeypatch.setattr(sets, "_kkt_newton", recording)
    assert cli.main(_crossed_lens_errorbound_args(tmp_path)) == 0
    # a working set of one disk takes the disk's closed form
    assert active_sizes == [2, 2, 2]
    assert _sha256(tmp_path / "eb.json") == CROSSED_LENS_ERRORBOUND_SHA


def test_probe_takes_the_first_distance_from_the_refinement(tmp_path, monkeypatch):
    # without an oracle each sample's refinement starts with the cold
    # projection onto the first set, so the probe computes only the other
    # m - 1 distances; the refined point's certificate comes from the final
    # sweep, with no distance
    from cycproj import analysis

    calls = []
    distance = analysis.distance

    def counting(s, x):
        calls.append(s.name)
        return distance(s, x)

    monkeypatch.setattr(analysis, "distance", counting)
    assert cli.main(_crossed_lens_errorbound_args(tmp_path)) == 0
    assert calls == ["lens-t"] * 40
    assert _sha256(tmp_path / "eb.json") == CROSSED_LENS_ERRORBOUND_SHA
    # with an oracle there is no refinement: m distances per sample
    calls.clear()
    args = ["errorbound", "--example", "ex5.5", "--center", "0,0", "--samples", "40", "--radius", "0.5",
            "--seed", "1", "--out", str(tmp_path / "oracle.json")]
    assert cli.main(args) == 0
    assert len(calls) == 40 * 2


def _disk_poly(center, r2=1.0):
    # ||x - center||^2 - r2
    n = len(center)
    terms = {(0,) * n: sum(c * c for c in center) - r2}
    for i, c in enumerate(center):
        terms[tuple(2 if k == i else 0 for k in range(n))] = 1.0
        terms[tuple(1 if k == i else 0 for k in range(n))] = -2.0 * c
    return Polynomial(n, terms)


def _affine_poly(a, b):
    # <a, x> - b
    n = len(a)
    terms = {tuple(1 if k == i else 0 for k in range(n)): ai for i, ai in enumerate(a)}
    terms[(0,) * n] = -b
    return Polynomial(n, terms)


def test_multi_constraint_projection_bytes(monkeypatch):
    # projections that need the KKT Newton solve on two and three active
    # constraints (the working set of branch (e)), dumped through float.hex;
    # a degenerate constraint, whose gradient vanishes on the set, is refused
    from cycproj import sets

    active_sizes = []
    kkt_newton = sets._kkt_newton

    def recording_newton(s, active, *args, **kwargs):
        active_sizes.append(len(active))
        return kkt_newton(s, active, *args, **kwargs)

    monkeypatch.setattr(sets, "_kkt_newton", recording_newton)
    quartic = Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0, (0, 0): -1.0})
    grid = [(-2.0 + 0.5 * i, -2.0 + 0.5 * j) for i in range(9) for j in range(9)]
    cases = [
        ("lens", [_disk_poly((-0.5, 0.0)), _disk_poly((0.5, 0.0))],
         grid + [(0.0, 2.0), (0.25, 2.0), (0.0, -1.5)]),
        ("disk-halfplane", [_disk_poly((0.0, 0.0)), _affine_poly((1.0, 1.0), 0.5)], grid),
        ("quartic-halfplane", [quartic, _affine_poly((0.0, 1.0), 0.5)], grid),
        ("octant", [_affine_poly((1.0, 0.0, 0.0), 0.0), _affine_poly((0.0, 1.0, 0.0), 0.0),
                    _affine_poly((0.0, 0.0, 1.0), 1.0)],
         [(1.0, 2.0, 3.0), (0.5, 0.5, 2.0), (2.0, 1.0, 1.5)]),
        ("ball-quadrant", [_disk_poly((0.0, 0.0, 0.0), 4.0), _affine_poly((1.0, 0.0, 0.0), 0.0),
                           _affine_poly((0.0, 1.0, 0.0), 0.0)],
         [(1.0, 1.0, 5.0), (0.5, 0.25, -3.0), (1.0, 2.0, 0.5)]),
    ]
    lines = []
    for name, constraints, points in cases:
        s = ConvexSetDescriptor(name, constraints)
        for x in points:
            lines.append(f"{name} {' '.join(_hex(x))} -> {' '.join(_hex(project(s, x)))}\n")
    assert len(lines) == 252 and set(active_sizes) == {1, 2, 3}
    degenerate = ConvexSetDescriptor("ex3.2", get_entry("ex3.2:n=2,d=2").problem.sets[0].constraints)
    for x in [(0.3, 0.2), (0.1, -0.4), (1.0, 1.0)]:
        with pytest.raises(ProjectionError, match="'ex3.2'"):
            project(degenerate, x)
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == MULTI_CONSTRAINT_PROJECTIONS_SHA


def test_warm_started_multi_constraint_projection_bytes():
    # the sets above, each grid point projected with a warm start from the
    # previous projection and from the projection of a nearby point, dumped
    # through float.hex; a warm start seeds the first working set only where
    # it is the one active constraint
    quartic = Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0, (0, 0): -1.0})
    grid = [(-2.0 + 0.5 * i, -2.0 + 0.5 * j) for i in range(9) for j in range(9)]
    cases = [
        ("lens", [_disk_poly((-0.5, 0.0)), _disk_poly((0.5, 0.0))]),
        ("disk-halfplane", [_disk_poly((0.0, 0.0)), _affine_poly((1.0, 1.0), 0.5)]),
        ("quartic-halfplane", [quartic, _affine_poly((0.0, 1.0), 0.5)]),
    ]
    lines = []
    for name, constraints in cases:
        s = ConvexSetDescriptor(name, constraints)
        previous = None
        for x in grid + [(0.0, 2.0), (0.25, 2.0), (0.0, -1.5)]:
            near = project(s, (x[0] + 0.01, x[1] - 0.02))
            for start in (previous, near):
                y = project(s, x, start=start)
                lines.append(f"{name} {' '.join(_hex(x))} -> {' '.join(_hex(y))}\n")
            previous = y
    assert len(lines) == 504
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == WARM_MULTI_CONSTRAINT_PROJECTIONS_SHA
