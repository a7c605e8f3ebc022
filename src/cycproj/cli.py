"""Command-line front end: problem files, trace files, runs and reports.

Problem files are JSON; traces are CSV with one row per recorded projection
step.  A trace file is an optional ``# thinned=true`` line, the header
``k,set_index,residual_before,step_norm,x_0,...,x_{n-1}``, and one row per
step: two integers, then the floats in ``%.17g`` format (17 significant
digits, so parsing them back is lossless), every line ended by CRLF and no
field quoted.  The reader also accepts quoted fields.  Exit codes: 0 success,
1 input error, 2 numerical/solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from array import array
from dataclasses import asdict, dataclass
from itertools import islice, repeat
from typing import List, Optional, Sequence, Tuple

from . import analysis, catalog, rates
from .engine import (
    Ints,
    Points,
    ProjectionStepError,
    Trace,
    alternating_project,
    check_descent_inequality,
    cyclic_project,
)
from .poly import Polynomial, distance_kernel
from .rates import PowerLaw
from .sets import (
    ConvexSetDescriptor,
    FeasibilityProblem,
    NumericalError,
    ProjectionError,
    Singleton,
    residual,
    vdist,
    vnorm,
    vsub,
)


# ---------------------------------------------------------------------------
# problem files (JSON)


def _expect(cond, msg):
    if not cond:
        raise ValueError(msg)


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not numbers here
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # an integer literal beyond the float range has no float value
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def problem_from_dict(doc: dict) -> FeasibilityProblem:
    _expect(isinstance(doc, dict), "top level must be an object")
    _expect("dimension" in doc, "missing key 'dimension'")
    dim = doc["dimension"]
    _expect(_is_int(dim) and dim >= 1, "'dimension' must be a positive integer")
    _expect(isinstance(doc.get("sets"), list) and doc["sets"], "'sets' must be a non-empty array")

    def is_point(value) -> bool:
        return isinstance(value, list) and len(value) == dim and all(map(_is_number, value))

    sets = []
    for si, sdoc in enumerate(doc["sets"]):
        where = f"sets[{si}]"
        _expect(isinstance(sdoc, dict), f"{where} must be an object")
        name = sdoc.get("name", f"set-{si}")
        _expect(isinstance(name, str), f"{where}.name must be a string")
        cons_doc = sdoc.get("constraints")
        _expect(isinstance(cons_doc, list) and cons_doc, f"{where}.constraints must be non-empty")
        cons = []
        for ci, cdoc in enumerate(cons_doc):
            cw = f"{where}.constraints[{ci}]"
            _expect(isinstance(cdoc, dict) and isinstance(cdoc.get("terms"), list), f"{cw} needs a 'terms' array")
            terms = {}
            for ti, tdoc in enumerate(cdoc["terms"]):
                tw = f"{cw}.terms[{ti}]"
                _expect(isinstance(tdoc, dict), f"{tw} must be an object")
                exps = tdoc.get("exponents")
                coef = tdoc.get("coefficient")
                _expect(
                    isinstance(exps, list)
                    and len(exps) == dim
                    and all(_is_int(e) and e >= 0 for e in exps),
                    f"{tw}.exponents must be {dim} non-negative integers",
                )
                _expect(_is_number(coef), f"{tw}.coefficient must be a number in the float range")
                key = tuple(exps)
                terms[key] = terms.get(key, 0.0) + float(coef)
            cons.append(Polynomial(dim, terms))
        sets.append(ConvexSetDescriptor(name, cons))
    oracle = None
    odoc = doc.get("oracle")
    if odoc is not None:
        _expect(isinstance(odoc, dict) and odoc.get("type") == "singleton", "'oracle.type' must be 'singleton'")
        point = odoc.get("point")
        _expect(is_point(point), f"'oracle.point' must be {dim} numbers in the float range")
        oracle = Singleton(tuple(float(v) for v in point))
    return FeasibilityProblem(dim, sets, oracle)


def problem_to_dict(problem: FeasibilityProblem) -> dict:
    sets = [
        {
            "name": s.name,
            "constraints": [
                {
                    "terms": [
                        {"exponents": list(m.exponents), "coefficient": m.coefficient}
                        for m in g.terms
                    ]
                }
                for g in s.constraints
            ],
        }
        for s in problem.sets
    ]
    doc = {"dimension": problem.dimension, "sets": sets}
    if problem.intersection_oracle is not None:
        doc["oracle"] = {"type": "singleton", "point": list(problem.intersection_oracle.point)}
    return doc


def load_problem(path: str) -> FeasibilityProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return problem_from_dict(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_problem(problem: FeasibilityProblem, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# trace files (CSV)


@dataclass
class TraceData:
    """The columns of a trace file, in the layout of :class:`Trace`: the
    :class:`Ints` views ``ks`` and ``set_indices``, the ``array('d')``
    columns ``residuals_before`` and ``step_norms``, and the :class:`Points`
    view ``points`` of the iterates."""

    dimension: int
    ks: Ints
    set_indices: Ints
    residuals_before: array
    step_norms: array
    points: Points
    thinned: bool


_TRACE_COLUMNS = ["k", "set_index", "residual_before", "step_norm"]
_ROWS_PER_WRITE = 4096  # rows formatted and written per chunk, bounding memory


def write_trace(trace: Trace, path: str):
    n = trace.problem.dimension
    row = "%d,%d" + ",%.17g" * (n + 2) + "\r\n"
    coords = iter(trace.iterates.flat)
    rows = zip(trace.ks, trace.set_indices, trace.residuals_before, trace.step_norms, *[coords] * n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if trace.thinned:
            fh.write("# thinned=true\r\n")
        fh.write(",".join(_TRACE_COLUMNS + [f"x_{i}" for i in range(n)]) + "\r\n")
        while True:
            chunk = "".join(map(row.__mod__, islice(rows, _ROWS_PER_WRITE)))
            if not chunk:
                break
            fh.write(chunk)


def read_trace(path: str) -> TraceData:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        thinned = False
        pos = fh.tell()
        first = fh.readline()
        skipped = first.startswith("#")  # a comment line, read before the csv reader
        if skipped:
            thinned = "thinned=true" in first
        else:
            fh.seek(pos)
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:4] != _TRACE_COLUMNS or len(header) < 5:
            raise ValueError(f"{path}: not a trace file (bad header {header!r})")
        width = len(header)
        data = TraceData(width - 4, Ints(), Ints(), array("d"), array("d"), Points(width - 4), thinned)
        add_k, add_set, add_residual, add_step, add_coords = (
            data.ks.values.append,
            data.set_indices.values.append,
            data.residuals_before.append,
            data.step_norms.append,
            data.points.flat.extend,
        )
        prev_k = 0
        try:  # one handler for the whole loop, so a row pays nothing for it
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise ValueError(f"row k={row[0]} has {len(row)} fields, expected {width}")
                k = int(row[0])
                if k <= prev_k:
                    raise ValueError(f"step indices must be strictly increasing (k={k})")
                prev_k = k
                add_k(k)
                idx = int(row[1])
                if idx < 0:
                    raise ValueError(f"negative set index {idx}")
                add_set(idx)
                add_residual(float(row[2]))
                add_step(float(row[3]))
                add_coords(map(float, row[4:]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num + skipped}: {exc}") from exc
        except OverflowError as exc:  # raised by the int64 columns' appends
            raise ValueError(f"{path}: line {reader.line_num + skipped}: index beyond the 64-bit range") from exc
    return data


# ---------------------------------------------------------------------------
# report serialization


def _rate_class_dict(rc) -> dict:
    if isinstance(rc, PowerLaw):
        return {"kind": "power_law", "rho": rc.rho}
    return {"kind": "linear"}


def rate_report_dict(report: analysis.RateReport) -> dict:
    return {
        "theoretical": _rate_class_dict(report.theoretical),
        "power_fit": {"exponent": report.power_fit.exponent, "log_log_r2": report.power_fit.r2},
        "geometric_fit": {"ratio": report.geometric_fit.ratio, "log_lin_r2": report.geometric_fit.r2},
        "chosen_model": report.chosen,
        "fit_window": list(report.fit_window),
        "errors_used": report.errors_used,
        "verdict": report.verdict,
    }


def error_bound_report_dict(report: analysis.ErrorBoundReport) -> dict:
    return {"mode": "ball", **asdict(report)}


def _emit(doc: dict, out: Optional[str]):
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _checked(convert, ok, what: str):
    """An argparse ``type=`` that converts an option's text and rejects a
    value failing ``ok``; argparse puts the option's name in the message."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive = _checked(float, lambda v: v > 0.0, "a positive number")  # NaN fails too
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _logspace(lo: float, hi: float, count: int) -> List[float]:
    """``count`` powers of ten with exponents evenly spaced from lo to hi inclusive."""
    step = (hi - lo) / max(count - 1, 1)
    return [10.0 ** (i * step + lo) for i in range(count - 1)] + [10.0 ** (hi if count > 1 else lo)]


def _parse_floats(text: str, what: str) -> Tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated list of numbers: {text!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite: {text!r}")
    return values


def _resolve_problem(args) -> FeasibilityProblem:
    if args.problem:
        return load_problem(args.problem)
    return catalog.get_entry(args.example).problem


def cmd_run(args) -> int:
    problem = _resolve_problem(args)
    x0 = _parse_floats(args.x0, "--x0")
    if len(x0) != problem.dimension:
        raise ValueError(f"--x0 has {len(x0)} coordinates, problem dimension is {problem.dimension}")
    try:
        trace = cyclic_project(problem, x0, max_sweeps=args.sweeps, stop_tol=args.stop_tol)
    except ProjectionStepError as exc:
        write_trace(exc.partial_trace, args.out + ".partial")
        print(f"error: {exc} (partial trace written to {args.out}.partial)", file=sys.stderr)
        return 2
    write_trace(trace, args.out)
    return 0


def cmd_rate(args) -> int:
    data = read_trace(args.trace)
    if not data.ks:
        raise ValueError(f"{args.trace}: trace has no data rows")
    if args.n != data.dimension:
        raise ValueError(f"--n is {args.n}, but {args.trace} has {data.dimension} coordinates")
    lo_s, _, hi_s = args.window.partition(":")
    try:
        window = (int(lo_s), int(hi_s))
    except ValueError as exc:
        raise ValueError(f"--window must be LO:HI integers, got {args.window!r}") from exc
    if args.limit is not None:
        target = _parse_floats(args.limit, "--limit")
        if len(target) != data.dimension:
            raise ValueError("--limit dimension does not match the trace")
        errors_used = "distance-to-given-limit"
    else:
        target, k = data.points[-1], data.ks[-1]
        errors_used = "distance-to-final-recorded-iterate"
        if window[0] <= k <= window[1]:
            raise ValueError(f"--window {args.window} reaches k={k}, the final recorded iterate, whose error is 0 "
                             f"because it is the default target; end the window before k={k} or pass --limit")
    # computed as the fit reads them, so no list of (k, e_k) pairs is built
    errors = zip(data.ks, map(distance_kernel(data.dimension), data.points, repeat(target)))
    del data  # the fit keeps only the columns it reads
    report = analysis.compare_with_theory(
        errors, n=args.n, d=args.d, window=window, errors_used=errors_used
    )
    _emit(rate_report_dict(report), args.out)
    return 0


def cmd_errorbound(args) -> int:
    if args.curve:
        if not 0.0 < args.t_lo < math.inf:
            raise ValueError(f"--t-lo must be positive and finite, got {args.t_lo!r}")
        if not args.t_lo < args.t_hi < math.inf:
            raise ValueError(f"--t-hi must be finite and greater than --t-lo, got {args.t_hi!r}")
        if not args.example:
            raise ValueError("--curve mode requires --example with an attached curve")
        entry = catalog.get_entry(args.example)
        if entry.curve is None:
            raise ValueError(f"catalog entry {entry.id} has no curve attached")
        ts = _logspace(math.log10(args.t_lo), math.log10(args.t_hi), args.samples)
        try:
            exponent, r2 = analysis.error_bound_exponent_on_curve(entry.problem, entry.curve, ts)
        except (NumericalError, OverflowError) as exc:
            raise ValueError(
                f"--t-hi {args.t_hi!r} is too large: a curve point there is past the float range"
            ) from exc
        doc = {
            "mode": "curve",
            "exponent": exponent,
            "r2": r2,
            "t_lo": args.t_lo,
            "t_hi": args.t_hi,
            "sample_count": args.samples,
            "seed": args.seed,
            "theoretical_tau": rates.holder_exponent_tau(
                entry.problem.dimension, entry.problem.max_degree
            ),
        }
        _emit(doc, args.out)
        return 0
    if args.center is None:
        raise ValueError("--center is required unless --curve is given")
    problem = _resolve_problem(args)
    center = _parse_floats(args.center, "--center")
    if len(center) != problem.dimension:
        raise ValueError(f"--center has {len(center)} coordinates, problem dimension is {problem.dimension}")
    try:
        report = analysis.error_bound_probe(
            problem,
            center,
            theta=args.theta,
            n_samples=args.samples,
            radius=args.radius,
            seed=args.seed,
        )
    except OverflowError as exc:  # the probe's only overflow is dist ** theta
        raise ValueError(
            f"--theta {args.theta!r} is too large: a distance to that power is past the float range"
        ) from exc
    _emit(error_bound_report_dict(report), args.out)
    return 0


# -- replicate ---------------------------------------------------------------


def _check_ex51() -> List[Tuple[str, bool]]:
    entry = catalog.get_entry("ex5.1")
    out = []
    out.append(("max_degree = 2", entry.problem.max_degree == 2))
    out.append(
        ("residual of every set vanishes at (0,0)", all(residual(s, (0.0, 0.0)) == 0.0 for s in entry.problem.sets))
    )
    out.append(("rate formula gives PowerLaw(1/6)", entry.theory_rate == PowerLaw(1.0 / 6.0)))
    trace = cyclic_project(entry.problem, entry.default_start, max_sweeps=2500, stop_tol=1e-14)
    final = vnorm(trace.last_iterate())
    out.append((f"cyclic run reaches ||x|| = {final:.2e} < 1e-2", final < 1e-2))
    descent = check_descent_inequality(trace, entry.problem)
    out.append(
        (f"descent inequality min slack {descent.min_slack:.1e} >= -1e-8", not descent.violations)
    )
    return out


def _check_ex53() -> List[Tuple[str, bool]]:
    out = []
    worst = 0.0
    for alpha in (0.0, 0.25, 0.5):
        entry = catalog.get_entry(f"ex5.3:alpha={alpha:g}")
        A, B = entry.pair
        result = alternating_project(A, B, entry.default_start, max_iters=60, stop_tol=1e-16)
        for k, x in zip(result.b_trace.ks, result.b_trace.iterates):
            pair_idx = k // 2
            if pair_idx < 1 or pair_idx > 50:
                continue
            b_formula, _ = entry.closed_form(pair_idx)
            worst = max(worst, vdist(x, b_formula))
    out.append((f"closed-form match k<=50: max dev {worst:.1e} <= 1e-10", worst <= 1e-10))
    entry = catalog.get_entry("ex5.3:alpha=0.5")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=50, stop_tol=1e-16)
    errors = [
        (k // 2, vdist(x, (0.5, 0.0)))
        for k, x in zip(result.b_trace.ks, result.b_trace.iterates)
    ]
    fit = analysis.fit_geometric_rate(errors, (10, 50))
    out.append(
        (f"geometric ratio {fit.ratio:.6f} within 0.01 of 2/3", abs(fit.ratio - 2.0 / 3.0) <= 0.01)
    )
    gap_err = abs(result.gap_norm - 0.5)
    out.append((f"||b_k - a_k|| -> alpha=0.5 (err {gap_err:.1e})", gap_err <= 1e-6))
    return out


def _check_ex55() -> List[Tuple[str, bool]]:
    entry = catalog.get_entry("ex5.5")
    out = []
    a_final = catalog.alpha_after(1.0, 10**6)
    rel = abs(a_final - 2.499992442e-7) / 2.499992442e-7
    out.append((f"alpha_1e6 approx 2.499992442e-07 (rel err {rel:.1e})", rel <= 1e-6))
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=500, stop_tol=1e-16)
    tr = result.combined
    alpha = entry.scalar_start(entry.default_start)
    worst_alpha = 0.0
    worst_r2 = 0.0
    for k, x in zip(tr.ks, tr.iterates):
        if k > 1000:
            break
        worst_alpha = max(worst_alpha, abs(abs(x[0]) - alpha))
        worst_r2 = max(worst_r2, abs(x[0] * x[0] + x[1] * x[1] - 2.0 * abs(x[0])))
        alpha = catalog.alpha_step(alpha)
    out.append((f"engine |x_1| matches recurrence k<=1000 (dev {worst_alpha:.1e})", worst_alpha <= 1e-9))
    out.append((f"r_k^2 = 2 alpha_k k<=1000 (dev {worst_r2:.1e})", worst_r2 <= 1e-9))
    a = catalog.alpha_after(entry.scalar_start(entry.default_start), 10**5)
    ratio = math.sqrt(2.0 * a) * math.sqrt(2.0 * 10**5)
    out.append((f"r_k sqrt(2k) = {ratio:.4f} within 2% of 1 at k=1e5", abs(ratio - 1.0) <= 0.02))
    return out


def _check_ex57() -> List[Tuple[str, bool]]:
    entry = catalog.get_entry("ex5.7:d=2")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=500, stop_tol=1e-18)
    tr = result.b_trace
    y = entry.scalar_start(entry.default_start)
    worst_step = 0.0
    worst_oracle = 0.0
    for k, x in zip(tr.ks, tr.iterates):
        if k // 2 > 1000:
            break
        y_prev = y
        y_next = x[1]
        worst_step = max(worst_step, abs(2.0 * y_next**3 + y_next - y_prev))
        y = catalog.power_chain_step(y_prev, 2)
        worst_oracle = max(worst_oracle, abs(y - y_next))
    out = [
        (f"per-step recurrence residual {worst_step:.1e} <= 1e-9", worst_step <= 1e-9),
        (f"oracle y_k vs engine dev {worst_oracle:.1e} <= 1e-9", worst_oracle <= 1e-9),
        ("documented exponent -1/(2d-2) = -1/2 for d=2", entry.documented_power == 0.5),
    ]
    return out


def _check_ex58() -> List[Tuple[str, bool]]:
    entry = catalog.get_entry("ex5.8:n=2")
    out = [("rho_2 = 1/30", entry.theory_rate == PowerLaw(1.0 / 30.0))]
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=6000, stop_tol=1e-16)
    gap_dev = vnorm(vsub(result.gap_vector, entry.known_gap))
    out.append((f"gap vector -> (1,0) (dev {gap_dev:.1e} <= 1e-6)", gap_dev <= 1e-6))
    dist_dev = abs(result.gap_norm - 1.0)
    out.append((f"dist(A,B) = 1 (dev {dist_dev:.1e} <= 1e-6)", dist_dev <= 1e-6))
    return out


def _check_ex32() -> List[Tuple[str, bool]]:
    entry = catalog.get_entry("ex3.2:n=2,d=2")
    out = []
    t = 0.1
    x = entry.curve(t)
    res = max(residual(s, x) for s in entry.problem.sets)
    out.append(
        (f"max residual along curve at t=0.1 equals t^4 (dev {abs(res - t**4):.1e})", abs(res - t**4) <= 1e-12)
    )
    d = entry.problem.intersection_oracle.distance(x)
    out.append((f"dist(x(t), S) = ||x(t)|| (dev {abs(d - vnorm(x)):.1e})", abs(d - vnorm(x)) <= 1e-15))
    ts = _logspace(-3, -1, 50)
    exponent, _ = analysis.error_bound_exponent_on_curve(entry.problem, entry.curve, ts)
    out.append(
        (f"curve exponent {exponent:.5f} within 1e-3 of 0.25", abs(exponent - 0.25) <= 1e-3)
    )
    return out


_REPLICATE_CHECKS = {
    "ex3.2": _check_ex32,
    "ex5.1": _check_ex51,
    "ex5.3": _check_ex53,
    "ex5.5": _check_ex55,
    "ex5.7": _check_ex57,
    "ex5.8": _check_ex58,
}


def cmd_replicate(args) -> int:
    if args.all:
        ids = sorted(_REPLICATE_CHECKS)
    else:
        if args.id not in _REPLICATE_CHECKS:  # the checks are fixed, so an id takes no parameters
            raise ValueError(f"unknown replicate id {args.id!r}; known, without parameters: {sorted(_REPLICATE_CHECKS)}")
        ids = [args.id]
    all_ok = True
    for eid in ids:
        for label, ok in _REPLICATE_CHECKS[eid]():
            all_ok = all_ok and ok
            print(f"{eid:<8} {label:<64} {'PASS' if ok else 'FAIL'}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycproj",
        description="Cyclic/alternating projection runs and rate reports for "
        "basic semi-algebraic convex feasibility problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run cyclic projections and write a CSV trace")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", help="problem file (JSON)")
    src.add_argument("--example", help="catalog entry id, e.g. ex5.1 or ex5.7:d=4")
    p_run.add_argument("--x0", required=True, help="start point, comma-separated")
    p_run.add_argument("--sweeps", type=_count, default=1000)
    p_run.add_argument("--stop-tol", type=_positive, default=1e-12, dest="stop_tol")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=0, help="reserved; runs are deterministic")
    p_run.set_defaults(func=cmd_run)

    p_rate = sub.add_parser("rate", help="fit decay rates on a trace and compare with theory")
    p_rate.add_argument("--trace", required=True)
    p_rate.add_argument("--n", type=int, required=True, help="ambient dimension, the trace's coordinate count")
    p_rate.add_argument("--d", type=int, required=True, help="maximum polynomial degree")
    p_rate.add_argument("--window", required=True, help="fit window LO:HI in step index")
    p_rate.add_argument("--limit", help="known limit point (comma-separated); default: final iterate")
    p_rate.add_argument("--out")
    p_rate.set_defaults(func=cmd_rate)

    p_eb = sub.add_parser("errorbound", help="sample the regularity exponent around a feasible point")
    src = p_eb.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem")
    src.add_argument("--example")
    p_eb.add_argument("--center", help="feasible center point (ball mode)")
    p_eb.add_argument("--theta", type=float, default=2.0)
    p_eb.add_argument("--samples", type=_count, default=200)
    p_eb.add_argument("--radius", type=float, default=0.5)
    p_eb.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "an integer >= 0"), default=0)
    p_eb.add_argument("--curve", action="store_true", help="sample along the entry's curve instead")
    p_eb.add_argument("--t-lo", type=float, default=1e-3, dest="t_lo")
    p_eb.add_argument("--t-hi", type=float, default=1e-1, dest="t_hi")
    p_eb.add_argument("--out")
    p_eb.set_defaults(func=cmd_errorbound)

    p_rep = sub.add_parser("replicate", help="cross-validate the built-in catalog, PASS/FAIL per check")
    grp = p_rep.add_mutually_exclusive_group(required=True)
    grp.add_argument("--all", action="store_true")
    grp.add_argument("--id")
    p_rep.set_defaults(func=cmd_replicate)
    return parser


_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    """Rewrite ``--opt -1e-3`` as ``--opt=-1e-3``: argparse takes a token that
    starts with a minus sign for an option unless it looks like a plain
    negative number, which ``-1e-3`` and ``-1.6,0.3`` do not.  A token that
    starts with ``-`` and then a digit or ``.`` is attached to the
    ``--option`` before it, when that option has no ``=``."""
    out: List[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if len(prev) > 2 and prev.startswith("--") and "=" not in prev and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; the interface reserves 2 for
        # solver failures and 1 for input errors
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProjectionStepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProjectionError as exc:
        print(f"error: projection solver failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
