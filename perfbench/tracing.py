"""Per-layer tracing of cycproj, installed from outside the package.

:class:`Tracer` replaces public functions of ``poly``, ``sets``, ``engine``,
``cli``, ``analysis`` and ``catalog`` with wrappers that count calls and
accumulate inclusive and self time per key.  A name is patched in every module
that looks it up, because ``engine``, ``analysis``, ``catalog`` and ``cli``
import ``project``, ``residual`` and ``_run_steps`` by name.  ``uninstall``
restores the originals.  No source file of the package is changed.

Op spans and one span per projection are kept in memory.  Polynomial kernel
calls are far too many for spans (the probe makes millions), so they are
aggregated into a count per kernel and a time per parent key.  Each
projection's branch is classified from outside: ``feasible`` when the result
equals the input, ``halfspace``/``ball`` from the analytic hint, and
``penalty``/``newton`` from which solver ran during the call.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import defaultdict

BRANCHES = ("feasible", "halfspace", "ball", "newton", "penalty", "other")
_FEASIBLE, _HALFSPACE, _BALL, _NEWTON, _PENALTY, _OTHER = range(len(BRANCHES))

MODULES = ("poly", "sets", "engine", "cli", "analysis", "catalog")


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.poly_by_parent = defaultdict(float)
        self.rows_written = 0
        self.dense_in_newton = 0
        # frame = [time covered by child spans, key]; the root frame is the op
        self._stack = [[0.0, "op"]]
        self._poly_depth = [0]
        self._op = -1
        self._op_start = 0.0
        self.op_spans = []  # (op index, start, end), perf_counter seconds
        self.proj_op = array("i")
        self.proj_branch = array("b")
        self.proj_start = array("d")
        self.proj_dur = array("d")
        self._saved = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, index: int):
        self._op = index
        self._stack[0][0] = 0.0
        self._op_start = time.perf_counter()

    def end_op(self):
        end = time.perf_counter()
        self.op_spans.append((self._op, self._op_start, end))
        self.self_s["op"] += (end - self._op_start) - self._stack[0][0]

    # -- wrappers ----------------------------------------------------------

    def span(self, key, fn, extra=None):
        counts, selfs, incls, stack = self.counts, self.self_s, self.incl_s, self._stack
        pc = time.perf_counter

        def wrapped(*args, **kwargs):
            counts[key] += 1
            if extra is not None:
                counts[extra] += 1
            frame = [0.0, key]
            stack.append(frame)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = pc() - t0
                stack.pop()
                selfs[key] += dur - frame[0]
                incls[key] += dur
                stack[-1][0] += dur

        return wrapped

    def poly_kernel(self, key, fn):
        counts, stack, depth, by_parent = self.counts, self._stack, self._poly_depth, self.poly_by_parent
        pc = time.perf_counter

        def wrapped(*args, **kwargs):
            counts[key] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = pc() - t0
                depth[0] = 0
                parent = stack[-1]
                parent[0] += dur
                by_parent[parent[1]] += dur

        return wrapped

    def project(self, fn, sets_mod, site=None):
        counts, selfs, incls, stack = self.counts, self.self_s, self.incl_s, self._stack
        halfspace, ball = sets_mod.Halfspace, sets_mod.Ball
        p_op, p_branch, p_start, p_dur = self.proj_op, self.proj_branch, self.proj_start, self.proj_dur
        pc = time.perf_counter

        def wrapped(s, x, *args, **kwargs):
            counts["sets.project"] += 1
            if site is not None:
                counts[site] += 1
            n_newton, n_penalty, n_dense = counts["sets.newton"], counts["sets.penalty"], counts["sets.dense"]
            frame = [0.0, "sets.project"]
            stack.append(frame)
            t0 = pc()
            try:
                y = fn(s, x, *args, **kwargs)
            finally:
                dur = pc() - t0
                stack.pop()
                selfs["sets.project"] += dur - frame[0]
                incls["sets.project"] += dur
                stack[-1][0] += dur
            hint = s.analytic_hint
            if y == tuple(float(v) for v in x):
                branch = _FEASIBLE
            elif isinstance(hint, halfspace):
                branch = _HALFSPACE
            elif isinstance(hint, ball):
                branch = _BALL
            elif counts["sets.penalty"] != n_penalty:
                branch = _PENALTY
            elif counts["sets.newton"] != n_newton:
                branch = _NEWTON
                self.dense_in_newton += counts["sets.dense"] - n_dense
            else:
                branch = _OTHER
            p_op.append(self._op)
            p_branch.append(branch)
            p_start.append(t0)
            p_dur.append(dur)
            return y

        return wrapped

    def newton(self, fn):
        inner = self.span("sets.newton", fn)
        counts = self.counts

        def wrapped(*args, **kwargs):
            y = inner(*args, **kwargs)
            if y is None:
                counts["sets.newton.abandoned"] += 1
            return y

        return wrapped

    def write_trace(self, fn):
        inner = self.span("cli.write_trace", fn)

        def wrapped(trace, path):
            self.rows_written += len(trace.ks)
            return inner(trace, path)

        return wrapped

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self):
        from cycproj import analysis, catalog, cli, engine, poly, sets

        P = poly.Polynomial
        for name in ("evaluate", "gradient", "hessian_rows"):
            self._patch(P, name, self.poly_kernel(f"poly.{name}", getattr(P, name)))
        self._patch(sets, "_kkt_newton", self.newton(sets._kkt_newton))
        for name, key in (("_project_penalty", "sets.penalty"), ("_solve_dense", "sets.dense"),
                          ("_penalty_value_grad", "sets.penalty_objective")):
            self._patch(sets, name, self.span(key, getattr(sets, name)))
        project = sets.project
        self._patch(sets, "project", self.project(project, sets))
        self._patch(catalog, "project", self.project(project, sets))
        self._patch(engine, "project", self.project(project, sets, site="engine.steps"))
        for mod in (sets, analysis):
            self._patch(mod, "distance", self.span("sets.distance", mod.distance))
        for mod in (engine, analysis, cli):
            self._patch(mod, "residual", self.span("sets.residual", mod.residual))
        self._patch(engine, "_run_steps", self.span("engine.driver", engine._run_steps))
        self._patch(analysis, "_run_steps",
                    self.span("engine.driver", analysis._run_steps, extra="analysis.refine_runs"))
        for name in ("cyclic_project", "alternating_project", "check_descent_inequality"):
            self._patch(cli, name, self.span("engine.api", getattr(cli, name)))
        self._patch(cli, "main", self.span("cli.main", cli.main))
        for name in ("cmd_run", "cmd_rate", "cmd_errorbound", "cmd_replicate"):
            self._patch(cli, name, self.span(f"cli.{name}", getattr(cli, name)))
        self._patch(cli, "write_trace", self.write_trace(cli.write_trace))
        for name in ("read_trace", "load_problem"):
            self._patch(cli, name, self.span(f"cli.{name}", getattr(cli, name)))
        for name in ("compare_with_theory", "error_bound_probe", "error_bound_exponent_on_curve",
                     "fit_geometric_rate", "_dist_to_intersection"):
            self._patch(analysis, name, self.span(f"analysis.{name}", getattr(analysis, name)))
        self._patch(catalog, "get_entry", self.span("catalog.get_entry", catalog.get_entry))
        for name in ("alpha_after", "alpha_step", "power_chain_step"):
            self._patch(catalog, name, self.span("catalog.scalar_recurrence", getattr(catalog, name)))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def _module_self(self, module):
        total = sum((v for k, v in self.self_s.items() if k.split(".")[0] == module), 0.0)
        if module == "poly":
            total += sum(self.poly_by_parent.values())
        return total

    def branch_durations(self):
        out = {b: [] for b in BRANCHES}
        for b, d in zip(self.proj_branch, self.proj_dur):
            out[BRANCHES[b]].append(d)
        return out

    def metrics(self):
        """Per-layer metrics, named as in BENCHMARK.json (totals over the traced ops)."""
        c, incl = self.counts, self.incl_s
        m = {
            "poly.evaluate.calls": (c["poly.evaluate"], "count"),
            "poly.gradient.calls": (c["poly.gradient"], "count"),
            "poly.hessian_rows.calls": (c["poly.hessian_rows"], "count"),
            "sets.project.calls": (c["sets.project"], "count"),
            "sets.project.self_s": (self.self_s["sets.project"], "s"),
            "sets.residual.calls": (c["sets.residual"], "count"),
        }
        durations = self.branch_durations()
        for b in BRANCHES[:-1]:
            m[f"sets.branch.{b}.calls"] = (len(durations[b]), "count")
        for b in ("halfspace", "ball", "newton", "penalty"):
            d = durations[b]
            m[f"sets.branch.{b}.us_p50"] = (statistics.median(d) * 1e6 if d else 0.0, "us")
        n_newton = len(durations["newton"])
        m["sets.dense_solves_per_newton"] = (self.dense_in_newton / n_newton if n_newton else 0.0, "ratio")
        attempts = c["sets.newton"]
        m["sets.newton_abandoned_ratio"] = (c["sets.newton.abandoned"] / attempts if attempts else 0.0, "ratio")
        m["sets.penalty_objective_evals"] = (c["sets.penalty_objective"], "count")
        steps = c["engine.steps"]
        m["engine.steps"] = (steps, "count")
        m["engine.us_per_step"] = (incl["engine.driver"] / steps * 1e6 if steps else 0.0, "us")
        m["cli.write_trace_s"] = (incl["cli.write_trace"], "s")
        m["cli.read_trace_s"] = (incl["cli.read_trace"], "s")
        m["cli.trace_rows"] = (self.rows_written, "count")
        m["cli.load_problem_s"] = (incl["cli.load_problem"], "s")
        m["analysis.compare_with_theory_s"] = (incl["analysis.compare_with_theory"], "s")
        m["analysis.error_bound_probe.self_s"] = (self.self_s["analysis.error_bound_probe"], "s")
        m["analysis.refine_runs"] = (c["analysis.refine_runs"], "count")
        m["catalog.get_entry_s"] = (incl["catalog.get_entry"], "s")
        m["catalog.scalar_recurrence_s"] = (incl["catalog.scalar_recurrence"], "s")
        for module in MODULES:
            m[f"{module}.self_s"] = (self._module_self(module), "s")
        return m

    def spans(self):
        """Op spans and projection spans, times in microseconds from the first op."""
        t0 = self.op_spans[0][1] if self.op_spans else 0.0
        return {
            "ops": [{"op": i, "start_us": round((s - t0) * 1e6, 1), "dur_us": round((e - s) * 1e6, 1)}
                    for i, s, e in self.op_spans],
            "projections": {
                "branches": list(BRANCHES),
                "op": list(self.proj_op),
                "branch": list(self.proj_branch),
                "start_us": [round((s - t0) * 1e6, 1) for s in self.proj_start],
                "dur_us": [round(d * 1e6, 2) for d in self.proj_dur],
            },
            "poly_s_by_parent": dict(self.poly_by_parent),
        }
