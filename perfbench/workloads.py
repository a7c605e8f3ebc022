"""The three perfbench workloads: the CLI commands of one op and their checks.

An op is a short sequence of ``cycproj`` command lines built from seeded
inputs.  ``commands`` writes the op's input files and returns the argument
lists; ``check`` reads the outputs afterwards and returns the failed checks.
Neither runs inside a timed region.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import List, Tuple

import inputs


@dataclass(frozen=True)
class Command:
    label: str
    argv: List[str]
    outputs: Tuple[str, ...] = ()  # files digested and checked after the op


def _last_rows(path: str, count: int) -> List[List[str]]:
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        fh.seek(max(0, fh.tell() - 4096))
        lines = fh.read().decode("utf-8").splitlines()
    return [line.split(",") for line in lines[-count:]]


def _data_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line[:1].isdigit())


@dataclass(frozen=True)
class DisksTrace:
    """ex5.5 tangent disks: one long ``run`` from a seeded start, then ``rate``.

    Ball hints make every projection closed-form, so the time goes to the
    engine's step loop, the residual evaluations, trace recording and the CSV
    writer and reader.  No projection takes the Newton or penalty branch.
    """

    name: str = "disks_trace"
    sweeps: int = 50_000
    window: Tuple[int, int] = (10_000, 100_000)
    exponent_band: Tuple[float, float] = (-0.52, -0.48)
    trace_ops: int = 2

    def setup_files(self, work: str, seed: int):
        pass

    def load(self, cli, catalog, work: str):
        return catalog.get_entry("ex5.5")

    def commands(self, opdir: str, seed: int, index: int) -> List[Command]:
        x0 = inputs.disks_start(seed, index)
        trace = os.path.join(opdir, "trace.csv")
        rate = os.path.join(opdir, "rate.json")
        return [
            Command("run", ["run", "--example", "ex5.5", f"--x0={inputs.fmt_point(x0)}",
                            "--sweeps", str(self.sweeps), "--stop-tol", "1e-300", "--out", trace], (trace,)),
            Command("rate", ["rate", "--trace", trace, "--n", "2", "--d", "2",
                             "--window", f"{self.window[0]}:{self.window[1]}", "--limit", "0,0",
                             "--out", rate], (rate,)),
        ]

    def check(self, opdir: str, stdout: dict) -> List[str]:
        rows = _data_rows(os.path.join(opdir, "trace.csv"))
        if rows != 2 * self.sweeps:
            return [f"trace has {rows} rows, expected {2 * self.sweeps}"]
        with open(os.path.join(opdir, "rate.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        fails = []
        if report["verdict"] != "CONSISTENT":
            fails.append(f"verdict {report['verdict']}")
        lo, hi = self.exponent_band
        exponent = report["power_fit"]["exponent"]
        if not lo <= exponent <= hi:
            fails.append(f"power exponent {exponent} outside [{lo}, {hi}]")
        return fails

    def trace_sample(self, cli, catalog, work: str, seed: int):
        """(problem, start, sweeps) for the bytes-per-record measurement."""
        return catalog.get_entry("ex5.5").problem, inputs.disks_start(seed, 0), min(self.sweeps, 5000)


@dataclass(frozen=True)
class QuarticNewton:
    """Cold single-constraint KKT Newton solves: ``run`` on the infeasible
    quartic pair ex5.8:n=3 and on ex5.7:d=4 (halfspace against the hinted
    power region), then ``replicate --all``.  Traces are short."""

    name: str = "quartic_newton"
    sweeps_ex58: int = 2000
    sweeps_ex57: int = 2000
    gap_tol: float = 1e-5  # |(b_K - a_K) - e1| at the last ex5.8 pair; about 2e-6 at 2000 sweeps
    trace_ops: int = 2

    def setup_files(self, work: str, seed: int):
        pass

    def load(self, cli, catalog, work: str):
        return catalog.get_entry("ex5.8:n=3"), catalog.get_entry("ex5.7:d=4")

    def commands(self, opdir: str, seed: int, index: int) -> List[Command]:
        p58, p57 = inputs.quartic_starts(seed, index)
        t58 = os.path.join(opdir, "ex58.csv")
        t57 = os.path.join(opdir, "ex57.csv")
        return [
            Command("run", ["run", "--example", "ex5.8:n=3", f"--x0={inputs.fmt_point(p58)}",
                            "--sweeps", str(self.sweeps_ex58), "--stop-tol", "1e-300", "--out", t58], (t58,)),
            Command("run", ["run", "--example", "ex5.7:d=4", f"--x0={inputs.fmt_point(p57)}",
                            "--sweeps", str(self.sweeps_ex57), "--stop-tol", "1e-300", "--out", t57], (t57,)),
            Command("replicate", ["replicate", "--all"]),
        ]

    def check(self, opdir: str, stdout: dict) -> List[str]:
        fails = []
        for name, sweeps in (("ex58.csv", self.sweeps_ex58), ("ex57.csv", self.sweeps_ex57)):
            rows = _data_rows(os.path.join(opdir, name))
            if rows != 2 * sweeps:
                fails.append(f"{name} has {rows} rows, expected {2 * sweeps}")
        a_row, b_row = _last_rows(os.path.join(opdir, "ex58.csv"), 2)
        if (a_row[1], b_row[1]) != ("0", "1"):
            fails.append("ex5.8 trace does not end on an (A, B) pair")
        gap = [float(b) - float(a) for a, b in zip(a_row[4:], b_row[4:])]
        dev = math.sqrt((gap[0] - 1.0) ** 2 + sum(g * g for g in gap[1:]))
        if not dev <= self.gap_tol:
            fails.append(f"ex5.8 gap deviates from e1 by {dev:.3e} > {self.gap_tol:g}")
        lines = [ln for ln in stdout.get("replicate", "").splitlines() if ln.strip()]
        if not lines or not all(ln.rstrip().endswith("PASS") for ln in lines):
            fails.append("replicate printed a line that is not PASS")
        return fails

    def trace_sample(self, cli, catalog, work: str, seed: int):
        p58, _ = inputs.quartic_starts(seed, 0)
        return catalog.get_entry("ex5.8:n=3").problem, p58, min(self.sweeps_ex58, 500)


@dataclass(frozen=True)
class ProbeScatter:
    """``errorbound`` on a generated problem without an intersection oracle:
    scattered samples, cold projections, cyclic refinement per sample, and the
    penalty ladder at the lens tips where both lens constraints are active."""

    name: str = "probe_scatter"
    samples: int = 200
    radius: float = 0.5
    trace_ops: int = 10

    def _problem_file(self, opdir: str, seed: int, index: int):
        """Write the op's problem file; return (path, center, sample seed)."""
        doc, center, sample_seed = inputs.probe_problem(seed, index)
        margin = inputs.center_margin(doc, center)
        if margin > -inputs.CENTER_MARGIN:
            raise ValueError(f"probe center is not feasible with margin (max constraint {margin})")
        path = os.path.join(opdir, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inputs.problem_json(doc))
        return path, center, sample_seed

    def setup_files(self, work: str, seed: int):
        self._problem_file(work, seed, 0)

    def load(self, cli, catalog, work: str):
        return cli.load_problem(os.path.join(work, "problem.json"))

    def commands(self, opdir: str, seed: int, index: int) -> List[Command]:
        problem, center, sample_seed = self._problem_file(opdir, seed, index)
        out = os.path.join(opdir, "errorbound.json")
        return [
            Command("errorbound", ["errorbound", "--problem", problem, f"--center={inputs.fmt_point(center)}",
                                   "--samples", str(self.samples), "--radius", repr(self.radius),
                                   "--seed", str(sample_seed), "--out", out], (out,)),
        ]

    def check(self, opdir: str, stdout: dict) -> List[str]:
        with open(os.path.join(opdir, "errorbound.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        fails = []
        if not isinstance(report["fitted_tau"], float) or not math.isfinite(report["fitted_tau"]):
            fails.append(f"fitted_tau {report['fitted_tau']!r} is not finite")
        if report["heuristic_distances"] is not True:
            fails.append("distances were not computed by refinement")
        if report["samples_used"] * 2 < self.samples:
            fails.append(f"only {report['samples_used']} of {self.samples} samples used")
        return fails

    def trace_sample(self, cli, catalog, work: str, seed: int):
        _, center, _ = inputs.probe_problem(seed, 0)
        problem = cli.load_problem(os.path.join(work, "problem.json"))
        return problem, (center[0] + self.radius, center[1] + self.radius), 200


SPECS = {spec.name: spec for spec in (DisksTrace(), QuarticNewton(), ProbeScatter())}

