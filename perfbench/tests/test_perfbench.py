"""Tests of the benchmark itself: inputs, metric names, and smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from cycproj import catalog, cli  # noqa: E402
from cycproj.sets import residual  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEEDS = range(40)


def bench_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def op_inputs(seed, index):
    doc, center, sample_seed = inputs.probe_problem(seed, index)
    return (
        inputs.fmt_point(inputs.disks_start(seed, index)),
        [inputs.fmt_point(p) for p in inputs.quartic_starts(seed, index)],
        inputs.problem_json(doc),
        inputs.fmt_point(center),
        sample_seed,
    )


def test_same_seed_gives_byte_identical_inputs():
    for seed in (0, 1, 7, 12345):
        for index in range(4):
            assert op_inputs(seed, index) == op_inputs(seed, index)
    assert op_inputs(1, 0) != op_inputs(2, 0)
    assert op_inputs(1, 0) != op_inputs(1, 1)


def test_starts_lie_outside_their_sets():
    ex55 = catalog.get_entry("ex5.5").problem.sets
    ex58 = catalog.get_entry("ex5.8:n=3").problem.sets
    ex57 = catalog.get_entry("ex5.7:d=4").problem.sets
    for seed in SEEDS:
        for index in range(3):
            p = inputs.disks_start(seed, index)
            assert abs(p[0] ** 2 + p[1] ** 2 - 4.0) < 1e-12
            assert all(inputs.disk_value(p, c) >= inputs.START_MARGIN for c in inputs.DISK_CENTERS)
            assert all(residual(s, p) > 0.0 for s in ex55)
            p58, p57 = inputs.quartic_starts(seed, index)
            assert all(inputs.quartic_ball_value(p58, c) >= inputs.START_MARGIN for c in inputs.QUARTIC_CENTERS)
            assert all(residual(s, p58) > 0.0 for s in ex58)
            assert min(inputs.power_region_values(p57)) > 0.0
            assert all(residual(s, p57) > 0.0 for s in ex57)


def test_probe_centers_are_feasible_with_margin():
    for seed in SEEDS:
        for index in range(3):
            doc, center, _ = inputs.probe_problem(seed, index)
            assert inputs.center_margin(doc, center) <= -inputs.CENTER_MARGIN
            problem = cli.problem_from_dict(doc)
            assert problem.intersection_oracle is None
            assert [len(s.constraints) for s in problem.sets] == [2, 2, 1]
            assert all(residual(s, center) == 0.0 for s in problem.sets)


def test_probe_cycles_through_the_shape_pool():
    for seed in (0, 5):
        shapes = {inputs.probe_problem(seed, i)[2] for i in range(inputs.PROBE_SHAPES)}
        assert len(shapes) == inputs.PROBE_SHAPES
        assert inputs.probe_problem(seed, 0)[2] == inputs.probe_problem(seed, inputs.PROBE_SHAPES)[2]


def test_benchmark_json_names():
    doc = bench_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.SPECS)
    assert doc["paths"] == ["perfbench"]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_one_op_of_each_workload_passes_its_checks(tmp_path, name):
    op = worker.run_op(workloads.SPECS[name], cli, str(tmp_path), 3, 0)
    assert op["failures"] == []
    assert all(c["rc"] == 0 for c in op["cmds"])
    assert op["s"] > 0.0 and op["digests"]


def traced_counts(tmp_path):
    spec = workloads.SPECS["probe_scatter"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = [worker.run_op(spec, cli, str(tmp_path), 4, i, tracer) for i in range(2)]
    finally:
        tracer.uninstall()
    assert all(not op["failures"] for op in ops)
    return dict(tracer.counts), tracer.metrics()


def test_traced_counts_repeat_exactly(tmp_path):
    counts_a, metrics = traced_counts(tmp_path)
    counts_b, _ = traced_counts(tmp_path)
    assert counts_a == counts_b
    assert metrics["sets.branch.penalty.calls"][0] > 0
    assert metrics["engine.steps"][0] > 0
    # uninstall puts the originals back
    from cycproj import engine, poly, sets

    assert engine.project is sets.project and sets.project.__qualname__ == "project"
    assert poly.Polynomial.evaluate.__qualname__ == "Polynomial.evaluate"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_probe_run_prints_the_declared_metrics(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe_scatter", "--seed", "2", "--seconds", "0",
         "--trace", trace], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_fails_without_the_sources(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's own files
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe_scatter", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=180
    )
    assert out.returncode != 0
    assert out.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]
