"""cycproj benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload disks_trace --seed 1 --seconds 20 --trace 0

The script runs the workload in fresh single-threaded worker processes (see
``worker.py``), checks every op's outputs, and prints a detail record and then,
as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, measured with tracing off;
with ``--trace 1`` they are the per-layer ones from a traced run.  Inputs are
generated from ``--seed`` and written under ``.perfbench_work/``; the traced
run's spans go to ``.perfbench_out/``.  It exits non-zero without a result
when the cycproj sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 10  # setup-only processes per run, half before and half after the worker
DEADLINE_S = 170.0  # the whole run, including every child process


class BenchError(RuntimeError):
    pass


def hi_percentile(values):
    """(p, value) for the highest of p50/p90/p99 with at least ten samples
    above it (nearest rank), or None when there are too few samples."""
    xs = sorted(values)
    best = None
    for p in (50, 90, 99):
        rank = math.ceil(p / 100.0 * len(xs)) - 1
        if rank >= 0 and len(xs) - 1 - rank >= 10:
            best = (p, xs[rank])
    return best


def summary(values):
    hp = hi_percentile(values)
    return {
        "median": statistics.median(values),
        "p_hi": None if hp is None else {"p": hp[0], "value": hp[1]},
        "n": len(values),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(args, extra, env, deadline):
    """Start a worker; return (spawn time, speed factor just before, its JSON record)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    factor = speed.speed_factor()
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish before the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("worker printed no record")
    return spawned, factor, json.loads(lines[-1])


def setup_seconds(spawned, factor, record):
    """Process start to ready, in reference seconds."""
    return (record["ready_monotonic"] - spawned) * 0.5 * (factor + record["speed_factor"])


def cmd_seconds(op, label):
    return sum((c["s"] for c in op["cmds"] if c["label"] == label), 0.0)


def reference_match(workload, digests):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh).get(workload)
    return None if ref is None else ref == digests


def end_to_end(record, setup_samples):
    times = [op["s"] for op in record["ops"]]
    labels = sorted({c["label"] for op in record["ops"] for c in op["cmds"]})
    detail = {
        "op_s": summary(times),
        "op_wall_s": summary([op["wall_s"] for op in record["ops"]]),
        "setup_s": summary(setup_samples),
        "commands_s": {lb: summary([cmd_seconds(op, lb) for op in record["ops"]]) for lb in labels},
        "ops": [{"op": op["op"], "s": op["s"], "wall_s": op["wall_s"], "failures": op["failures"],
                 "digests": op["digests"]} for op in record["ops"]],
    }
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "op_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": record["maxrss_kb"] / 1024.0, "unit": "MB"},
    }
    return record["ops"], metrics, detail


def per_layer(record, spec):
    untraced, traced = record["untraced"], record["traced"]
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in record["layer"].items()}
    for label in ("run", "rate", "replicate", "errorbound"):
        metrics[f"cli.{label}_s"] = {"value": sum((cmd_seconds(op, label) for op in untraced), 0.0), "unit": "s"}
    run_s = metrics["cli.run_s"]["value"]
    run_steps = sum(c["steps"] for op in traced for c in op["cmds"] if c["label"] == "run")
    metrics["cli.run_steps_per_s"] = {"value": run_steps / run_s if run_s else 0.0, "unit": "1/s"}
    traced_s = statistics.median(op["s"] for op in traced)
    untraced_s = statistics.median(op["s"] for op in untraced)
    metrics["trace_overhead"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    detail = {
        "trace_ops": spec.trace_ops,
        "counts": record["counts"],
        "poly_s_by_parent": record["poly_s_by_parent"],
        "untraced_op_s": [op["s"] for op in untraced],
        "traced_op_s": [op["s"] for op in traced],
    }
    return untraced + traced, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cycproj benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cycproj", "__init__.py")):
        print("perfbench: src/cycproj not found; run from the repository root", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    env = child_env(src)
    environment = {
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_before": os.getloadavg()[0],
        "git_commit": git_commit(root),
    }
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".perfbench_work"))
    try:
        spec.setup_files(work, args.seed)
        common = ["--work", work, "--src", src]
        # the first probe also fills the bytecode cache and is not counted
        run_worker(args, common + ["--mode", "setup"], env, deadline)
        setup_samples = [setup_seconds(*run_worker(args, common + ["--mode", "setup"], env, deadline))
                         for _ in range(SETUP_PROBES // 2)]
        spans = None
        if args.trace:
            os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)
            spans = os.path.join(root, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.json")
            common += ["--spans", spans]
        spawned, factor, record = run_worker(args, common, env, deadline)
        setup_samples.append(setup_seconds(spawned, factor, record))
        setup_samples += [setup_seconds(*run_worker(args, common + ["--mode", "setup"], env, deadline))
                          for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        ops, metrics, detail = per_layer(record, spec)
        detail["spans_file"] = os.path.relpath(spans, root)
    else:
        ops, metrics, detail = end_to_end(record, setup_samples)
    ref = record["reference"]
    ops = ops + [ref]
    environment.update(numpy=record["numpy"], loadavg_1m_after=os.getloadavg()[0])
    failed = sum(1 for op in ops if op["failures"])
    detail.update(
        workload=args.workload,
        seed=args.seed,
        environment=environment,
        reference_op={"digests": ref["digests"], "failures": ref["failures"],
                      "matches_reference": reference_match(args.workload, ref["digests"])},
        failures=[{"op": op["op"], "failures": op["failures"]} for op in ops if op["failures"]],
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
