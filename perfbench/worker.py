"""Benchmark worker: one fresh, single-threaded process hosting cycproj.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports cycproj, loads the workload's problem (catalog entry or
problem file) and notes the time it became ready.  With ``--mode setup`` it
stops there.  Otherwise it runs the reference op untimed, as a warm-up whose
output digests are compared with ``reference.json``, and then:

* ``--trace 0``: runs ops of the seed's sequence until ``--seconds`` have
  passed, at least MIN_OPS of them;
* ``--trace 1``: runs the first ``trace_ops`` ops untraced, the same ops again
  under :class:`tracing.Tracer`, and measures trace memory per record.

Each op calls ``cycproj.cli.main`` in process, one command line at a time,
with standard output captured.  The last line printed is a JSON record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
import tracemalloc

import speed
import workloads

MIN_OPS = 3
REFERENCE_SEED = 0  # op 0 of this seed is the reference op


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def call_main(cli, argv) -> int:
    try:
        return cli.main(argv)
    except Exception:  # an uncaught error in the program fails the op
        traceback.print_exc()
        return -1


def run_op(spec, cli, work: str, seed: int, index: int, tracer=None) -> dict:
    """Run one op; time each command; check and digest the outputs.

    Each command's wall time is converted to reference seconds by the speed
    gauge (see ``speed.py``).
    """
    opdir = os.path.join(work, f"op-{seed}-{index}")
    os.makedirs(opdir)
    try:
        commands = spec.commands(opdir, seed, index)
        cmds, stdout, failures = [], {}, []
        if tracer is not None:
            tracer.begin_op(index)
        for cmd in commands:
            steps0 = tracer.counts["engine.steps"] if tracer is not None else 0
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc, wall, ref = speed.timed(lambda: call_main(cli, cmd.argv))
            steps = tracer.counts["engine.steps"] - steps0 if tracer is not None else 0
            cmds.append({"label": cmd.label, "wall_s": wall, "s": ref, "rc": rc, "steps": steps})
            stdout[cmd.label] = buf.getvalue()
            if rc != 0:
                failures.append(f"{cmd.label} exited {rc}")
        if tracer is not None:
            tracer.end_op()
        digests = {}
        if not failures:
            for cmd in commands:
                for path in cmd.outputs:
                    digests[os.path.basename(path)] = sha256_file(path)
                if not cmd.outputs:
                    digests[f"{cmd.label}.stdout"] = hashlib.sha256(stdout[cmd.label].encode()).hexdigest()
            try:
                failures += spec.check(opdir, stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failures.append(f"output check could not read the outputs: {exc!r}")
        return {
            "op": index,
            "s": sum(c["s"] for c in cmds),
            "wall_s": sum(c["wall_s"] for c in cmds),
            "cmds": cmds,
            "digests": digests,
            "failures": failures,
        }
    finally:
        shutil.rmtree(opdir, ignore_errors=True)


def run_timed(spec, cli, work: str, seed: int, seconds: float) -> list:
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        ops.append(run_op(spec, cli, work, seed, len(ops)))
    return ops


def trace_bytes_per_record(spec, cli, catalog, work: str, seed: int) -> float:
    """Memory held by a driver's trace, per recorded step (tracemalloc)."""
    from cycproj import engine

    problem, x0, sweeps = spec.trace_sample(cli, catalog, work, seed)
    # one untraced sweep first, so the polynomials' lazily built derivative
    # tables are not counted as trace memory
    engine.cyclic_project(problem, x0, max_sweeps=1, stop_tol=1e-300)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = engine.cyclic_project(problem, x0, max_sweeps=sweeps, stop_tol=1e-300)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(trace.ks)


def run_traced(spec, cli, catalog, work: str, seed: int, spans_path: str) -> dict:
    import tracing

    untraced = [run_op(spec, cli, work, seed, i) for i in range(spec.trace_ops)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [run_op(spec, cli, work, seed, i, tracer) for i in range(spec.trace_ops)]
    finally:
        tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans(), fh)
    layer = tracer.metrics()
    layer["engine.trace_bytes_per_record"] = (trace_bytes_per_record(spec, cli, catalog, work, seed), "B")
    return {
        "untraced": untraced,
        "traced": traced,
        "layer": layer,
        "counts": dict(tracer.counts),
        "poly_s_by_parent": dict(tracer.poly_by_parent),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    ap.add_argument("--src", required=True, help="directory the cycproj package must come from")
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)
    spec = workloads.SPECS[args.workload]

    import numpy

    import cycproj
    from cycproj import catalog, cli

    spec.load(cli, catalog, args.work)
    ready = time.monotonic()
    factor = speed.speed_factor()
    origin = os.path.dirname(os.path.dirname(os.path.abspath(cycproj.__file__)))
    if origin != os.path.abspath(args.src):
        print(f"worker: cycproj was imported from {origin}, not {args.src}", file=sys.stderr)
        return 1
    out = {"ready_monotonic": ready, "speed_factor": factor, "numpy": numpy.__version__}
    if args.mode == "run":
        out["reference"] = run_op(spec, cli, args.work, REFERENCE_SEED, 0)
        if args.trace:
            out.update(run_traced(spec, cli, catalog, args.work, args.seed, args.spans))
        else:
            out["ops"] = run_timed(spec, cli, args.work, args.seed, args.seconds)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
