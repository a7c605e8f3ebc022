"""Record the benchmark of a source tree as ``BENCH_<label>.json``.

Run from the repository root:

    python3 bench_record.py --label polish_floor --also baseline=../parent

For each workload that ``BENCHMARK.json`` lists and each of ten fixed seeds,
the script runs ``perfbench/run.py --trace 0`` as a subprocess in each tree,
the trees in turn and the turn's first tree rotating from seed to seed, so
that a drift of the machine's speed falls on every tree alike.  It reads the
last two lines of each run, the detail record and the result.  Then it runs
one traced seed per workload and tree for the per-layer metrics.  Every run
lasts ``BENCHMARK.json``'s ``run_seconds`` unless ``--seconds`` gives a
shorter one for a quick check.  Each tree gets one file at the repository
root: the environment, and per workload the median and interquartile range
over seeds of ``op_s``, ``setup_s`` and ``peak_rss_mb``, each seed's values,
the traced seed's per-layer metrics and the reference op's digests.  The
environment holds the tree's ``source_digest`` next to its ``git_commit``, so
that a file recorded from a copy without git history names its sources too.
``perfbench/`` itself is run as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.abspath(__file__))
END_TO_END = ("op_s", "setup_s", "peak_rss_mb")
SEEDS = list(range(51, 61))
TRACE_SEED = 1  # the seed of the traced runs that CI checks


def run_bench(tree: str, workload: str, seed: int, seconds: float, trace: int):
    """(detail, result) of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def source_digest(tree: str) -> str:
    """SHA-256 over the files of ``tree``'s ``src/`` and ``perfbench/`` in
    sorted path order, each as ``<path>\\0<size>\\0`` and then its bytes, the
    path relative to ``tree`` with ``/`` separators; ``__pycache__``
    directories are skipped.  Hashing an export of a commit, such as ``git
    archive``'s, the same way checks a BENCH file against that commit."""
    paths = []
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(os.path.join(tree, top)):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            paths += [os.path.relpath(os.path.join(root, f), tree).replace(os.sep, "/") for f in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        with open(os.path.join(tree, path), "rb") as fh:
            data = fh.read()
        digest.update(f"{path}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def spread(values):
    """Median, quartiles and interquartile range of the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def record(trees, workloads, seeds, seconds):
    """{label: BENCH document} for the (label, directory) pairs ``trees``."""
    runs = {label: {w: [] for w in workloads} for label, _ in trees}
    environments = {label: [] for label, _ in trees}
    for w in workloads:
        for i, seed in enumerate(seeds):
            for label, tree in trees[i % len(trees):] + trees[: i % len(trees)]:
                detail, result = run_bench(tree, w, seed, seconds, 0)
                environments[label].append(detail["environment"])
                metrics = {name: result["metrics"][name]["value"] for name in END_TO_END}
                runs[label][w].append({"seed": seed, **metrics, "correct": result["correct"],
                                       "failed": result["failed"], "reference": detail["reference_op"]})
                print(f"{label} {w} seed {seed}: op_s {metrics['op_s']:.4f}", file=sys.stderr)
    docs = {}
    for label, tree in trees:
        doc = {
            "label": label,
            "environment": {**environments[label][0], "source_digest": source_digest(tree)},
            "loadavg_1m": [min(min(e["loadavg_1m_before"], e["loadavg_1m_after"]) for e in environments[label]),
                           max(max(e["loadavg_1m_before"], e["loadavg_1m_after"]) for e in environments[label])],
            "settings": {"seeds": seeds, "seconds": seconds, "trace_seed": TRACE_SEED,
                         "recorded_with": [other for other, _ in trees]},
            "workloads": {},
        }
        for w in workloads:
            per_seed = runs[label][w]
            refs = [r.pop("reference") for r in per_seed]
            entry = {name: spread([r[name] for r in per_seed]) for name in END_TO_END}
            entry.update(
                correct=all(r["correct"] for r in per_seed),
                failed=sum(r["failed"] for r in per_seed),
                seeds=per_seed,
                reference={"digests": refs[0]["digests"],
                           "matches_reference": refs[0]["matches_reference"],
                           "same_on_every_seed": all(r["digests"] == refs[0]["digests"] for r in refs)},
            )
            _, traced = run_bench(tree, w, TRACE_SEED, seconds, 1)
            entry["traced"] = {"seed": TRACE_SEED, "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
            doc["workloads"][w] = entry
        docs[label] = doc
    return docs


def main(argv=None, workloads=None, seeds=SEEDS, out_dir=ROOT) -> int:
    """Record the trees of ``argv``; ``workloads`` defaults to those of
    ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    ap = argparse.ArgumentParser(description="record the benchmark as BENCH_<label>.json")
    ap.add_argument("--label", required=True, help="label of this tree's file")
    ap.add_argument("--also", action="append", default=[], metavar="LABEL=DIR",
                    help="another checkout, recorded in turn with this one (repeatable)")
    ap.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                    help="budget of each run (default: BENCHMARK.json's run_seconds)")
    args = ap.parse_args(argv)
    trees = [(args.label, ROOT)]
    for spec in args.also:
        label, sep, tree = spec.partition("=")
        if not sep or not label or not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            ap.error(f"--also {spec!r}: expected LABEL=DIR of a checkout with perfbench/run.py")
        trees.append((label, os.path.abspath(tree)))
    if len({label for label, _ in trees}) != len(trees):
        ap.error("labels must differ")
    if workloads is None:
        workloads = [w["name"] for w in benchmark["workloads"]]
    for label, doc in record(trees, workloads, list(seeds), args.seconds).items():
        path = os.path.join(out_dir, f"BENCH_{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(path)
    return 0

if __name__ == "__main__":
    sys.exit(main())
