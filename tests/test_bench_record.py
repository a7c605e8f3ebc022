"""``bench_record.py`` at the repository root, run on a one-second budget."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_record_writes_a_bench_file(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", os.path.join(ROOT, "bench_record.py"))
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    argv = ["--label", "smoke", "--seconds", "1"]
    assert bench_record.main(argv, workloads=["probe_scatter"], seeds=[1], out_dir=str(tmp_path)) == 0
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert doc["label"] == "smoke" and doc["settings"]["seeds"] == [1]
    assert {"python", "cpu_model", "nproc", "git_commit"} <= set(doc["environment"])
    entry = doc["workloads"]["probe_scatter"]
    assert entry["correct"] is True and entry["failed"] == 0
    for name in ("op_s", "setup_s", "peak_rss_mb"):
        assert entry[name]["median"] > 0 and entry[name]["iqr"] == 0.0
    assert entry["reference"]["digests"] and entry["reference"]["same_on_every_seed"]
    traced = entry["traced"]
    assert traced["correct"] is True and traced["metrics"]["sets.project.calls"] > 0
