"""``bench_record.py`` at the repository root, run on a one-second budget in a
copy of the files it needs, so that the runs write nothing into the checkout."""

import importlib.util
import json
import os
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_record_writes_a_bench_file(tmp_path):
    # perfbench/run.py writes under its working directory, which bench_record
    # sets to its own directory
    tree = tmp_path / "tree"
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), tree / name, ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("bench_record.py", "BENCHMARK.json"):
        shutil.copy(os.path.join(ROOT, name), tree / name)
    spec = importlib.util.spec_from_file_location("bench_record", tree / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    argv = ["--label", "smoke", "--seconds", "1"]
    assert bench_record.main(argv, workloads=["probe_scatter"], seeds=[1], out_dir=str(tmp_path)) == 0
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert doc["label"] == "smoke" and doc["settings"]["seeds"] == [1]
    assert {"python", "cpu_model", "nproc", "git_commit", "source_digest"} <= set(doc["environment"])
    entry = doc["workloads"]["probe_scatter"]
    assert entry["correct"] is True and entry["failed"] == 0
    for name in ("op_s", "setup_s", "peak_rss_mb"):
        assert entry[name]["median"] > 0 and entry[name]["iqr"] == 0.0
    assert entry["reference"]["digests"] and entry["reference"]["same_on_every_seed"]
    traced = entry["traced"]
    assert traced["correct"] is True and traced["metrics"]["sets.project.calls"] > 0


def _load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", os.path.join(ROOT, "bench_record.py"))
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    return bench_record


def test_source_digest_names_the_measured_sources(tmp_path):
    # two copies of one tree hash alike, whatever their directory and their
    # bytecode caches; a one-byte edit under src/ or perfbench/ changes it
    digest = _load_bench_record().source_digest
    copies = [tmp_path / "a", tmp_path / "b"]
    for tree in copies:
        for name in ("src", "perfbench"):
            shutil.copytree(os.path.join(ROOT, name), tree / name, ignore=shutil.ignore_patterns("__pycache__"))
    cache = copies[1] / "src" / "cycproj" / "__pycache__"
    cache.mkdir()
    (cache / "poly.cpython.pyc").write_bytes(b"\0")
    (copies[1] / "README.md").write_text("outside the hashed directories\n")
    assert digest(str(copies[0])) == digest(str(copies[1]))
    before = digest(str(copies[0]))
    assert len(before) == 64
    for name in ("src/cycproj/rates.py", "perfbench/run.py"):
        path = copies[0] / name
        data = path.read_bytes()
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        assert digest(str(copies[0])) != before
        path.write_bytes(data)
        assert digest(str(copies[0])) == before
