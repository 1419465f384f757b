"""Self-tests of the benchmark: determinism digest, hook guard, bare checkout.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

Runs each workload for its minimum number of operations (``--seconds 0``);
the whole file takes about two minutes on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def details(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_and_matches_traced_run(workload):
    first, result = details(run(workload, 7, 0))
    second, _ = details(run(workload, 7, 0))
    traced, traced_result = details(run(workload, 7, 1))
    assert result["correct"] and traced_result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert first["digest"] == second["digest"]
    assert traced["digest"] == traced["untraced_digest"] == first["digest"]


def test_other_seed_gives_other_digest():
    assert details(run("classify", 7, 0))[0]["digest"] != details(run("classify", 8, 0))[0]["digest"]


def test_hook_guard_names_missing_entry_point(monkeypatch):
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    from mixent import entropy

    monkeypatch.delattr(entropy, "_knn_value")
    with pytest.raises(spans.HookMissing, match="mixent.entropy._knn_value"):
        spans.install(spans.Tracer())


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("classify", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
