"""Benchmark entry point for mixent.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every measurement happens in a fresh
worker process (``worker.py``), so import time and peak memory belong to the
run.  With ``--trace 0`` two set-up-only workers and one measuring worker
run in turn; the end-to-end metrics are printed.  With ``--trace 1`` one
worker runs every operation untraced and then again with span hooks
installed; the per-layer metrics are printed.  Metric names and units come
from ``BENCHMARK.json``.

Earlier lines of standard output record the environment and details such as
the digest and sample counts; the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 2  # extra set-up-only workers; setup_s is the median of 3
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(BENCH_DIR))
from spans import HOOKS  # noqa: E402  (standard library only)


class BenchError(RuntimeError):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def thread_env(nproc: int) -> tuple[dict, dict]:
    """Worker environment with every BLAS/OpenMP thread count at most nproc.

    Unset counts are pinned to nproc; a configured count above nproc is
    refused.
    """
    env = dict(os.environ)
    record = {}
    for var in THREAD_VARS:
        value = env.get(var)
        if value is None:
            env[var] = str(nproc)
            record[var] = f"unset, pinned to {nproc}"
            continue
        try:
            count = int(value)
        except ValueError:
            raise BenchError(f"{var}={value!r} is not a thread count", 2) from None
        if count > nproc:
            raise BenchError(f"{var}={count} exceeds nproc={nproc}; refusing to run", 2)
        record[var] = value
    return env, record


def spawn(args, mode: str, workdir: Path, env: dict, deadline: float) -> tuple[dict, float]:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir)]
    start = time.perf_counter()
    # A session of its own, so that a worker that overruns is killed
    # together with any verb process it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker exceeded the time limit", 4) from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}", proc.returncode)
    report = json.loads(out.decode().strip().splitlines()[-1])
    return report, report["ready"] - start


def span_names() -> list[str]:
    names = ["cli.main"]
    for _, _, name, overrides, _ in HOOKS:
        names += [name, *overrides.values()]
    return names


def layer_metrics(workload: str, report: dict) -> dict:
    """Per-layer values, each per operation unless it is a ratio, a mean
    per call or a per-process time."""
    n = len(report["latencies"])
    agg = report["trace"]
    counters = agg["counters"]
    values = {}
    for name in span_names():
        calls = agg["calls"].get(name, 0)
        values[f"{name}.calls"] = calls / n
        values[f"{name}.busy_s"] = agg["busy"].get(name, 0.0) / n
        values[f"{name}.self_s"] = agg["self"].get(name, 0.0) / n
        values[f"{name}.us_per_call"] = agg["busy"].get(name, 0.0) / calls * 1e6 if calls else 0.0
        for key in ("points", "values", "bytes", "evals"):
            total = counters.get(f"{name}.{key}", 0.0)
            values[f"{name}.{key}"] = (total / calls if calls else 0.0) if key == "points" else total / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values["bse.sweeps"] = counters.get("bse.optimize_frame.sweeps", 0.0) / n
    values["bse.line_search.accept_ratio"] = ratio(
        counters.get("bse.line_search.accepted", 0.0), agg["calls"].get("bse.line_search", 0))
    values["bse.restarts.useful_ratio"] = ratio(
        counters.get("bse.restarts.useful", 0.0), counters.get("bse.restarts.total", 0.0))
    if workload == "cli":
        child = report["child"]
        values["cli.import_s"] = statistics.fmean(child["import_s"])
        values["cli.interpreter_s"] = statistics.fmean(
            w - i - m for w, i, m in zip(child["wall_s"], child["import_s"], child["main_s"]))
    else:
        values["cli.import_s"] = report["import_s"]
        values["cli.interpreter_s"] = 0.0
    values["trace.overhead_ratio"] = sum(report["latencies"]) / sum(report["untraced"]["latencies"])
    values["trace.top_span_coverage"] = statistics.median(report["coverage"])
    return values


def select(values: dict, specs: list) -> dict:
    out = {}
    for spec in specs:
        if spec["name"] not in values:
            raise BenchError(f"metric {spec['name']} is not measured", 5)
        out[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    return out


def measure(args, bench: dict, workdir: Path, env: dict) -> tuple[dict, dict, dict]:
    deadline = time.perf_counter() + TIME_LIMIT_S
    if args.trace:
        report, _ = spawn(args, "trace", workdir, env, deadline)
        untraced = report["untraced"]
        info = {"digest": report["digest"], "untraced_digest": untraced["digest"],
                "traced_ops": len(report["latencies"]), "notes": report["notes"],
                "failures": report["failures"]}
        result = {
            "correct": report["failed"] == 0 and untraced["failed"] == 0
            and report["digest"] == untraced["digest"],
            "attempted": len(report["latencies"]) + len(untraced["latencies"]),
            "failed": report["failed"] + untraced["failed"],
            "metrics": select(layer_metrics(args.workload, report), bench["per_layer"]),
        }
        return report["packages"], info, result

    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(spawn(args, "setup", workdir, env, deadline)[1])
    report, setup = spawn(args, "run", workdir, env, deadline)
    setups.append(setup)
    lat = report["latencies"]
    n = len(lat)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(lat),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }
    info = {"digest": report["digest"], "samples": n, "setup_samples_s": setups,
            "latency_p50_s": statistics.median(lat), "error_rate": report["failed"] / n,
            "notes": report["notes"], "failures": report["failures"]}
    if n >= 100:
        info["latency_p90_s"] = statistics.quantiles(lat, n=10)[-1]
    result = {"correct": report["failed"] == 0, "attempted": n, "failed": report["failed"],
              "metrics": select(values, bench["end_to_end"])}
    return report["packages"], info, result


def main() -> int:
    bench_file = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_file.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        if not (ROOT / "src" / "mixent" / "__init__.py").is_file():
            raise BenchError(f"no mixent sources under {ROOT / 'src'}", 2)
        nproc = len(os.sched_getaffinity(0))
        env, threads = thread_env(nproc)
        workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            packages, info, result = measure(args, bench, workdir, env)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return e.code
    print(json.dumps({"environment": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "threads": threads, "packages": packages,
    }}))
    print(json.dumps({"details": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
