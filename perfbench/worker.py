"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py``, never by hand.  Modes:

* ``setup``: set up and exit; the parent takes the time to the ready mark.
* ``run``: set up, then issue operations one after another for ``--seconds``
  with tracing off.
* ``trace``: for ``--seconds``, run every operation untraced and then again
  with the span hooks installed.

The last line of standard output is one JSON object for the parent.  Times
are ``time.perf_counter()`` readings, which on Linux come from the
system-wide monotonic clock and so compare across processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


class Pass:
    """Latencies, failures and the digest of one sequence of operations."""

    def __init__(self):
        self.latencies, self.failed, self.failures, self.seen = [], 0, [], {}
        self.digest = hashlib.sha256()

    def run(self, wl, i: int, tracer=None) -> None:
        """Time operation ``i``, then check it; with a tracer the span hooks
        are installed for the operation alone."""
        if tracer is not None:
            patched = spans.install(tracer)
            wl.tracer = tracer
            if wl.in_process:
                tracer.open("op", root=True)
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
            error = None
        except Exception as e:  # a failed operation is counted and the run goes on
            out, error = None, f"{type(e).__name__}: {e}"
        self.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            if wl.in_process:
                tracer.close()
            wl.tracer = None
            spans.uninstall(patched)
        if error is None:
            ok, data = wl.check(i, out)
            if tracer is not None:
                wl.observe(out, tracer)
            if self.seen.setdefault(i % wl.pool, data) != data:
                ok, error = False, "output differs from an earlier run of the same input"
            if i < wl.min_ops:
                self.digest.update(hashlib.sha256(data).digest())
            if not ok:
                error = error or "correctness check failed"
        if error is not None:
            self.failed += 1
            self.failures.append(f"op {i}: {error}")

    def report(self) -> dict:
        return {"latencies": self.latencies, "failed": self.failed,
                "failures": self.failures[:5], "digest": self.digest.hexdigest()}


def run_loop(wl, seconds: float, tracer=None):
    """Issue operations until ``seconds`` have passed, checked every
    ``wl.round`` operations and never before ``wl.min_ops``.

    With a tracer every operation runs twice, untraced and then traced, so
    that a drift in machine speed affects both sides of the tracing
    overhead alike.  Returns the untraced and the traced pass.
    """
    plain, traced = Pass(), Pass()
    start = time.perf_counter()
    i = 0
    while not (i >= wl.min_ops and i % wl.round == 0
               and time.perf_counter() - start >= seconds):
        plain.run(wl, i)
        if tracer is not None:
            traced.run(wl, i, tracer)
        i += 1
    return plain.report(), traced.report()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import mixent.cli  # noqa: F401  (timed: the import every verb pays)
    import_s = time.perf_counter() - t0
    import mixent
    if Path(mixent.__file__).resolve().parent != BENCH_DIR.parent / "src" / "mixent":
        print(f"perfbench: mixent imported from {mixent.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    import numpy as np
    import scipy
    from workloads import WORKLOADS

    if args.mode == "trace":
        try:
            spans.resolve()
        except spans.HookMissing as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 3
    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    report = {"ready": time.perf_counter(), "import_s": import_s}
    if args.mode == "run":
        report.update(run_loop(wl, args.seconds)[0])
    elif args.mode == "trace":
        tracer = spans.Tracer()
        untraced, traced = run_loop(wl, args.seconds, tracer)
        report.update(traced)
        report["untraced"] = untraced
        report["trace"] = tracer.to_dict()
        report["coverage"] = tracer.coverage
        if args.workload == "cli":
            report["child"] = {"import_s": wl.child_import_s, "main_s": wl.child_main_s,
                               "wall_s": wl.child_wall_s}
    report["notes"] = wl.notes
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report["packages"] = {"numpy": np.__version__, "scipy": scipy.__version__,
                          "blas": blas.get("name"), "blas_version": blas.get("version"),
                          "blas_config": blas.get("openblas configuration")}
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_kb"] = usage + children
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
