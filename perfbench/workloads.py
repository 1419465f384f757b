"""The four benchmark workloads: inputs, operations and correctness oracles.

Each workload builds its inputs from the workload seed alone (numpy Philox
streams owned by the benchmark, never the package's own samplers), so the
program under test sees only the generated inputs.  ``op(i)`` is the timed
operation; ``check(i, out)`` runs untimed afterwards and returns whether the
output is correct together with its canonical bytes for the determinism
digest.  Operation ``i`` uses input ``i % pool``; a repeated input must give
byte-identical output.

The package is called through module attributes (``bse.minimize_contrast``)
so that the span hooks installed by ``spans.install`` see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from mixent import bse, cli, distributions as dist, epi_lab, formats
from mixent import matrix_analysis as ma

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

STRICT_GAP = 0.5 * (1.0 - math.log(2.0))  # AVG second row / two-uniform sum
GAP_TOL_STRICT = 0.05  # criterion 4
GAP_TOL_EQUALITY = 0.03  # criterion 5
AVG = np.array([[1.0, 0.0, 0.0], [0.0, 2**-0.5, 2**-0.5]])
ROW = AVG[1:, 1:]  # one output row: the spacing estimator, same known gap


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


def haar(rng: np.random.Generator, n: int, complex_field: bool = False) -> np.ndarray:
    g = rng.standard_normal((n, n))
    if complex_field:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def invertible(rng: np.random.Generator, m: int, complex_field: bool = False) -> np.ndarray:
    while True:
        b = rng.standard_normal((m, m))
        if complex_field:
            b = b + 1j * rng.standard_normal((m, m))
        if abs(np.linalg.det(b)) >= 0.5:
            return b


def unit_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    s = math.sqrt(3.0)
    return rng.uniform(-s, s, n)


def disk(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))


def _plain(obj):
    """Exact, order-stable data for hashing: floats as hex, arrays as lists."""
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real).hex(), float(obj.imag).hex()]
    return obj


def canon(obj) -> bytes:
    return json.dumps(_plain(obj), sort_keys=True).encode()


def _extraction_canon(result, quality) -> dict:
    return {
        "demixer": result.demixer,
        "contrast": result.contrast_value,
        "restart_objectives": result.restart_objectives,
        "sweeps": result.sweeps,
        "best_restart": result.best_restart,
        "dominance": quality.dominance,
        "selected": quality.selected,
    }


def _count_restarts(tracer, result) -> None:
    objectives = np.asarray(result.restart_objectives)
    tracer.count("bse.restarts.useful", int(np.count_nonzero(objectives <= objectives.min() + 1e-3)))
    tracer.count("bse.restarts.total", objectives.size)


class Workload:
    """Base: ``min_ops`` operations always run and form the digest, the
    run-time limit is checked every ``round`` operations, and ``pool``
    distinct inputs are cycled."""

    min_ops = 1
    round = 1
    pool = 1
    tracer = None
    in_process = True
    notes: dict = {}

    def observe(self, out, tracer) -> None:
        """Record work counters from an output of a traced operation."""


class Extract(Workload):
    """``minimize_contrast`` on 20,000 x 4 observations, m=2, 5 restarts.

    Three unit-variance uniforms and one Gaussian under a Haar-orthogonal
    mix (the criterion 9 shape).  One operation is one extraction scored by
    ``separation_quality``.

    The source samples cycle through a fixed suite of ``SUITE`` draws, while
    the mix and the restart seed of every operation come from the workload
    seed.  Which 20k-point draw an extraction runs on moves its time far
    more (coefficient of variation 23% over draws, 7% over restart seeds on
    one draw), and a run holds only about six extractions, so common source
    draws, always run as whole suites, keep one run comparable with the next.
    """

    SUITE = 3
    SUITE_SEED = 0x5EED
    round = SUITE
    min_ops = SUITE
    pool = 6 * SUITE

    def __init__(self, seed: int, workdir: Path):
        suite = []
        for k in range(self.SUITE):
            rng = rng_for(self.SUITE_SEED, 1, k)
            suite.append(np.column_stack([unit_uniform(rng, 20_000) for _ in range(3)]
                                         + [rng.standard_normal(20_000)]))
        self.inputs = []
        for i in range(self.pool):
            rng = rng_for(seed, 1, i)
            M = haar(rng, 4)
            obs = bse.Observation.from_samples(suite[i % self.SUITE] @ M.T)
            self.inputs.append((obs, M, int(rng.integers(2**31))))
        rng = rng_for(seed, 1, 10_000)
        warm = bse.Observation.from_samples(
            np.column_stack([unit_uniform(rng, 2000), rng.standard_normal(2000)]))
        bse.minimize_contrast(warm, 1, seed=0, restarts=1)

    def op(self, i):
        obs, M, seed = self.inputs[i % self.pool]
        result = bse.minimize_contrast(obs, 2, seed=seed, restarts=5)
        return result, bse.separation_quality(result.demixer, M, threshold=0.95)

    def check(self, i, out):
        result, quality = out
        return quality.success, canon(_extraction_canon(result, quality))

    def observe(self, out, tracer) -> None:
        _count_restarts(tracer, out[0])


def _sign_population_weights():
    shapes = [(m, n) for m in range(1, 4) for n in range(m, 5)]
    weights = np.array([3.0 ** (m * n) for m, n in shapes])
    return shapes, weights / weights.sum()


def recoverable_oracle(mats: np.ndarray) -> list[tuple[int, ...]]:
    """Augmented-matrix SVD oracle (criterion 7): column j is recoverable
    iff appending e_j as a row leaves the rank unchanged."""
    k, m, n = mats.shape
    if m == n:
        return [tuple(range(n))] * k
    mask = np.zeros((k, n), dtype=bool)
    for j in range(n):
        row = np.broadcast_to(np.eye(n)[j], (k, 1, n)).astype(mats.dtype)
        aug = np.concatenate([mats, row], axis=1)
        mask[:, j] = np.linalg.svd(aug, compute_uv=False)[:, m] <= 1e-8
    return [tuple(int(j) for j in np.flatnonzero(row)) for row in mask]


def planted(rng: np.random.Generator, complex_field: bool) -> np.ndarray:
    """A full-rank matrix B0^-1 [[I_r, 0], [0, tail]] P^T with no zero column."""
    while True:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 5))
        r = int(rng.integers(0, m + 1)) if n == m else int(rng.integers(0, m))
        core = np.zeros((m, n), dtype=np.complex128 if complex_field else np.float64)
        core[:r, :r] = np.eye(r)
        if m > r:
            tail = rng.standard_normal((m - r, n - r))
            if complex_field:
                tail = tail + 1j * rng.standard_normal((m - r, n - r))
            core[r:, r:] = tail
        A = np.linalg.solve(invertible(rng, m, complex_field), core) @ np.eye(n)[rng.permutation(n)].T
        if np.linalg.matrix_rank(A) == m and np.all(np.abs(A).max(axis=0) >= 1e-12):
            return A


class Classify(Workload):
    """Scalar ``classify_components`` and ``canonical_form`` over chunks.

    A chunk holds 400 draws from the criterion 7 population (full-rank
    {-1, 0, 1} matrices, m <= 3, n <= 4, uniform over the population) for
    ``classify_components`` and 50 real plus 50 complex planted-structure
    matrices for ``canonical_form``.  One chunk is one operation.
    """

    min_ops = 24
    pool = 24
    SIGNS = 400
    PLANTED = 50

    def __init__(self, seed: int, workdir: Path):
        shapes, probs = _sign_population_weights()
        self.chunks = []
        for c in range(self.pool):
            rng = rng_for(seed, 2, c)
            counts = rng.multinomial(self.SIGNS * 3 // 2, probs)
            signs, oracle = [], []
            for (m, n), count in zip(shapes, counts):
                mats = rng.integers(-1, 2, size=(count, m, n)).astype(np.float64)
                if count:
                    mats = mats[np.linalg.svd(mats, compute_uv=False)[:, m - 1] > 1e-8]
                    signs.extend(mats)
                    oracle.extend(recoverable_oracle(mats))
            order = rng.permutation(len(signs))[: self.SIGNS]
            plants = [planted(rng, cf) for cf in (False, True) for _ in range(self.PLANTED)]
            plant_r = [len(recoverable_oracle(A[None])[0]) for A in plants]
            self.chunks.append(([signs[k] for k in order], [oracle[k] for k in order],
                                plants, plant_r))
        signs, _, plants, _ = self.chunks[0]
        for A in signs[:20]:
            ma.classify_components(A)
        for A in plants[:: self.PLANTED]:
            ma.canonical_form(A)

    def op(self, i):
        signs, _, plants, _ = self.chunks[i % self.pool]
        return ([ma.classify_components(A) for A in signs],
                [ma.canonical_form(A) for A in plants])

    def check(self, i, out):
        _, oracle, plants, plant_r = self.chunks[i % self.pool]
        classes, decs = out
        ok = all(c.recoverable == want for c, want in zip(classes, oracle))
        for A, dec, r in zip(plants, decs, plant_r):
            m, n = A.shape
            got = dec.B @ A @ np.eye(n)[:, dec.permutation]
            target = np.zeros_like(got)
            target[: dec.r, : dec.r] = np.eye(dec.r)
            target[dec.r :, dec.r :] = got[dec.r :, dec.r :]
            ok = ok and dec.r == r and float(np.abs(got - target).max()) <= 1e-10
        data = [[c.recoverable for c in classes],
                [[d.r, d.permutation, d.B, d.tail] for d in decs]]
        return ok, canon(data)


@dataclasses.dataclass(frozen=True)
class EpiCase:
    """One ``run_epi_trial`` op with its oracle: expected verdict and, where
    the true gap is known, the gap and its tolerance."""

    name: str
    config: epi_lab.EpiExperimentConfig
    verdict: str
    gap: float | None
    tol: float | None


class Verify(Workload):
    """Monte Carlo checks of the paper's claims, one round of 8 operations.

    Six ``run_epi_trial`` configs at 50k samples, one ``run_lemma2_sweep``
    and one complex-field extraction; every report is serialized through
    ``formats.canonical_json`` inside the operation, as ``verify-epi`` does.
    """

    ROUNDS = 8
    round = 8
    min_ops = 8
    pool = ROUNDS * 8

    def __init__(self, seed: int, workdir: Path):
        self.notes = {"equality_cases_judged_strict": 0,
                      "equality_cases_judged_violation_flag": 0}
        complex_extract = self._complex_extract()
        self.rounds = [self._round(seed, r) + [complex_extract] for r in range(self.ROUNDS)]
        rng = rng_for(seed, 3, 10_000)
        for A in (AVG, ROW):
            warm = epi_lab.EpiExperimentConfig(
                matrix=ma.MixingMatrix.from_array(A),
                sources=(dist.unit_variance_uniform(),) * A.shape[1], n_samples=1000, seed=0)
            formats.canonical_json(formats.epi_report_to_dict(epi_lab.run_epi_trial(warm)))
        obs = bse.Observation.from_samples(np.column_stack([disk(rng, 1000), disk(rng, 1000)]))
        bse.minimize_contrast(obs, 1, seed=0, restarts=1, max_sweeps=1)

    @staticmethod
    def _complex_extract():
        """The one complex extraction input, the same in every run.

        Its time varies with the disk draw (coefficient of variation 34%
        over eight draws), the mix and the restart seed (25% over eight),
        and a run holds only about four of them; with 2 restarts about one
        random input in 24 also ends below 0.95 dominance (see README).
        """
        rng = rng_for(Extract.SUITE_SEED, 3)
        M = haar(rng, 2, True)
        Z = np.column_stack([disk(rng, 3000), disk(rng, 3000)])
        return ("complex_extract", bse.Observation.from_samples(Z @ M.T), M)

    @staticmethod
    def _round(seed: int, r: int):
        rng = rng_for(seed, 3, r)
        U, G, CG = dist.unit_variance_uniform(), dist.gaussian(1.0), dist.circular_gaussian(1.0)
        D = dist.uniform_disk(1.0)
        # Known structures under a random invertible row transform, which
        # leaves the gap unchanged.
        core34 = np.zeros((3, 4))
        core34[0, 0] = core34[1, 1] = 1.0
        core34[2, 2:] = 2**-0.5
        A34 = invertible(rng, 3) @ core34
        core23 = np.array([[1.0, 0.0, 0.0], [0.0, 2**-0.5, 1j * 2**-0.5]])
        A23 = invertible(rng, 2, True) @ core23
        cases = [
            ("avg_strict", AVG, (U, U, U), "strict", STRICT_GAP, GAP_TOL_STRICT),
            ("real_equality", AVG, (U, G, G), "equality", 0.0, GAP_TOL_EQUALITY),
            ("complex_equality", np.array([[2**-0.5, 1j * 2**-0.5]]), (CG, CG),
             "equality", 0.0, GAP_TOL_EQUALITY),
            ("row_spacing", ROW, (U, U), "strict", STRICT_GAP, GAP_TOL_STRICT),
            ("real_3x4", A34, (dist.laplace(2**-0.5), U, U, U), "strict", None, None),
            ("complex_2x3", A23, (CG, D, D), "strict", None, None),
        ]
        ops = []
        for name, A, sources, verdict, gap, tol in cases:
            config = epi_lab.EpiExperimentConfig(
                matrix=ma.MixingMatrix.from_array(A), sources=sources,
                n_samples=50_000, seed=int(rng.integers(2**31)))
            ops.append(EpiCase(name, config, verdict, gap, tol))
        ops.append(("lemma_sweep", int(rng.integers(2**31))))
        return ops

    def op(self, i):
        case = self.rounds[(i // 8) % self.ROUNDS][i % 8]
        if isinstance(case, EpiCase):
            report = epi_lab.run_epi_trial(case.config)
            return report, formats.canonical_json(formats.epi_report_to_dict(report))
        if case[0] == "lemma_sweep":
            report = epi_lab.run_lemma2_sweep(1000, seed=case[1])
            return report, formats.canonical_json(dataclasses.asdict(report))
        _, obs, M = case
        result = bse.minimize_contrast(obs, 1, seed=0, restarts=2)
        quality = bse.separation_quality(result.demixer, M, threshold=0.95)
        out = formats.extraction_to_dict(result)
        out["separation"] = formats.quality_to_dict(quality)
        return (result, quality), formats.canonical_json(out)

    def check(self, i, out):
        case = self.rounds[(i // 8) % self.ROUNDS][i % 8]
        report, text = out
        if isinstance(case, EpiCase):
            # Criterion 5 judges equality by |gap| <= 0.03 alone.  Another
            # verdict than near_equality is counted in the notes, not failed:
            # the gap can stray beyond 3 standard errors (see README).
            ok = case.verdict == "equality" or report.verdict == "strict"
            if case.verdict == "equality" and report.verdict != "near_equality":
                self.notes[f"equality_cases_judged_{report.verdict}"] += 1
            if case.gap is not None:
                ok = ok and abs(report.gap - case.gap) <= case.tol
        elif case[0] == "lemma_sweep":
            ok = (report.violations == 0 and report.block_violations == 0
                  and report.equal_scale_max_abs_gap <= 1e-9)
        else:
            ok = min(report[1].dominance) >= 0.95 and report[1].success
        return ok, text.encode()

    def observe(self, out, tracer) -> None:
        if isinstance(out[0], tuple):
            _count_restarts(tracer, out[0][0])


class Cli(Workload):
    """A fixed sequence of ``mixent`` verbs, each as its own process.

    The console script is not assumed to be installed, so each verb runs as
    ``python -m mixent.cli`` with the checkout's ``src`` on the path, which
    runs the same ``main()``.  Input files are written during set-up.
    """

    round = 6
    min_ops = 6
    pool = 6
    in_process = False

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = rng_for(seed, 4)
        M = haar(rng, 4)
        s = math.sqrt(3.0)
        uniform = {"family": "uniform", "params": {"low": -s, "high": s}, "field": "real"}
        gauss = {"family": "gaussian", "params": {"sigma": 1.0, "mu": 0.0}, "field": "real"}
        self._json("sources.json", [uniform] * 3 + [gauss])
        self._json("mix.json", _matrix_dict(M))
        A = planted(rng, False)
        while A.shape != (3, 4):
            A = planted(rng, False)
        self._json("matrix.json", _matrix_dict(A))
        self._json("epi.json", {"matrix": _matrix_dict(AVG), "sources": [uniform] * 3,
                                "n_samples": 50_000, "seed": int(rng.integers(2**31))})
        X = np.column_stack([unit_uniform(rng, 20_000) for _ in range(3)]
                            + [rng.standard_normal(20_000)])
        _write_csv(self.dir / "mixed.csv", X @ M.T)
        _write_csv(self.dir / "scalar.csv", X[:, :1] + X[:, 1:2])
        _write_csv(self.dir / "pair.csv", X[:, :2] @ haar(rng, 2).T)
        run_seed = str(int(rng.integers(2**31)))
        self.verbs = [
            ("generate", ["generate", "--sources", "sources.json", "--n", "20000",
                          "--seed", run_seed, "--mix", "mix.json"]),
            ("analyze", ["analyze-matrix", "--input", "matrix.json"]),
            ("spacing", ["entropy", "--method", "spacing", "--input", "scalar.csv"]),
            ("knn", ["entropy", "--method", "knn", "--input", "pair.csv"]),
            ("verify", ["verify-epi", "--config", "epi.json"]),
            ("extract", ["extract", "--input", "mixed.csv", "--m", "2", "--seed", run_seed,
                         "--restarts", "1", "--truth-mix", "mix.json"]),
        ]
        self.expected: dict[str, bytes] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.child_import_s: list[float] = []
        self.child_main_s: list[float] = []
        self.child_wall_s: list[float] = []

    def _json(self, name: str, obj) -> None:
        (self.dir / name).write_text(json.dumps(obj))

    def op(self, i):
        tag, args = self.verbs[i % self.pool]
        out = self.dir / f"out-{tag}"
        if out.exists():
            out.unlink()
        argv = args + ["--out", out.name]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "mixent.cli", *argv]
        else:
            spans = self.dir / "spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), spans.name, *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.dir, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"{tag}: exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
        if self.tracer is not None:
            child = json.loads(spans.read_text())
            self.tracer.merge(child["trace"])
            self.tracer.coverage.append(child["main_s"] / wall)
            self.child_import_s.append(child["import_s"])
            self.child_main_s.append(child["main_s"])
            self.child_wall_s.append(wall)
        return out.read_bytes()

    def check(self, i, out):
        tag, args = self.verbs[i % self.pool]
        if tag not in self.expected:
            self.expected[tag] = self._in_process(tag, args)
        return out == self.expected[tag], out

    def _in_process(self, tag: str, args: list[str]) -> bytes:
        out = self.dir / f"expected-{tag}"
        cwd = os.getcwd()
        os.chdir(self.dir)
        try:
            code = cli.main(args + ["--out", out.name])
        finally:
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"in-process {tag} exited {code}")
        return out.read_bytes()


def _matrix_dict(A: np.ndarray) -> dict:
    rows, cols = A.shape
    if np.iscomplexobj(A):
        data = [[[float(x.real), float(x.imag)] for x in row] for row in A]
        return {"rows": rows, "cols": cols, "field": "complex", "data": data}
    return {"rows": rows, "cols": cols, "field": "real", "data": A.tolist()}


def _write_csv(path: Path, X: np.ndarray) -> None:
    header = ",".join(f"s{j + 1}" for j in range(X.shape[1]))
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in X)
    path.write_text(f"{header}\n{rows}\n")


WORKLOADS = {"extract": Extract, "classify": Classify, "verify": Verify, "cli": Cli}
