"""Monte Carlo verification harness for the mixture entropy inequality.

For a mixing matrix A and independent sources X_j, the joint entropy of the
mixture A X is bounded below by the entropy of A X*, where X* replaces each
component by a Gaussian of equal entropy.  The bound holds with equality
exactly when every unrecoverable component present in the output is itself
Gaussian.

This module estimates the left side from samples, computes the right side in
closed form, and reports the gap with a verdict.  It also sweeps the
log-determinant concavity inequality for orthonormal-row matrices and checks
the transport-based expectation inequality underlying the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
from scipy.special import ndtri

from . import distributions as dist
from .complex_embedding import hat_embed
from .entropy import (
    EntropyEstimate,
    gaussian_mix_entropy,
    knn_entropy,
    spacing_entropy,
    surrogate_sigma,
)
from .errors import RankDeficient, UnsupportedFamily
from .matrix_analysis import (
    ComponentClassification,
    MixingMatrix,
    _check_orthonormal_rows,
    classify_components,
    log_concavity_gap,
    log_concavity_gap_blocks,
    rank_of,
)
from .rng import generator, uniform_open

__all__ = [
    "EstimatorSettings",
    "EpiExperimentConfig",
    "EpiReport",
    "EqualityCaseResult",
    "EqualitySuiteReport",
    "LemmaSweepReport",
    "run_epi_trial",
    "run_equality_suite",
    "run_lemma2_sweep",
    "expectation_inequality_check",
    "sample_sources",
]

_GAUSSIAN_FAMILIES = {"gaussian", "complex_circular_gaussian"}


@dataclass(frozen=True)
class EstimatorSettings:
    """Estimator choices shared by the experiment harness.

    ``tolerance_multiplier`` scales the gap standard error into the
    violation tolerance.
    """

    knn_k: int = 4
    spacing_m: int | None = None
    tolerance_multiplier: float = 3.0
    jitter_seed: int = 0


@dataclass(frozen=True)
class EpiExperimentConfig:
    """One mixture-entropy experiment.

    ``matrix`` is the mixing matrix, ``sources`` one model per column (all
    over the matrix field), ``n_samples`` at least 1000, ``trials`` the
    number of independent repetitions averaged into the report.
    """

    matrix: MixingMatrix
    sources: tuple[dist.SourceModel, ...]
    n_samples: int
    seed: int
    trials: int = 1
    estimator: EstimatorSettings = dc_field(default_factory=EstimatorSettings)

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        if len(self.sources) != self.matrix.cols:
            raise ValueError(
                f"need one source per column: {len(self.sources)} sources for {self.matrix.cols} columns"
            )
        for s in self.sources:
            if s.field != self.matrix.field:
                raise UnsupportedFamily(
                    f"source family {s.family!r} does not match the {self.matrix.field} matrix field"
                )
        if self.n_samples < 1000:
            raise ValueError("n_samples must be at least 1000")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class EpiReport:
    """Outcome of one experiment.

    ``verdict`` is ``"strict"``, ``"near_equality"``, or
    ``"violation_flag"``; a rank-deficient matrix short-circuits to the
    trivial equality (both sides minus infinity) with ``trivial=True`` and
    no sampling.  ``gap`` is the estimated lhs minus the closed-form rhs.
    """

    lhs: EntropyEstimate | None
    rhs: float | None
    gap: float | None
    gap_std_error: float | None
    per_trial_gaps: tuple[float, ...]
    tolerance: float | None
    verdict: str
    classification: ComponentClassification | None
    trivial: bool
    n_samples: int
    trials: int
    seed: int


def sample_sources(
    sources, n_samples: int, seed: int, trial: int = 0
) -> np.ndarray:
    """Sample an (n_samples, n) matrix, one column per source model.

    Column j of trial t uses the derived stream t * 2^20 + j, so trials and
    components are independent and reproducible.  All models must live over
    the same field (else ``UnsupportedFamily``).
    """
    sources = list(sources)
    if len({s.field for s in sources}) > 1:
        raise UnsupportedFamily("cannot sample models over mixed fields into one array")
    dtype = np.complex128 if sources[0].field == "complex" else np.float64
    out = np.empty((n_samples, len(sources)), dtype=dtype)
    for j, s in enumerate(sources):
        out[:, j] = dist.sample(s, n_samples, seed, stream=(trial << 20) | j)
    return out


def _estimate_mixture_entropy(Y: np.ndarray, field: str, est: EstimatorSettings) -> EntropyEstimate:
    if field == "complex":
        return knn_entropy(Y, k=est.knn_k, seed=est.jitter_seed)
    if Y.shape[1] == 1:
        return spacing_entropy(Y[:, 0], m=est.spacing_m)
    return knn_entropy(Y, k=est.knn_k, seed=est.jitter_seed)


def run_epi_trial(config: EpiExperimentConfig) -> EpiReport:
    """Estimate the mixture entropy gap and issue a verdict.

    The left side is estimated per trial (spacing for one real output row,
    k-nearest-neighbor jointly otherwise, complex data through the real
    embedding); the right side is the closed-form Gaussian mixture entropy
    with per-component surrogate scales.  The verdict flags a violation only
    when the gap falls below minus ``tolerance_multiplier`` standard errors.
    """
    A = config.matrix
    m = A.rows
    if rank_of(A.array) < m:
        # Some output coordinate is a deterministic function of the others,
        # so both sides of the bound are minus infinity.
        return EpiReport(
            lhs=None,
            rhs=float("-inf"),
            gap=None,
            gap_std_error=None,
            per_trial_gaps=(),
            tolerance=None,
            verdict="near_equality",
            classification=None,
            trivial=True,
            n_samples=config.n_samples,
            trials=config.trials,
            seed=config.seed,
        )

    classification = classify_components(A.array)
    sigmas = [
        surrogate_sigma(dist.exact_entropy(s), A.field).sigma for s in config.sources
    ]
    rhs = gaussian_mix_entropy(A, sigmas)

    est = config.estimator
    values = []
    errors = []
    method = None
    params: dict = {}
    for t in range(config.trials):
        X = sample_sources(config.sources, config.n_samples, config.seed, trial=t)
        Y = X @ A.array.T
        e = _estimate_mixture_entropy(Y, A.field, est)
        values.append(e.value)
        errors.append(e.std_error)
        method, params = e.method, e.params

    value = float(np.mean(values))
    se = math.sqrt(float(np.mean(np.square(errors))) / config.trials)
    if config.trials > 1:
        se = max(se, float(np.std(values, ddof=1)) / math.sqrt(config.trials))
    lhs = EntropyEstimate(
        value=value,
        method=method,
        n_samples=config.n_samples,
        params=params,
        std_error=se,
    )
    gap = value - rhs
    tolerance = est.tolerance_multiplier * se
    if gap < -tolerance:
        verdict = "violation_flag"
    elif gap <= tolerance:
        verdict = "near_equality"
    else:
        verdict = "strict"
    return EpiReport(
        lhs=lhs,
        rhs=float(rhs),
        gap=float(gap),
        gap_std_error=se,
        per_trial_gaps=tuple(float(v - rhs) for v in values),
        tolerance=float(tolerance),
        verdict=verdict,
        classification=classification,
        trivial=False,
        n_samples=config.n_samples,
        trials=config.trials,
        seed=config.seed,
    )


@dataclass(frozen=True)
class EqualityCaseResult:
    """One equality-suite entry: expectation, measured gap, and outcome."""

    expected: str
    gap: float
    std_error: float
    tolerance: float
    margin: float | None
    margin_provenance: dict | None
    verdict: str
    ok: bool


@dataclass(frozen=True)
class EqualitySuiteReport:
    """Results for a batch of equality and strict-gap expectations."""

    cases: tuple[EqualityCaseResult, ...]
    all_pass: bool


def _expectation_for(config: EpiExperimentConfig) -> str:
    cls = classify_components(config.matrix.array)
    tail = set(cls.present) - set(cls.recoverable)
    gaussian_tail = all(config.sources[j].family in _GAUSSIAN_FAMILIES for j in tail)
    return "equality" if gaussian_tail else "strict"


def run_equality_suite(configs, margins=None) -> EqualitySuiteReport:
    """Check equality where the unrecoverable tail is Gaussian, strictness
    elsewhere.

    Expectations are derived from the component classification: the gap
    should vanish (within tolerance) exactly when every present but
    unrecoverable component is Gaussian.  For strict cases a positive lower
    margin is required; pass one per config in ``margins`` where a closed
    form is known, otherwise half the gap of a larger pilot run is used and
    recorded in the result.
    """
    configs = list(configs)
    if margins is None:
        margins = [None] * len(configs)
    if len(margins) != len(configs):
        raise ValueError("need one margin (or None) per config")

    cases = []
    for config, margin in zip(configs, margins):
        expected = _expectation_for(config)
        report = run_epi_trial(config)
        provenance = None
        if expected == "strict":
            if margin is None:
                pilot_n = min(10 * config.n_samples, 200_000)
                pilot = run_epi_trial(
                    replace(config, n_samples=pilot_n, trials=1)
                )
                margin = pilot.gap / 2.0
                provenance = {
                    "method": "pilot",
                    "n_samples": pilot_n,
                    "pilot_gap": pilot.gap,
                }
            else:
                provenance = {"method": "provided"}
            ok = report.gap >= margin
        else:
            ok = abs(report.gap) <= report.tolerance
        cases.append(
            EqualityCaseResult(
                expected=expected,
                gap=report.gap,
                std_error=report.gap_std_error,
                tolerance=report.tolerance,
                margin=(None if expected == "equality" else float(margin)),
                margin_provenance=provenance,
                verdict=report.verdict,
                ok=bool(ok),
            )
        )
    return EqualitySuiteReport(cases=tuple(cases), all_pass=all(c.ok for c in cases))


@dataclass(frozen=True)
class LemmaSweepReport:
    """Statistics from a randomized log-concavity sweep."""

    count: int
    violations: int
    min_gap: float
    median_gap: float
    max_gap: float
    equal_scale_count: int
    equal_scale_max_abs_gap: float
    block_count: int
    block_violations: int
    block_min_gap: float
    threshold: float


def _haar_rows(rng: np.random.Generator, m: int, n: int, complex_field: bool) -> np.ndarray:
    if complex_field:
        G = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    else:
        G = rng.standard_normal((n, m))
    q, _ = np.linalg.qr(G)
    return q.conj().T


def run_lemma2_sweep(
    count: int,
    max_m: int = 5,
    max_n: int = 6,
    seed: int = 0,
    lam_range: tuple[float, float] = (0.1, 10.0),
) -> LemmaSweepReport:
    """Randomized sweep of the log-determinant concavity inequality.

    Each instance draws a shape (m, n) with 2 <= m < n <= max_n (and
    m <= max_m), a Haar orthonormal-row matrix, and positive scales from
    ``lam_range``, then records log det(Q L Q^T) - tr(Q log L Q^T), which
    must be nonnegative.  Two sub-sweeps run alongside: equal scales (gap
    identically zero) and 2x2-block scales through the complex embedding.
    """
    if not (2 <= max_m < max_n <= 8):
        raise ValueError("need 2 <= max_m < max_n <= 8")
    shapes = [
        (m, n) for n in range(3, max_n + 1) for m in range(2, min(max_m, n - 1) + 1)
    ]
    lo, hi = lam_range
    if not (0 < lo < hi):
        raise ValueError("lam_range must be increasing and positive")

    gaps = np.empty(count)
    for t in range(count):
        rng = generator(seed, t)
        m, n = shapes[int(rng.integers(len(shapes)))]
        Q = _haar_rows(rng, m, n, complex_field=False)
        lam = lo + (hi - lo) * rng.random(n)
        gaps[t] = log_concavity_gap(Q, lam)

    n_eq = max(1, count // 10)
    eq_gaps = np.empty(n_eq)
    for t in range(n_eq):
        rng = generator(seed, 1_000_000 + t)
        m, n = shapes[int(rng.integers(len(shapes)))]
        Q = _haar_rows(rng, m, n, complex_field=False)
        c = lo + (hi - lo) * rng.random()
        eq_gaps[t] = log_concavity_gap(Q, np.full(n, c))

    n_blk = max(1, count // 10)
    blk_gaps = np.empty(n_blk)
    for t in range(n_blk):
        rng = generator(seed, 2_000_000 + t)
        m, n = shapes[int(rng.integers(len(shapes)))]
        Qc = _haar_rows(rng, m, n, complex_field=True)
        blocks = []
        for _ in range(n):
            d = lo + (hi - lo) * rng.random(2)
            theta = (rng.random() - 0.5) * math.pi
            ct, st = math.cos(theta), math.sin(theta)
            R = np.array([[ct, -st], [st, ct]])
            blocks.append((R * d) @ R.T)
        blk_gaps[t] = log_concavity_gap_blocks(hat_embed(Qc), blocks)

    threshold = 1e-9
    return LemmaSweepReport(
        count=count,
        violations=int(np.count_nonzero(gaps < -threshold)),
        min_gap=float(gaps.min()),
        median_gap=float(np.median(gaps)),
        max_gap=float(gaps.max()),
        equal_scale_count=n_eq,
        equal_scale_max_abs_gap=float(np.abs(eq_gaps).max()),
        block_count=n_blk,
        block_violations=int(np.count_nonzero(blk_gaps < -threshold)),
        block_min_gap=float(blk_gaps.min()),
        threshold=threshold,
    )


def expectation_inequality_check(Q, targets, n_samples: int, seed: int) -> float:
    """Monte Carlo estimate of E[log det(Q T'(Z) Q^T)] for Z ~ N(0, I).

    ``Q`` must have orthonormal rows and every real target must be entropy
    matched to the standard normal (use
    :func:`mixent.distributions.match_entropy`); then the expectation is
    nonnegative.  T' is the diagonal of componentwise transport derivatives.

    Raises
    ------
    NotOrthonormal, UnsupportedFamily
        For a bad Q or complex targets.
    ValueError
        If some target entropy does not match the standard normal.
    """
    arr = np.asarray(Q, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("Q must be a matrix")
    _check_orthonormal_rows(arr)
    targets = list(targets)
    if len(targets) != arr.shape[1]:
        raise ValueError("need one target per column of Q")
    h_ref = 0.5 * math.log(2 * math.pi * math.e)
    maps = []
    for t in targets:
        if t.field != "real":
            raise UnsupportedFamily("targets must be real-field models")
        h = dist.exact_entropy(t)
        if abs(h - h_ref) > 1e-9:
            raise ValueError(
                f"target entropy {h:.12f} does not match the standard normal {h_ref:.12f}"
            )
        maps.append(dist.quantile_transport(t))

    n = arr.shape[1]
    lam = np.empty((n_samples, n))
    for j in range(n):
        z = ndtri(uniform_open(generator(seed, j), n_samples))
        lam[:, j] = maps[j].derivative(z)
    mats = np.einsum("ik,sk,jk->sij", arr, lam, arr, optimize=True)
    sign, logdet = np.linalg.slogdet(mats)
    if np.any(sign <= 0):
        raise RankDeficient("encountered a non positive definite scale matrix")
    return float(np.mean(logdet))
