"""Blind extraction of independent sources by contrast minimization.

Given samples of Y = M X with independent rows of X, a demixing matrix W is
sought so that the rows of W Y are as independent and non-Gaussian-mixed as
possible.  The contrast is the sum of marginal entropy estimates minus the
log-determinant of the demixed covariance; it is invariant to row scaling
and, for sources of equal entropy, is minimized at separating matrices.

The minimizer whitens the data, then runs coordinate descent over Givens
rotations of an orthonormal frame, estimating marginal entropies by spacings
(real field) or nearest neighbors (complex field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .complex_embedding import dtype_of, field_of, real_dims
from .entropy import (
    KNN_K,
    SpacingWorkspace,
    _block_std_error,
    _knn_value,
    _require_finite,
    default_spacing_window,
    estimate_entropy,
    spacing_entropy_value,
)
from .errors import (
    RankDeficient,
    SingularCovariance,
    TooFewSamples,
    UnsupportedFamily,
)
from .matrix_analysis import as_array, rank_of
from .rng import generator, haar_rows

__all__ = [
    "Observation",
    "ExtractionResult",
    "ContrastDecomposition",
    "SeparationQuality",
    "sample_covariance",
    "whiten",
    "contrast",
    "minimize_contrast",
    "oracle_decompose",
    "separation_quality",
]

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0

# Golden-section refinement stops once the bracket is this wide (radians).
# Near bounded-support sources a pair objective is V-shaped at its minimum,
# not quadratic: on 20k whitened unit uniforms it rises by 5.0e-5, 6.2e-4,
# 3.7e-3 and 9.2e-3 nats at 1e-3, 2e-3, 5e-3 and 1e-2 rad from it, so the
# half-width 5e-3 costs about the block standard error of one row's spacing
# estimate at 20k points (5e-4 to 3e-3 nats).  On Laplace sources it costs
# about 1e-4 nats.
_LINE_SEARCH_STOP = 1e-2

# Coordinate descent stops after a sweep that lowers the objective by less
# than this (nats).  The block standard error of one row's spacing estimate
# at 20k points is 5e-4 to 3e-3 nats, so a sweep that gains less has reached
# the estimator's resolution; further sweeps only fit noise.
_SWEEP_TOL = 1e-3

# The restarts search every stride-th whitened point, stride = N // this, so
# 5k to 10k points once N reaches 10k.  A restart only has to find its basin,
# and at 5k points the estimate still tells the basins apart: on 20k x 4
# mixtures of three uniforms and a Gaussian (30 draws), a restart that misses
# a separating frame ends at least 0.15 nats above the best, while the
# separating restarts spread by at most 0.02.  Only the frame that is kept
# needs the full-N resolution, so it alone is then polished on all the data.
_COARSE_POINTS = 5000

# The restarts stop once two of them end within this many nats of their
# minimum: those two have found the same basin.  On the mixtures above a
# restart that misses a separating frame ends at least 0.15 nats above the
# best, while the separating restarts spread by at most 0.02 (see
# _COARSE_POINTS), so a further restart could only find another frame of
# about the same contrast.
_AGREE = 0.02


@dataclass(frozen=True)
class Observation:
    """A batch of mixture samples, one observation per row."""

    samples: np.ndarray
    field: str

    @classmethod
    def from_samples(cls, samples) -> "Observation":
        """Validate and copy samples; raises DegenerateData on non-finite values."""
        arr = np.asarray(samples)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ValueError("samples must be a 2-D array with at least two rows")
        field = field_of(arr)
        arr = arr.astype(dtype_of(field))
        _require_finite(arr)
        return cls(samples=arr, field=field)


def sample_covariance(samples: np.ndarray) -> np.ndarray:
    """Centered second-moment matrix E[(y - mean)(y - mean)^H], 1/N norm.

    Raises
    ------
    TooFewSamples
        Fewer than n + 1 observations for n channels.
    """
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise ValueError("samples must be a 2-D array")
    if arr.shape[0] < arr.shape[1] + 1:
        raise TooFewSamples(
            f"covariance of {arr.shape[1]} channels needs at least "
            f"{arr.shape[1] + 1} observations, got {arr.shape[0]}"
        )
    yc = arr - arr.mean(axis=0)
    K = (yc.T @ yc.conj()) / arr.shape[0]
    return (K + K.conj().T) / 2.0


def whiten(obs: Observation):
    """Center and decorrelate an observation to unit covariance.

    Returns the whitened observation and the whitening matrix C with
    C K C^H = I for the sample covariance K.

    Raises
    ------
    SingularCovariance
        If the smallest covariance eigenvalue is below 1e-10 times the
        largest.
    """
    K = sample_covariance(obs.samples)
    w, V = np.linalg.eigh(K)
    if w[0] <= 1e-10 * w[-1]:
        raise SingularCovariance(
            f"covariance condition exceeds 1e10 (eigenvalues {w[0]:.3e} .. {w[-1]:.3e})"
        )
    C = (V / np.sqrt(w)).conj().T
    yc = obs.samples - obs.samples.mean(axis=0)
    return Observation(samples=yc @ C.T, field=obs.field), C


def _row_scorer(field: str, n: int):
    """Default entropy estimate of one row of n samples: m-spacings with the
    default window in one reused workspace for real rows (sorting the row in
    place), kNN with the default k on the (re, im) float64 view of a
    contiguous complex row otherwise, each looked up in this module at call
    time so traced runs count it."""
    if field == "real":
        window = default_spacing_window(n)
        work = SpacingWorkspace(n, window)
        return lambda z: spacing_entropy_value(z, window, work)
    return lambda z: _knn_value(z.view(np.float64).reshape(-1, 2), KNN_K)


def _marginal_entropy_value(z: np.ndarray, field: str) -> float:
    return _row_scorer(field, z.shape[0])(z.copy())


def _demixer_array(W, field: str, channels: int) -> np.ndarray:
    """W over ``field``: UnsupportedFamily for a complex W on real data,
    ValueError unless it has ``channels`` columns, RankDeficient for
    linearly dependent rows."""
    arr = np.asarray(W)
    if field == "real" and np.iscomplexobj(arr):
        raise UnsupportedFamily("complex demixing matrix for real data")
    arr = np.asarray(arr, dtype=dtype_of(field))
    if arr.ndim != 2 or arr.shape[1] != channels:
        raise ValueError("W must be a matrix with one column per observed channel")
    if rank_of(arr) < arr.shape[0]:
        raise RankDeficient("demixing matrix has linearly dependent rows")
    return arr


def _log_volume(W: np.ndarray, samples: np.ndarray, field: str) -> float:
    """(d / 2) log det(W K W^H) for the sample covariance K of ``samples``;
    SingularCovariance unless W K W^H is numerically positive definite."""
    sign, logdet = np.linalg.slogdet(W @ sample_covariance(samples) @ W.conj().T)
    if not (np.real(sign) > 0.5):
        raise SingularCovariance("demixed covariance is numerically singular")
    return real_dims(field) / 2 * logdet


def contrast(W, obs: Observation) -> float:
    """Extraction contrast: marginal entropy estimates minus log volume.

    sum_i h(w_i Y) - (d / 2) log det(W K W^H) with d real dimensions per
    entry (1 real, 2 complex), which makes the value exactly invariant to
    rescaling any row of W in both fields.

    Raises
    ------
    RankDeficient
        If W has linearly dependent rows.
    SingularCovariance
        If the demixed covariance W K W^H is numerically singular.
    UnsupportedFamily
        A complex W for real data.
    """
    arr = _demixer_array(W, obs.field, obs.samples.shape[1])
    log_volume = _log_volume(arr, obs.samples, obs.field)
    Z = obs.samples @ arr.T
    hsum = sum(_marginal_entropy_value(Z[:, i], obs.field) for i in range(arr.shape[0]))
    return float(hsum - log_volume)


def _line_search(f, f0: float, lo: float, hi: float):
    """Coarse grid plus golden-section refinement of a 1-D objective.

    ``f0`` is the value at 0 (already known).  A 9-point grid on [lo, hi]
    brackets the minimum, and golden section narrows the bracket until it
    is ``_LINE_SEARCH_STOP`` wide: the entropy estimates cannot resolve the
    objective any finer.  Returns (t_best, f_best, evals_used); t_best may
    be 0.0 when nothing beats the start.
    """
    ts = np.linspace(lo, hi, 9)
    vals = np.empty(9)
    evals = 0
    for i, t in enumerate(ts):
        if t == 0.0:
            vals[i] = f0
        else:
            vals[i] = f(t)
            evals += 1
    i = int(np.argmin(vals))
    a = ts[max(i - 1, 0)]
    b = ts[min(i + 1, 8)]
    t_best, f_best = ts[i], vals[i]
    x1 = b - _GOLD * (b - a)
    x2 = a + _GOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    evals += 2
    while (b - a) > _LINE_SEARCH_STOP:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLD * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLD * (b - a)
            f2 = f(x2)
        evals += 1
    for t, v in ((x1, f1), (x2, f2)):
        if v < f_best:
            t_best, f_best = t, v
    return t_best, f_best, evals


def _combine(out: np.ndarray, tmp: np.ndarray, a: complex, x: np.ndarray, b: complex, y: np.ndarray):
    """Write ``a * x + b * y`` into ``out``, rounded as that expression is;
    ``tmp`` is scratch.

    Each product takes the scalar first, as ``a * x`` does: numpy's complex
    multiply is not bitwise commutative, so ``x * a`` would change the last
    bits of complex rows, and with them the seeded extraction results.
    """
    np.multiply(a, x, out=out)
    np.multiply(b, y, out=tmp)
    return np.add(out, tmp, out=out)


@dataclass(frozen=True)
class ExtractionResult:
    """Best demixing matrix found together with the search trace.

    ``demixer`` has unit-norm rows; ``contrast_value`` is the contrast of
    the demixer on all of the input observation.  ``restart_objectives``,
    ``trace``, ``best_restart`` and ``sweeps`` describe the restart stage,
    on the points that stage searched (every stride-th point, see
    :func:`minimize_contrast`).  ``restart_objectives`` and ``trace`` hold
    one entry per restart that ran, which may be fewer than the
    ``restarts`` asked for: the stage stops once two restarts agree.
    ``converged`` is False when the best restart or the polish of its frame
    on all the data hit the sweep limit while still improving.
    """

    demixer: np.ndarray
    contrast_value: float
    converged: bool
    sweeps: int
    best_restart: int
    restart_objectives: tuple[float, ...]
    trace: tuple[tuple[float, ...], ...]
    whitener: np.ndarray
    n_extracted: int
    seed: int


def _optimize_frame(Yw: np.ndarray, m: int, U0: np.ndarray, field: str, max_sweeps: int):
    """Coordinate descent over Givens rotations of an orthonormal frame.

    Sweeps until one lowers the objective by less than ``_SWEEP_TOL``
    (1e-3 nats), below the standard error of one row's entropy estimate, or
    until ``max_sweeps`` sweeps have run.
    """
    n = U0.shape[0]
    U = U0.copy()
    # One contiguous row per frame vector, so rotations stream through memory.
    Z = np.ascontiguousarray((Yw @ U.T).T)
    hvals = np.array([_marginal_entropy_value(Z[i], field) for i in range(m)])
    complex_field = field == "complex"
    # The search writes each rotated row into one of two buffers, which the
    # scorer may then overwrite.
    score = _row_scorer(field, Z.shape[1])
    bp, bq = np.empty_like(Z[0]), np.empty_like(Z[0])
    trace = [float(hvals.sum())]
    converged = False
    sweeps = 0

    for sweep in range(max_sweeps):
        improvement = 0.0
        for p in range(m):
            for q in range(p + 1, n):
                include_q = q < m
                zp, zq = Z[p], Z[q]
                f0 = hvals[p] + (hvals[q] if include_q else 0.0)
                # Row entropies of every scored rotation, so an accepted one
                # updates hvals without evaluating its rows again.
                scored = {}

                def f_theta(t, phase=1.0):
                    c, s = math.cos(t), math.sin(t)
                    v = hp = score(_combine(bp, bq, c, zp, s * phase, zq))
                    hq = None
                    if include_q:
                        hq = score(_combine(bq, bp, -s * np.conj(phase), zp, c, zq))
                        v += hq
                    scored[t, phase] = hp, hq
                    return v

                theta, f_best, _ = _line_search(f_theta, f0, -math.pi / 4, math.pi / 4)
                phase = 1.0
                if complex_field and abs(theta) > 1e-12:

                    def f_phi(a):
                        return f_theta(theta, phase=complex(math.cos(a), math.sin(a)))

                    # f_best is f_theta(theta): theta is not 0, so it was scored.
                    phi, f_phi_best, _ = _line_search(f_phi, f_best, -math.pi / 2, math.pi / 2)
                    if f_phi_best < f_best:
                        f_best = f_phi_best
                        phase = complex(math.cos(phi), math.sin(phi))

                if f_best < f0 and abs(theta) > 0.0:
                    c, s = math.cos(theta), math.sin(theta)
                    a, b = s * phase, -s * np.conj(phase)
                    Z[p], Z[q] = c * zp + a * zq, b * zp + c * zq
                    U[p], U[q] = c * U[p] + a * U[q], b * U[p] + c * U[q]
                    hvals[p], hq = scored[theta, phase]
                    if include_q:
                        hvals[q] = hq
                    improvement += f0 - f_best
        sweeps = sweep + 1
        trace.append(float(hvals.sum()))
        if improvement < _SWEEP_TOL:
            converged = True
            break
    return U, float(hvals.sum()), sweeps, converged, tuple(trace)


def minimize_contrast(
    obs: Observation,
    n_extract: int,
    seed: int = 0,
    restarts: int = 5,
    max_sweeps: int = 50,
) -> ExtractionResult:
    """Search for the demixing matrix minimizing the extraction contrast.

    The observation is whitened, then an orthonormal frame is optimized by
    pairwise Givens rotations (rotation angle plus, for complex data, a
    phase), restarted from at most ``restarts`` Haar-random frames.  Restart
    r draws its frame from the derived stream 1000 + r of ``seed``.  The
    restarts stop early, after the first restart that leaves two objectives
    within 0.02 nats of their minimum: those two have found the same basin.
    With ``restarts <= 2`` every restart runs.  Each angle and
    phase line search stops at a 1e-2 rad bracket: over that half-width a
    pair's contrast rises by about 3.7e-3 nats on 20k uniforms, about the
    standard error of one row's entropy estimate, and 1e-4 on Laplace
    sources.  A restart stops after a sweep that gains less than 1e-3 nats,
    below that standard error.

    The search runs in two stages.  The restarts only have to find the
    basin of a separating frame, so they search every ``stride``-th
    whitened point, ``stride = max(1, N // 5000)``: 5000 to 10,000 points
    once N reaches 10,000, and all N below that.  When ``stride > 1`` the
    best restart's frame is then polished by the same descent, with the
    same stop rules and ``max_sweeps``, on all N points.

    ``restart_objectives``, ``trace``, ``best_restart`` and ``sweeps``
    describe the restart stage on the points it searched, one entry of
    ``restart_objectives`` and ``trace`` per restart that ran; ``converged`` is
    False when the best restart or the polish ran ``max_sweeps`` sweeps
    without a sweep below 1e-3 nats; ``contrast_value`` is the contrast of
    the demixer on all N points.

    Raises
    ------
    TooFewSamples
        Fewer than 1000 observations.
    SingularCovariance
        Numerically singular observation covariance.
    ValueError
        ``restarts`` or ``max_sweeps`` below 1.
    """
    N, n = obs.samples.shape
    if N < 1000:
        raise TooFewSamples(f"extraction needs at least 1000 samples, got {N}")
    if not 1 <= n_extract <= n:
        raise ValueError(f"n_extract must be in [1, {n}], got {n_extract}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    stride = max(1, N // _COARSE_POINTS)

    wobs, C = whiten(obs)
    complex_field = obs.field == "complex"
    best = None
    objectives = []
    traces = []
    for r in range(restarts):
        U0 = haar_rows(generator(seed, 1000 + r), n, n, complex_field)
        U, obj, sweeps, conv, trace = _optimize_frame(
            wobs.samples[::stride], n_extract, U0, obs.field, max_sweeps
        )
        objectives.append(obj)
        traces.append(trace)
        if best is None or obj < best[1]:
            best = (U, obj, sweeps, conv, r)
        if sum(o - best[1] <= _AGREE for o in objectives) >= 2:
            break

    U, _, sweeps, conv, r_best = best
    if stride > 1:
        U, _, _, polished, _ = _optimize_frame(wobs.samples, n_extract, U, obs.field, max_sweeps)
        conv = conv and polished
    W = U[:n_extract] @ C
    W = W / np.linalg.norm(W, axis=1, keepdims=True)
    return ExtractionResult(
        demixer=W,
        contrast_value=contrast(W, obs),
        converged=conv,
        sweeps=sweeps,
        best_restart=r_best,
        restart_objectives=tuple(objectives),
        trace=tuple(traces),
        whitener=C,
        n_extracted=n_extract,
        seed=seed,
    )


@dataclass(frozen=True)
class ContrastDecomposition:
    """Split of the contrast into interpretable nonnegative pieces.

    With sources of common entropy h and combined map A = W M, the contrast
    satisfies

        contrast = marginal_term + alignment_term + residual
                   + n_rows * common_entropy + identity_gap

    where ``marginal_term`` sums the per-row gaps between estimated row
    entropies and their Gaussian lower bounds, ``alignment_term`` is the
    Hadamard gap of A (zero only for orthogonal rows), ``residual`` is the
    exact log-volume correction for unequal source variances (identically
    zero when all variances are equal), and
    ``identity_gap`` is the leftover sampling error of the covariance
    estimate.
    """

    contrast_value: float
    marginal_term: float
    alignment_term: float
    residual: float
    common_entropy: float
    identity_gap: float
    std_error: float
    n_rows: int
    n_samples: int
    seed: int


def oracle_decompose(W, mixing, sources, n_samples: int, seed: int) -> ContrastDecomposition:
    """Decompose the contrast of W against a known mixing model.

    Samples X from the source models, forms Y = M X and Z = W Y, and splits
    the contrast of W into the terms documented on
    :class:`ContrastDecomposition`.  The same marginal entropy estimates are
    reused in every term, so the identity holds up to covariance sampling
    error alone.

    Raises
    ------
    ValueError
        If the source entropies are not all equal (normalize them first),
        there is not one source per mixing column, or W does not have one
        column per mixing row.
    RankDeficient
        If W has linearly dependent rows.
    SingularCovariance
        If the demixed sample covariance is numerically singular.
    UnsupportedFamily
        Real sources under a complex mixing matrix, sources of both fields,
        or a complex W for real sources under a real mixing matrix.
    """
    M = as_array(mixing)
    sources = list(sources)
    # A real matrix mixes sources of either field, a complex one complex sources only.
    field = sources[0].field if sources else "real"
    if np.iscomplexobj(M):
        field = "complex"
    dist.check_sources(sources, field, M.shape[1])
    hs = [dist.exact_entropy(s) for s in sources]
    h_common = hs[0]
    if max(abs(h - h_common) for h in hs) > 1e-9:
        raise ValueError("sources must share a common entropy; normalize them first")

    Warr = _demixer_array(W, field, M.shape[0])
    m = Warr.shape[0]
    X = dist.sample_sources(sources, n_samples, seed)
    Y = X @ M.T
    Z = Y @ Warr.T
    A = Warr @ M
    log_volume = _log_volume(Warr, Y, field)

    estimates = [estimate_entropy(Z[:, [i]], field) for i in range(m)]
    hsum = sum(e.value for e in estimates)
    d = real_dims(field)

    # The identity below is exact except for the sample-covariance log-det,
    # so its block-subsampling error belongs in the combined std_error.
    logdet_se = _block_std_error(lambda blk: _log_volume(Warr, blk, field), Y, min_block=Y.shape[1] + 1)
    std_error = math.sqrt(sum(e.std_error**2 for e in estimates) + logdet_se**2)
    contrast_value = hsum - log_volume

    log_norms = np.log(np.linalg.norm(A, axis=1))
    marginal_term = hsum - m * h_common - d * float(log_norms.sum())
    _, logdet_rows = np.linalg.slogdet(A @ A.conj().T)
    alignment_term = d * float(log_norms.sum()) - d / 2 * logdet_rows
    K_model = np.diag([dist.variance(s) for s in sources])
    _, logdet_model = np.linalg.slogdet(A @ K_model @ A.conj().T)
    residual = d / 2 * (logdet_rows - logdet_model)
    identity_gap = contrast_value - marginal_term - alignment_term - residual - m * h_common

    return ContrastDecomposition(
        contrast_value=float(contrast_value),
        marginal_term=float(marginal_term),
        alignment_term=float(alignment_term),
        residual=float(residual),
        common_entropy=float(h_common),
        identity_gap=float(identity_gap),
        std_error=float(std_error),
        n_rows=m,
        n_samples=n_samples,
        seed=seed,
    )


@dataclass(frozen=True)
class SeparationQuality:
    """Row-wise dominance of the demixer-times-mixer product."""

    product: np.ndarray
    dominance: tuple[float, ...]
    selected: tuple[int, ...]
    success: bool
    threshold: float


def separation_quality(W, M, threshold: float = 0.95) -> SeparationQuality:
    """Judge how close W M is to a scaled permutation.

    Row i selects the column with the largest squared magnitude; dominance
    is that magnitude's share of the row energy.  Success requires every
    dominance at least ``threshold`` and all selected columns distinct.
    """
    W, M = np.asarray(W), np.asarray(M)
    if W.ndim != 2 or M.ndim != 2:
        raise ValueError(f"W and M must be matrices, got shapes {W.shape} and {M.shape}")
    if W.shape[1] != M.shape[0]:
        raise ValueError(f"W has {W.shape[1]} columns, M has {M.shape[0]} rows")
    P = W @ M
    P = P.astype(np.result_type(P, np.float64), copy=False)
    power = np.abs(P) ** 2
    total = power.sum(axis=1)
    if np.any(total == 0.0):
        raise ValueError("a demixer row annihilates every source")
    selected = power.argmax(axis=1)
    dominance = power.max(axis=1) / total
    success = bool(dominance.min() >= threshold) and len(set(selected.tolist())) == len(
        selected
    )
    return SeparationQuality(
        product=P,
        dominance=tuple(float(d) for d in dominance),
        selected=tuple(int(s) for s in selected),
        success=success,
        threshold=float(threshold),
    )
