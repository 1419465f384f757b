"""Nonparametric differential entropy estimators and Gaussian references.

Two estimators are provided, both reporting nats:

* :func:`spacing_entropy`: a one-dimensional m-spacing estimator with
  position-dependent window coefficients correcting edge bias.  It is
  exactly scale-equivariant: estimate(a X) = estimate(X) + log|a|.
* :func:`knn_entropy`: a k-nearest-neighbor estimator for joint entropy in
  any dimension, Euclidean metric, digamma-corrected.  Exactly
  scale-equivariant up to floating-point rounding.

Gaussian references: :func:`surrogate_sigma` converts an entropy into the
scale of a Gaussian with that entropy, and :func:`gaussian_mix_entropy`
gives the closed-form entropy of a linear mixture of independent Gaussians.

Standard errors are estimated by splitting the (deterministically shuffled)
sample into disjoint blocks and scaling the dispersion of block estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complex_embedding import _real_array, embed_samples, field_of, real_dims
from .errors import DegenerateData, DuplicatePoints, RankDeficient, TooFewSamples
from .matrix_analysis import as_array, rank_of
from .rng import check_count, generator

__all__ = [
    "EntropyEstimate",
    "GaussianSurrogate",
    "SpacingWorkspace",
    "spacing_entropy",
    "spacing_entropy_value",
    "knn_entropy",
    "spacings_apply",
    "estimate_entropy",
    "surrogate_sigma",
    "gaussian_mix_entropy",
]

_SHUFFLE_SEED = 0x5EB10C5
# The neighbor order of every kNN estimate the package makes by default.
KNN_K = 4


@dataclass(frozen=True)
class EntropyEstimate:
    """An entropy estimate in nats with its provenance.

    ``method`` is ``"spacing"``, ``"knn"``, or ``"closed_form"``; ``params``
    records estimator settings (window size or neighbor count) and
    ``std_error`` the block-resampling standard error (zero for closed
    forms).
    """

    value: float
    method: str
    n_samples: int
    params: dict
    std_error: float


@dataclass(frozen=True)
class GaussianSurrogate:
    """Scale of a Gaussian matching a prescribed entropy."""

    sigma: float
    entropy: float
    field: str


class SpacingWorkspace:
    """Buffers for repeated m-spacing estimates of samples of one size n.

    Holds the edge window coefficients, ``log(n / m)`` and a spacing
    buffer, so a search that scores thousands of rows of n points builds
    them once.
    """

    __slots__ = ("n", "m", "head", "tail", "log_n_m", "spacings")

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        # Windows are clamped to the sample range near the edges; the
        # coefficient c_i counts the effective window width in units of m:
        # 1 + i/m over the first m spacings, mirrored over the last m, and 2
        # in between.
        i = np.arange(m, dtype=np.float64)
        self.head = 1.0 + i / m
        self.tail = 1.0 + i[::-1] / m
        self.log_n_m = math.log(n / m)
        # The middle spacings start on a 64-byte cache line: that two-input
        # write is the kernel's largest, and stores that straddle cache
        # lines made it about twice as slow.
        raw = np.empty(n + 7)
        skip = -(raw.ctypes.data + 8 * m) % 64 // 8
        self.spacings = raw[skip : skip + n]


def spacing_entropy_value(samples: np.ndarray, m: int, work: SpacingWorkspace | None = None) -> float:
    """Core m-spacing estimate without validation or standard error.

    Exposed separately because optimization loops evaluate it thousands of
    times.  ``samples`` must be a 1-D float array, 2 <= 2m <= n.  With a
    ``work`` built for this n and m, ``samples`` is scratch: it is sorted in
    place, and no array is allocated unless some spacings are zero.  The
    value is the same either way.
    """
    if work is None:
        x = np.sort(samples)
        work = SpacingWorkspace(x.size, m)
    else:
        if (samples.size, m) != (work.n, work.m):
            raise ValueError(f"workspace is for n={work.n}, m={work.m}")
        x = samples
        x.sort()
    n = x.size
    # d[i] = x[min(i + m, n - 1)] - x[max(i - m, 0)], written edge by edge.
    d = work.spacings
    np.subtract(x[m : 2 * m], x[0], out=d[:m])
    np.subtract(x[2 * m :], x[: n - 2 * m], out=d[m : n - m])
    np.subtract(x[-1], x[n - 2 * m : n - m], out=d[n - m :])
    # Zero (tied) and NaN spacings are dropped.  They are picked before
    # dividing, so a positive spacing whose ratio underflows to zero is kept.
    pos = None
    if not d.min() > 0:
        pos = d > 0
        if not pos.any():
            raise DegenerateData("all samples are equal")
    # Halving is exact, so d * 0.5 rounds as d / 2 does, and is cheaper.
    np.divide(d[:m], work.head, out=d[:m])
    np.multiply(d[m : n - m], 0.5, out=d[m : n - m])
    np.divide(d[n - m :], work.tail, out=d[n - m :])
    if pos is not None:
        d = d[pos]
    np.log(d, out=d)
    return float(np.add.reduce(d) / d.size) + work.log_n_m


def _require_finite(arr: np.ndarray) -> None:
    bad = arr.size - int(np.count_nonzero(np.isfinite(arr)))
    if bad:
        raise DegenerateData(f"samples contain {bad} non-finite values (NaN or inf)")


def default_spacing_window(n: int) -> int:
    """Default window: round(sqrt(n)), clipped to a valid range."""
    return int(min(max(round(math.sqrt(n)), 1), n // 2))


def _block_std_error(estimate_block, x: np.ndarray, min_block: int) -> float:
    n = x.shape[0]
    n_blocks = min(10, n // max(min_block, 10))
    if n_blocks < 2:
        return float("nan")
    order = generator(_SHUFFLE_SEED, n).permutation(n)
    size = n // n_blocks
    vals = []
    for b in range(n_blocks):
        idx = order[b * size : (b + 1) * size]
        vals.append(estimate_block(x[idx]))
    return float(np.std(vals, ddof=1) / math.sqrt(n_blocks))


def spacing_entropy(samples, m: int | None = None) -> EntropyEstimate:
    """Estimate the entropy of a scalar sample by m-spacings.

    Parameters
    ----------
    samples:
        1-D real sample array, at least 10 points.
    m:
        Integer window; defaults to round(sqrt(n)).

    Returns
    -------
    EntropyEstimate
        Value in nats with a block-resampling standard error.

    Raises
    ------
    ValueError
        A sample that is not 1-D, or ``m`` not an integer in [1, n // 2].
    TooFewSamples
    DegenerateData
        All samples equal, or some not finite.
    """
    x = _real_array(samples, "samples")
    if x.ndim != 1:
        raise ValueError("spacing estimator requires a 1-D real sample")
    n = x.size
    if n < 10:
        raise TooFewSamples(f"need at least 10 samples, got {n}")
    _require_finite(x)
    m = default_spacing_window(n) if m is None else check_count(m, "m", 1, n // 2)
    value = spacing_entropy_value(x, m)
    se = _block_std_error(
        lambda blk: spacing_entropy_value(blk, default_spacing_window(blk.size)),
        x,
        min_block=10,
    )
    return EntropyEstimate(value=value, method="spacing", n_samples=n, params={"m": m}, std_error=se)


def _knn_value(pts: np.ndarray, k: int) -> float:
    from scipy.spatial import cKDTree
    from scipy.special import digamma, gammaln

    n, d = pts.shape
    # Sliding-midpoint splits with unshrunk node boxes build and query
    # faster than the median-split default here; the tree is only an index,
    # so the k-th neighbor distances are exact either way.
    tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)
    dist, _ = tree.query(pts, k=k + 1, workers=-1)
    eps = dist[:, k]
    if np.any(eps == 0.0):
        raise DuplicatePoints(f"zero {k}-th neighbor distance: {k + 1} or more equal sample points")
    log_vd = 0.5 * d * math.log(math.pi) - gammaln(0.5 * d + 1.0)
    return float(digamma(n) - digamma(k) + log_vd + d * np.mean(np.log(eps)))


def knn_entropy(samples, k: int = KNN_K) -> EntropyEstimate:
    """Estimate joint entropy by k-nearest-neighbor distances.

    Complex input of shape (N, d) is embedded as real data of shape
    (N, 2d) with interleaved real and imaginary parts.  A point with k or
    more exact duplicates has a zero k-th neighbor distance, which makes the
    estimate minus infinity, so it raises; fewer are estimated as they are.

    Parameters
    ----------
    samples:
        Array of shape (N,) or (N, d), real or complex; N at least 50.
    k:
        Integer neighbor order, default ``KNN_K``; must satisfy 1 <= k < N.

    Raises
    ------
    ValueError
        ``k`` not an integer of at least 1 (checked before the sample size).
    TooFewSamples, DuplicatePoints
    DegenerateData
        Some samples are not finite.
    """
    k = check_count(k, "k")
    arr = np.asarray(samples)
    arr = embed_samples(arr) if np.iscomplexobj(arr) else np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("samples must be 1-D or 2-D")
    n, d = arr.shape
    if n < 50 or n <= k:
        raise TooFewSamples(f"need at least max(50, k+1) samples, got {n} with k={k}")
    _require_finite(arr)
    value = _knn_value(arr, k)
    se = _block_std_error(lambda blk: _knn_value(blk, k), arr, min_block=max(10, k + 2))
    return EntropyEstimate(value=value, method="knn", n_samples=n, params={"k": k}, std_error=se)


def spacings_apply(field: str, columns: int) -> bool:
    """Whether the m-spacing estimator applies: exactly one real column."""
    return real_dims(field) * columns == 1


def estimate_entropy(Y: np.ndarray, field: str) -> EntropyEstimate:
    """Joint entropy of the (N, d) sample ``Y`` over ``field``: spacings with
    the default window for one real column, k-nearest neighbors with
    ``k = KNN_K`` otherwise (complex data through the real embedding)."""
    if spacings_apply(field, Y.shape[1]):
        return spacing_entropy(Y[:, 0])
    return knn_entropy(Y)


def surrogate_sigma(entropy_nats: float, field: str = "real") -> GaussianSurrogate:
    """Scale of the Gaussian whose entropy equals ``entropy_nats``.

    Over d real dimensions per entry (d = 2 for the complex field),
    h = (d / 2) log(2 pi e sigma^2 / d), so sigma = e^{h/d} / sqrt(2 pi e / d).
    """
    d = real_dims(field)
    sigma = math.exp(entropy_nats / d) / math.sqrt(2 * math.pi * math.e / d)
    return GaussianSurrogate(sigma=sigma, entropy=float(entropy_nats), field=field)


def gaussian_mix_entropy(A, sigmas) -> float:
    """Entropy of A X for independent Gaussians X_j with scales sigmas.

    With S = diag(sigma_j^2) and d real dimensions per entry of A's field
    (d = 2 for complex A and circular components):
    (d m / 2) log(2 pi e / d) + (d / 2) log det(A S A^H).

    Raises
    ------
    RankDeficient
        If A S A^H is singular, where the entropy is minus infinity.
    """
    arr = as_array(A)
    d = real_dims(field_of(arr))
    sig = _real_array(sigmas, "sigmas")
    if sig.ndim != 1 or sig.size != arr.shape[1]:
        raise ValueError("sigmas must have one entry per column of A")
    if not np.all(np.isfinite(sig) & (sig > 0)):
        raise ValueError("sigmas must be finite and strictly positive")
    m = arr.shape[0]
    if rank_of(arr * sig) < m:
        raise RankDeficient("A diag(sigma) is rank deficient; the mixture entropy is -inf")
    log_det_half = float(np.log(np.linalg.svd(arr * sig, compute_uv=False)).sum())
    return 0.5 * d * m * math.log(2 * math.pi * math.e / d) + d * log_det_half
