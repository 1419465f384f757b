"""Deterministic random number streams.

All sampling in this package goes through counter-based Philox generators
keyed by 64-bit seeds.  Independent streams are derived from a base seed and
a stream index with a splitmix64-style mixer, so experiments are reproducible
across platforms and thread counts and substreams never overlap.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def is_int(v) -> bool:
    """Whether ``v`` is a Python or numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_count(v, name: str, lo: int = 1, hi: int | None = None) -> int:
    """``v`` as an int; ValueError naming ``name`` unless it is an integer
    in [lo, hi], or at least ``lo`` when ``hi`` is None.  The one check of
    every integer size, count, window, index and stream argument."""
    if not is_int(v):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    v = int(v)
    if hi is not None and not lo <= v <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {v}")
    if v < lo:
        raise ValueError(f"{name} must be at least {lo}, got {v}")
    return v


def check_seed(seed) -> None:
    """ValueError unless ``seed`` is an integer (not a bool) in [0, 2**64):
    masking any other value to 64 bits would reuse another seed's streams."""
    if not is_int(seed) or not 0 <= int(seed) <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def mix_seed(seed: int, stream: int) -> int:
    """Derive a 64-bit substream seed from ``seed`` and a stream index.

    Applies a splitmix64 finalizer to ``seed XOR (stream + 1) * golden``;
    the +1 keeps stream 0 distinct from the raw seed.  Every stream is
    derived here, so every seed passes :func:`check_seed` and every stream
    :func:`check_count` in [0, 2**64 - 1), where no two streams alias.
    """
    check_seed(seed)
    stream = check_count(stream, "stream", 0, _MASK64 - 1)
    x = (int(seed) ^ (((stream + 1) * _GOLDEN) & _MASK64)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Philox-backed generator for the given seed and stream."""
    return np.random.Generator(np.random.Philox(key=mix_seed(seed, stream)))


def uniform_open(rng: np.random.Generator, size) -> np.ndarray:
    """Uniform variates clipped into the open interval (0, 1).

    Inverse-CDF samplers need to avoid the endpoints, where quantile
    functions diverge.
    """
    u = rng.random(size)
    tiny = np.finfo(np.float64).tiny
    return np.clip(u, tiny, 1.0 - 2.0 ** -53)


def normal_open(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal variates: scipy's ``ndtri`` of ``uniform_open``."""
    from scipy.special import ndtri

    return ndtri(uniform_open(rng, size))


def haar_rows(rng: np.random.Generator, m: int, n: int, complex_field: bool) -> np.ndarray:
    """m orthonormal rows of length n (m <= n), Haar distributed.

    The rows are the conjugate-transposed Q factor of an n x m standard
    (complex) Gaussian matrix.  Each column of Q is multiplied by the phase
    ``d / |d|`` of the matching diagonal entry of R, which makes the QR
    factorization unique and so the draw uniform on the Stiefel manifold.
    """
    if complex_field:
        G = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    else:
        G = rng.standard_normal((n, m))
    q, r = np.linalg.qr(G)
    d = np.diagonal(r)
    return (q * (d / np.abs(d))).conj().T
