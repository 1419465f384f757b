"""Real embedding of complex matrices and vectors.

A complex scalar a = x + iy embeds as the 2x2 real matrix [[x, -y], [y, x]].
Matrices embed blockwise, and vectors embed by interleaving real and
imaginary parts (re_1, im_1, re_2, im_2, ...), so the embedding of a product
is the product of the embeddings and complex sample arrays can be fed to
real-valued estimators without reshaping.

Key identities, for complex matrices A and B of compatible shapes:

* embed(A B) = embed(A) embed(B)
* embed(A^H) = embed(A)^T
* det(embed(A)) = |det(A)|^2 for square A

The embedding is also the package's one field rule: a field has
``real_dims`` d = 1 (real) or 2 (complex) real dimensions per entry, and
each field-dependent formula is written once in terms of d.  Complex
vectors embed as views, since complex128 memory is interleaved (re, im).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadBlockStructure, NotSpd

__all__ = [
    "field_of",
    "dtype_of",
    "real_dims",
    "hat_embed",
    "unhat",
    "embed_samples",
    "block_polar",
    "BlockPolar",
]

# Entrywise tolerance of the 2x2 block checks: the [[a, -b], [b, a]] pattern
# that unhat inverts, and the symmetry of a scale block.
_BLOCK_TOL = 1e-10


def field_of(arr) -> str:
    """``"complex"`` for an array with a complex dtype, else ``"real"``."""
    return "complex" if np.iscomplexobj(arr) else "real"


def real_dims(field: str) -> int:
    """Real dimensions per entry: 1 for ``"real"``, 2 for ``"complex"``;
    ValueError for any other field."""
    if field not in ("real", "complex"):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    return 2 if field == "complex" else 1


def dtype_of(field: str):
    """The array dtype of a field: float64 or complex128."""
    return np.complex128 if real_dims(field) == 2 else np.float64


def _real_array(x, name: str) -> np.ndarray:
    """``x`` as a float64 array; ValueError naming ``name`` for complex
    input, whose imaginary part the cast would drop."""
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got complex values")
    return np.asarray(arr, dtype=np.float64)


def hat_embed(A) -> np.ndarray:
    """Embed a complex matrix or vector into real coordinates.

    A matrix of shape (m, n) maps to shape (2m, 2n) with 2x2 blocks
    [[re, -im], [im, re]]; a vector of length n maps to length 2n with
    interleaved real and imaginary parts, as a view of a fresh copy.
    """
    arr = np.asarray(A, dtype=np.complex128)
    if arr.ndim == 1:
        return np.array(arr).view(np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a vector or a 2-D matrix")
    m, n = arr.shape
    out = np.empty((2 * m, 2 * n), dtype=np.float64)
    out[0::2, 0::2] = arr.real
    out[0::2, 1::2] = -arr.imag
    out[1::2, 0::2] = arr.imag
    out[1::2, 1::2] = arr.real
    return out


def unhat(Ahat) -> np.ndarray:
    """Invert :func:`hat_embed`, validating the block pattern.

    Parameters
    ----------
    Ahat:
        Real array of even length (vector) or even dimensions (matrix).
        A vector comes back as a complex128 view of a fresh copy.

    Raises
    ------
    BadBlockStructure
        If dimensions are odd, or some 2x2 block has a non-finite entry or
        breaks the pattern by more than 1e-10; the message names the first
        offending block in row-major order.
    """
    arr = _real_array(Ahat, "Ahat")
    if arr.ndim == 1:
        if arr.size % 2:
            raise BadBlockStructure("vector length must be even")
        return np.array(arr).view(np.complex128)
    if arr.ndim != 2:
        raise ValueError("expected a vector or a 2-D matrix")
    if arr.shape[0] % 2 or arr.shape[1] % 2:
        raise BadBlockStructure("matrix dimensions must be even")
    a = arr[0::2, 0::2]
    c = arr[1::2, 0::2]
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.maximum(np.abs(a - arr[1::2, 1::2]), np.abs(arr[0::2, 1::2] + c))
    # A non-finite entry makes its block's error inf or NaN (inf - inf), and
    # NaN compares False, so the test is written to fail on it.
    bad = ~(err <= _BLOCK_TOL)
    if bad.any():
        i, j = (int(k) for k in np.argwhere(bad)[0])
        if not np.isfinite(arr[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]).all():
            raise BadBlockStructure(f"block ({i}, {j}) has a non-finite entry")
        raise BadBlockStructure(
            f"block ({i}, {j}) violates the embedding pattern by {err[i, j]:.3e} (tol {_BLOCK_TOL:.0e})"
        )
    # Copied, not computed as a + 1j * c, which would turn -0-0j into -0+0j.
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = a
    out.imag = c
    return out


def embed_samples(Z) -> np.ndarray:
    """Embed complex sample rows (N, n) as real rows (N, 2n).

    Each row is embedded as an interleaved vector, matching the vector
    convention of :func:`hat_embed`, so real estimators see the same
    geometry that embedded matrices act on.  The result is a float64 view
    of a fresh C-order complex128 copy, never of ``Z`` itself.
    """
    arr = np.array(Z, dtype=np.complex128, order="C")
    return (arr[:, None] if arr.ndim == 1 else arr).view(np.float64)


@dataclass(frozen=True)
class BlockPolar:
    """Rotation-diagonal factorization of a 2x2 SPD block.

    The block equals R(theta) diag(d) R(theta)^T with d[0] >= d[1] > 0 and
    theta in (-pi/2, pi/2].
    """

    theta: float
    d: tuple[float, float]

    def rotation(self) -> np.ndarray:
        c, s = np.cos(self.theta), np.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    def reconstruct(self) -> np.ndarray:
        R = self.rotation()
        return (R * np.asarray(self.d)) @ R.T


def block_polar(block) -> BlockPolar:
    """Factor a symmetric positive definite 2x2 block as R diag(d) R^T.

    Uses the closed-form eigendecomposition of a symmetric 2x2 matrix:
    with mean mu = (a + c) / 2 and radius rho = sqrt(((a - c) / 2)^2 + b^2),
    the eigenvalues are mu +/- rho and theta = atan2(2b, a - c) / 2.  The
    convention d[0] >= d[1] with theta in (-pi/2, pi/2] makes the result
    deterministic; equal eigenvalues give theta = 0.

    Raises
    ------
    NotSpd
        If the block is not symmetric within 1e-10 or not positive
        definite.
    """
    arr = _real_array(block, "block")
    if arr.shape != (2, 2):
        raise NotSpd("block must be 2x2")
    if abs(arr[0, 1] - arr[1, 0]) > _BLOCK_TOL:
        raise NotSpd(f"block is not symmetric within {_BLOCK_TOL:.0e}")
    a, c = arr[0, 0], arr[1, 1]
    b = 0.5 * (arr[0, 1] + arr[1, 0])
    mu = 0.5 * (a + c)
    rho = float(np.hypot(0.5 * (a - c), b))
    d1, d2 = mu + rho, mu - rho
    if d2 <= 0:
        raise NotSpd("block is not positive definite")
    theta = 0.5 * float(np.arctan2(2.0 * b, a - c))
    if theta <= -np.pi / 2:
        theta += np.pi
    return BlockPolar(theta=theta, d=(float(d1), float(d2)))
