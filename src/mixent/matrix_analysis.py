"""Structural analysis of mixing matrices.

A mixing matrix A (m rows, n columns, m <= n, real or complex) maps a vector
of n independent source components to m observed mixture coordinates.  This
module answers structural questions about that map:

* which components are present in the output (nonzero columns),
* which components are recoverable (some row vector b satisfies b A = e_j),
* a canonical block factorization separating recoverable components from the
  rest,
* row orthonormalization by a triangular factor, completion to a square
  orthonormal matrix,
* and a log-determinant concavity gap for orthonormal-row matrices acting on
  positive diagonal (or 2x2 block diagonal) scale matrices.

Presence and recoverability are invariant under left multiplication by any
invertible matrix, which is what makes them meaningful properties of the
mixture rather than of a particular coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex_embedding import _real_array, block_polar, dtype_of, field_of, real_dims, unhat
from .errors import (
    AlreadySquare,
    BadBlockStructure,
    NonPositiveLambda,
    NotOrthonormal,
    RankDeficient,
    ZeroColumn,
)

__all__ = [
    "MixingMatrix",
    "ComponentClassification",
    "CanonicalDecomposition",
    "OrthonormalReduction",
    "rank_of",
    "recoverability_tolerance",
    "classify_components",
    "canonical_form",
    "gram_schmidt_rows",
    "orthogonal_complement",
    "log_concavity_gap",
    "log_concavity_gap_blocks",
]

@dataclass(frozen=True)
class MixingMatrix:
    """A validated 2-D mixing matrix together with its scalar field.

    Parameters
    ----------
    array:
        The matrix entries, shape (rows, cols).  Stored as float64 for the
        real field and complex128 for the complex field.
    field:
        Either ``"real"`` or ``"complex"``.
    """

    array: np.ndarray
    field: str

    def __post_init__(self):
        arr = np.asarray(self.array)
        if real_dims(self.field) == 1 and np.iscomplexobj(arr):
            raise ValueError("real matrix has complex entries")
        arr = arr.astype(dtype_of(self.field))
        _require_matrix(arr)
        object.__setattr__(self, "array", arr)

    @classmethod
    def from_array(cls, arr, field: str | None = None) -> "MixingMatrix":
        arr = np.asarray(arr)
        return cls(arr, field if field is not None else field_of(arr))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]


def _require_matrix(arr: np.ndarray) -> None:
    """ValueError unless ``arr`` is a finite matrix with a row and a column."""
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("matrix must be 2-D with at least one row and column")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")


def as_array(A) -> np.ndarray:
    """Coerce a MixingMatrix or array-like to a finite, nonempty 2-D ndarray."""
    if isinstance(A, MixingMatrix):
        return A.array
    arr = np.asarray(A)
    arr = arr.astype(dtype_of(field_of(arr)))
    _require_matrix(arr)
    return arr


@dataclass(frozen=True)
class ComponentClassification:
    """Index sets describing which components reach the output.

    Indices are 0-based column indices of the analyzed matrix.  ``witnesses``
    holds one row per recoverable index j (in the order of ``recoverable``)
    with witness b satisfying b A = e_j up to ``tolerance``.
    """

    present: tuple[int, ...]
    recoverable: tuple[int, ...]
    witnesses: np.ndarray
    tolerance: float

    def __post_init__(self):
        if not set(self.recoverable) <= set(self.present):
            raise ValueError("recoverable components must be present")


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Factorization B A P = [[I_r, 0], [0, tail]] with r maximal.

    ``B`` is an invertible row transform, ``permutation`` lists original
    column indices in their new order (recoverable columns first, each group
    in ascending original order), ``r`` counts recoverable components and
    ``tail`` is the (m - r) x (n - r) block mixing the unrecoverable ones.
    """

    B: np.ndarray
    permutation: tuple[int, ...]
    r: int
    tail: np.ndarray
    field: str

    def block_matrix(self) -> np.ndarray:
        """The canonical block matrix [[I_r, 0], [0, tail]]."""
        m = self.B.shape[0]
        n = len(self.permutation)
        out = np.zeros((m, n), dtype=dtype_of(self.field))
        out[: self.r, : self.r] = np.eye(self.r)
        out[self.r :, self.r :] = self.tail
        return out


@dataclass(frozen=True)
class OrthonormalReduction:
    """Row orthonormalization A = L^{-1} Q with L lower triangular.

    ``Q = L A`` has orthonormal rows.
    """

    L: np.ndarray
    Q: np.ndarray


def rank_of(A) -> int:
    """Numerical rank via singular values.

    The cutoff is ``max(m, n) * eps * sigma_max``, the standard conservative
    threshold for noisy input.
    """
    return _rank(as_array(A))


def _rank(arr: np.ndarray) -> int:
    s = np.linalg.svd(arr, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = max(arr.shape) * np.finfo(np.float64).eps * s[0]
    return int(np.count_nonzero(s > tol))


def recoverability_tolerance(A) -> float:
    """Default residual tolerance, scaled by the matrix magnitude."""
    return _default_tolerance(as_array(A))


def _default_tolerance(arr: np.ndarray) -> float:
    return 1e-8 * (1.0 + float(np.linalg.norm(arr)))


def _require_full_row_rank(arr: np.ndarray) -> None:
    m, n = arr.shape
    if m > n:
        raise RankDeficient(f"matrix is {m}x{n}; need rows <= cols")
    rank = _rank(arr)
    if rank < m:
        raise RankDeficient(f"matrix has rank {rank} < {m} rows")


def classify_components(A, tol: float | None = None) -> ComponentClassification:
    """Classify each source component as absent, present, or recoverable.

    Component j is present when column j of A is nonzero, and recoverable
    when the least-squares solution b of b A = e_j leaves residual at most
    ``tol`` in the max norm.  Requires full row rank.

    Parameters
    ----------
    A:
        Mixing matrix (m x n, m <= n), real or complex.
    tol:
        Residual tolerance; defaults to ``recoverability_tolerance(A)``.

    Returns
    -------
    ComponentClassification
    """
    return _classify(as_array(A), tol)


def _classify(arr: np.ndarray, tol: float | None) -> ComponentClassification:
    m, n = arr.shape
    if m > n:
        raise RankDeficient(f"matrix is {m}x{n}; need rows <= cols")
    if tol is None:
        tol = _default_tolerance(arr)
    # Minimum-norm least squares for all targets at once: columns of X solve
    # A^T x = e_j, so witness rows are X^T.  The rank uses rank_of's cutoff.
    eye = np.eye(n, dtype=arr.dtype)
    X, _, rank, _ = np.linalg.lstsq(arr.T, eye, rcond=None)
    if rank < m:
        raise RankDeficient(f"matrix has rank {rank} < {m} rows")
    present = np.abs(arr).max(axis=0) > tol
    rec = (present & (np.abs(arr.T @ X - eye).max(axis=0) <= tol)).nonzero()[0]
    return ComponentClassification(
        present=tuple(present.nonzero()[0].tolist()),
        recoverable=tuple(rec.tolist()),
        witnesses=X.T[rec],
        tolerance=float(tol),
    )


def canonical_form(A, tol: float | None = None) -> CanonicalDecomposition:
    """Reduce A to the canonical block form B A P = [[I_r, 0], [0, tail]].

    The recoverable columns are moved to the front (ascending original
    order), their witnesses become the top rows of B, and the remaining rows
    of B span the annihilator of the recoverable columns, which zeroes the
    bottom-left block.  ``r`` is maximal: no component of the tail block is
    recoverable, because recoverability is invariant under invertible row
    transforms and column reordering.

    Raises
    ------
    RankDeficient
        If A does not have full row rank.
    ZeroColumn
        If some column of A is zero; absent components must be dropped
        before reduction.
    """
    arr = as_array(A)
    m, n = arr.shape
    cls = _classify(arr, tol)
    if len(cls.present) != n:
        missing = sorted(set(range(n)) - set(cls.present))
        raise ZeroColumn(f"columns {missing} are zero; remove absent components first")

    rec = list(cls.recoverable)
    rec_set = set(rec)
    unrec = [j for j in range(n) if j not in rec_set]
    perm = tuple(rec + unrec)
    r = len(rec)

    if r == 0:
        B = np.eye(m, dtype=arr.dtype)
    else:
        top = cls.witnesses
        if r == m:
            B = top
        else:
            # Rows x with x @ A[:, rec] = 0: the null space of A[:, rec]^T,
            # by the rule of scipy.linalg.null_space (the gesdd driver, the
            # eps * max(shape) cutoff).  On numpy 2.4.6 the rows equal scipy's
            # bit for bit; test_matrix_analysis checks it.
            a = arr[:, rec].T
            _, s, vh = np.linalg.svd(a, full_matrices=True)
            tol_s = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(a.shape)
            bottom = vh[np.sum(s > tol_s):].conj()
            B = np.vstack([top, bottom])

    permuted = B @ arr[:, list(perm)]
    tail = permuted[r:, r:].copy()
    return CanonicalDecomposition(B=B, permutation=perm, r=r, tail=tail, field=field_of(arr))


def gram_schmidt_rows(A) -> OrthonormalReduction:
    """Orthonormalize the rows of A by a lower-triangular transform.

    Computed from the QR factorization of the conjugate transpose with the
    triangular factor's diagonal made real positive, so L is the unique
    lower-triangular factor with positive diagonal and Q = L A has
    orthonormal rows.

    Raises
    ------
    RankDeficient
        If A does not have full row rank.
    """
    import scipy.linalg

    arr = as_array(A)
    _require_full_row_rank(arr)
    q, rr = np.linalg.qr(arr.conj().T)
    diag = np.diag(rr)
    phase = np.where(np.abs(diag) == 0, 1.0, diag / np.abs(diag))
    rr = rr * phase.conj()[:, None]
    # A = rr^H q^H, so L = (rr^H)^{-1} is lower triangular with positive
    # real diagonal.
    L = scipy.linalg.solve_triangular(rr.conj().T, np.eye(arr.shape[0], dtype=arr.dtype), lower=True)
    Q = L @ arr
    return OrthonormalReduction(L=L, Q=Q)


def _check_orthonormal_rows(Q: np.ndarray, tol: float = 1e-8) -> None:
    gram = Q @ Q.conj().T
    err = float(np.abs(gram - np.eye(Q.shape[0])).max())
    if err > tol:
        raise NotOrthonormal(f"rows are not orthonormal (gram deviation {err:.3e} > {tol:.0e})")


def orthogonal_complement(Q) -> np.ndarray:
    """Rows completing an orthonormal-row matrix to a square one.

    Returns a (n - m) x n matrix C with [Q; C] having orthonormal rows,
    taken from the full unitary factor of a decomposition of Q.  The
    complement is not unique; only the completion property is guaranteed.

    Raises
    ------
    NotOrthonormal
        If Q's rows are not orthonormal within 1e-8.
    AlreadySquare
        If m == n, so there is nothing to add.
    """
    arr = as_array(Q)
    m, n = arr.shape
    if m > n:
        raise NotOrthonormal("more rows than columns cannot be orthonormal")
    _check_orthonormal_rows(arr)
    if m == n:
        raise AlreadySquare("matrix is already square; no complement rows exist")
    _, _, vh = np.linalg.svd(arr, full_matrices=True)
    return vh[m:, :]


def log_concavity_gap(Q, lam) -> float:
    """Gap log det(Q L Q^H) - tr(Q log(L) Q^H) for diagonal L = diag(lam).

    For orthonormal-row Q and strictly positive lam the gap is nonnegative;
    it vanishes when all entries of lam are equal.

    Parameters
    ----------
    Q:
        Matrix with orthonormal rows (m x n, m <= n).
    lam:
        Strictly positive scale vector of length n.

    Raises
    ------
    NotOrthonormal, NonPositiveLambda
    """
    arr = as_array(Q)
    _check_orthonormal_rows(arr)
    lam = _real_array(lam, "lam")
    if lam.ndim != 1 or lam.size != arr.shape[1]:
        raise ValueError("lam must be a vector with one entry per column of Q")
    if not np.all(lam > 0):
        raise NonPositiveLambda("scale vector must be strictly positive")
    Mmat = (arr * lam) @ arr.conj().T
    sign, logdet = np.linalg.slogdet(Mmat)
    if sign.real <= 0:
        raise NonPositiveLambda("Q diag(lam) Q^H is not positive definite")
    trace_term = float((np.abs(arr) ** 2 @ np.log(lam)).sum())
    return float(logdet - trace_term)


def log_concavity_gap_blocks(Qhat, blocks) -> float:
    """Block version of :func:`log_concavity_gap` for embedded complex maps.

    ``Qhat`` must be the 2x2-block real embedding of a complex matrix with
    orthonormal rows, and ``blocks`` an iterable of n symmetric positive
    definite 2x2 matrices forming a block-diagonal scale matrix L.  The gap
    log det(Qhat L Qhat^T) - tr(Qhat log(L) Qhat^T) is nonnegative.

    With each block factored as R_j diag(d_j) R_j^T by :func:`block_polar`,
    rotating column pair j of Qhat by R_j keeps its rows orthonormal and
    makes the scale diagonal, so the gap is :func:`log_concavity_gap` of
    the rotated matrix and the eigenvalues d.

    Raises
    ------
    BadBlockStructure
        If Qhat does not carry the embedding block pattern.
    NotOrthonormal
        If the embedded complex matrix does not have orthonormal rows.
    NotSpd
        If some block is not symmetric positive definite.
    """
    arr = _real_array(Qhat, "Qhat")
    if arr.ndim != 2 or arr.shape[0] % 2 or arr.shape[1] % 2:
        raise BadBlockStructure("embedded matrix must have even dimensions")
    _check_orthonormal_rows(unhat(arr))
    polars = [block_polar(b) for b in blocks]
    if 2 * len(polars) != arr.shape[1]:
        raise ValueError(f"expected {arr.shape[1] // 2} blocks, got {len(polars)}")
    rotated = np.hstack([arr[:, 2 * j : 2 * j + 2] @ p.rotation() for j, p in enumerate(polars)])
    return log_concavity_gap(rotated, [x for p in polars for x in p.d])
