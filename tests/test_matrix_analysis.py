import hashlib
import itertools
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mixent import (
    AlreadySquare,
    MixingMatrix,
    NonPositiveLambda,
    NotOrthonormal,
    NotSpd,
    BadBlockStructure,
    RankDeficient,
    ZeroColumn,
    canonical_form,
    classify_components,
    gaussian_mix_entropy,
    gram_schmidt_rows,
    hat_embed,
    log_concavity_gap,
    log_concavity_gap_blocks,
    orthogonal_complement,
    rank_of,
    recoverability_tolerance,
)
from mixent.formats import (
    canonical_json,
    canonical_to_dict,
    classification_from_dict,
    classification_to_dict,
)

AVG = np.array([[1.0, 0.0, 0.0], [0.0, 2**-0.5, 2**-0.5]])


def subset_oracle(A):
    """Components whose unit vector lies in the row space, by rank comparison."""
    m, n = A.shape
    r = np.linalg.matrix_rank(A)
    out = []
    for j in range(n):
        aug = np.vstack([A, np.eye(n)[j]])
        if np.linalg.matrix_rank(aug) == r:
            out.append(j)
    return tuple(out)


def test_rank_of_examples():
    assert rank_of(np.eye(3)) == 3
    assert rank_of([[1.0, 1.0], [2.0, 2.0]]) == 1
    assert rank_of(AVG) == 2


def test_mixing_matrix_validation():
    m = MixingMatrix.from_array(np.eye(2))
    assert m.field == "real" and m.rows == 2 and m.cols == 2
    c = MixingMatrix.from_array(np.eye(2) * (1 + 1j))
    assert c.field == "complex"
    with pytest.raises(ValueError):
        MixingMatrix.from_array(np.ones(3))
    with pytest.raises(ValueError):
        MixingMatrix.from_array(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        MixingMatrix(np.eye(2) * 1j, field="real")


@pytest.mark.parametrize("call", [
    classify_components,
    canonical_form,
    orthogonal_complement,
    lambda A: log_concavity_gap(A, np.ones(3)),
    gram_schmidt_rows,
    lambda A: gaussian_mix_entropy(A, np.ones(3)),
], ids=["classify", "canonical", "complement", "concavity_gap", "gram_schmidt", "mix_entropy"])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_empty_matrix_rejected(call, shape):
    with pytest.raises(ValueError, match="matrix must be 2-D with at least one row and column"):
        call(np.zeros(shape))


def test_classify_identity_all_recoverable():
    cls = classify_components(np.eye(3))
    assert cls.present == (0, 1, 2)
    assert cls.recoverable == (0, 1, 2)
    assert_allclose(cls.witnesses, np.eye(3), atol=1e-12)


def test_classify_single_row_nothing_recoverable():
    cls = classify_components(np.array([[1.0, 1.0]]))
    assert cls.present == (0, 1)
    assert cls.recoverable == ()
    assert cls.witnesses.shape == (0, 1)


def test_classify_averaging_matrix():
    cls = classify_components(AVG)
    assert cls.present == (0, 1, 2)
    assert cls.recoverable == (0,)
    assert_allclose(cls.witnesses, [[1.0, 0.0]], atol=1e-12)


def test_classify_chained_columns():
    # Third column is the sum of the first two, so no unit vector is reachable.
    cls = classify_components(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    assert cls.recoverable == ()


def test_classify_zero_column_not_present():
    cls = classify_components(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert cls.present == (0, 2)
    assert cls.recoverable == (0, 2)


def test_classify_rejects_rank_deficient():
    with pytest.raises(RankDeficient):
        classify_components(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(RankDeficient):
        classify_components(np.array([[1.0], [1.0]]))


def test_classify_witnesses_recover_unit_vectors():
    gen = np.random.Generator(np.random.Philox(101))
    for _ in range(50):
        m = int(gen.integers(1, 4))
        n = int(gen.integers(m, 6))
        A = gen.standard_normal((m, n))
        if np.linalg.matrix_rank(A) < m:
            continue
        cls = classify_components(A)
        for row, j in zip(cls.witnesses, cls.recoverable):
            assert_allclose(row @ A, np.eye(n)[j], atol=1e-7)


def test_classify_matches_subset_oracle_small_integer_matrices():
    gen = np.random.Generator(np.random.Philox(102))
    checked = 0
    while checked < 200:
        m = int(gen.integers(1, 4))
        n = int(gen.integers(m, 5))
        A = gen.integers(-1, 2, size=(m, n)).astype(float)
        if np.linalg.matrix_rank(A) < m:
            continue
        assert classify_components(A).recoverable == subset_oracle(A)
        checked += 1


def test_recoverability_tolerance_scales_with_norm():
    A = np.eye(2)
    assert recoverability_tolerance(A) == pytest.approx(1e-8 * (1 + np.sqrt(2.0)))
    assert recoverability_tolerance(10 * A) > recoverability_tolerance(A)


def test_canonical_identity():
    dec = canonical_form(np.eye(3))
    assert dec.r == 3
    assert dec.tail.shape == (0, 0)
    assert_allclose(dec.block_matrix(), np.eye(3), atol=1e-12)


def test_canonical_partial_recovery():
    A = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    dec = canonical_form(A)
    assert dec.r == 1
    block = dec.block_matrix()
    assert_allclose(block[:1, :1], np.eye(1), atol=1e-10)
    assert_allclose(block[:1, 1:], 0.0, atol=1e-10)
    assert_allclose(block[1:, :1], 0.0, atol=1e-10)
    # The tail keeps the unrecoverable pair with equal weights, up to scale.
    tail = dec.tail
    assert tail.shape == (1, 2)
    assert tail[0, 0] == pytest.approx(tail[0, 1], rel=1e-10)


def test_canonical_no_recovery_leaves_matrix_as_tail():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    dec = canonical_form(A)
    assert dec.r == 0
    assert_allclose(dec.B, np.eye(2), atol=1e-10)
    assert_allclose(dec.tail, A, atol=1e-10)


def test_canonical_zero_column_raises():
    with pytest.raises(ZeroColumn):
        canonical_form(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_canonical_reconstruction_random():
    gen = np.random.Generator(np.random.Philox(103))
    for _ in range(50):
        m = int(gen.integers(1, 5))
        n = int(gen.integers(m, 7))
        r = int(gen.integers(0, m + 1))
        core = np.zeros((m, n))
        core[:r, :r] = np.eye(r)
        if m > r:
            core[r:, r:] = gen.standard_normal((m - r, n - r))
        B0 = gen.standard_normal((m, m))
        while abs(np.linalg.det(B0)) < 0.1:
            B0 = gen.standard_normal((m, m))
        P = np.eye(n)[gen.permutation(n)]
        A = np.linalg.solve(B0, core) @ P.T
        if np.linalg.matrix_rank(A) < m or np.any(np.abs(A).max(axis=0) < 1e-12):
            continue
        dec = canonical_form(A)
        assert dec.r == len(classify_components(A).recoverable)
        Pm = np.eye(n)[:, dec.permutation]
        got = dec.B @ A @ Pm
        assert_allclose(got[: dec.r, : dec.r], np.eye(dec.r), atol=1e-10)
        assert_allclose(got[: dec.r, dec.r :], 0.0, atol=1e-10)
        assert_allclose(got[dec.r :, : dec.r], 0.0, atol=1e-10)
        assert abs(np.linalg.det(dec.B)) > 1e-12
        assert_allclose(got, dec.block_matrix(), atol=1e-12)


def test_canonical_recoverable_columns_moved_first():
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    cls = classify_components(A)
    assert cls.recoverable == (1,)
    dec = canonical_form(A)
    assert dec.permutation[0] == 1


def test_gram_schmidt_diagonal():
    red = gram_schmidt_rows(np.array([[2.0, 0.0], [0.0, 3.0]]))
    assert_allclose(red.L, np.diag([0.5, 1 / 3]), atol=1e-12)
    assert_allclose(red.Q, np.eye(2), atol=1e-12)


def test_gram_schmidt_single_row():
    red = gram_schmidt_rows(np.array([[1.0, 1.0, 0.0]]))
    assert_allclose(red.Q, [[2**-0.5, 2**-0.5, 0.0]], atol=1e-12)
    assert_allclose(red.L, [[2**-0.5]], atol=1e-12)


def test_gram_schmidt_properties_random():
    gen = np.random.Generator(np.random.Philox(104))
    for field in ("real", "complex"):
        for _ in range(20):
            m = int(gen.integers(1, 4))
            n = int(gen.integers(m, 6))
            A = gen.standard_normal((m, n))
            if field == "complex":
                A = A + 1j * gen.standard_normal((m, n))
            red = gram_schmidt_rows(A)
            assert_allclose(red.Q @ red.Q.conj().T, np.eye(m), atol=1e-10)
            assert_allclose(red.L @ A, red.Q, atol=1e-10)
            assert_allclose(np.tril(red.L), red.L, atol=1e-12)


def test_gram_schmidt_rank_deficient_raises():
    with pytest.raises(RankDeficient):
        gram_schmidt_rows(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_orthogonal_complement_axis():
    comp = orthogonal_complement(np.array([[1.0, 0.0, 0.0]]))
    assert comp.shape == (2, 3)
    assert_allclose(comp @ np.array([1.0, 0.0, 0.0]), 0.0, atol=1e-12)
    assert_allclose(comp @ comp.T, np.eye(2), atol=1e-12)


def test_orthogonal_complement_averaging_direction():
    comp = orthogonal_complement(np.full((1, 2), 2**-0.5))
    expected = np.array([2**-0.5, -(2**-0.5)])
    assert abs(float(comp[0] @ expected)) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_complement_stacks_to_orthogonal_matrix():
    gen = np.random.Generator(np.random.Philox(105))
    A = gen.standard_normal((2, 5))
    Q = gram_schmidt_rows(A).Q
    full = np.vstack([Q, orthogonal_complement(Q)])
    assert_allclose(full @ full.T, np.eye(5), atol=1e-10)


def test_orthogonal_complement_errors():
    with pytest.raises(AlreadySquare):
        orthogonal_complement(np.eye(2))
    with pytest.raises(NotOrthonormal):
        orthogonal_complement(np.array([[1.0, 1.0, 0.0]]))


def test_log_concavity_gap_diagonal_is_zero():
    assert log_concavity_gap(np.eye(2), [2.0, 5.0]) == pytest.approx(0.0, abs=1e-12)


def test_log_concavity_gap_averaging_row():
    gap = log_concavity_gap(np.full((1, 2), 2**-0.5), [1.0, 4.0])
    assert gap == pytest.approx(np.log(2.5) - np.log(2.0), abs=1e-12)
    assert gap == pytest.approx(0.22314355131420976, abs=1e-12)


def test_log_concavity_gap_equal_scales_vanishes():
    gen = np.random.Generator(np.random.Philox(106))
    A = gen.standard_normal((2, 4))
    Q = gram_schmidt_rows(A).Q
    assert abs(log_concavity_gap(Q, [3.7] * 4)) <= 1e-9


def test_log_concavity_gap_nonnegative_random():
    gen = np.random.Generator(np.random.Philox(107))
    for _ in range(100):
        m = int(gen.integers(1, 4))
        n = int(gen.integers(m + 1, 6))
        Q = gram_schmidt_rows(gen.standard_normal((m, n))).Q
        lam = gen.uniform(0.1, 10.0, n)
        assert log_concavity_gap(Q, lam) >= -1e-9


def test_log_concavity_gap_errors():
    with pytest.raises(NonPositiveLambda):
        log_concavity_gap(np.eye(2), [1.0, -2.0])
    with pytest.raises(NotOrthonormal):
        log_concavity_gap(np.array([[1.0, 1.0]]), [1.0, 1.0])
    with pytest.raises(ValueError):
        log_concavity_gap(np.eye(2), [1.0, 2.0, 3.0])


def test_log_concavity_gap_blocks_matches_scalar_case():
    # Real scales embed as scaled identity blocks, doubling the scalar gap.
    Qhat = hat_embed(np.full((1, 2), 2**-0.5))
    blocks = [np.eye(2), 4.0 * np.eye(2)]
    gap = log_concavity_gap_blocks(Qhat, blocks)
    assert gap == pytest.approx(2 * 0.22314355131420976, abs=1e-12)


def test_log_concavity_gap_blocks_equal_scalar_blocks_vanish():
    gen = np.random.Generator(np.random.Philox(108))
    A = gen.standard_normal((1, 3)) + 1j * gen.standard_normal((1, 3))
    Qhat = hat_embed(gram_schmidt_rows(A).Q)
    b = 1.7 * np.eye(2)
    assert abs(log_concavity_gap_blocks(Qhat, [b, b, b])) <= 1e-9


def test_log_concavity_gap_blocks_nonnegative_random():
    gen = np.random.Generator(np.random.Philox(109))
    for _ in range(50):
        m = int(gen.integers(1, 3))
        n = int(gen.integers(m + 1, 5))
        A = gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))
        Qhat = hat_embed(gram_schmidt_rows(A).Q)
        blocks = []
        for _ in range(n):
            g = gen.standard_normal((2, 2))
            blocks.append(g @ g.T + 0.1 * np.eye(2))
        assert log_concavity_gap_blocks(Qhat, blocks) >= -1e-9


def _blocks_gap_by_eigh(Qhat, blocks):
    # Reference: the dense block-diagonal L and its logarithm from eigh.
    n2 = Qhat.shape[1]
    L = np.zeros((n2, n2))
    logL = np.zeros((n2, n2))
    for j, b in enumerate(blocks):
        w, V = np.linalg.eigh(b)
        L[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = b
        logL[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = (V * np.log(w)) @ V.T
    return np.linalg.slogdet(Qhat @ L @ Qhat.T)[1] - np.trace(Qhat @ logL @ Qhat.T)


def test_log_concavity_gap_blocks_matches_eigh_reference():
    gen = np.random.Generator(np.random.Philox(110))
    for _ in range(200):
        m = int(gen.integers(1, 4))
        n = int(gen.integers(m + 1, 6))
        Qhat = hat_embed(gram_schmidt_rows(gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))).Q)
        blocks = []
        for _ in range(n):
            g = gen.standard_normal((2, 2))
            blocks.append(g @ g.T + 0.05 * np.eye(2))
        assert abs(log_concavity_gap_blocks(Qhat, blocks) - _blocks_gap_by_eigh(Qhat, blocks)) <= 1e-12
        # Any iterable of blocks is accepted.
        assert log_concavity_gap_blocks(Qhat, iter(blocks)) == log_concavity_gap_blocks(Qhat, blocks)


def test_log_concavity_gap_blocks_of_diagonal_blocks_is_the_diagonal_gap():
    gen = np.random.Generator(np.random.Philox(111))
    for _ in range(50):
        m = int(gen.integers(1, 4))
        n = int(gen.integers(m + 1, 6))
        Qhat = hat_embed(gram_schmidt_rows(gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))).Q)
        lam = 0.1 + 10.0 * gen.random(2 * n)
        blocks = [np.diag(lam[2 * j : 2 * j + 2]) for j in range(n)]
        # Qhat read as a real orthonormal-row matrix on the diagonal scales.
        expected = log_concavity_gap(Qhat, lam)
        assert log_concavity_gap_blocks(Qhat, blocks) == pytest.approx(expected, abs=1e-12)


def test_log_concavity_gap_blocks_errors():
    Qhat = hat_embed(np.full((1, 2), 2**-0.5))
    with pytest.raises(NotSpd):
        log_concavity_gap_blocks(Qhat, [np.eye(2), np.array([[1.0, 0.5], [-0.5, 1.0]])])
    with pytest.raises(NotSpd):
        log_concavity_gap_blocks(Qhat, [np.eye(2), -np.eye(2)])
    with pytest.raises(ValueError):
        log_concavity_gap_blocks(Qhat, [np.eye(2)])
    # Orthonormal rows that do not follow the paired 2x2 layout are rejected.
    bad = np.eye(4)[:2]
    bad[1, 1] = 0.0
    bad[1, 2] = 1.0
    with pytest.raises(BadBlockStructure):
        log_concavity_gap_blocks(bad, [np.eye(2), np.eye(2)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "fn", [classify_components, canonical_form, rank_of, gram_schmidt_rows], ids=lambda f: f.__name__
)
def test_non_finite_matrix_rejected(fn, bad):
    with pytest.raises(ValueError, match="finite"):
        fn(np.array([[bad, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "fn", [classify_components, canonical_form, rank_of, gram_schmidt_rows], ids=lambda f: f.__name__
)
def test_public_call_checks_its_matrix_once(fn, monkeypatch):
    import mixent.matrix_analysis as ma

    calls = []
    as_array = ma.as_array
    monkeypatch.setattr(ma, "as_array", lambda A: calls.append(A) or as_array(A))
    fn(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]]))
    assert len(calls) == 1


SMALL_SHAPES = [(m, n) for m in range(1, 4) for n in range(m, 5)]


def _planted(gen, m, n, r, complex_field):
    """B0^-1 [[I_r, 0], [0, tail]] P^T for a random invertible B0 and permutation P."""

    def draw(shape):
        z = gen.standard_normal(shape)
        return z + 1j * gen.standard_normal(shape) if complex_field else z

    core = np.zeros((m, n), dtype=np.complex128 if complex_field else np.float64)
    core[:r, :r] = np.eye(r)
    core[r:, r:] = draw((m - r, n - r))
    B0 = draw((m, m))
    while abs(np.linalg.det(B0)) < 0.1:
        B0 = draw((m, m))
    return np.linalg.solve(B0, core) @ np.eye(n)[gen.permutation(n)].T


def _analyze(A, tol=None):
    cls = classify_components(A, tol=tol)
    record = {
        "classification": classification_to_dict(cls),
        "witness_layout": [str(cls.witnesses.dtype), list(cls.witnesses.shape)],
    }
    if len(cls.present) == A.shape[1]:
        record["canonical"] = canonical_to_dict(canonical_form(A, tol=tol))
    return record


def test_classification_golden_digest():
    """Pins the exact bytes of 185 classifications and canonical forms.

    Covers full-rank {-1, 0, 1} matrices of every shape with m <= 3, n <= 4,
    planted real and complex matrices with r = 0, 0 < r < m and r = m, and
    one caller-given tolerance.  The digest holds the float bits of the
    LAPACK build bundled with numpy 2.4.6; other builds may round the
    witnesses differently.
    """
    if np.__version__ != "2.4.6":
        pytest.skip(f"digest recorded with numpy 2.4.6, running {np.__version__}")
    gen = np.random.Generator(np.random.Philox(104))
    records = []
    for m, n in SMALL_SHAPES:
        kept = 0
        while kept < 12:
            A = gen.integers(-1, 2, size=(m, n)).astype(float)
            if rank_of(A) == m:
                records.append(_analyze(A))
                kept += 1
    for complex_field in (False, True):
        for m, n in SMALL_SHAPES:
            # r = m only for square shapes: otherwise the planted matrix has zero columns.
            for r in range(m + (n == m)):
                for _ in range(2):
                    records.append(_analyze(_planted(gen, m, n, r, complex_field)))
    records.append(_analyze(_planted(gen, 3, 4, 1, False), tol=1e-3))
    digest = hashlib.sha256(canonical_json(records).encode()).hexdigest()
    assert digest == "b0330befb29cb02fd6318125e108c4123e7568dee396aa1936d0b657bd68652c"


def test_classify_rank_check_matches_rank_of():
    for m, n in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 3)]:
        for entries in itertools.product((-1.0, 0.0, 1.0), repeat=m * n):
            A = np.array(entries).reshape(m, n)
            deficient = rank_of(A) < m
            try:
                classify_components(A)
            except RankDeficient:
                assert deficient, A
            else:
                assert not deficient, A


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None)


@st.composite
def full_rank_signs(draw):
    """Full-row-rank {-1, 0, 1} matrices with m <= 3 rows and m <= n <= 4 columns."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 4))
    entries = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=m * n, max_size=m * n))
    A = np.array(entries).reshape(m, n)
    assume(rank_of(A) == m)
    return A


@st.composite
def unimodular(draw, m):
    """Integer m x m matrices with |det| = 1, as products of elementary row operations."""
    B = np.eye(m)
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            B[i] += draw(st.sampled_from([-1.0, 1.0])) * B[j]
        elif op == "swap":
            B[[i, j]] = B[[j, i]]
        elif op == "negate":
            B[i] = -B[i]
    return B


@PROPERTY_SETTINGS
@given(data=st.data())
def test_recoverable_invariant_under_unimodular_row_transform(data):
    A = data.draw(full_rank_signs())
    B = data.draw(unimodular(A.shape[0]))
    assert classify_components(B @ A).recoverable == classify_components(A).recoverable


@PROPERTY_SETTINGS
@given(data=st.data())
def test_recoverable_follows_column_permutation(data):
    A = data.draw(full_rank_signs())
    perm = data.draw(st.permutations(range(A.shape[1])))
    rec = set(classify_components(A).recoverable)
    assert classify_components(A[:, perm]).recoverable == tuple(
        k for k, j in enumerate(perm) if j in rec
    )


@PROPERTY_SETTINGS
@given(A=full_rank_signs())
def test_canonical_form_reconstructs_and_round_trips(A):
    assume(np.all(np.abs(A).max(axis=0) > 0))
    dec = canonical_form(A)
    assert_allclose(dec.B @ A[:, list(dec.permutation)], dec.block_matrix(), atol=1e-10)
    dec_dict = canonical_to_dict(dec)
    assert json.loads(canonical_json(dec_dict)) == dec_dict
    cls_dict = classification_to_dict(classify_components(A))
    back = json.loads(canonical_json(cls_dict))
    assert back == cls_dict
    assert classification_to_dict(classification_from_dict(back)) == cls_dict


def _check_annihilator(A, dec):
    """The bottom rows of B: m - r orthonormal rows that zero the recoverable
    columns; returns them."""
    m = A.shape[0]
    rec = list(dec.permutation[: dec.r])
    bottom = dec.B[dec.r :]
    assert bottom.shape == (m - dec.r, m)
    assert np.abs(bottom @ bottom.conj().T - np.eye(m - dec.r)).max(initial=0.0) <= 1e-12
    assert np.abs(bottom @ A[:, rec]).max(initial=0.0) <= 1e-12
    return bottom


def _compare_annihilator(A, dec, same_build):
    bottom = _check_annihilator(A, dec)
    if same_build:
        ref = scipy.linalg.null_space(A[:, list(dec.permutation[: dec.r])].T).T
        assert ref.dtype == bottom.dtype and ref.shape == bottom.shape
        assert ref.tobytes() == bottom.tobytes()


def test_canonical_annihilator_matches_scipy_null_space():
    """The annihilator rows are those of ``scipy.linalg.null_space``, bit for
    bit, on the numpy 2.4.6 build (the one the golden digest was recorded
    with); on every build they are orthonormal and zero the recoverable
    columns."""
    same_build = np.__version__ == "2.4.6"
    gen = np.random.Generator(np.random.Philox(105))
    checked = {"real": 0, "complex": 0, "signs": 0}
    # Shapes with 0 < r < m; a square full-rank matrix has r = m.
    for m, n in [(m, n) for m, n in SMALL_SHAPES if 2 <= m < n]:
        for r in range(1, m):
            for complex_field in (False, True):
                for _ in range(10):
                    A = _planted(gen, m, n, r, complex_field)
                    dec = canonical_form(A)
                    assert dec.r == r
                    _compare_annihilator(A, dec, same_build)
                    checked["complex" if complex_field else "real"] += 1
        kept = 0
        while kept < 12:
            A = gen.integers(-1, 2, size=(m, n)).astype(float)
            if rank_of(A) < m or not np.abs(A).max(axis=0).all():
                continue
            dec = canonical_form(A)
            if 0 < dec.r < m:
                _compare_annihilator(A, dec, same_build)
                checked["signs"] += 1
                kept += 1
    assert checked == {"real": 40, "complex": 40, "signs": 36}


GAUSSIAN_UNITS = [1.0, -1.0, 1j, -1j]


@st.composite
def complex_planted(draw):
    """B0^-1 [[I_r, 0], [0, tail]] with columns reordered, for a Gaussian-integer
    unimodular B0 and a Gaussian-integer tail; returns (A, planted columns)."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 4))
    r = draw(st.integers(0, m if n == m else m - 1))
    core = np.zeros((m, n), dtype=np.complex128)
    core[:r, :r] = np.eye(r)
    parts = st.sampled_from([-1.0, 0.0, 1.0])
    for i in range(r, m):
        for j in range(r, n):
            core[i, j] = complex(draw(parts), draw(parts))
    B0 = np.eye(m, dtype=np.complex128)
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if i != j:
            B0[i] += draw(st.sampled_from(GAUSSIAN_UNITS)) * B0[j]
        else:
            B0[i] *= draw(st.sampled_from(GAUSSIAN_UNITS))
    order = draw(st.permutations(range(n)))
    A = np.linalg.solve(B0, core)[:, order]
    assume(rank_of(A) == m and np.abs(A).max(axis=0).all())
    return A, {k for k, j in enumerate(order) if j < r}


@PROPERTY_SETTINGS
@given(planted=complex_planted())
def test_canonical_form_of_complex_planted_matrix(planted):
    A, planted_rec = planted
    dec = canonical_form(A)
    assert dec.field == "complex"
    rec = dec.permutation[: dec.r]
    assert planted_rec <= set(rec)
    assert rec == classify_components(A).recoverable
    assert_allclose(dec.B @ A[:, list(dec.permutation)], dec.block_matrix(), atol=1e-10)
    _check_annihilator(A, dec)
