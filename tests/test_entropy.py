import math
import re

import numpy as np
import pytest
from scipy.special import digamma, gammaln
from hypothesis import given, settings
from hypothesis import strategies as st

from mixent import (
    DegenerateData,
    DuplicatePoints,
    RankDeficient,
    TooFewSamples,
    circular_gaussian,
    exact_entropy,
    exponential,
    gaussian,
    gaussian_mix_entropy,
    knn_entropy,
    laplace,
    sample,
    spacing_entropy,
    surrogate_sigma,
    uniform,
)
from mixent.complex_embedding import embed_samples
from mixent.entropy import (
    SpacingWorkspace,
    _knn_value,
    default_spacing_window,
    estimate_entropy,
    spacing_entropy_value,
    spacings_apply,
)

H_NORMAL = 0.5 * np.log(2 * np.pi * np.e)
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None)
AVG = np.array([[1.0, 0.0, 0.0], [0.0, 2**-0.5, 2**-0.5]])


def test_spacing_calibration():
    cases = (
        (gaussian(1.0), H_NORMAL),
        (uniform(0.0, 1.0), 0.0),
        (exponential(1.0), 1.0),
        (laplace(1.0), 1.0 + np.log(2.0)),
    )
    for model, h in cases:
        x = sample(model, 20000, 3)
        est = spacing_entropy(x)
        assert est.value == pytest.approx(h, abs=0.03)
        assert est.method == "spacing"
        assert est.n_samples == 20000
        assert est.std_error > 0.0


def test_spacing_scale_equivariance_exact():
    x = sample(gaussian(1.0), 5000, 7)
    base = spacing_entropy(x).value
    for a in (0.1, 2.0, 10.0):
        assert spacing_entropy(a * x).value == pytest.approx(base + np.log(a), abs=1e-12)
    assert spacing_entropy(-2.0 * x).value == pytest.approx(base + np.log(2.0), abs=1e-12)


def test_spacing_shift_invariance_exact():
    x = sample(laplace(1.0), 5000, 8)
    assert spacing_entropy(x + 100.0).value == pytest.approx(
        spacing_entropy(x).value, abs=1e-9
    )


def test_spacing_window_default():
    assert default_spacing_window(100) == 10
    assert default_spacing_window(10000) == 100
    assert default_spacing_window(10) == 3
    for n in [*range(5000), 20_000, 10**6, 10**9]:
        got = default_spacing_window(n)
        assert type(got) is int and got == int(np.clip(round(math.sqrt(n)), 1, n // 2)), n
    x = sample(gaussian(1.0), 400, 1)
    est = spacing_entropy(x)
    assert est.params == {"m": 20}
    est50 = spacing_entropy(x, m=50)
    assert est50.params == {"m": 50}


def test_spacing_window_checked_against_sample_size():
    x = sample(uniform(0.0, 1.0), 1000, 38)
    for m in (0, 501, 600):
        with pytest.raises(ValueError, match=rf"^m must be in \[1, 500\], got {m}$"):
            spacing_entropy(x, m=m)
    assert np.isfinite(spacing_entropy(x, m=500).value)


def test_spacing_errors():
    with pytest.raises(TooFewSamples):
        spacing_entropy(np.arange(5.0))
    with pytest.raises(DegenerateData):
        spacing_entropy(np.ones(100))
    with pytest.raises(ValueError):
        spacing_entropy(np.ones((50, 2)))
    x = sample(gaussian(1.0), 100, 1)
    with pytest.raises(ValueError):
        spacing_entropy(x, m=60)
    with pytest.raises(ValueError):
        spacing_entropy(x, m=0)


NOT_INTEGERS = pytest.mark.parametrize(
    "value", [2.5, 4.0, np.float64(4.0), True, np.bool_(True), "4"],
    ids=["fraction", "integral_float", "numpy_float", "bool", "numpy_bool", "str"],
)


@NOT_INTEGERS
def test_spacing_window_must_be_an_integer(value):
    x = sample(gaussian(1.0), 400, 1)
    with pytest.raises(ValueError, match=rf"^m must be an integer, got {re.escape(repr(value))}$"):
        spacing_entropy(x, m=value)
    assert spacing_entropy(x, m=np.int64(20)) == spacing_entropy(x, m=20)


@NOT_INTEGERS
def test_knn_order_must_be_an_integer(value):
    # Checked before the sample size, so a short sample names k too.
    gen = np.random.Generator(np.random.Philox(22))
    for n in (100, 10):
        with pytest.raises(ValueError, match=rf"^k must be an integer, got {re.escape(repr(value))}$"):
            knn_entropy(gen.standard_normal((n, 2)), k=value)
    pts = gen.standard_normal((100, 2))
    assert knn_entropy(pts, k=np.int64(4)) == knn_entropy(pts)


def test_spacing_rejects_non_finite():
    x = sample(gaussian(1.0), 2000, 12)
    x[100] = np.nan
    with pytest.raises(DegenerateData, match="1 non-finite"):
        spacing_entropy(x)
    x[200] = -np.inf
    with pytest.raises(DegenerateData, match="2 non-finite"):
        spacing_entropy(x, m=5)


def test_spacing_deterministic():
    x = sample(gaussian(1.0), 2000, 11)
    assert spacing_entropy(x).value == spacing_entropy(x.copy()).value


def _reference_spacing_value(samples, m):
    # The original lo/hi formulation of the m-spacing kernel, kept verbatim:
    # the optimized kernel must reproduce it bit for bit.
    x = np.sort(samples)
    n = x.size
    lo = np.empty(n)
    hi = np.empty(n)
    lo[:m] = x[0]
    lo[m:] = x[:-m]
    hi[: n - m] = x[m:]
    hi[n - m :] = x[-1]
    d = hi - lo
    c = np.full(n, 2.0)
    i = np.arange(m, dtype=np.float64)
    c[:m] = 1.0 + i / m
    c[n - m :] = 1.0 + i[::-1] / m
    pos = d > 0
    if not pos.any():
        raise DegenerateData("all samples are equal")
    return float(np.mean(np.log(d[pos] / c[pos]))) + math.log(n / m)


def test_spacing_value_bit_identical_to_reference():
    gen = np.random.Generator(np.random.Philox(2003))
    cases = []
    for n in (10, 11, 50, 1000, 20000):
        x = gen.standard_normal(n)
        tied = np.round(x, 1)
        with_nan = x.copy()
        with_nan[n // 3] = np.nan
        for m in sorted({1, 2, default_spacing_window(n), n // 2}):
            cases += [(x, m), (tied, m), (with_nan, m)]
    cases += [(gen.uniform(size=11), m) for m in range(1, 6)]
    for x, m in cases:
        assert spacing_entropy_value(x, m) == _reference_spacing_value(x, m), (x.size, m)
    for m in (1, 5):
        with pytest.raises(DegenerateData):
            spacing_entropy_value(np.full(10, 3.0), m)
        with pytest.raises(DegenerateData):
            _reference_spacing_value(np.full(10, 3.0), m)


def test_spacing_workspace_reuse_bit_identical_to_reference():
    # One workspace per (n, m) scores Gaussian, then tied, then Gaussian data
    # again, so anything left in its buffers by an earlier call would show.
    # Subnormal spacings check that halving rounds as dividing by 2 does,
    # and that a positive spacing whose ratio underflows still gives -inf.
    gen = np.random.Generator(np.random.Philox(2004))
    for n in (10, 11, 1000, 20000):
        for m in sorted({1, default_spacing_window(n), n // 2}):
            work = SpacingWorkspace(n, m)
            x = gen.standard_normal(n)
            tied = np.round(gen.standard_normal(n), 1)
            for data in (x, tied, gen.standard_normal(n), 1e-318 * x, x):
                buf = data.copy()
                with np.errstate(divide="ignore"):
                    value, ref = spacing_entropy_value(buf, m, work), _reference_spacing_value(data, m)
                assert value == ref, (n, m)
                assert np.array_equal(buf, np.sort(data))
            with pytest.raises(DegenerateData):
                spacing_entropy_value(np.full(n, 3.0), m, work)
            assert spacing_entropy_value(x.copy(), m, work) == _reference_spacing_value(x, m)


def test_spacing_workspace_rejects_other_sizes():
    work = SpacingWorkspace(100, 5)
    x = np.linspace(0.0, 1.0, 101)
    with pytest.raises(ValueError, match="workspace is for n=100, m=5"):
        spacing_entropy_value(x, 5, work)
    with pytest.raises(ValueError, match="workspace is for n=100, m=5"):
        spacing_entropy_value(x[:100].copy(), 6, work)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(10, 2000),
    m_frac=st.floats(0.0, 1.0),
    a=st.floats(1e-3, 1e3),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_spacing_value_scale_equivariant(seed, n, m_frac, a, sign):
    x = np.random.Generator(np.random.Philox(seed)).standard_normal(n)
    m = 1 + int(m_frac * (n // 2 - 1))
    shift = spacing_entropy_value(sign * a * x, m) - spacing_entropy_value(x, m)
    assert abs(shift - math.log(a)) <= 1e-12


def test_spacings_apply_to_one_real_column_only():
    # The one rule behind estimate_entropy's choice and the cli's spacing check.
    assert spacings_apply("real", 1)
    assert not spacings_apply("real", 2)
    assert not spacings_apply("complex", 1)
    with pytest.raises(ValueError, match="field must be"):
        spacings_apply("quaternion", 1)
    x = sample(gaussian(1.0), 2000, 4)
    assert estimate_entropy(x[:, None], "real").method == "spacing"
    assert estimate_entropy(np.column_stack((x, x[::-1])), "real").method == "knn"


def test_knn_two_dimensional_normal():
    gen = np.random.Generator(np.random.Philox(3))
    pts = gen.standard_normal((20000, 2))
    est = knn_entropy(pts)
    assert est.value == pytest.approx(np.log(2 * np.pi * np.e), abs=0.05)
    assert est.method == "knn"
    assert est.params == {"k": 4}


def test_knn_additivity_independent_blocks():
    a = sample(uniform(0.0, 1.0), 100000, 12)
    b = sample(laplace(1.0), 100000, 13)
    joint = knn_entropy(np.column_stack((a, b)))
    marginals = knn_entropy(a.reshape(-1, 1)).value + knn_entropy(b.reshape(-1, 1)).value
    assert joint.value == pytest.approx(marginals, abs=0.05)


def test_knn_complex_column_auto_embeds():
    z = sample(circular_gaussian(1.0), 20000, 3)
    est = knn_entropy(z.reshape(-1, 1))
    assert est.value == pytest.approx(np.log(np.pi * np.e), abs=0.05)


def test_knn_scale_equivariance():
    gen = np.random.Generator(np.random.Philox(21))
    pts = gen.standard_normal((2000, 3))
    base = knn_entropy(pts).value
    got = knn_entropy(5.0 * pts).value
    assert got == pytest.approx(base + 3 * np.log(5.0), abs=1e-9)


def test_knn_duplicates():
    # Fewer than k = 4 duplicates per point are estimated as they are, by the
    # rule the extraction search scores rows with; k or more raise.
    pts = np.repeat(np.arange(30.0), 3).reshape(-1, 1)
    assert knn_entropy(pts).value == _knn_value(pts, 4)
    with pytest.raises(DuplicatePoints, match="zero 4-th neighbor distance: 5 or more equal"):
        knn_entropy(np.repeat(np.arange(30.0), 5).reshape(-1, 1))


def brute_force_knn_value(pts, k):
    # Every pairwise distance, summed over the coordinates in order and then
    # rooted as a kd-tree query does, and the k-th neighbor of each point by
    # partition (the point itself is the 0-th).
    n, d = pts.shape
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    eps = np.partition(dist, k, axis=1)[:, k]
    log_vd = 0.5 * d * math.log(math.pi) - gammaln(0.5 * d + 1.0)
    return float(digamma(n) - digamma(k) + log_vd + d * np.mean(np.log(eps)))


def knn_exactness_case(name, k):
    gen = np.random.Generator(np.random.Philox(23))
    if name == "real_1d":
        return gen.standard_normal((700, 1))
    if name == "real_2d":
        return gen.uniform(-1.0, 1.0, (700, 2))
    if name == "complex":
        return embed_samples((gen.standard_normal(700) + 1j * gen.standard_normal(700))[:, None])
    # Each of the first 40 points k - 1 more times: the most duplicates that
    # still leave a nonzero k-th neighbor distance.
    pts = gen.standard_normal((580, 2))
    return np.concatenate([pts, np.repeat(pts[:40], k - 1, axis=0)])


@pytest.mark.parametrize("name", ["real_1d", "real_2d", "complex", "duplicates"])
@pytest.mark.parametrize("k", [2, 4])
def test_knn_value_is_the_brute_force_value(name, k):
    # The kd-tree is only an index: whatever its splits, each k-th neighbor
    # distance is the exact one, so the estimate keeps every bit.
    pts = knn_exactness_case(name, k)
    assert _knn_value(pts, k) == brute_force_knn_value(pts, k)


def test_knn_rejects_grid_data():
    # Standard normals on a 0.1 grid: the estimate would be minus infinity.
    pts = np.round(np.random.Generator(np.random.Philox(7)).standard_normal((20000, 2)), 1)
    with pytest.raises(DuplicatePoints):
        knn_entropy(pts)


def duplicate_case(name):
    pts = np.random.Generator(np.random.Philox(22)).standard_normal((60, 3))
    if name == "signed_zero":
        pts[3] = pts[7] = (0.0, 1.0, 2.0)
        pts[7, 0] = -0.0
    elif name == "later_column":
        pts[7, :2] = pts[3, :2]  # rows 3 and 7 tie in columns 0 and 1 only
    elif name == "repeated":
        pts[40:] = pts[:20]
    return pts


DUPLICATE_CASES = {"distinct": False, "signed_zero": True, "later_column": False, "repeated": True}


@pytest.mark.parametrize("name", sorted(DUPLICATE_CASES))
def test_knn_duplicate_check_matches_unique(name):
    # np.unique(axis=0) is the reference for which inputs repeat a row, taking
    # -0.0 == 0.0; with or without repeats the estimate is the search's value.
    pts = duplicate_case(name)
    assert (np.unique(pts, axis=0).shape[0] < len(pts)) == DUPLICATE_CASES[name]
    assert knn_entropy(pts).value == _knn_value(pts, 4)


def test_knn_rejects_non_finite():
    gen = np.random.Generator(np.random.Philox(13))
    pts = gen.standard_normal((500, 2))
    pts[10, 1] = np.nan
    with pytest.raises(DegenerateData, match="1 non-finite"):
        knn_entropy(pts)
    z = pts[:, 0] + 1j * pts[:, 0]
    z[20] = complex(np.inf, 0.0)
    with pytest.raises(DegenerateData, match="1 non-finite"):
        knn_entropy(z)


def test_knn_errors():
    gen = np.random.Generator(np.random.Philox(22))
    with pytest.raises(TooFewSamples):
        knn_entropy(gen.standard_normal((49, 2)))
    with pytest.raises(ValueError):
        knn_entropy(gen.standard_normal((100, 2)), k=0)
    with pytest.raises(ValueError):
        knn_entropy(gen.standard_normal((4, 5, 2)))


def test_surrogate_sigma_real():
    s = surrogate_sigma(H_NORMAL)
    assert s.sigma == pytest.approx(1.0, abs=1e-12)
    assert s.field == "real"
    assert surrogate_sigma(0.0).sigma == pytest.approx(0.24197072451914337, abs=1e-12)


def test_surrogate_sigma_complex():
    s = surrogate_sigma(np.log(np.pi * np.e), field="complex")
    assert s.sigma == pytest.approx(1.0, abs=1e-12)


def test_surrogate_sigma_round_trip():
    gen = np.random.Generator(np.random.Philox(23))
    for _ in range(20):
        sig = float(gen.uniform(0.1, 5.0))
        assert surrogate_sigma(exact_entropy(gaussian(sig))).sigma == pytest.approx(
            sig, rel=1e-12
        )
        got = surrogate_sigma(exact_entropy(circular_gaussian(sig)), field="complex")
        assert got.sigma == pytest.approx(sig, rel=1e-12)
    with pytest.raises(ValueError):
        surrogate_sigma(0.0, field="quaternion")


def test_gaussian_mix_entropy_orthonormal_rows():
    assert gaussian_mix_entropy(np.eye(2), [1.0, 1.0]) == pytest.approx(
        2 * H_NORMAL, abs=1e-12
    )
    assert gaussian_mix_entropy(AVG, [1.0, 1.0, 1.0]) == pytest.approx(
        np.log(2 * np.pi * np.e), abs=1e-12
    )


def test_gaussian_mix_entropy_diagonal():
    got = gaussian_mix_entropy(np.eye(2), [2.0, 1.0])
    assert got == pytest.approx(2 * H_NORMAL + np.log(2.0), abs=1e-12)


def test_gaussian_mix_entropy_identity_decomposition():
    gen = np.random.Generator(np.random.Philox(24))
    for _ in range(20):
        m = int(gen.integers(1, 4))
        n = int(gen.integers(m, 6))
        A = gen.standard_normal((m, n))
        if np.linalg.matrix_rank(A) < m:
            continue
        sig = float(gen.uniform(0.5, 2.0))
        _, logdet = np.linalg.slogdet(A @ A.T)
        expected = m * exact_entropy(gaussian(sig)) + 0.5 * logdet
        assert gaussian_mix_entropy(A, [sig] * n) == pytest.approx(expected, abs=1e-10)


def test_gaussian_mix_entropy_complex():
    Au = np.array([[2**-0.5, 2**-0.5 * 1j]])
    assert gaussian_mix_entropy(Au, [1.0, 1.0]) == pytest.approx(
        np.log(np.pi * np.e), abs=1e-12
    )


def test_gaussian_mix_entropy_tall_matrix_rank_deficient():
    # Two outputs of one Gaussian: A S A^T is singular and the entropy is -inf.
    with pytest.raises(RankDeficient):
        gaussian_mix_entropy(np.array([[1.0], [2.0]]), [1.0])


def test_gaussian_mix_entropy_errors():
    with pytest.raises(RankDeficient):
        gaussian_mix_entropy(np.array([[1.0, 1.0], [1.0, 1.0]]), [1.0, 1.0])
    with pytest.raises(ValueError):
        gaussian_mix_entropy(np.eye(2), [1.0])
    with pytest.raises(ValueError):
        gaussian_mix_entropy(np.eye(2), [1.0, -1.0])


@pytest.mark.parametrize("sigma", [np.inf, np.nan])
def test_gaussian_mix_entropy_rejects_non_finite_sigmas(sigma):
    with pytest.raises(ValueError, match="sigmas must be finite and strictly positive"):
        gaussian_mix_entropy(np.eye(2), [1.0, sigma])
