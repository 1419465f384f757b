import time

import numpy as np
import pytest

from mixent import (
    EpiExperimentConfig,
    EstimatorSettings,
    MixingMatrix,
    NotOrthonormal,
    UnsupportedFamily,
    circular_gaussian,
    exponential,
    expectation_inequality_check,
    gaussian,
    gaussian_mixture,
    laplace,
    match_entropy,
    run_epi_trial,
    run_equality_suite,
    run_lemma2_sweep,
    sample_sources,
    uniform,
    unit_variance_uniform,
)

H_NORMAL = 0.5 * np.log(2 * np.pi * np.e)
AVG_ROW = np.full((1, 2), 2**-0.5)
STRICT_GAP = 0.5 * (1.0 - np.log(2.0))  # averaging two unit-variance uniforms


def config(matrix, sources, n_samples=20000, seed=3, **kw):
    return EpiExperimentConfig(
        matrix=MixingMatrix.from_array(matrix),
        sources=tuple(sources),
        n_samples=n_samples,
        seed=seed,
        **kw,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        config(np.eye(2), [gaussian(1.0)])
    with pytest.raises(ValueError):
        config(np.eye(2), [gaussian(1.0)] * 2, n_samples=500)
    with pytest.raises(ValueError):
        config(np.eye(2), [gaussian(1.0)] * 2, trials=0)
    with pytest.raises(UnsupportedFamily):
        config(np.eye(2), [gaussian(1.0), circular_gaussian(1.0)])
    with pytest.raises(UnsupportedFamily):
        config(np.eye(2) + 0j, [gaussian(1.0)] * 2)


def test_sample_sources_layout_and_streams():
    srcs = [uniform(0.0, 1.0), gaussian(1.0), exponential(1.0)]
    X = sample_sources(srcs, 500, 3)
    assert X.shape == (500, 3)
    assert np.array_equal(X, sample_sources(srcs, 500, 3))
    assert not np.array_equal(X, sample_sources(srcs, 500, 4))
    assert not np.array_equal(X, sample_sources(srcs, 500, 3, trial=1))
    assert not np.array_equal(X[:, 0], X[:, 1])
    Z = sample_sources([circular_gaussian(1.0)] * 2, 500, 3)
    assert Z.dtype == np.complex128


def test_identity_matrix_gap_near_zero():
    rep = run_epi_trial(config(np.eye(2), [unit_variance_uniform(), laplace(1.0)], seed=4))
    assert abs(rep.gap) <= 0.04
    assert rep.verdict == "near_equality"
    assert not rep.trivial


def test_single_row_strict_case():
    rep = run_epi_trial(config(AVG_ROW, [unit_variance_uniform()] * 2))
    assert rep.gap == pytest.approx(STRICT_GAP, abs=0.05)
    assert rep.verdict == "strict"
    assert rep.lhs.method == "spacing"
    assert rep.rhs == pytest.approx(
        2 * np.log(2 * np.sqrt(3.0)) - np.log(2 * np.sqrt(3.0)), abs=1e-9
    )


def test_single_row_gaussian_equality():
    rep = run_epi_trial(config(AVG_ROW, [gaussian(1.0)] * 2, seed=4))
    assert abs(rep.gap) <= 0.02
    assert rep.verdict == "near_equality"


def test_trivial_rank_deficient_short_circuits():
    t0 = time.perf_counter()
    rep = run_epi_trial(
        config(np.array([[1.0, 1.0], [1.0, 1.0]]), [gaussian(1.0)] * 2, n_samples=10**6)
    )
    assert time.perf_counter() - t0 < 0.1  # no sampling happened
    assert rep.trivial
    assert rep.lhs is None
    assert rep.rhs == float("-inf")
    assert rep.gap is None
    assert rep.verdict == "near_equality"


def test_multi_trial_aggregation():
    cfg = config(AVG_ROW, [unit_variance_uniform()] * 2, n_samples=2000, trials=3)
    rep = run_epi_trial(cfg)
    assert len(rep.per_trial_gaps) == 3
    assert rep.gap == pytest.approx(float(np.mean(rep.per_trial_gaps)), abs=1e-12)
    assert rep.trials == 3
    assert rep.gap_std_error > 0.0


def test_report_deterministic():
    cfg = config(AVG_ROW, [unit_variance_uniform()] * 2, n_samples=2000)
    a = run_epi_trial(cfg)
    b = run_epi_trial(cfg)
    assert a.gap == b.gap
    assert a.lhs.value == b.lhs.value


def test_tolerance_multiplier_controls_verdict():
    est = EstimatorSettings(tolerance_multiplier=0.0)
    cfg = config(AVG_ROW, [unit_variance_uniform()] * 2, estimator=est)
    rep = run_epi_trial(cfg)
    assert rep.tolerance == 0.0
    assert rep.verdict == "strict"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tolerance_multiplier": -3}, "estimator 'tolerance_multiplier' must be finite and at least 0, got -3.0"),
        ({"tolerance_multiplier": float("nan")}, "estimator 'tolerance_multiplier' must be finite and at least 0, got nan"),
        ({"tolerance_multiplier": float("inf")}, "estimator 'tolerance_multiplier' must be finite and at least 0, got inf"),
        ({"knn_k": 0}, "estimator 'knn_k' must be at least 1, got 0"),
        ({"knn_k": -2}, "estimator 'knn_k' must be at least 1, got -2"),
    ],
    ids=["negative_multiplier", "nan_multiplier", "inf_multiplier", "zero_k", "negative_k"],
)
def test_estimator_settings_reject_bad_values(kwargs, message):
    # A negative or NaN multiplier would turn every verdict into a violation
    # or a vacuous strict; 0 stays valid and makes the tolerance exactly 0.
    with pytest.raises(ValueError) as info:
        EstimatorSettings(**kwargs)
    assert str(info.value) == message


def test_left_invertible_invariance():
    srcs = [unit_variance_uniform()] * 2
    a = run_epi_trial(config(AVG_ROW, srcs, n_samples=10000))
    b = run_epi_trial(config(2.0 * AVG_ROW, srcs, n_samples=10000))
    assert abs(a.gap - b.gap) <= 2 * (a.gap_std_error + b.gap_std_error)


def test_monte_carlo_epi_random_mixtures():
    pool = [
        unit_variance_uniform(),
        laplace(1.0),
        exponential(1.0),
        gaussian_mixture((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0)),
    ]
    below = 0
    for t in range(100):
        gen = np.random.Generator(np.random.Philox(7000 + t))
        m = int(gen.integers(2, 4))
        n = int(gen.integers(m + 1, 5))
        while True:
            A = gen.uniform(-1.0, 1.0, size=(m, n))
            if np.linalg.matrix_rank(A) == m:
                break
        srcs = tuple(pool[int(gen.integers(0, len(pool)))] for _ in range(n))
        rep = run_epi_trial(config(A, srcs, n_samples=10000, seed=7000 + t))
        if rep.gap < -0.03:
            below += 1
        assert rep.gap >= -max(0.03, rep.tolerance)
    assert below <= 5


def test_equality_suite_mixed_expectations():
    cfgs = [
        config(AVG_ROW, [gaussian(1.0)] * 2, seed=4),
        config(AVG_ROW, [unit_variance_uniform()] * 2, seed=4),
        config(np.array([[2**-0.5, 2**-0.5 * 1j]]), [circular_gaussian(1.0)] * 2, seed=4),
    ]
    suite = run_equality_suite(cfgs)
    assert [c.expected for c in suite.cases] == ["equality", "strict", "equality"]
    assert all(c.ok for c in suite.cases)
    assert suite.all_pass
    strict = suite.cases[1]
    assert strict.margin > 0.05
    assert strict.margin_provenance["method"] == "pilot"
    assert strict.margin_provenance["n_samples"] == 200000
    assert suite.cases[0].margin is None


def test_equality_suite_accepts_explicit_margins():
    cfgs = [config(AVG_ROW, [unit_variance_uniform()] * 2)]
    suite = run_equality_suite(cfgs, margins=[0.1])
    assert suite.cases[0].margin == pytest.approx(0.1)
    assert suite.cases[0].margin_provenance == {"method": "provided"}
    assert suite.all_pass
    with pytest.raises(ValueError):
        run_equality_suite(cfgs, margins=[0.1, 0.2])


def test_lemma_sweep_no_violations():
    rep = run_lemma2_sweep(200, seed=0)
    assert rep.count == 200
    assert rep.violations == 0
    assert rep.min_gap >= -1e-9
    assert rep.max_gap >= rep.median_gap >= rep.min_gap
    assert rep.equal_scale_count == 20
    assert rep.equal_scale_max_abs_gap <= 1e-9
    assert rep.block_count == 20
    assert rep.block_violations == 0
    assert rep.block_min_gap >= -1e-9


def test_lemma_sweep_deterministic():
    a = run_lemma2_sweep(100, seed=5)
    b = run_lemma2_sweep(100, seed=5)
    assert a == b


def test_lemma_sweep_validation():
    with pytest.raises(ValueError):
        run_lemma2_sweep(0)
    with pytest.raises(ValueError):
        run_lemma2_sweep(10, max_m=6, max_n=6)
    with pytest.raises(ValueError):
        run_lemma2_sweep(10, max_m=2, max_n=9)
    with pytest.raises(ValueError):
        run_lemma2_sweep(10, lam_range=(1.0, 0.5))


def test_expectation_inequality_normal_targets_zero():
    targets = [gaussian(1.0), gaussian(1.0)]
    assert expectation_inequality_check(np.eye(2), targets, 1000, 0) == 0.0


def test_expectation_inequality_axis_rows_vanish():
    t = match_entropy(uniform(0.0, 1.0), H_NORMAL)
    got = expectation_inequality_check(np.eye(3)[:2], [t, t, gaussian(1.0)], 100000, 3)
    assert got == pytest.approx(0.0, abs=0.01)


def test_expectation_inequality_averaging_row():
    t = match_entropy(uniform(0.0, 1.0), H_NORMAL)
    got = expectation_inequality_check(AVG_ROW, [t, t], 100000, 3)
    assert got == pytest.approx(0.10163464500219692, abs=0.02)
    # Sandwiched between zero and the full entropy gap of this mixture.
    assert -0.01 <= got <= STRICT_GAP


def test_expectation_inequality_errors():
    t = match_entropy(uniform(0.0, 1.0), H_NORMAL)
    with pytest.raises(NotOrthonormal):
        expectation_inequality_check(np.array([[1.0, 1.0]]), [t, t], 1000, 0)
    with pytest.raises(UnsupportedFamily):
        expectation_inequality_check(
            AVG_ROW, [circular_gaussian(1.0), circular_gaussian(1.0)], 1000, 0
        )
    with pytest.raises(ValueError):
        expectation_inequality_check(AVG_ROW, [uniform(0.0, 1.0), t], 1000, 0)
    with pytest.raises(ValueError):
        expectation_inequality_check(AVG_ROW, [t], 1000, 0)
