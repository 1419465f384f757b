import math
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
    exact_entropy,
    exponential,
    expectation_inequality_check,
    gaussian,
    gaussian_mix_entropy,
    gaussian_mixture,
    laplace,
    match_entropy,
    run_epi_trial,
    run_equality_suite,
    run_lemma2_sweep,
    sample_sources,
    surrogate_sigma,
    uniform,
    uniform_disk,
    unit_variance_uniform,
)
from mixent.entropy import estimate_entropy

H_NORMAL = 0.5 * np.log(2 * np.pi * np.e)
AVG_ROW = np.full((1, 2), 2**-0.5)
AVG = np.array([[1.0, 0.0, 0.0], [0.0, 2**-0.5, 2**-0.5]])
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
    # One matrix without and one with recoverable components (r = 0, r = 1).
    for matrix in (AVG_ROW, AVG):
        srcs = [unit_variance_uniform()] * matrix.shape[1]
        rep = run_epi_trial(config(matrix, srcs, n_samples=2000, trials=3))
        assert len(rep.per_trial_gaps) == 3
        assert rep.gap == pytest.approx(float(np.mean(rep.per_trial_gaps)), abs=1e-12)
        assert rep.lhs.value == rep.rhs + rep.gap
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


CORE_3X4 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 2**-0.5, 2**-0.5]])
CORE_2X3 = np.array([[1.0, 0.0, 0.0], [0.0, 2**-0.5, 1j * 2**-0.5]])
TAIL_POPULATIONS = {
    # Two recoverable components; the tail averages two uniforms.
    "real_3x4": (CORE_3X4, [laplace(2**-0.5)] + [unit_variance_uniform()] * 3, STRICT_GAP),
    # One recoverable disk; the tail mixes two circular Gaussians: equality.
    "complex_2x3_gaussian_tail": (
        CORE_2X3, [uniform_disk(1.0), circular_gaussian(1.0), circular_gaussian(1.0)], 0.0
    ),
}


def random_invertible(gen, m, complex_field):
    while True:
        b = gen.standard_normal((m, m))
        if complex_field:
            b = b + 1j * gen.standard_normal((m, m))
        if abs(np.linalg.det(b)) >= 0.5:
            return b


@pytest.mark.parametrize("name", sorted(TAIL_POPULATIONS))
def test_tail_gap_over_random_row_transforms(name):
    # gap(B A) = gap(A) for invertible B, and only the canonical tail is
    # estimated, so eight random B land on the known gap.  A joint
    # m-dimensional kNN estimate of h(B A X) is biased upward here: 0.157 to
    # 0.185 for real_3x4 and 0.04 to 0.18 (verdict strict) for the complex
    # Gaussian tail, on these draws.
    core, srcs, true_gap = TAIL_POPULATIONS[name]
    complex_field = np.iscomplexobj(core)
    reports = []
    for i in range(8):
        gen = np.random.Generator(np.random.Philox(8800 + i))
        A = random_invertible(gen, core.shape[0], complex_field) @ core
        reports.append(run_epi_trial(config(A, srcs, n_samples=50_000, seed=8800 + i)))
    gaps = np.array([r.gap for r in reports])
    if true_gap == 0.0:
        assert np.abs(gaps).max() <= 0.03  # criterion 5
        assert {r.verdict for r in reports} == {"near_equality"}
    else:
        # The population mean, against the standard error of that mean.
        se = math.sqrt(sum(r.gap_std_error**2 for r in reports)) / len(reports)
        assert abs(gaps.mean() - true_gap) <= 3 * se
        assert {r.verdict for r in reports} == {"strict"}


def test_full_recovery_is_closed_form(monkeypatch):
    # r = m: every component is recoverable, so both sides are equal sums of
    # per-component entropies and nothing is sampled.
    import mixent.distributions as dist

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with r = m")

    monkeypatch.setattr(dist, "sample", no_sampling)
    cases = [
        (np.array([[2.0, 1.0], [0.5, 3.0]]), [unit_variance_uniform(), laplace(1.0)]),
        (np.array([[1.0, 1j], [0.5, 2.0]]), [uniform_disk(1.0), circular_gaussian(1.0)]),
    ]
    for matrix, srcs in cases:
        rep = run_epi_trial(config(matrix, srcs, trials=2))
        assert rep.gap == 0.0
        assert rep.per_trial_gaps == (0.0, 0.0)
        assert rep.gap_std_error == 0.0 and rep.tolerance == 0.0
        assert rep.lhs.method == "closed_form"
        assert rep.lhs.std_error == 0.0
        assert rep.lhs.value == rep.rhs
        assert rep.verdict == "near_equality"


def test_no_recoverable_component_keeps_the_joint_estimate():
    # r = 0: B = I and the tail is A itself, so the report is the joint
    # estimate of h(A X) on the same draws, bit for bit.
    est = EstimatorSettings()
    cases = [
        (np.array([[1.0, 0.4, -0.3], [0.2, 1.0, 0.5]]), [unit_variance_uniform(), laplace(1.0),
                                                         exponential(1.0)]),
        (np.array([[2**-0.5, 1j * 2**-0.5]]), [uniform_disk(1.0)] * 2),
        (AVG_ROW, [unit_variance_uniform()] * 2),
    ]
    for matrix, srcs in cases:
        cfg = config(matrix, srcs, n_samples=2000, seed=5)
        rep = run_epi_trial(cfg)
        field = cfg.matrix.field
        sigmas = [surrogate_sigma(exact_entropy(s), field).sigma for s in srcs]
        rhs = gaussian_mix_entropy(cfg.matrix, sigmas)
        joint = estimate_entropy(sample_sources(srcs, 2000, 5) @ matrix.T, field, est)
        assert rep.rhs == rhs
        assert rep.gap == joint.value - rhs
        assert rep.gap_std_error == joint.std_error
        assert rep.lhs.method == joint.method
        assert rep.classification.recoverable == ()


def test_absent_column_is_dropped():
    # The zero column's source is never drawn and the others keep their
    # streams: the tail estimate is that of the present columns of the full
    # draw.
    matrix = np.array([[2**-0.5, 0.0, 2**-0.5]])
    srcs = [unit_variance_uniform(), gaussian(1.0), unit_variance_uniform()]
    rep = run_epi_trial(config(matrix, srcs, seed=6))
    assert rep.classification.present == (0, 2)
    X = sample_sources(srcs, 20000, 6)
    tail = estimate_entropy(X[:, [0, 2]] @ matrix[:, [0, 2]].T, "real", EstimatorSettings())
    sigmas = [surrogate_sigma(exact_entropy(s)).sigma for s in (srcs[0], srcs[2])]
    assert rep.gap == tail.value - gaussian_mix_entropy(matrix[:, [0, 2]], sigmas)
    assert rep.gap == pytest.approx(STRICT_GAP, abs=0.05)
    assert rep.verdict == "strict"


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


def test_equality_suite_records_a_rank_deficient_config_as_trivial_equality():
    # Both sides of the bound are minus infinity, which run_epi_trial reports
    # as a trivial near_equality; the suite must not classify the matrix again.
    cfg = config(np.ones((2, 2)), [unit_variance_uniform()] * 2)
    assert run_epi_trial(cfg).trivial
    suite = run_equality_suite([cfg])
    (case,) = suite.cases
    assert case.expected == "equality"
    assert case.ok and suite.all_pass
    assert case.gap is None and case.std_error is None and case.tolerance is None
    assert case.margin is None and case.margin_provenance is None
    assert case.verdict == "near_equality"


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
    with pytest.raises(ValueError, match="count must be at least 1, got 0"):
        run_lemma2_sweep(0)
    with pytest.raises(ValueError, match="count must be at least 1, got -3"):
        run_lemma2_sweep(-3)


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
