import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mixent import (
    DegenerateData,
    Observation,
    RankDeficient,
    SingularCovariance,
    TooFewSamples,
    UnsupportedFamily,
    contrast,
    gaussian,
    gaussian_mixture,
    laplace,
    minimize_contrast,
    oracle_decompose,
    sample_covariance,
    sample_sources,
    separation_quality,
    uniform,
    uniform_disk,
    unit_variance_uniform,
    whiten,
)
from mixent import formats as fmt

AVG_ROW = np.full((1, 2), 2**-0.5)
STRICT_GAP = 0.5 * (1.0 - np.log(2.0))
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None)


def uniform_observation(n, n_samples, seed):
    X = sample_sources([unit_variance_uniform()] * n, n_samples, seed)
    return X, Observation.from_samples(X)


def assert_restarts_stopped_at_agreement(res, restarts):
    # The restarts run until two objectives lie within _AGREE of their
    # minimum, or until all ``restarts`` of them have run, and no longer.
    import mixent.bse as bse

    def agree(objectives):
        return sum(o - min(objectives) <= bse._AGREE for o in objectives) >= 2

    objectives = res.restart_objectives
    assert not any(agree(objectives[:k]) for k in range(1, len(objectives)))
    assert agree(objectives) or len(objectives) == restarts
    assert len(res.trace) == len(objectives)


def test_observation_from_samples():
    obs = Observation.from_samples(np.zeros((3, 2)))
    assert obs.field == "real"
    obsc = Observation.from_samples(np.zeros((3, 2), dtype=complex))
    assert obsc.field == "complex"
    with pytest.raises(ValueError):
        Observation.from_samples(np.zeros(5))
    with pytest.raises(ValueError):
        Observation.from_samples(np.zeros((1, 2)))


def test_observation_rejects_non_finite_samples():
    X, _ = uniform_observation(2, 2000, 36)
    X[5, 1] = np.nan
    X[7, 0] = np.inf
    with pytest.raises(DegenerateData, match="2 non-finite"):
        Observation.from_samples(X)
    Z = sample_sources([uniform_disk(1.0)] * 2, 2000, 37)
    Z[3, 0] = complex(1.0, np.nan)
    with pytest.raises(DegenerateData, match="1 non-finite"):
        Observation.from_samples(Z)


def test_sample_covariance_exact_small_case():
    y = np.array([[2.0, 1.0], [-2.0, 1.0], [2.0, -1.0], [-2.0, -1.0]])
    assert_allclose(sample_covariance(y), np.diag([4.0, 1.0]), atol=1e-15)


def test_sample_covariance_independent_unit_variance():
    X, _ = uniform_observation(3, 100000, 1)
    K = sample_covariance(X)
    assert_allclose(np.diag(K), 1.0, atol=0.02)
    off = K - np.diag(np.diag(K))
    assert np.abs(off).max() <= 0.02


def test_sample_covariance_tracks_mixing():
    gen = np.random.Generator(np.random.Philox(41))
    M = gen.standard_normal((3, 3))
    X, _ = uniform_observation(3, 100000, 2)
    K = sample_covariance(X @ M.T)
    assert_allclose(K, M @ M.T, atol=0.15)


def test_sample_covariance_complex_hermitian():
    Z = sample_sources([uniform_disk(1.0)] * 2, 5000, 3)
    K = sample_covariance(Z)
    assert_allclose(K, K.conj().T, atol=0.0)
    assert np.all(np.diag(K).real > 0)


def test_sample_covariance_errors():
    with pytest.raises(ValueError):
        sample_covariance(np.zeros(10))
    with pytest.raises(TooFewSamples):
        sample_covariance(np.zeros((3, 3)))


def test_whiten_identity_covariance():
    gen = np.random.Generator(np.random.Philox(42))
    M = gen.standard_normal((3, 3))
    X, _ = uniform_observation(3, 20000, 4)
    obs = Observation.from_samples(X @ M.T)
    white, cinv = whiten(obs)
    assert_allclose(sample_covariance(white.samples), np.eye(3), atol=1e-10)
    K = sample_covariance(obs.samples - obs.samples.mean(axis=0))
    assert_allclose(cinv @ K @ cinv.T, np.eye(3), atol=1e-10)


def test_whiten_diagonal_case_scales_axes():
    y = np.array([[2.0, 1.0], [-2.0, 1.0], [2.0, -1.0], [-2.0, -1.0]])
    white, cinv = whiten(Observation.from_samples(y))
    assert abs(np.linalg.det(cinv)) == pytest.approx(0.5, abs=1e-12)
    assert_allclose(sample_covariance(white.samples), np.eye(2), atol=1e-12)


def test_whiten_complex():
    Z = sample_sources([uniform_disk(1.0)] * 2, 5000, 5)
    gen = np.random.Generator(np.random.Philox(43))
    M = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    white, cinv = whiten(Observation.from_samples(Z @ M.T))
    assert white.field == "complex"
    assert_allclose(sample_covariance(white.samples), np.eye(2), atol=1e-10)


def test_whiten_singular_covariance():
    x = sample_sources([unit_variance_uniform()], 1000, 6)
    y = np.column_stack((x[:, 0], x[:, 0]))
    with pytest.raises(SingularCovariance):
        whiten(Observation.from_samples(y))


def test_contrast_identity_on_independent_sources():
    from mixent import exact_entropy

    X, obs = uniform_observation(3, 20000, 21)
    c = contrast(np.eye(3), obs)
    assert c == pytest.approx(3 * exact_entropy(unit_variance_uniform()), abs=0.05)


def test_contrast_scaling_permutation_invariance():
    from mixent import exponential, laplace

    gen = np.random.Generator(np.random.Philox(88))
    X = sample_sources([unit_variance_uniform(), laplace(1.0), exponential(1.0)], 2000, 100)
    obs = Observation.from_samples(X)
    for _ in range(5):
        W = gen.standard_normal((2, 3))
        D = np.diag(gen.uniform(0.5, 2.0, 2) * gen.choice([-1.0, 1.0], 2))
        P = np.eye(2)[gen.permutation(2)]
        c1 = contrast(W, obs)
        c2 = contrast(P @ D @ W, obs)
        assert abs(c2 - c1) <= 1e-9 * (1.0 + abs(c1))


ROW_SCALING_OBS = Observation.from_samples(
    sample_sources([unit_variance_uniform(), laplace(1.0), gaussian(1.0)], 2000, 102)
)


@PROPERTY_SETTINGS
@given(
    entries=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    scales=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=2),
)
def test_contrast_invariant_to_row_scaling(entries, scales, signs):
    W = np.array(entries).reshape(2, 3)
    assume(np.linalg.cond(W) < 1e3)
    D = np.diag(np.array(scales) * np.array(signs))
    assert abs(contrast(D @ W, ROW_SCALING_OBS) - contrast(W, ROW_SCALING_OBS)) <= 1e-12


def test_complex_demixer_for_real_data_unsupported():
    _, obs = uniform_observation(2, 2000, 24)
    for W in ([[1.0, 1j]], np.array([[1.0, 1j]])):
        with pytest.raises(UnsupportedFamily, match="complex demixing matrix for real data"):
            contrast(W, obs)
        with pytest.raises(UnsupportedFamily, match="complex demixing matrix for real data"):
            oracle_decompose(W, np.eye(2), [gaussian(1.0)] * 2, n_samples=2000, seed=0)


def test_contrast_complex_invariance():
    gen = np.random.Generator(np.random.Philox(89))
    Z = sample_sources([uniform_disk(1.0)] * 3, 2000, 101)
    obs = Observation.from_samples(Z)
    for _ in range(5):
        W = gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))
        D = np.diag(gen.uniform(0.5, 2.0, 2) * np.exp(1j * gen.uniform(-np.pi, np.pi, 2)))
        P = np.eye(2)[gen.permutation(2)]
        c1 = contrast(W, obs)
        c2 = contrast(P @ D @ W, obs)
        assert abs(c2 - c1) <= 1e-9 * (1.0 + abs(c1))


def test_contrast_separating_below_random():
    gen = np.random.Generator(np.random.Philox(44))
    Mq, _ = np.linalg.qr(gen.standard_normal((3, 3)))
    X, _ = uniform_observation(3, 20000, 22)
    obs = Observation.from_samples(X @ Mq.T)
    sep = contrast(Mq.T, obs)
    for _ in range(20):
        W = gen.standard_normal((3, 3))
        assert sep <= contrast(W, obs) + 1e-9


def test_contrast_errors():
    X, obs = uniform_observation(2, 2000, 23)
    with pytest.raises(RankDeficient):
        contrast(np.ones((2, 2)), obs)
    dup = Observation.from_samples(np.column_stack((X[:, 0], X[:, 0])))
    with pytest.raises(SingularCovariance):
        contrast(np.eye(2), dup)
    with pytest.raises(ValueError):
        contrast(np.eye(3), obs)


def test_minimize_contrast_rotation_recovery():
    th = np.pi / 6
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    X, _ = uniform_observation(2, 20000, 31)
    obs = Observation.from_samples(X @ R.T)
    res = minimize_contrast(obs, 1, seed=0, restarts=3)
    q = separation_quality(res.demixer, R)
    assert q.dominance[0] >= 0.99
    assert res.converged
    assert res.n_extracted == 1
    assert_allclose(np.linalg.norm(res.demixer, axis=1), 1.0, atol=1e-9)


def test_minimize_contrast_trace_non_increasing():
    X, _ = uniform_observation(2, 20000, 31)
    th = np.pi / 6
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    obs = Observation.from_samples(X @ R.T)
    res = minimize_contrast(obs, 1, seed=0, restarts=1)
    assert len(res.trace) == 1
    trajectory = np.asarray(res.trace[0])
    assert len(trajectory) == res.sweeps + 1
    assert np.all(np.diff(trajectory) <= 1e-12)


def test_minimize_contrast_restart_bookkeeping():
    X, obs = uniform_observation(2, 2000, 33)
    res = minimize_contrast(obs, 1, seed=2, restarts=4)
    assert len(res.restart_objectives) == 2
    assert_restarts_stopped_at_agreement(res, 4)
    assert res.best_restart == int(np.argmin(res.restart_objectives))
    assert res.seed == 2
    assert res.whitener.shape == (2, 2)


def test_minimize_contrast_reported_value_matches_public_contrast():
    X, obs = uniform_observation(2, 5000, 34)
    res = minimize_contrast(obs, 2, seed=0, restarts=2)
    assert contrast(res.demixer, obs) == pytest.approx(res.contrast_value, abs=1e-9)


def test_minimize_contrast_already_separated():
    # Separated sources with the sample covariance forced to the identity,
    # so the identity demixer is inside the whitened search family.
    for seed in (31, 5, 9):
        X, obs = uniform_observation(2, 20000, seed)
        K = sample_covariance(X)
        w, V = np.linalg.eigh(K)
        Xs = (X - X.mean(axis=0)) @ ((V / np.sqrt(w)) @ V.T).T
        obs = Observation.from_samples(Xs)
        res = minimize_contrast(obs, 2, seed=0, restarts=3)
        assert res.contrast_value <= contrast(np.eye(2), obs) + 1e-6
        q = separation_quality(res.demixer, np.eye(2))
        assert min(q.dominance) >= 0.999


def test_minimize_contrast_complex_disks():
    gen = np.random.Generator(np.random.Philox(77))
    Qc, _ = np.linalg.qr(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
    Z = sample_sources([uniform_disk(1.0)] * 2, 3000, 41)
    obs = Observation.from_samples(Z @ Qc.T)
    res = minimize_contrast(obs, 1, seed=0, restarts=2)
    q = separation_quality(res.demixer, Qc)
    assert q.dominance[0] >= 0.95


def test_minimize_contrast_sweep_budget_flagged():
    # Criterion 9's shape: from its kurtosis start the descent's first sweep
    # still gains more than 1e-3 nats, so one sweep is not enough.
    gen = np.random.Generator(np.random.Philox(9001))
    M, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    X = sample_sources((unit_variance_uniform(),) * 3 + (gaussian(1.0),), 20000, 1)
    obs = Observation.from_samples(X @ M.T)
    res = minimize_contrast(obs, 2, seed=1, restarts=1, max_sweeps=1)
    assert res.sweeps == 1
    assert res.trace[0][0] - res.trace[0][1] >= 1e-3
    assert not res.converged
    assert np.isfinite(res.contrast_value)


def test_minimize_contrast_stops_at_the_first_sweep_below_tolerance():
    # Criterion 9's shape: each restart sweeps while a sweep gains at least
    # 1e-3 nats, the resolution of one row's entropy estimate at 20k points,
    # and stops after the first one that gains less.
    tol = 1e-3
    gen = np.random.Generator(np.random.Philox(9001))
    M, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    X = sample_sources((unit_variance_uniform(),) * 3 + (gaussian(1.0),), 20000, 1)
    max_sweeps = 50
    res = minimize_contrast(Observation.from_samples(X @ M.T), 2, seed=1, max_sweeps=max_sweeps)
    assert len(res.trace) == 2
    assert_restarts_stopped_at_agreement(res, 5)
    for r, trajectory in enumerate(res.trace):
        gains = -np.diff(trajectory)
        assert np.all(gains[:-1] >= tol), (r, gains)
        assert gains[-1] < tol or len(gains) == max_sweeps, (r, gains)


def test_minimize_contrast_validation():
    X, obs = uniform_observation(2, 2000, 35)
    with pytest.raises(ValueError):
        minimize_contrast(obs, 0)
    with pytest.raises(ValueError):
        minimize_contrast(obs, 3)
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        minimize_contrast(obs, 1, restarts=0)
    for max_sweeps in (0, -3):
        with pytest.raises(ValueError, match="max_sweeps must be at least 1"):
            minimize_contrast(obs, 1, max_sweeps=max_sweeps)
    small = Observation.from_samples(X[:999])
    with pytest.raises(TooFewSamples):
        minimize_contrast(small, 1)


@pytest.mark.parametrize("name", ["n_extract", "restarts", "max_sweeps"])
@pytest.mark.parametrize("value", [1.5, 2.5, True, np.float64(2.0)])
def test_minimize_contrast_counts_must_be_integers(name, value):
    # A float count would reach range() as a raw TypeError, and a bool would
    # run as 1 and be reported as true.
    _, obs = uniform_observation(2, 2000, 35)
    counts = {"n_extract": 1, "restarts": 1, "max_sweeps": 1, name: value}
    n_extract = counts.pop("n_extract")
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        minimize_contrast(obs, n_extract, **counts)


def _extraction_digest(result):
    text = fmt.canonical_json(fmt.extraction_to_dict(result))
    return hashlib.sha256(text.encode()).hexdigest()


def test_minimize_contrast_seeded_golden():
    # Pins the exact bytes of two seeded extractions, so any change to the
    # search path or to the last bit of an entropy evaluation shows here.
    # The first one's second restart starts where its first did, so it
    # reports the first restart's descent.
    gen = np.random.Generator(np.random.Philox(2019))
    M, _ = np.linalg.qr(gen.standard_normal((3, 3)))
    X = sample_sources([unit_variance_uniform(), laplace(2**-0.5), gaussian(1.0)], 3000, 61)
    res = minimize_contrast(Observation.from_samples(X @ M.T), 2, seed=7, restarts=2)
    assert _extraction_digest(res) == "c986b4da0b8dc2f8d94cc370653a5306fc5bf6ae16c10fd8f6a705d884ce9cb8"
    Qc, _ = np.linalg.qr(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
    Z = sample_sources([uniform_disk(1.0)] * 2, 2000, 62)
    res = minimize_contrast(Observation.from_samples(Z @ Qc.T), 1, seed=8, restarts=1)
    assert _extraction_digest(res) == "83da71e3c85df88ba12cd4b0ba31f9ac47287a3d7b16c06ef793f4b9d5e4341c"


def test_two_agreeing_restarts_keep_their_seeded_bytes():
    # At restarts <= 2 the stop rule can fire only after the last restart,
    # so such extractions keep the bytes they had when every restart ran.
    # test_minimize_contrast_seeded_golden pins 3000 points at 2 restarts
    # and 2000 at 1, test_complex_two_row_extraction_seeded_golden 2000 at
    # 1; this one pins 2000 points at 2 restarts whose objectives agree, so
    # the rule does fire.  Here the second restart starts where the first
    # did and reports its descent, so the two objectives are equal.
    gen = np.random.Generator(np.random.Philox(2019))
    M, _ = np.linalg.qr(gen.standard_normal((3, 3)))
    X = sample_sources([unit_variance_uniform(), laplace(2**-0.5), gaussian(1.0)], 2000, 61)
    res = minimize_contrast(Observation.from_samples(X @ M.T), 2, seed=7, restarts=2)
    assert res.restart_objectives[1] == res.restart_objectives[0]
    assert _extraction_digest(res) == "288d8bf5beb7174128e46bac7a79037d419214490cf2953504b931dc09c7917d"


def test_restarts_stop_once_two_agree(monkeypatch):
    # Criterion 9's first input: the first two restarts end in the same
    # basin, so the search stops there.  With the rule switched off all five
    # restarts run, and they find no better basin nor another pair.  Their
    # starts coincide, so they would share one descent: the row test is
    # switched off too, and each restart runs its own.
    import mixent.bse as bse

    gen = np.random.Generator(np.random.Philox(9000))
    M, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    X = sample_sources((unit_variance_uniform(),) * 3 + (gaussian(1.0),), 20000, 0)
    obs = Observation.from_samples(X @ M.T)
    res = minimize_contrast(obs, 2, seed=0)
    assert len(res.restart_objectives) == 2
    assert_restarts_stopped_at_agreement(res, 5)
    quality = separation_quality(res.demixer, M)
    assert quality.success and min(quality.dominance) >= 0.95

    agree = bse._AGREE
    monkeypatch.setattr(bse, "_AGREE", -np.inf)
    monkeypatch.setattr(bse, "_same_rows", lambda U, V: False)
    points = record_descents(monkeypatch)
    full = minimize_contrast(obs, 2, seed=0)
    assert len(full.restart_objectives) == len(full.trace) == 5
    assert points == [5000] * 5 + [20000]
    assert min(res.restart_objectives) <= min(full.restart_objectives) + agree
    assert separation_quality(full.demixer, M).selected == quality.selected


def test_complex_two_row_extraction_seeded_golden():
    # Extracting both rows of a complex mixture scores the second row of
    # every rotation too, so these bytes pin that half of the search as well.
    gen = np.random.Generator(np.random.Philox(2021))
    Qc, _ = np.linalg.qr(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
    Z = sample_sources([uniform_disk(1.0)] * 2, 2000, 65)
    res = minimize_contrast(Observation.from_samples(Z @ Qc.T), 2, seed=10, restarts=1)
    assert _extraction_digest(res) == "def2418047eb313ea8233a177613589321a8351daa8f84979573dfd46ea4e83f"


def record_complex_line_searches(monkeypatch, haar_start=False):
    # One complex extraction of a 2 x 2 disk mixture at one restart: a single
    # pair in a single descent.  Returns each angle search as (settled, f0,
    # theta, f_best) followed by whether a phase search came next.  With
    # ``haar_start`` the descent starts from restart 0's Haar frame itself,
    # not from its kurtosis fixed point, so it has further to turn.
    import mixent.bse as bse
    from mixent.rng import generator, haar_rows

    calls = []
    line_search = bse._line_search

    def recorded(f, f0, lo, hi, *args):
        result = line_search(f, f0, lo, hi, *args)
        if hi == math.pi / 2:
            calls[-1][1] = True
        else:
            calls.append([(bool(args[0]), f0, result[0], result[1]), False])
        return result

    monkeypatch.setattr(bse, "_line_search", recorded)
    gen = np.random.Generator(np.random.Philox(5003))
    Qc, _ = np.linalg.qr(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
    Z = sample_sources([uniform_disk(1.0)] * 2, 3000, 103)
    obs = Observation.from_samples(Z @ Qc.T)
    if haar_start:
        U0 = haar_rows(generator(3, 1000), 2, 2, True)
        bse._optimize_frame(whiten(obs)[0].samples, 1, U0, "complex", 50)
    else:
        minimize_contrast(obs, 1, seed=3, restarts=1)
    return calls


def test_complex_phase_is_searched_only_past_the_angle_resolution(monkeypatch):
    # A rotation by theta moves a row by at most |theta| whatever its phase,
    # so below the angle search's 1e-2 rad bracket no phase is searched.
    import mixent.bse as bse

    calls = record_complex_line_searches(monkeypatch)
    assert any(phase for _, phase in calls)
    for (_, _, theta, _), phase in calls:
        assert phase == (abs(theta) > bse._LINE_SEARCH_STOP), theta


def test_complex_pairs_are_settled_like_real_ones(monkeypatch):
    # After its first search the pair is settled exactly when its latest
    # accepted turn was below _SETTLED, as on real data.  From its kurtosis
    # start the pair needs only 2 searches, so the descent starts from the
    # Haar frame, where it turns by more than _SETTLED first.
    import mixent.bse as bse

    calls = record_complex_line_searches(monkeypatch, haar_start=True)
    assert len(calls) > 2
    assert not calls[0][0][0]
    for (prev, _), ((settled, _, _, _), _) in zip(calls, calls[1:]):
        _, f0, theta, f_best = prev
        turn = abs(theta) if f_best < f0 and theta != 0.0 else 0.0
        assert settled == (turn < bse._SETTLED), turn
    assert any(settled for (settled, _, _, _), _ in calls)


# (objective, lo, hi, t*): the angle search's interval and period, and the
# phase search's interval; each minimum lies off the 9-point grid.
LINE_SEARCH_CASES = {
    "quadratic": (lambda t: (t - 0.3) ** 2, -np.pi / 4, np.pi / 4, 0.3),
    "cosine": (lambda t: 1.0 - np.cos(4.0 * (t + 0.123)), -np.pi / 4, np.pi / 4, -0.123),
    "quadratic_phase": (lambda t: (t - 1.1) ** 2, -np.pi / 2, np.pi / 2, 1.1),
}


@pytest.mark.parametrize("case", sorted(LINE_SEARCH_CASES))
def test_line_search_stops_at_its_width(case):
    # Golden section carries the bracket to the stop width, where the better
    # inner point lies within half of it, in at most 20 evaluations.
    import mixent.bse as bse

    f, lo, hi, t_star = LINE_SEARCH_CASES[case]
    t, f_best, evals = bse._line_search(f, f(0.0), lo, hi)
    assert evals <= 20
    assert f_best == f(t)
    assert abs(t - t_star) <= bse._LINE_SEARCH_STOP / 2


def test_line_search_keeps_a_minimum_at_zero():
    import mixent.bse as bse

    calls = []

    def f(t):
        calls.append(t)
        return 1.0 + t**2

    t, f_best, evals = bse._line_search(f, 1.0, -np.pi / 4, np.pi / 4)
    assert (t, f_best) == (0.0, 1.0)
    assert evals == len(calls) <= 20
    assert 0.0 not in calls


@pytest.mark.parametrize(
    "f", [lambda t: 1.0 + abs(t - 0.003), lambda t: (t - 0.02) ** 2], ids=["v_shape", "quadratic"]
)
def test_line_search_without_the_grid_is_the_grid_search_near_zero(f):
    # With the grid's argmin at 0 the grid search brackets the centre cell,
    # so starting there gives the same result without scoring the grid.
    import mixent.bse as bse

    lo, hi = -np.pi / 4, np.pi / 4
    t_grid, f_grid, evals_grid = bse._line_search(f, f(0.0), lo, hi)
    t_cell, f_cell, evals_cell = bse._line_search(f, f(0.0), lo, hi, grid=False)
    assert (t_cell, f_cell) == (t_grid, f_grid)
    assert evals_cell == evals_grid - 8


@pytest.mark.parametrize(
    "f", [lambda t: 1.0 + abs(t + 0.03), lambda t: (t - 0.02) ** 2], ids=["v_shape", "quadratic"]
)
def test_settled_line_search_refines_after_a_gaining_probe(f):
    # The grid keeps 0 and a probe gains, so golden section runs on the
    # grid's centre cell as in the plain search, 2 evaluations later.
    import mixent.bse as bse

    lo, hi = -np.pi / 4, np.pi / 4
    t_plain, f_plain, evals_plain = bse._line_search(f, f(0.0), lo, hi)
    t_settled, f_settled, evals_settled = bse._line_search(f, f(0.0), lo, hi, True)
    assert (t_settled, f_settled) == (t_plain, f_plain)
    assert evals_settled == evals_plain + 2


def test_settled_line_search_keeps_a_settled_minimum():
    import mixent.bse as bse

    calls = []

    def f(t):
        calls.append(t)
        return 1.0 + t**2

    assert bse._line_search(f, 1.0, -np.pi / 4, np.pi / 4, True) == (0.0, 1.0, 10)
    assert len(calls) == 10 and 0.0 not in calls
    assert sorted(calls[-2:]) == [-bse._LINE_SEARCH_STOP, bse._LINE_SEARCH_STOP]


@pytest.mark.parametrize(
    "f", [lambda t: (t - 0.5) ** 2, lambda t: 1.0 + abs(t + 0.3)], ids=["quadratic", "v_shape"]
)
def test_settled_line_search_sees_a_minimum_beyond_the_centre_cell(f):
    # A settled pair still scores the whole grid, so a minimum outside the
    # probe's reach is found exactly as by the plain search.
    import mixent.bse as bse

    lo, hi = -np.pi / 4, np.pi / 4
    assert bse._line_search(f, f(0.0), lo, hi, True) == bse._line_search(f, f(0.0), lo, hi)


def test_polish_start_changes_no_bit(monkeypatch):
    # Criterion 9's first input: two restarts agree, so the polish searches
    # the best restart's pairs on the grid's centre cell in every sweep, and
    # ends with the same frame, objective and sweeps as a polish that scores
    # the grid, 8 evaluations sooner for each of the 5 pairs in every sweep.
    import mixent.bse as bse

    calls, optimize = [], bse._optimize_frame
    evals, line_search = [0], bse._line_search

    def recorded_optimize(*args):
        calls.append(args)
        return optimize(*args)

    def counted_line_search(*args):
        result = line_search(*args)
        evals[0] += result[2]
        return result

    monkeypatch.setattr(bse, "_optimize_frame", recorded_optimize)
    gen = np.random.Generator(np.random.Philox(9000))
    M, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    X = sample_sources((unit_variance_uniform(),) * 3 + (gaussian(1.0),), 20000, 0)
    minimize_contrast(Observation.from_samples(X @ M.T), 2, seed=0)
    args = calls[-1]
    assert args[0].shape[0] == 20000 and args[5] is True
    monkeypatch.setattr(bse, "_line_search", counted_line_search)
    U, objective, sweeps, _, _ = optimize(*args)
    evals_start, evals[0] = evals[0], 0
    U_grid, objective_grid, sweeps_grid, _, _ = optimize(*args[:5])
    assert np.array_equal(U, U_grid)
    assert (objective, sweeps) == (objective_grid, sweeps_grid)
    assert evals_start == evals[0] - 8 * 5 * sweeps


def test_confirmed_polish_never_scores_the_grid(monkeypatch):
    # Criterion 9's first input.  Once two restarts agree, every polish sweep
    # searches each pair on the grid's centre cell; with one restart, or
    # when no two restarts agree, the polish's later sweeps score the grid.
    import mixent.bse as bse

    optimize, line_search = bse._optimize_frame, bse._line_search
    polish = [False]
    grids = []

    def recorded_optimize(*args):
        polish[0] = args[0].shape[0] == 20000
        return optimize(*args)

    def recorded_line_search(*args):
        if polish[0]:
            grids.append(args[5])
        return line_search(*args)

    monkeypatch.setattr(bse, "_optimize_frame", recorded_optimize)
    monkeypatch.setattr(bse, "_line_search", recorded_line_search)
    gen = np.random.Generator(np.random.Philox(9000))
    M, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    X = sample_sources((unit_variance_uniform(),) * 3 + (gaussian(1.0),), 20000, 0)
    obs = Observation.from_samples(X @ M.T)

    def polish_grids(**kwargs):
        grids.clear()
        minimize_contrast(obs, 2, seed=0, **kwargs)
        return list(grids)

    def assert_first_sweep_only(grid):
        # 5 pairs per sweep: the first sweep skips the grid, later ones score it.
        assert len(grid) > 5 and grid == [False] * 5 + [True] * (len(grid) - 5)

    confirmed = polish_grids()
    assert len(confirmed) > 5 and not any(confirmed)
    assert_first_sweep_only(polish_grids(restarts=1))
    monkeypatch.setattr(bse, "_AGREE", -1.0)
    assert_first_sweep_only(polish_grids())


def test_one_restart_still_separates_where_the_grid_finds_the_basin():
    # Criterion 9's shape, seed 50, one restart.  A settled search that
    # probes +-1e-2 without scoring the grid stops this descent in a frame
    # that does not separate (dominance 0.641), so the grid must stay.
    gen = np.random.Generator(np.random.Philox(9050))
    M, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    X = sample_sources((unit_variance_uniform(),) * 3 + (gaussian(1.0),), 20000, 50)
    res = minimize_contrast(Observation.from_samples(X @ M.T), 2, seed=50, restarts=1)
    assert min(separation_quality(res.demixer, M).dominance) >= 0.95


def criterion_9_input(s, n_samples=20000, source=None):
    # Criterion 9's shape: three sources (unit uniforms unless given) and one
    # Gaussian under the orthogonal mix of Philox(9000 + s).
    gen = np.random.Generator(np.random.Philox(9000 + s))
    M, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    X = sample_sources((source or unit_variance_uniform(),) * 3 + (gaussian(1.0),), n_samples, s)
    return Observation.from_samples(X @ M.T), M


def disk_input(i):
    gen = np.random.Generator(np.random.Philox(5000 + i))
    Qc, _ = np.linalg.qr(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
    Z = sample_sources([uniform_disk(1.0)] * 2, 3000, 100 + i)
    return Observation.from_samples(Z @ Qc.T), Qc


def kurtosis_frames(obs, restarts=5):
    # The start of each restart of minimize_contrast(obs, ..., seed=0), before
    # any descent, and the whitener.
    import mixent.bse as bse
    from mixent.rng import generator, haar_rows

    wobs, C = whiten(obs)
    N, n = obs.samples.shape
    Ys = wobs.samples[:: max(1, N // bse._COARSE_POINTS)]
    frames = []
    for r in range(restarts):
        U0 = haar_rows(generator(0, 1000 + r), n, n, obs.field == "complex")
        frames.append(bse._kurtosis_frame(wobs.samples, Ys, U0, obs.field)[0])
    return frames, C


@pytest.mark.parametrize("case", ["real", "complex"])
def test_kurtosis_frame_rows_are_orthonormal(case):
    obs, _ = criterion_9_input(10) if case == "real" else disk_input(25)
    frames, _ = kurtosis_frames(obs)
    for U in frames:
        assert U.dtype == obs.samples.dtype
        assert_allclose(U @ U.conj().T, np.eye(U.shape[0]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["criterion_9", "criterion_9_3000", "disks_25", "disks_39"])
def test_kurtosis_frame_separates_before_any_descent(case):
    # Every restart's start already separates, so its descent only refines
    # a frame inside the basin.  Disks 25 and 39 failed from Haar starts at
    # restarts=1.
    obs, M = {
        "criterion_9": lambda: criterion_9_input(10),
        "criterion_9_3000": lambda: criterion_9_input(1, 3000),
        "disks_25": lambda: disk_input(25),
        "disks_39": lambda: disk_input(39),
    }[case]()
    m = 2
    frames, C = kurtosis_frames(obs)
    for U in frames:
        quality = separation_quality(U[:m] @ C, M)
        assert quality.success and min(quality.dominance) >= 0.95


def test_zero_kurtosis_sources_still_separate():
    # The cubic update cannot see a source with zero excess kurtosis, so the
    # start is no better than its Haar frame there; the spacing descent still
    # separates these skewed sources.
    weights, mus, sigmas = [0.75, 0.25], [-0.5, 1.5], [0.8, 0.8945652013515192]
    w, s = np.array(weights), np.array(sigmas)
    d = np.array(mus) - w @ np.array(mus)
    var = w @ (d**2 + s**2)
    skew = w @ (d**3 + 3 * d * s**2) / var**1.5
    excess = w @ (d**4 + 6 * d**2 * s**2 + 3 * s**4) / var**2 - 3.0
    assert abs(excess) <= 1e-12 and skew == pytest.approx(0.54, abs=5e-3)
    source = gaussian_mixture(weights, mus, sigmas)
    for seed in (10, 11, 12):
        obs, M = criterion_9_input(seed, source=source)
        res = minimize_contrast(obs, 2, seed=seed)
        assert separation_quality(res.demixer, M).success
    for seed in (0, 1, 2):
        obs, M = criterion_9_input(seed, 3000, source)
        res = minimize_contrast(obs, 2, seed=seed, restarts=1)
        assert separation_quality(res.demixer, M).success


def test_all_gaussian_input_gives_a_finite_demixer():
    # Nothing to find: the fixed point runs to its step limit on an update
    # that is all sampling noise, and its SVD polar factor stays orthonormal
    # and finite.
    import warnings

    X = sample_sources([gaussian(1.0)] * 4, 20000, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize_contrast(Observation.from_samples(X), 2, seed=0)
    assert np.all(np.isfinite(res.demixer)) and np.isfinite(res.contrast_value)
    assert_allclose(np.linalg.norm(res.demixer, axis=1), 1.0, atol=1e-9)


def test_same_rows_ignores_only_sign_and_phase():
    import mixent.bse as bse

    gen = np.random.Generator(np.random.Philox(7))
    U, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    Uc, _ = np.linalg.qr(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))
    assert bse._same_rows(np.array([[1.0], [-1.0], [-1.0], [1.0]]) * U, U)
    assert bse._same_rows(np.exp(1j * np.array([[0.3], [-2.0], [math.pi]])) * Uc, Uc)
    c, s = math.cos(1e-3), math.sin(1e-3)
    for V in (U, Uc):
        turned = V.copy()
        turned[0], turned[1] = c * V[0] + s * V[1], -s * V[0] + c * V[1]
        assert not bse._same_rows(turned, V)
        swapped = V[[1, 0] + list(range(2, V.shape[0]))]
        assert not bse._same_rows(swapped, V)


def record_descents(monkeypatch):
    # The number of points each _optimize_frame call searches, in call order.
    import mixent.bse as bse

    points, optimize = [], bse._optimize_frame

    def recorded_optimize(*args):
        points.append(args[0].shape[0])
        return optimize(*args)

    monkeypatch.setattr(bse, "_optimize_frame", recorded_optimize)
    return points


@pytest.mark.parametrize("s", [10, 11, 12])
def test_restarts_with_coincident_starts_share_one_descent(s, monkeypatch):
    # Criterion 9's shape: the second restart's kurtosis start is the
    # first's, row by row, so it reports the first restart's descent instead
    # of running it again, and that descent and the polish are all that run.
    points = record_descents(monkeypatch)
    obs, M = criterion_9_input(s)
    res = minimize_contrast(obs, 2, seed=s, restarts=5)
    assert points == [5000, 20000]
    assert res.restart_objectives[1] == res.restart_objectives[0]
    assert res.trace[1] == res.trace[0]
    assert res.best_restart == 0
    assert separation_quality(res.demixer, M).success


def test_restarts_without_a_fixed_point_run_their_own_descents(monkeypatch):
    # Sources of zero excess kurtosis: the fixed point spends its step limit
    # without converging, so no two starts coincide and every restart runs
    # its own descent before the polish.
    points = record_descents(monkeypatch)
    source = gaussian_mixture([0.75, 0.25], [-0.5, 1.5], [0.8, 0.8945652013515192])
    for s in (13, 14):
        points.clear()
        obs, M = criterion_9_input(s, source=source)
        res = minimize_contrast(obs, 2, seed=s)
        assert points == [5000] * len(res.restart_objectives) + [20000]
        assert separation_quality(res.demixer, M).success


@pytest.mark.parametrize("case", ["real", "complex"])
def test_minimize_contrast_scores_each_rotation_once(case, monkeypatch):
    # Outside the line searches the only entropy evaluations are the n rows
    # each restart scores to order its start frame and the k rows of the
    # final contrast: the descent starts from the ordered start scores, an
    # accepted rotation reuses the row values its line search computed, and
    # the complex phase search starts from the angle search's best value.
    # These inputs take no polish (stride 1), whose k initial row scores
    # would count here.
    import mixent.bse as bse

    counts = {"outside": 0, "accepted": 0}
    depth = [0]
    name = "spacing_entropy_value" if case == "real" else "_knn_value"
    estimate, line_search = getattr(bse, name), bse._line_search

    def counted_estimate(*args):
        counts["outside"] += depth[0] == 0
        return estimate(*args)

    def counted_line_search(f, f0, *args, **kwargs):
        depth[0] += 1
        try:
            t, f_best, evals = line_search(f, f0, *args, **kwargs)
        finally:
            depth[0] -= 1
        counts["accepted"] += f_best < f0 and t != 0.0
        return t, f_best, evals

    monkeypatch.setattr(bse, name, counted_estimate)
    monkeypatch.setattr(bse, "_line_search", counted_line_search)
    gen = np.random.Generator(np.random.Philox(2020))
    if case == "real":
        M, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        X = sample_sources([unit_variance_uniform(), laplace(2**-0.5), gaussian(1.0)], 3000, 63)
        k, restarts = 2, 2
    else:
        M, _ = np.linalg.qr(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
        X = sample_sources([uniform_disk(1.0)] * 2, 2000, 64)
        k, restarts = 1, 1
    minimize_contrast(Observation.from_samples(X @ M.T), k, seed=9, restarts=restarts)
    assert counts["accepted"] > 0
    assert counts["outside"] == restarts * M.shape[0] + k


def test_real_search_scores_through_bse_spacing_binding(monkeypatch):
    # Every row the real line search scores goes through bse's binding of
    # spacing_entropy_value, which is what traced runs count.
    import mixent.bse as bse

    inside, evals, depth = [0], [0], [0]
    spacing, line_search = bse.spacing_entropy_value, bse._line_search

    def counted_spacing(*args):
        inside[0] += depth[0] > 0
        return spacing(*args)

    def counted_line_search(*args, **kwargs):
        depth[0] += 1
        try:
            result = line_search(*args, **kwargs)
        finally:
            depth[0] -= 1
        evals[0] += result[2]
        return result

    monkeypatch.setattr(bse, "spacing_entropy_value", counted_spacing)
    monkeypatch.setattr(bse, "_line_search", counted_line_search)
    X, _ = uniform_observation(2, 2000, 65)
    R = np.array([[0.8, -0.6], [0.6, 0.8]])
    minimize_contrast(Observation.from_samples(X @ R.T), 2, seed=3, restarts=1)
    # Both rows of the single pair are scored at every evaluation.
    assert evals[0] > 0
    assert inside[0] == 2 * evals[0]


@pytest.mark.parametrize("n_samples", [20000, 3000])
def test_restarts_search_a_subsample_and_the_polish_all_the_data(n_samples, monkeypatch):
    # From 10k points on, the restarts score rows of every stride-th point
    # (5000 of 20k), and only the last descent, the polish of the best
    # restart's frame, scores rows of all the points.  Below 10k points
    # every descent scores all of them.
    import mixent.bse as bse

    rows, depth = [], [0]
    spacing, optimize = bse.spacing_entropy_value, bse._optimize_frame

    def counted_spacing(z, *args):
        if depth[0]:
            rows[-1].add(z.shape[0])
        return spacing(z, *args)

    def counted_optimize(*args):
        rows.append(set())
        depth[0] += 1
        try:
            return optimize(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(bse, "spacing_entropy_value", counted_spacing)
    monkeypatch.setattr(bse, "_optimize_frame", counted_optimize)
    gen = np.random.Generator(np.random.Philox(9001))
    M, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    X = sample_sources((unit_variance_uniform(),) * 3 + (gaussian(1.0),), n_samples, 1)
    res = minimize_contrast(Observation.from_samples(X @ M.T), 2, seed=1)
    if n_samples == 20000:
        # The second restart starts where the first did and shares its
        # descent.
        assert rows == [{5000}, {20000}]
        assert res.restart_objectives[1] == res.restart_objectives[0]
    else:
        # Both restarts start inside the separating basin and agree.
        assert rows == [{3000}] * 2
        assert min(separation_quality(res.demixer, M).dominance) >= 0.95
    assert_restarts_stopped_at_agreement(res, 5)
    assert res.restart_objectives[res.best_restart] == min(res.restart_objectives)


def test_complex_search_scores_through_bse_knn_binding(monkeypatch):
    # Every row the complex line searches score, angle and phase alike, goes
    # through bse's binding of _knn_value, which is what traced runs count.
    import mixent.bse as bse

    inside, evals, depth = [0], [0], [0]
    knn, line_search = bse._knn_value, bse._line_search

    def counted_knn(*args):
        inside[0] += depth[0] > 0
        return knn(*args)

    def counted_line_search(*args, **kwargs):
        depth[0] += 1
        try:
            result = line_search(*args, **kwargs)
        finally:
            depth[0] -= 1
        evals[0] += result[2]
        return result

    monkeypatch.setattr(bse, "_knn_value", counted_knn)
    monkeypatch.setattr(bse, "_line_search", counted_line_search)
    Z = sample_sources([uniform_disk(1.0)] * 2, 1000, 66)
    R = np.array([[0.8, -0.6j], [-0.6j, 0.8]])
    minimize_contrast(Observation.from_samples(Z @ R.T), 2, seed=3, restarts=1, max_sweeps=1)
    # Both rows of the single pair are scored at every evaluation.
    assert evals[0] > 0
    assert inside[0] == 2 * evals[0]


def test_oracle_decompose_separating_gaussian_scenario():
    sources = [gaussian(1.0)] * 4
    gen = np.random.Generator(np.random.Philox(20260819))
    Mq, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    d = oracle_decompose(Mq.T[:2], Mq, sources, n_samples=20000, seed=7)
    assert d.residual == 0.0  # model covariance is exactly the identity
    assert abs(d.marginal_term) <= 0.03
    assert abs(d.alignment_term) <= 1e-12
    assert abs(d.identity_gap) <= 2 * d.std_error
    assert d.n_rows == 2


def test_oracle_decompose_averaging_row():
    d = oracle_decompose(
        AVG_ROW, np.eye(2), [unit_variance_uniform()] * 2, n_samples=50000, seed=3
    )
    assert d.marginal_term == pytest.approx(STRICT_GAP, abs=0.03)
    assert d.alignment_term == pytest.approx(0.0, abs=1e-12)
    assert abs(d.residual) <= 1e-13
    assert d.contrast_value == pytest.approx(
        d.marginal_term
        + d.alignment_term
        + d.residual
        + d.n_rows * d.common_entropy
        + d.identity_gap,
        abs=1e-12,
    )


def test_oracle_decompose_alignment_penalizes_correlated_rows():
    W = np.array([[1.0, 0.0, 0.0, 0.0], [0.9, 0.1, 0.0, 0.0]])
    d = oracle_decompose(W, np.eye(4), [gaussian(1.0)] * 4, n_samples=5000, seed=1)
    assert d.alignment_term > 0.5  # nearly parallel rows blow up the volume term


def test_oracle_decompose_rejects_unequal_entropies():
    with pytest.raises(ValueError):
        oracle_decompose(
            AVG_ROW, np.eye(2), [uniform(0.0, 1.0), gaussian(1.0)], n_samples=2000, seed=0
        )


@pytest.mark.parametrize("W, error, message", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ValueError, "one column per observed channel"),
    ([[1.0, 1.0], [2.0, 2.0]], RankDeficient, "linearly dependent rows"),
], ids=["three_columns", "rank_deficient"])
def test_oracle_decompose_checks_the_demixer(W, error, message):
    with pytest.raises(error, match=message):
        oracle_decompose(W, np.eye(2), [unit_variance_uniform()] * 2, n_samples=2000, seed=0)


def test_oracle_decompose_singular_mix_raises_as_contrast_does():
    # Both columns of Y equal, so W K W^H is singular and the log volume is -inf.
    mix, sources = [[1.0, 1.0], [1.0, 1.0]], [unit_variance_uniform()] * 2
    with pytest.raises(SingularCovariance, match="demixed covariance is numerically singular"):
        oracle_decompose(np.eye(2), mix, sources, n_samples=2000, seed=0)
    Y = sample_sources(sources, 2000, 0) @ np.array(mix).T
    with pytest.raises(SingularCovariance, match="demixed covariance is numerically singular"):
        contrast(np.eye(2), Observation.from_samples(Y))


def test_oracle_decompose_source_field_against_matrix():
    mix = [[1.0, 1.0j], [0.5, 1.0]]
    with pytest.raises(UnsupportedFamily, match="'gaussian' does not match the complex"):
        oracle_decompose(np.eye(2)[:1], mix, [gaussian(1.0)] * 2, n_samples=2000, seed=0)
    # A real mixing array may mix complex sources.
    d = oracle_decompose(
        np.eye(2)[:1], np.eye(2), [uniform_disk(1.0)] * 2, n_samples=2000, seed=0
    )
    assert np.isfinite(d.contrast_value)


def test_separation_quality_identity():
    q = separation_quality(np.eye(2), np.eye(2))
    assert q.success
    assert q.dominance == (1.0, 1.0)
    assert q.selected == (0, 1)
    assert q.threshold == 0.95


def test_separation_quality_int_inputs_encode_as_floats():
    q = separation_quality([[1, 0], [0, 1]], [[1, 0], [0, 1]], threshold=1)
    ref = separation_quality(np.eye(2), np.eye(2), threshold=1.0)
    assert fmt.canonical_json(fmt.quality_to_dict(q)) == fmt.canonical_json(fmt.quality_to_dict(ref))
    assert '"threshold": 1.0' in fmt.canonical_json(fmt.quality_to_dict(q))


def test_separation_quality_dominance_value():
    q = separation_quality(np.array([[1.0, 0.1], [0.0, 1.0]]), np.eye(2))
    assert q.dominance[0] == pytest.approx(1.0 / 1.01, rel=1e-12)
    assert q.success
    strict = separation_quality(np.array([[1.0, 0.1], [0.0, 1.0]]), np.eye(2), threshold=0.999)
    assert not strict.success


def test_separation_quality_duplicate_argmax_fails():
    W = np.array([[1.0, 0.01], [1.0, -0.01]])
    q = separation_quality(W, np.eye(2))
    assert q.selected == (0, 0)
    assert not q.success


def test_separation_quality_zero_row_rejected():
    with pytest.raises(ValueError):
        separation_quality(np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2))


def test_separation_quality_names_mismatched_shapes():
    with pytest.raises(ValueError, match=r"^W has 2 columns, M has 3 rows$"):
        separation_quality(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match=r"^W and M must be matrices"):
        separation_quality(np.ones(2), np.eye(2))
