import numpy as np
import pytest
from numpy.testing import assert_allclose

from mixent import (
    NotCircular,
    UnsupportedFamily,
    circular_gaussian,
    exact_entropy,
    exponential,
    gaussian,
    gaussian_mixture,
    laplace,
    match_entropy,
    normalize_entropies,
    quantile_transport,
    radial_transport,
    sample,
    sample_sources,
    scale_model,
    spacing_entropy,
    transport_log_derivative_expectation,
    uniform,
    uniform_disk,
    unit_variance_uniform,
)
from mixent import distributions as dist
from mixent import formats as fmt
from mixent.complex_embedding import dtype_of, real_dims
from mixent.distributions import variance

H_NORMAL = 0.5 * np.log(2 * np.pi * np.e)


def test_exact_entropy_closed_forms():
    assert exact_entropy(gaussian(1.0)) == pytest.approx(1.4189385332046727, abs=1e-12)
    assert exact_entropy(uniform(0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    assert exact_entropy(laplace(1.0)) == pytest.approx(1.0 + np.log(2.0), abs=1e-12)
    assert exact_entropy(exponential(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert exact_entropy(circular_gaussian(1.0)) == pytest.approx(
        np.log(np.pi * np.e), abs=1e-12
    )
    assert exact_entropy(uniform_disk(2.0)) == pytest.approx(np.log(4 * np.pi), abs=1e-12)


def test_mixture_entropy_degenerate_equals_gaussian():
    mix = gaussian_mixture((0.5, 0.5), (0.7, 0.7), (1.3, 1.3))
    assert exact_entropy(mix) == pytest.approx(exact_entropy(gaussian(1.3)), abs=1e-9)


def test_mixture_entropy_far_separated_adds_label_entropy():
    mix = gaussian_mixture((0.5, 0.5), (-30.0, 30.0), (1.0, 1.0))
    expected = exact_entropy(gaussian(1.0)) + np.log(2.0)
    assert exact_entropy(mix) == pytest.approx(expected, abs=1e-6)


def test_variance_closed_forms():
    assert variance(gaussian(2.0)) == pytest.approx(4.0, abs=1e-12)
    assert variance(uniform(0.0, 1.0)) == pytest.approx(1 / 12, abs=1e-15)
    assert variance(unit_variance_uniform()) == pytest.approx(1.0, abs=1e-15)
    assert variance(laplace(1.0)) == pytest.approx(2.0, abs=1e-12)
    assert variance(exponential(2.0)) == pytest.approx(0.25, abs=1e-12)
    assert variance(circular_gaussian(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert variance(uniform_disk(1.0)) == pytest.approx(0.5, abs=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        uniform(1.0, 0.0)
    with pytest.raises(ValueError):
        gaussian(-1.0)
    with pytest.raises(ValueError):
        gaussian_mixture((0.3, 0.3), (0.0, 1.0), (1.0, 1.0))
    with pytest.raises(UnsupportedFamily):
        from mixent import SourceModel

        SourceModel(family="triangular", params={}, field="real")
    with pytest.raises(UnsupportedFamily):
        from mixent import SourceModel

        SourceModel(family="complex_circular_gaussian", params={"sigma": 1.0}, field="real")


def test_model_keeps_a_copy_of_its_params():
    from mixent import SourceModel

    p = {"sigma": 1.0}
    m = SourceModel("gaussian", p)
    p["sigma"] = -2.0
    assert m.params == {"sigma": 1.0}
    assert variance(m) == 1.0
    weights = [0.3, 0.7]
    q = {"weights": weights, "mus": [-1.0, 1.0], "sigmas": [0.5, 0.8]}
    mix = SourceModel("gaussian_mixture_2", q)
    weights[0] = -5.0
    assert mix.params["weights"] == [0.3, 0.7]
    # The values stay as given, so the model encodes as before.
    assert fmt.model_to_dict(mix)["params"] == {"weights": [0.3, 0.7], "mus": [-1.0, 1.0], "sigmas": [0.5, 0.8]}


def test_sampling_reproducible_and_stream_separated():
    m = gaussian(1.0)
    a = sample(m, 100, 42)
    b = sample(m, 100, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample(m, 100, 43))
    assert not np.array_equal(a, sample(m, 100, 42, stream=1))


def test_sampling_moments():
    x = sample(gaussian(1.0), 100000, 3)
    assert abs(x.mean()) <= 0.02
    u = sample(unit_variance_uniform(), 100000, 3)
    assert abs(u.var() - 1.0) <= 0.03
    assert u.min() >= -np.sqrt(3.0) and u.max() <= np.sqrt(3.0)
    e = sample(exponential(1.0), 100000, 3)
    assert e.min() >= 0.0
    assert abs(e.mean() - 1.0) <= 0.02


def test_sampling_complex_families():
    z = sample(circular_gaussian(1.0), 100000, 5)
    assert z.dtype == np.complex128
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) <= 0.02
    d = sample(uniform_disk(1.5), 50000, 5)
    assert np.abs(d).max() <= 1.5
    assert abs(np.mean(np.abs(d) ** 2) - 1.5**2 / 2) <= 0.02


def test_sample_rejects_bad_count():
    with pytest.raises(ValueError):
        sample(gaussian(1.0), 0, 1)


def test_scale_model_shifts_entropy():
    for m in (gaussian(1.0), uniform(0.0, 1.0), laplace(1.0), exponential(2.0)):
        scaled = scale_model(m, 3.0)
        assert exact_entropy(scaled) == pytest.approx(
            exact_entropy(m) + np.log(3.0), abs=1e-12
        )
    for m in (circular_gaussian(1.0), uniform_disk(1.0)):
        scaled = scale_model(m, 3.0)
        assert exact_entropy(scaled) == pytest.approx(
            exact_entropy(m) + 2 * np.log(3.0), abs=1e-12
        )
    with pytest.raises(ValueError):
        scale_model(gaussian(1.0), 0.0)


# One model per family and its variance in closed form.
VARIANCES = {
    "gaussian": (gaussian(1.5, 0.3), 2.25),
    "uniform": (uniform(-0.7, 1.9), 2.6**2 / 12),
    "laplace": (laplace(0.8, -0.4), 1.28),
    "exponential": (exponential(1.7), 1 / 1.7**2),
    # 0.3 (0.5^2 + 1) + 0.7 (0.8^2 + 1) - (0.7 - 0.3)^2
    "gaussian_mixture_2": (gaussian_mixture((0.3, 0.7), (-1.0, 1.0), (0.5, 0.8)), 1.363),
    "complex_circular_gaussian": (circular_gaussian(1.3), 1.69),
    "complex_uniform_disk": (uniform_disk(0.9), 0.405),
}


@pytest.mark.parametrize("family", list(dist._FAMILIES))
def test_variance_of_every_family(family):
    model, closed_form = VARIANCES[family]
    assert variance(model) == pytest.approx(closed_form, rel=1e-12)
    # The sampler agrees: the mean squared deviation of 200k draws lies
    # within 5 of its standard errors.
    x = sample(model, 200_000, 5)
    dev = np.abs(x - x.mean()) ** 2
    assert abs(dev.mean() - closed_form) <= 5 * dev.std() / np.sqrt(dev.size)


# One model per family and the bits of its parameters scaled by 0.37,
# recorded from the per-family scaling code that the one rule replaced.
SCALED_BITS = {
    "gaussian": (
        gaussian(1.3, 0.2), {"sigma": "0x1.ec8b439581062p-2", "mu": "0x1.2f1a9fbe76c8bp-4"}
    ),
    "uniform": (
        uniform(-0.7, 1.9), {"low": "-0x1.09374bc6a7efap-2", "high": "0x1.67ef9db22d0e5p-1"}
    ),
    "laplace": (
        laplace(0.8, -0.4), {"scale": "0x1.2f1a9fbe76c8bp-2", "mu": "-0x1.2f1a9fbe76c8bp-3"}
    ),
    "exponential": (exponential(1.7), {"rate": "0x1.260dd67c8a60ep+2"}),
    "gaussian_mixture_2": (
        gaussian_mixture([0.3, 0.7], [-1.1, 0.6], [0.5, 1.2]),
        {
            "weights": ["0x1.3333333333333p-2", "0x1.6666666666666p-1"],
            "mus": ["-0x1.a0c49ba5e3540p-2", "0x1.c6a7ef9db22d1p-3"],
            "sigmas": ["0x1.7ae147ae147aep-3", "0x1.c6a7ef9db22d1p-2"],
        },
    ),
    "complex_circular_gaussian": (circular_gaussian(1.3), {"sigma": "0x1.ec8b439581062p-2"}),
    "complex_uniform_disk": (uniform_disk(0.9), {"radius": "0x1.54fdf3b645a1dp-2"}),
}


@pytest.mark.parametrize("family", list(dist._FAMILIES))
def test_family_table_row(family):
    model, bits = SCALED_BITS[family]
    field = dist._FAMILIES[family][0]
    assert model.family == family and model.field == field
    assert sample(model, 5, 1).dtype == dtype_of(field)
    scaled = scale_model(model, 0.37)
    assert list(scaled.params) == list(model.params)
    assert exact_entropy(scaled) == pytest.approx(
        exact_entropy(model) + real_dims(field) * np.log(0.37), abs=1e-9
    )
    hexed = {
        k: [x.hex() for x in v] if isinstance(v, list) else v.hex()
        for k, v in scaled.params.items()
    }
    assert hexed == bits


def test_scale_model_keeps_the_keys_it_had():
    from mixent import SourceModel

    scaled = scale_model(SourceModel("gaussian", {"sigma": 2.0}), 0.5)
    assert scaled.params == {"sigma": 1.0}


def test_scale_model_scales_samples():
    m = laplace(1.0)
    a = sample(scale_model(m, 2.0), 50, 9)
    assert_allclose(a, 2.0 * sample(m, 50, 9), atol=1e-12)


def test_normalize_entropies_real():
    models, scaling = normalize_entropies([uniform(0.0, 1.0), gaussian(1.0)])
    hs = [exact_entropy(m) for m in models]
    assert hs[0] == pytest.approx(0.0, abs=1e-12)
    assert hs[1] == pytest.approx(0.0, abs=1e-12)
    assert scaling.deltas[0] == pytest.approx(1.0, abs=1e-12)
    assert scaling.deltas[1] == pytest.approx(np.exp(exact_entropy(gaussian(1.0))), rel=1e-12)


def test_normalize_entropies_complex():
    models, scaling = normalize_entropies([circular_gaussian(1.0), uniform_disk(1.0)])
    for m in models:
        assert exact_entropy(m) == pytest.approx(0.0, abs=1e-12)
    assert scaling.deltas[0] == pytest.approx(
        np.exp(exact_entropy(circular_gaussian(1.0)) / 2), rel=1e-12
    )


def test_normalize_entropies_rejects_mixed_fields():
    with pytest.raises(UnsupportedFamily):
        normalize_entropies([gaussian(1.0), circular_gaussian(1.0)])
    with pytest.raises(ValueError):
        normalize_entropies([])


def test_match_entropy():
    m = match_entropy(uniform(0.0, 1.0), H_NORMAL)
    assert exact_entropy(m) == pytest.approx(H_NORMAL, abs=1e-12)
    g = match_entropy(gaussian(5.0), 0.0)
    assert exact_entropy(g) == pytest.approx(0.0, abs=1e-12)


def test_quantile_transport_gaussian_is_affine():
    tm = quantile_transport(gaussian(3.0, mu=2.0))
    x = np.linspace(-4.0, 4.0, 9)
    assert_allclose(tm.transform(x), 2.0 + 3.0 * x, atol=1e-9)
    assert_allclose(tm.derivative(x), 3.0, atol=1e-9)


def test_quantile_transport_examples():
    tu = quantile_transport(uniform(0.0, 1.0))
    assert tu.transform(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)
    tl = quantile_transport(laplace(1.0))
    assert tl.transform(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-9)


def test_quantile_transport_rejects_complex_target():
    with pytest.raises(UnsupportedFamily):
        quantile_transport(circular_gaussian(1.0))


def test_quantile_transport_derivative_positive():
    grid = np.linspace(-6.0, 6.0, 10000)
    for m in (uniform(0.0, 1.0), laplace(2.0), exponential(1.0),
              gaussian_mixture((0.3, 0.7), (-1.0, 2.0), (0.5, 1.5))):
        d = quantile_transport(m).derivative(grid)
        assert np.all(d > 0.0)
        assert np.all(np.isfinite(d))


def test_quantile_transport_monotone():
    grid = np.linspace(-6.0, 6.0, 10000)
    for m in (uniform(0.0, 1.0), gaussian_mixture((0.5, 0.5), (-2.0, 2.0), (1.0, 0.5))):
        t = quantile_transport(m).transform(grid)
        assert np.all(np.diff(t) > 0.0)


def test_quantile_transport_mixture_matches_cdf():
    from scipy.stats import norm

    m = gaussian_mixture((0.4, 0.6), (-1.0, 1.5), (0.8, 1.2))
    tm = quantile_transport(m)
    x = np.linspace(-3.0, 3.0, 25)
    t = tm.transform(x)
    cdf = 0.4 * norm.cdf((t + 1.0) / 0.8) + 0.6 * norm.cdf((t - 1.5) / 1.2)
    assert_allclose(cdf, norm.cdf(x), atol=1e-9)


def test_quantile_transport_pushforward_entropy():
    gen = np.random.Generator(np.random.Philox(31))
    z = gen.standard_normal(100000)
    for m in (uniform(0.0, 1.0), laplace(1.0),
              gaussian_mixture((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0))):
        pushed = quantile_transport(m).transform(z)
        est = spacing_entropy(pushed)
        assert est.value == pytest.approx(exact_entropy(m), abs=0.02)


def test_radial_transport_circular_gaussian_slope():
    tm = radial_transport(circular_gaussian(1.0))
    r = np.array([0.5, 1.0, 2.0])
    assert_allclose(tm.radial_map(r), r / np.sqrt(2.0), atol=1e-12)
    assert_allclose(tm.radial_derivative(r), 1 / np.sqrt(2.0), atol=1e-12)
    tm3 = radial_transport(circular_gaussian(3.0))
    assert tm3.radial_map(np.array([1.0]))[0] == pytest.approx(3 / np.sqrt(2.0), abs=1e-12)


def test_radial_transport_disk_map():
    R = 2.0
    tm = radial_transport(uniform_disk(R))
    r = np.array([0.1, 1.0, 3.0])
    assert_allclose(tm.radial_map(r), R * np.sqrt(-np.expm1(-0.5 * r * r)), atol=1e-12)
    assert tm.radial_derivative(np.array([0.0]))[0] == pytest.approx(
        R / np.sqrt(2.0), abs=1e-8
    )


def test_radial_transport_preserves_direction():
    tm = radial_transport(uniform_disk(1.0))
    gen = np.random.Generator(np.random.Philox(32))
    pts = gen.standard_normal((100, 2))
    out = tm.transform(pts)
    ang_in = np.arctan2(pts[:, 1], pts[:, 0])
    ang_out = np.arctan2(out[:, 1], out[:, 0])
    assert_allclose(ang_in, ang_out, atol=1e-10)
    assert np.all(np.hypot(out[:, 0], out[:, 1]) <= 1.0 + 1e-12)


def test_radial_transport_jacobian_symmetric_positive():
    gen = np.random.Generator(np.random.Philox(33))
    pts = gen.standard_normal((1000, 2))
    for target in (circular_gaussian(1.3), uniform_disk(2.0)):
        tm = radial_transport(target)
        for p in pts:
            J = tm.jacobian(p)
            assert_allclose(J, J.T, atol=1e-8)
            assert np.linalg.eigvalsh(J).min() > 0.0


def test_radial_transport_pushforward_radius_distribution():
    gen = np.random.Generator(np.random.Philox(34))
    pts = gen.standard_normal((100000, 2))
    R = 1.5
    out = radial_transport(uniform_disk(R)).transform(pts)
    radius = np.hypot(out[:, 0], out[:, 1])
    for q in (0.3, 0.6, 0.9):
        r = R * np.sqrt(q)  # radius CDF of a uniform disk is (r/R)^2
        assert np.mean(radius <= r) == pytest.approx(q, abs=0.01)
    out = radial_transport(circular_gaussian(1.0)).transform(pts)
    radius = np.hypot(out[:, 0], out[:, 1])
    for q in (0.3, 0.6, 0.9):
        r = np.sqrt(-np.log1p(-q))  # radius CDF is 1 - exp(-r^2/sigma^2)
        assert np.mean(radius <= r) == pytest.approx(q, abs=0.01)


def test_radial_transport_rejects_real_target():
    with pytest.raises(NotCircular):
        radial_transport(gaussian(1.0))


def test_transport_log_derivative_normal_is_zero():
    tm = quantile_transport(gaussian(1.0))
    assert transport_log_derivative_expectation(tm, 1000, 3) == 0.0


def test_transport_log_derivative_matches_entropy_difference():
    for m in (uniform(0.0, 1.0), laplace(1.0)):
        tm = quantile_transport(m)
        v = transport_log_derivative_expectation(tm, 100000, 3)
        assert v == pytest.approx(exact_entropy(m) - H_NORMAL, abs=0.01)


def test_transport_log_derivative_entropy_matched_vanishes():
    m = match_entropy(uniform(0.0, 1.0), H_NORMAL)
    tm = quantile_transport(m)
    assert transport_log_derivative_expectation(tm, 100000, 3) == pytest.approx(0.0, abs=0.01)


def test_transport_log_derivative_rejects_bad_count():
    with pytest.raises(ValueError):
        transport_log_derivative_expectation(quantile_transport(gaussian(1.0)), 0, 1)


def test_sample_sources_needs_a_source():
    with pytest.raises(ValueError, match="need at least one source"):
        sample_sources([], 10, 0)


def test_sample_sources_column_subset_is_the_full_draws_columns():
    sources = [gaussian(1.0), uniform(-1.0, 1.0), laplace(1.0)]
    full = sample_sources(sources, 10, 4, trial=2)
    assert np.array_equal(sample_sources(sources, 10, 4, trial=2, columns=[2, 0]), full[:, [2, 0]])


def test_exponential_quantile_transport_matches_the_normal_log_survival():
    from scipy.stats import norm

    x = np.linspace(-6.0, 6.0, 241)
    for rate in (0.5, 2.0):
        t = quantile_transport(exponential(rate)).transform(x)
        assert_allclose(t, -norm.logsf(x) / rate, rtol=0.0, atol=1e-12)
        assert np.all(np.diff(t) > 0)


@pytest.mark.parametrize("model, slope", [
    (uniform_disk(1.7), 1.7 / np.sqrt(2.0)),
    (circular_gaussian(0.6), 0.6 / np.sqrt(2.0)),
])
def test_radial_transport_jacobian_at_the_origin(model, slope):
    # g'(0) is R / sqrt(2) for the disk of radius R, sigma / sqrt(2) for the
    # circular Gaussian, and the map is g'(0) I to first order at 0.
    J = radial_transport(model).jacobian(np.zeros(2))
    assert_allclose(J, slope * np.eye(2), rtol=1e-15, atol=0.0)
