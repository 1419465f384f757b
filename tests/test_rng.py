import numpy as np
import pytest

from mixent.rng import check_count, generator, haar_rows, mix_seed


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 5), (4, 4)])
def test_haar_rows_are_orthonormal(m, n, complex_field):
    Q = haar_rows(generator(3, m * 10 + n), m, n, complex_field)
    assert Q.shape == (m, n)
    assert Q.dtype == (np.complex128 if complex_field else np.float64)
    np.testing.assert_allclose(Q @ Q.conj().T, np.eye(m), atol=1e-12)


@pytest.mark.parametrize("complex_field", [False, True])
def test_haar_row_is_the_normalized_gaussian(complex_field):
    # With the phase fix, one row is the Gaussian column divided by its norm,
    # which is uniform on the sphere; without it, LAPACK's Householder QR
    # fixes the sign of the first entry.
    n = 4
    for seed in range(20):
        rng = generator(seed)
        g = rng.standard_normal(n)
        if complex_field:
            g = g + 1j * rng.standard_normal(n)
        q = haar_rows(generator(seed), 1, n, complex_field)[0]
        np.testing.assert_allclose(q, g.conj() / np.linalg.norm(g), atol=1e-12)


def test_haar_rows_repeat_for_a_seed():
    a = haar_rows(generator(7, 2), 2, 3, True)
    assert np.array_equal(a, haar_rows(generator(7, 2), 2, 3, True))
    assert not np.array_equal(a, haar_rows(generator(7, 3), 2, 3, True))


def test_normal_draw_golden_digest():
    """Pins the bits of every sampler family and of the two Monte Carlo
    routines that draw standard normals: the transport expectation and the
    expectation check of the lemma.

    The normal draw is scipy's ``ndtri`` of an open uniform, so the digest
    holds the float bits of numpy 2.4.6 and scipy 1.17.1.
    """
    import scipy

    if (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"):
        pytest.skip(f"digest recorded with numpy 2.4.6 and scipy 1.17.1, "
                    f"running {np.__version__} and {scipy.__version__}")
    import hashlib

    import mixent
    from mixent import distributions as dist

    models = [
        mixent.gaussian(1.5, mu=0.25),
        mixent.uniform(-1.0, 2.0),
        mixent.laplace(0.7, mu=-0.5),
        mixent.exponential(2.0),
        mixent.gaussian_mixture([0.3, 0.7], [-1.0, 1.0], [0.5, 0.8]),
        mixent.circular_gaussian(1.2),
        mixent.uniform_disk(0.9),
    ]
    h = hashlib.sha256()
    for model in models:
        for seed, stream in [(0, 0), (11, 3), (2**40 + 5, 1 << 20)]:
            h.update(dist.sample(model, 257, seed, stream).tobytes())
    mixture = mixent.gaussian_mixture([0.5, 0.5], [-1.0, 1.0], [0.6, 0.6])
    for model in (mixent.laplace(1.0), mixture):
        v = dist.transport_log_derivative_expectation(dist.quantile_transport(model), 500, 9)
        h.update(np.float64(v).tobytes())
    h_normal = 0.5 * np.log(2 * np.pi * np.e)
    targets = [dist.match_entropy(m, h_normal) for m in (mixent.uniform(0.0, 1.0), mixture)]
    Q = haar_rows(generator(5), 1, 2, False)
    v = mixent.expectation_inequality_check(Q, targets, 400, 6)
    h.update(np.float64(v).tobytes())
    assert h.hexdigest() == "a04747c0e0b42848c4f1e5252942a84d07a93c2493ce519f7500a5083471a9be"


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, np.int64(-1), "7"])
def test_seeds_outside_the_64_bit_range_raise(seed):
    # Masking to 64 bits would give -1 the stream of 2**64 - 1, 2**64 that of
    # 0, and 1.5 that of 1.
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
        mix_seed(seed, 0)
    with pytest.raises(ValueError):
        generator(seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int32(7)])
def test_every_64_bit_seed_is_accepted(seed):
    assert mix_seed(seed, 3) == mix_seed(int(seed), 3)


def test_api_seeds_are_checked():
    from mixent import EpiExperimentConfig, MixingMatrix, gaussian, minimize_contrast, sample_sources
    from mixent.bse import Observation

    with pytest.raises(ValueError, match="seed must be"):
        sample_sources([gaussian(1.0)], 10, -1)
    obs = Observation.from_samples(sample_sources([gaussian(1.0)] * 2, 1000, 0))
    with pytest.raises(ValueError, match="seed must be"):
        minimize_contrast(obs, 1, seed=1.5, restarts=1)
    with pytest.raises(ValueError, match="seed must be"):
        EpiExperimentConfig(
            matrix=MixingMatrix.from_array(np.ones((2, 2))), sources=(gaussian(1.0),) * 2,
            n_samples=1000, seed=True,
        )


@pytest.mark.parametrize("value, lo, hi, message", [
    (2.5, 1, None, "n must be an integer, got 2.5"),
    (np.bool_(True), 1, None, f"n must be an integer, got {np.bool_(True)!r}"),
    (0, 1, None, "n must be at least 1, got 0"),
    (np.int64(-2), 0, None, "n must be at least 0, got -2"),
    (6, 1, 5, "n must be in [1, 5], got 6"),
    (0, 1, 5, "n must be in [1, 5], got 0"),
])
def test_check_count_messages(value, lo, hi, message):
    with pytest.raises(ValueError) as info:
        check_count(value, "n", lo, hi)
    assert str(info.value) == message


def test_check_count_returns_a_python_int():
    for value in (np.int64(7), np.uint8(7), 7):
        out = check_count(value, "n", 7, 7)
        assert out == 7 and type(out) is int


@pytest.mark.parametrize("stream", [0, 2**64 - 2, np.uint64(2**64 - 2), np.int32(3)])
def test_every_stream_in_range_is_accepted(stream):
    assert mix_seed(7, stream) == mix_seed(7, int(stream))
