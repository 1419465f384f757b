import numpy as np
import pytest

from mixent.rng import generator, haar_rows


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
