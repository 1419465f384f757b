import numpy as np
import pytest
from numpy.testing import assert_allclose

from mixent import (
    BadBlockStructure,
    NotSpd,
    block_polar,
    embed_samples,
    hat_embed,
    unhat,
)


def random_complex(gen, shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def test_hat_scalar_imaginary_unit():
    assert_allclose(hat_embed(np.array([[1j]])), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_hat_scalar_one_plus_i():
    H = hat_embed(np.array([[1 + 1j]]))
    assert_allclose(H, [[1.0, -1.0], [1.0, 1.0]], atol=1e-15)
    assert np.linalg.det(H) == pytest.approx(2.0)  # |1+i|^2


def test_hat_of_i_squares_to_minus_identity():
    H = hat_embed(np.array([[1j]]))
    assert_allclose(H @ H, -np.eye(2), atol=1e-15)


def test_hat_vector_interleaves_real_imag():
    v = np.array([1.0 + 2.0j, 3.0 + 4.0j])
    assert_allclose(hat_embed(v), [1.0, 2.0, 3.0, 4.0], atol=1e-15)


def test_embed_samples_interleaves_columns():
    Z = np.array([[1.0 + 2.0j, 3.0 + 4.0j], [5.0 + 6.0j, 7.0 + 8.0j]])
    E = embed_samples(Z)
    assert E.shape == (2, 4)
    assert_allclose(E[0], [1.0, 2.0, 3.0, 4.0], atol=1e-15)
    assert_allclose(E[1], [5.0, 6.0, 7.0, 8.0], atol=1e-15)


def test_vector_embeddings_never_alias_their_input():
    # The embeddings are views of fresh copies: writing into a result must
    # not reach the caller's array, whatever its layout.
    gen = np.random.Generator(np.random.Philox(203))
    Z = random_complex(gen, (6, 3))
    inputs = {
        "embed_samples": (embed_samples, Z),
        "embed_samples 1-D": (embed_samples, Z[:, 0].copy()),
        "embed_samples Fortran": (embed_samples, np.asfortranarray(Z)),
        "hat_embed": (hat_embed, Z[0].copy()),
        "hat_embed strided": (hat_embed, Z[:, 1]),
        "unhat": (unhat, gen.standard_normal(8)),
        "unhat strided": (unhat, gen.standard_normal(16)[::2]),
    }
    for name, (fn, arr) in inputs.items():
        before = arr.copy()
        out = fn(arr)
        out[...] = 7.0
        assert np.array_equal(arr, before), name
        assert not np.shares_memory(out, arr), name


def test_vector_embeddings_keep_every_bit():
    # complex128 memory is the interleaved (re, im) layout, so embedding and
    # un-embedding copy bits, signed zeros included.
    z = np.array([complex(-0.0, 1.5), complex(2.0, -0.0), complex(1e-310, -3.0)])
    v = hat_embed(z)
    assert v.tobytes() == np.column_stack((z.real, z.imag)).tobytes()
    assert unhat(v).tobytes() == z.tobytes()
    assert embed_samples(z[None, :]).tobytes() == v.tobytes()
    assert embed_samples(z).shape == (3, 2)


def test_hat_identities_random():
    gen = np.random.Generator(np.random.Philox(201))
    for _ in range(20):
        m = int(gen.integers(1, 5))
        n = int(gen.integers(1, 5))
        p = int(gen.integers(1, 5))
        A = random_complex(gen, (m, n))
        B = random_complex(gen, (n, p))
        assert_allclose(hat_embed(A @ B), hat_embed(A) @ hat_embed(B), atol=1e-12)
        assert_allclose(hat_embed(A.conj().T), hat_embed(A).T, atol=1e-12)
        if m == n:
            det = np.linalg.det(A)
            assert np.linalg.det(hat_embed(A)) == pytest.approx(
                abs(det) ** 2, rel=1e-10, abs=1e-10
            )


def test_unhat_round_trip():
    gen = np.random.Generator(np.random.Philox(202))
    A = random_complex(gen, (3, 2))
    assert_allclose(unhat(hat_embed(A)), A, atol=1e-14)
    v = random_complex(gen, 4)
    assert_allclose(unhat(hat_embed(v)), v, atol=1e-14)


def test_unhat_rejects_unpaired_blocks():
    with pytest.raises(BadBlockStructure):
        unhat(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(BadBlockStructure):
        unhat(np.eye(3))
    with pytest.raises(BadBlockStructure):
        unhat(np.ones(3))


def test_matrix_unhat_keeps_every_bit():
    # The matrix branch copies the real and imaginary parts, so signed
    # zeros survive the round trip; a + 1j * c would give -0+0j for -0-0j.
    A = np.array(
        [
            [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)],
            [complex(1.5, -0.0), complex(-0.0, -2.5), complex(1e-310, 3.0)],
        ]
    )
    out = unhat(hat_embed(A))
    assert out.dtype == np.complex128
    assert out.tobytes() == A.tobytes()


@pytest.mark.parametrize(
    "entry", [complex(2.0, np.inf), complex(np.inf, 0.0), complex(-np.inf, np.inf), complex(np.nan, 1.0)]
)
def test_matrix_unhat_rejects_non_finite_entries(entry):
    H = hat_embed(np.array([[1.0 + 1.0j, 0.5j], [-1.0, entry]]))
    with pytest.raises(BadBlockStructure, match=r"block \(1, 1\) has a non-finite entry"):
        unhat(H)
    # A bad pattern earlier in row-major order is named first.
    H[0, 1] += 1.0
    with pytest.raises(BadBlockStructure, match=r"block \(0, 0\) violates the embedding pattern"):
        unhat(H)


def test_block_polar_identity():
    bp = block_polar(np.eye(2))
    assert bp.theta == pytest.approx(0.0, abs=1e-12)
    assert_allclose(bp.d, [1.0, 1.0], atol=1e-12)


def test_block_polar_diagonal():
    bp = block_polar(np.diag([2.0, 3.0]))
    assert bp.theta == pytest.approx(np.pi / 2, abs=1e-12)
    assert_allclose(bp.d, [3.0, 2.0], atol=1e-12)


def test_block_polar_coupled():
    bp = block_polar(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(bp.d, [3.0, 1.0], atol=1e-12)
    assert bp.theta == pytest.approx(np.pi / 4, abs=1e-12)


def test_block_polar_reconstructs_random_spd():
    gen = np.random.Generator(np.random.Philox(203))
    for _ in range(30):
        g = gen.standard_normal((2, 2))
        S = g @ g.T + 0.2 * np.eye(2)
        bp = block_polar(S)
        R = bp.rotation()
        assert_allclose(R @ R.T, np.eye(2), atol=1e-12)
        assert_allclose(R @ np.diag(bp.d) @ R.T, S, atol=1e-10)
        assert_allclose(bp.reconstruct(), S, atol=1e-10)
        assert bp.d[0] >= bp.d[1] > 0


def test_block_polar_rejects_bad_blocks():
    with pytest.raises(NotSpd):
        block_polar(np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(NotSpd):
        block_polar(-np.eye(2))
    with pytest.raises(NotSpd):
        block_polar(np.eye(3))


def test_block_polar_wraps_minus_half_pi_to_half_pi():
    # 0.5 * atan2 never exceeds pi/2; it reaches -pi/2 only for an
    # off-diagonal -0.0 with a < c, and that angle wraps to pi/2.
    bp = block_polar(np.array([[1.0, -0.0], [-0.0, 2.0]]))
    assert bp.theta == np.pi / 2
    assert bp.d == (2.0, 1.0)
