"""Golden values of every quantity whose formula depends on the field.

A complex quantity is its real counterpart on the 2-real-dimensional
embedding, so the real and complex formulas differ only by the factor 2,
which is exact in binary floating point.  These tests pin the float bits of
both fields, so a rewrite of the field rule must reproduce them exactly.

The values computed with ``math`` alone and the CSV bytes do not depend on
the numpy build and run everywhere; the ones that go through numpy's linear
algebra or the entropy estimators were recorded with numpy 2.4.6 and skip on
other builds.
"""

import numpy as np
import pytest

from mixent import (
    Observation,
    block_polar,
    circular_gaussian,
    contrast,
    expectation_inequality_check,
    exponential,
    gaussian,
    gaussian_mix_entropy,
    laplace,
    log_concavity_gap,
    log_concavity_gap_blocks,
    match_entropy,
    normalize_entropies,
    sample_sources,
    spacing_entropy,
    surrogate_sigma,
    uniform,
    uniform_disk,
    unhat,
)
from mixent.formats import samples_csv_text

REAL_MODELS = [uniform(-1.0, 2.0), laplace(0.7), gaussian(1.3), exponential(2.5)]
COMPLEX_MODELS = [circular_gaussian(0.8), uniform_disk(1.7)]


def _params_hex(model):
    return sorted((k, float(v).hex()) for k, v in model.params.items())


def _require_recorded_build():
    if np.__version__ != "2.4.6":
        pytest.skip(f"golden bits recorded with numpy 2.4.6, running {np.__version__}")


@pytest.mark.parametrize(
    "field, expected",
    [
        ("real", ["0x1.58757b3d59f15p-5", "0x1.ef8e58e331738p-3", "0x1.a9c3ae542b28fp-1"]),
        ("complex", ["0x1.2425674314265p-3", "0x1.5e6939dac0eecp-2", "0x1.44ccce5f1a436p-1"]),
    ],
)
def test_surrogate_sigma_golden_bits(field, expected):
    got = [surrogate_sigma(h, field) for h in (-1.75, 0.0, 1.2345)]
    assert [s.sigma.hex() for s in got] == expected
    assert {s.field for s in got} == {field}


def test_normalize_entropies_golden_bits():
    scaled, scaling = normalize_entropies(REAL_MODELS)
    assert [d.hex() for d in scaling.deltas] == [
        "0x1.8000000000001p+1", "0x1.e71db8f82e0c7p+1", "0x1.57d7df24f5f1ap+2", "0x1.165a208dd12bap+0",
    ]
    assert [_params_hex(s) for s in scaled] == [
        [("high", "0x1.5555555555554p-1"), ("low", "-0x1.5555555555554p-2")],
        [("mu", "0x0.0p+0"), ("scale", "0x1.78b56362cef38p-3")],
        [("mu", "0x0.0p+0"), ("sigma", "0x1.ef8e58e331738p-3")],
        [("rate", "0x1.5bf0a8b145768p+1")],
    ]
    scaled, scaling = normalize_entropies(COMPLEX_MODELS)
    assert [d.hex() for d in scaling.deltas] == ["0x1.2b3de0fb7ea39p+1", "0x1.81af9af0cfeb4p+1"]
    assert [_params_hex(s) for s in scaled] == [
        [("sigma", "0x1.5e6939dac0eecp-2")],
        [("radius", "0x1.20dd750429b6dp-1")],
    ]


def test_match_entropy_golden_bits():
    assert [_params_hex(match_entropy(m, 0.3)) for m in REAL_MODELS] == [
        [("high", "0x1.ccc0766102372p-1"), ("low", "-0x1.ccc0766102372p-2")],
        [("mu", "0x0.0p+0"), ("scale", "0x1.fc80db9dd5542p-3")],
        [("mu", "0x0.0p+0"), ("sigma", "0x1.4e7720dcdd0b1p-2")],
        [("rate", "0x1.01c2a61268987p+1")],
    ]
    assert [_params_hex(match_entropy(m, 0.3)) for m in COMPLEX_MODELS] == [
        [("sigma", "0x1.971e9a72a2b91p-2")],
        [("radius", "0x1.4f9d02f09b64ap-1")],
    ]


def test_gaussian_mix_entropy_golden_bits():
    _require_recorded_build()
    gen = np.random.Generator(np.random.Philox(1414))
    A = gen.standard_normal((2, 3))
    Ac = A + 1j * gen.standard_normal((2, 3))
    assert gaussian_mix_entropy(A, [0.5, 1.0, 2.5]).hex() == "0x1.d87eed8481688p+1"
    assert gaussian_mix_entropy(Ac, [0.5, 1.0, 2.5]).hex() == "0x1.b9f26948e9faep+2"


def test_contrast_golden_bits():
    _require_recorded_build()
    X = sample_sources([uniform(-1.0, 1.0), laplace(1.0)], 2000, 71)
    Z = sample_sources([uniform_disk(1.0)] * 2, 600, 72)
    W = [[1.0, 0.5], [-0.25, 1.0]]
    Wc = [[1.0, 0.5j], [-0.25, 1.0 + 0.5j]]
    assert contrast(W, Observation.from_samples(X)).hex() == "0x1.8fdd1b717d35cp+1"
    assert contrast(Wc, Observation.from_samples(Z)).hex() == "0x1.12854dbfeea38p+2"


def test_complex_samples_csv_text_golden_bytes():
    # Signed zeros and tiny values keep their exact text.
    zs = np.array(
        [[complex(1.5, -0.0), complex(-2.25, 1e-300)], [complex(0.1, 0.2), complex(-0.0, 3.0)]]
    )
    assert samples_csv_text(zs) == (
        "s1_re,s1_im,s2_re,s2_im\n1.5,-0.0,-2.25,1e-300\n0.1,0.2,-0.0,3.0\n"
    )



# Each real-only entry point, the argument it names, and a call with a
# complex value in that argument.
REAL_ONLY = {
    "spacing_entropy": ("samples", lambda z: spacing_entropy(np.full(50, z))),
    "unhat": ("Ahat", lambda z: unhat(np.full((2, 2), z))),
    "block_polar": ("block", lambda z: block_polar(np.diag([z, 1.0]))),
    "log_concavity_gap_blocks": ("Qhat", lambda z: log_concavity_gap_blocks(np.full((2, 2), z), [np.eye(2)])),
    "expectation_inequality_check": ("Q", lambda z: expectation_inequality_check([[z, 0.0]], [gaussian(1.0)] * 2, 10, 0)),
    "log_concavity_gap": ("lam", lambda z: log_concavity_gap(np.eye(2), [z, 1.0])),
    "gaussian_mix_entropy": ("sigmas", lambda z: gaussian_mix_entropy(np.eye(2), [z, 1.0])),
}


@pytest.mark.parametrize("name", sorted(REAL_ONLY))
def test_real_only_entry_points_reject_complex_input(name):
    # A cast to float64 would drop the imaginary part and go on with the real one.
    arg, call = REAL_ONLY[name]
    with pytest.raises(ValueError, match=f"^{arg} must be real, got complex values$"):
        call(1.0 + 1.0j)
