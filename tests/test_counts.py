"""The count rule: every integer size, count, window, index and stream
argument is checked by ``rng.check_count``, so a non-integer (a float, a
bool, a string) or a value out of range raises ``ValueError`` naming the
argument, and numpy integers are accepted."""

import math
import re

import numpy as np
import pytest

from mixent import EpiExperimentConfig, MixingMatrix, gaussian, uniform
from mixent.bse import Observation, minimize_contrast, oracle_decompose
from mixent.distributions import (
    quantile_transport,
    sample,
    sample_sources,
    transport_log_derivative_expectation,
)
from mixent.entropy import knn_entropy, spacing_entropy
from mixent.epi_lab import expectation_inequality_check, run_lemma2_sweep
from mixent.rng import generator

X = sample(gaussian(1.0), 400, 1)
PTS = np.random.Generator(np.random.Philox(22)).standard_normal((100, 2))
OBS = Observation.from_samples(sample_sources([uniform(-1.0, 1.0)] * 2, 2000, 35))
THREE = [gaussian(1.0), uniform(-1.0, 1.0), gaussian(2.0)]
SQUARE = MixingMatrix.from_array(np.eye(2))
Q = np.array([[1.0, 1.0]]) / math.sqrt(2.0)

# name: (call with the argument, a valid value, the value just below the
# range, the value just above it or None).  A stream outside its range, or
# one given as 2.5, True or "3", would reuse an integer stream's key: int()
# reads those as 2, 1 and 3, and the mixer works modulo 2**64.
CASES = {
    "spacing_entropy.m": (lambda v: spacing_entropy(X, m=v).value, 20, 0, 201),
    "knn_entropy.k": (lambda v: knn_entropy(PTS, k=v).value, 4, 0, None),
    "minimize_contrast.n_extract": (
        lambda v: minimize_contrast(OBS, v, restarts=1, max_sweeps=1).contrast_value, 1, 0, 3),
    "minimize_contrast.restarts": (
        lambda v: minimize_contrast(OBS, 1, restarts=v, max_sweeps=1).contrast_value, 1, 0, None),
    "minimize_contrast.max_sweeps": (
        lambda v: minimize_contrast(OBS, 1, restarts=1, max_sweeps=v).contrast_value, 1, 0, None),
    "EpiExperimentConfig.n_samples": (
        lambda v: EpiExperimentConfig(SQUARE, [gaussian(1.0)] * 2, v, 0).n_samples, 1500, 999, None),
    "EpiExperimentConfig.trials": (
        lambda v: EpiExperimentConfig(SQUARE, [gaussian(1.0)] * 2, 2000, 0, trials=v).trials,
        2, 0, None),
    "run_lemma2_sweep.count": (lambda v: run_lemma2_sweep(v, 0).min_gap, 3, 0, None),
    "sample.n_samples": (lambda v: sample(gaussian(1.0), v, 0).tolist(), 5, 0, None),
    "sample.stream": (lambda v: sample(gaussian(1.0), 5, 0, stream=v).tolist(), 2, -1, 2**64 - 1),
    "generator.stream": (lambda v: generator(0, v).random(), 3, -1, 2**64 - 1),
    "sample_sources.n_samples": (lambda v: sample_sources(THREE[:1], v, 0).tolist(), 5, 0, None),
    "sample_sources.trial": (lambda v: sample_sources(THREE, 5, 0, trial=v).tolist(), 1, -1, None),
    "sample_sources.column": (
        lambda v: sample_sources(THREE, 5, 0, columns=[v]).tolist(), 2, -1, 3),
    "transport_log_derivative_expectation.n_samples": (
        lambda v: transport_log_derivative_expectation(quantile_transport(uniform(-1.0, 1.0)), v, 0),
        100, 0, None),
    "expectation_inequality_check.n_samples": (
        lambda v: expectation_inequality_check(Q, [gaussian(1.0)] * 2, v, 0), 100, 0, None),
    "oracle_decompose.n_samples": (
        lambda v: oracle_decompose(np.eye(2), np.eye(2), [gaussian(1.0)] * 2, v, 0).contrast_value,
        2000, 0, None),
}
KINDS = ("fraction", "fraction_in_range", "bool", "str", "below", "above", "numpy_int")


@pytest.mark.parametrize("case, kind", [
    (case, kind) for case in CASES for kind in KINDS if kind != "above" or CASES[case][3] is not None
])
def test_count_arguments_follow_the_count_rule(case, kind):
    call, valid, below, above = CASES[case]
    name = case.rpartition(".")[2]
    if kind == "numpy_int":
        assert call(np.int64(valid)) == call(valid)
        return
    value = {
        "fraction": 2.5, "fraction_in_range": valid + 0.5, "bool": True, "str": "3",
        "below": below, "above": above,
    }[kind]
    if kind in ("below", "above"):
        expected = rf"^{name} must be (at least|in \[)"
    else:
        expected = "^" + re.escape(f"{name} must be an integer, got {value!r}") + "$"
    with pytest.raises(ValueError, match=expected):
        call(value)
