import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mixent import (
    CanonicalDecomposition,
    ComponentClassification,
    ContrastDecomposition,
    DegenerateData,
    EntropyEstimate,
    EpiExperimentConfig,
    EpiReport,
    ExtractionResult,
    MixingMatrix,
    Observation,
    SeparationQuality,
    UnsupportedFamily,
    canonical_form,
    circular_gaussian,
    classify_components,
    gaussian,
    laplace,
    minimize_contrast,
    rank_of,
    run_epi_trial,
    sample_sources,
    separation_quality,
    uniform,
    unit_variance_uniform,
)
from mixent import formats as fmt


def small_config(matrix=None, **kw):
    arr = np.eye(2) if matrix is None else matrix
    return EpiExperimentConfig(
        matrix=MixingMatrix.from_array(arr),
        sources=(gaussian(1.0), gaussian(1.0)),
        n_samples=2000,
        seed=1,
        **kw,
    )


def test_canonical_json_key_order_independent():
    a = fmt.canonical_json({"b": 1, "a": [1.5, 2]})
    b = fmt.canonical_json({"a": [1.5, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert '"a"' in a and a.index('"a"') < a.index('"b"')


def test_canonical_json_special_values():
    text = fmt.canonical_json({"neg": float("-inf"), "pos": float("inf"), "bad": float("nan")})
    parsed = json.loads(text)
    assert parsed == {"neg": "-inf", "pos": "inf", "bad": "nan"}


def test_canonical_json_complex_as_pairs():
    parsed = json.loads(fmt.canonical_json({"z": 1 + 2j}))
    assert parsed["z"] == [1.0, 2.0]


def test_canonical_json_float_repr_round_trips():
    x = 0.1 + 0.2
    parsed = json.loads(fmt.canonical_json({"x": x}))
    assert parsed["x"] == x


def test_write_read_json(tmp_path):
    path = tmp_path / "obj.json"
    fmt.write_json(path, {"k": [1, 2.5]})
    assert fmt.read_json(path) == {"k": [1, 2.5]}
    text = path.read_text()
    assert text == fmt.canonical_json({"k": [1, 2.5]})


def test_matrix_round_trip():
    gen = np.random.Generator(np.random.Philox(61))
    A = gen.standard_normal((2, 3))
    m = MixingMatrix.from_array(A)
    back = fmt.matrix_from_dict(fmt.matrix_to_dict(m))
    assert np.array_equal(back.array, A)
    assert back.field == "real"
    Z = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    backc = fmt.matrix_from_dict(fmt.matrix_to_dict(MixingMatrix.from_array(Z)))
    assert np.array_equal(backc.array, Z)
    assert backc.field == "complex"


def test_matrix_from_dict_validation():
    good = fmt.matrix_to_dict(MixingMatrix.from_array(np.eye(2)))
    with pytest.raises(ValueError):
        fmt.matrix_from_dict({k: v for k, v in good.items() if k != "rows"})
    bad = dict(good)
    bad["rows"] = 3
    with pytest.raises(ValueError):
        fmt.matrix_from_dict(bad)
    bad = dict(good)
    bad["field"] = "rational"
    with pytest.raises(ValueError):
        fmt.matrix_from_dict(bad)


@pytest.mark.parametrize("data, message", [
    ([[1.0, None]], r"^matrix data row 1, entry 2: not a number: None$"),
    ([[1.0, 0.0], [[0.5], 1.0]], r"^matrix data row 2, entry 1: not a number: \[0.5\]$"),
    ({"0": [1.0]}, r"^matrix data must be a list of rows, got \{'0': \[1.0\]\}$"),
    ([[1.0, True]], r"^matrix data row 1, entry 2: not a number: True$"),
])
def test_matrix_from_dict_names_bad_entry(data, message):
    d = {"rows": len(data), "cols": 2, "field": "real", "data": data}
    with pytest.raises(ValueError, match=message):
        fmt.matrix_from_dict(d)


def test_matrix_from_dict_complex_entry_names_position():
    d = {"rows": 1, "cols": 2, "field": "complex", "data": [[[1.0, 0.0], [1.0]]]}
    with pytest.raises(ValueError, match=r"^matrix data row 1, entry 2: complex entries must be"):
        fmt.matrix_from_dict(d)


def test_model_round_trip_all_families():
    from mixent import (
        circular_gaussian,
        exponential,
        gaussian_mixture,
        uniform_disk,
    )

    models = [
        gaussian(1.5, mu=0.5),
        uniform(-1.0, 2.0),
        laplace(2.0),
        exponential(0.5),
        gaussian_mixture((0.4, 0.6), (-1.0, 1.0), (0.5, 1.5)),
        circular_gaussian(2.0),
        uniform_disk(1.5),
    ]
    for m in models:
        back = fmt.model_from_dict(fmt.model_to_dict(m))
        assert back == m
        # "field" is optional in a source object: the family implies it.
        d = fmt.model_to_dict(m)
        assert fmt.model_from_dict({"family": d["family"], "params": d["params"]}) == m
    assert fmt.canonical_json(fmt.model_to_dict(uniform_disk(1.5))) == (
        '{\n  "family": "complex_uniform_disk",\n  "field": "complex",\n  "params": {\n    "radius": 1.5\n  }\n}\n'
    )
    with pytest.raises(UnsupportedFamily):
        fmt.model_from_dict({"family": "complex_uniform_disk", "params": {"radius": 1.0}, "field": "real"})


def test_sources_from_obj_forms():
    d = fmt.model_to_dict(gaussian(1.0))
    assert tuple(fmt.sources_from_obj([d, d])) == (gaussian(1.0), gaussian(1.0))
    assert tuple(fmt.sources_from_obj({"sources": [d]})) == (gaussian(1.0),)
    with pytest.raises(ValueError):
        fmt.sources_from_obj({"models": [d]})
    with pytest.raises(ValueError):
        fmt.sources_from_obj([])


def test_samples_csv_round_trip(tmp_path):
    X = sample_sources([unit_variance_uniform(), laplace(1.0)], 50, 9)
    path = tmp_path / "y.csv"
    fmt.write_samples_csv(path, X)
    back, field = fmt.read_samples_csv(path)
    assert field == "real"
    assert np.array_equal(back, X)
    assert path.read_text() == fmt.samples_csv_text(X)


def test_samples_csv_complex_round_trip(tmp_path):
    from mixent import uniform_disk

    Z = sample_sources([uniform_disk(1.0)] * 2, 50, 9)
    path = tmp_path / "z.csv"
    fmt.write_samples_csv(path, Z)
    back, field = fmt.read_samples_csv(path)
    assert field == "complex"
    assert np.array_equal(back, Z)
    text = path.read_text()
    assert text.splitlines()[0] == "s1_re,s1_im,s2_re,s2_im"


def test_samples_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match=r"^unexpected CSV header \['a', 'b'\], expected \['s1', 's2'\]$"):
        fmt.read_samples_csv(path)
    path.write_text("s1,s3\n1.0,2.0\n")
    with pytest.raises(ValueError, match=r"^unexpected CSV header \['s1', 's3'\], expected \['s1', 's2'\]$"):
        fmt.read_samples_csv(path)
    path.write_text("\n  \n")
    with pytest.raises(ValueError, match=r"^empty samples file$"):
        fmt.read_samples_csv(path)
    path.write_text("s1_re,s1_im,s2_re\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match=r"^complex samples need paired _re/_im columns$"):
        fmt.read_samples_csv(path)


def test_complex_samples_csv_round_trip_keeps_every_bit(tmp_path):
    # The reader returns the complex view of the (re, im) columns, so signed
    # zeros come back as written.
    z = np.array([[complex(-0.0, 1.5), complex(2.0, -0.0)], [complex(0.1, -0.0), complex(-0.0, -0.0)]])
    path = tmp_path / "z.csv"
    fmt.write_samples_csv(path, z)
    back, field = fmt.read_samples_csv(path)
    assert field == "complex"
    assert back.dtype == np.complex128 and back.tobytes() == z.tobytes()


def test_samples_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("s1,s2\n1.0,2.0\n\n3.0\n")
    with pytest.raises(ValueError, match=r"^line 4 has 1 fields, the header has 2$"):
        fmt.read_samples_csv(path)


def test_samples_csv_non_finite_names_line_and_column(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("s1_re,s1_im,s2_re,s2_im\n1.0,2.0,3.0,4.0\n\n5.0,6.0,7.0,-inf\n")
    with pytest.raises(DegenerateData, match=r"^line 4, column s2_im: value '-inf' is not finite$"):
        fmt.read_samples_csv(path)


def test_samples_csv_non_numeric_names_line_and_column(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("s1,s2\n1.0,2.0\n\n3.0, abc\n")
    with pytest.raises(ValueError, match=r"^line 4, column s2: value 'abc' is not a number$"):
        fmt.read_samples_csv(path)


def test_samples_csv_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("s1_re,s1_im\n")
    with pytest.raises(ValueError, match=r"^no sample rows$"):
        fmt.read_samples_csv(path)


def test_classification_dict_uses_one_based_indices():
    cls = classify_components(np.array([[1.0, 0.0, 0.0], [0.0, 2**-0.5, 2**-0.5]]))
    d = fmt.classification_to_dict(cls)
    assert d["present"] == [1, 2, 3]
    assert d["recoverable"] == [1]
    assert d["witnesses"] == [[1.0, 0.0]]


def test_empty_witnesses_keep_the_row_count():
    cls = classify_components([[1.0, 1.0]])
    assert cls.recoverable == () and cls.witnesses.shape == (0, 1)
    d = fmt.classification_to_dict(cls)
    assert d["rows"] == 1


def test_canonical_dict_uses_one_based_permutation():
    dec = canonical_form(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
    d = fmt.canonical_to_dict(dec)
    assert d["permutation"][0] == 2
    assert d["r"] == 1
    assert_allclose(np.asarray(d["B"]) @ np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]), dec.B @ np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]), atol=0.0)


def test_config_round_trip():
    cfg = small_config(trials=2)
    back = fmt.config_from_dict(fmt.config_to_dict(cfg))
    assert back.n_samples == cfg.n_samples
    assert back.seed == cfg.seed
    assert back.trials == 2
    assert back.sources == cfg.sources
    assert np.array_equal(back.matrix.array, cfg.matrix.array)


def test_config_matrix_path_resolution(tmp_path):
    fmt.write_json(tmp_path / "A.json", fmt.matrix_to_dict(MixingMatrix.from_array(np.eye(2))))
    d = fmt.config_to_dict(small_config())
    del d["matrix"]
    d["matrix_path"] = "A.json"
    cfg = fmt.config_from_dict(d, base_dir=tmp_path)
    assert np.array_equal(cfg.matrix.array, np.eye(2))


def test_config_validation():
    d = fmt.config_to_dict(small_config())
    d["matrix_path"] = "A.json"
    with pytest.raises(ValueError):
        fmt.config_from_dict(d)
    d2 = fmt.config_to_dict(small_config())
    d2["extra"] = 1
    with pytest.raises(ValueError):
        fmt.config_from_dict(d2)
    d3 = fmt.config_to_dict(small_config())
    del d3["matrix"]
    with pytest.raises(ValueError):
        fmt.config_from_dict(d3)


def test_epi_report_serialization_is_lossless():
    rep = run_epi_trial(small_config())
    parsed = json.loads(fmt.canonical_json(fmt.epi_report_to_dict(rep)))
    assert parsed["gap"] == rep.gap
    assert parsed["verdict"] == rep.verdict
    assert parsed["lhs"]["value"] == rep.lhs.value


def test_trivial_report_round_trips_minus_infinity():
    rep = run_epi_trial(small_config(matrix=np.array([[1.0, 1.0], [1.0, 1.0]])))
    d = fmt.epi_report_to_dict(rep)
    parsed = json.loads(fmt.canonical_json(d))
    assert parsed["rhs"] == "-inf"
    assert parsed["trivial"] is True
    assert rep.rhs == float("-inf")
    assert parsed["lhs"] is None and rep.lhs is None
    assert parsed["gap"] is None and rep.gap is None


def test_extraction_dict_shape():
    obs = Observation.from_samples(sample_sources([unit_variance_uniform()] * 2, 2000, 1))
    res = minimize_contrast(obs, 1, seed=3, restarts=1)
    d = fmt.extraction_to_dict(res)
    assert set(d) == {
        "W",
        "contrast",
        "trace",
        "whitener",
        "seeds",
        "converged",
        "sweeps",
        "best_restart",
        "restart_objectives",
        "n_extracted",
    }
    assert d["seeds"] == [3]
    assert d["W"]["rows"] == 1 and d["W"]["cols"] == 2
    assert d["whitener"]["rows"] == 2
    W = fmt.matrix_from_dict(d["W"])
    assert np.array_equal(W.array, res.demixer)


def test_quality_dict_one_based_selection():
    q = separation_quality(np.eye(2), np.eye(2))
    d = fmt.quality_to_dict(q)
    assert d["selected"] == [1, 2]
    assert d["success"] is True
    assert d["dominance"] == [1.0, 1.0]


def test_decomposition_dict_shape():
    from mixent import oracle_decompose

    d = fmt.decomposition_to_dict(
        oracle_decompose(np.eye(2)[:1], np.eye(2), [gaussian(1.0)] * 2, n_samples=2000, seed=0)
    )
    assert set(d) == {
        "contrast_value",
        "marginal_term",
        "alignment_term",
        "residual",
        "common_entropy",
        "identity_gap",
        "std_error",
        "n_rows",
        "n_samples",
        "seed",
    }


NAN, INF = float("nan"), float("inf")

# Hand-built objects, one per encoder, with the canonical JSON they must give.
# Expected texts are written compactly; expanded with the canonical indent they
# must equal canonical_json's output byte for byte (ints stay ints, floats keep
# their shortest repr, so the expansion is exact).
GOLDEN = {
    "matrix_complex": (
        lambda: fmt.matrix_to_dict(MixingMatrix.from_array(np.array([[1 + 2j, -0.5j], [0.25, 3 - 1j]]))),
        '{"cols": 2, "data": [[[1.0, 2.0], [-0.0, -0.5]], [[0.25, 0.0], [3.0, -1.0]]], "field": "complex", "rows": 2}',
    ),
    "model": (
        lambda: fmt.model_to_dict(circular_gaussian(2.0)),
        '{"family": "complex_circular_gaussian", "field": "complex", "params": {"sigma": 2.0}}',
    ),
    "estimate": (
        lambda: fmt.estimate_to_dict(
            EntropyEstimate(value=1.25, method="knn", n_samples=3000, params={"k": 4, "jitter": 0.5}, std_error=INF)
        ),
        '{"method": "knn", "n_samples": 3000, "params": {"jitter": 0.5, "k": 4}, "std_error": "inf", "value": 1.25}',
    ),
    "classification_empty_witnesses": (
        lambda: fmt.classification_to_dict(
            ComponentClassification(present=(0, 2), recoverable=(), witnesses=np.zeros((0, 2)), tolerance=1e-8)
        ),
        '{"field": "real", "present": [1, 3], "recoverable": [], "rows": 2, "tolerance": 1e-08, "witnesses": []}',
    ),
    "classification_complex": (
        lambda: fmt.classification_to_dict(
            ComponentClassification(
                present=(0, 1), recoverable=(1,), witnesses=np.array([[0.5 - 0.5j, 1j]]), tolerance=2.5e-8
            )
        ),
        '{"field": "complex", "present": [1, 2], "recoverable": [2], "tolerance": 2.5e-08, '
        '"witnesses": [[[0.5, -0.5], [0.0, 1.0]]]}',
    ),
    "canonical": (
        lambda: fmt.canonical_to_dict(
            CanonicalDecomposition(
                B=np.array([[1.0, 0.0], [-0.5, 2.0]]),
                permutation=(2, 0, 1),
                r=1,
                tail=np.array([[0.75, -1.5]]),
                field="real",
            )
        ),
        '{"B": [[1.0, 0.0], [-0.5, 2.0]], "field": "real", "permutation": [3, 1, 2], "r": 1, "tail": [[0.75, -1.5]]}',
    ),
    "canonical_complex_empty_tail": (
        lambda: fmt.canonical_to_dict(
            CanonicalDecomposition(
                B=np.array([[1j, 0j], [0j, 1 + 0j]]),
                permutation=(1, 0),
                r=2,
                tail=np.zeros((0, 0), dtype=complex),
                field="complex",
            )
        ),
        '{"B": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "field": "complex", "permutation": [2, 1], '
        '"r": 2, "tail": []}',
    ),
    "config": (
        lambda: fmt.config_to_dict(
            EpiExperimentConfig(
                matrix=MixingMatrix.from_array(np.array([[1.0, 0.5]])),
                sources=(gaussian(1.0), gaussian(2.0, mu=0.5)),
                n_samples=1000,
                seed=7,
                trials=2,
            )
        ),
        '{"matrix": {"cols": 2, "data": [[1.0, 0.5]], "field": "real", "rows": 1}, "n_samples": 1000, "seed": 7, '
        '"sources": [{"family": "gaussian", "field": "real", "params": {"mu": 0.0, "sigma": 1.0}}, '
        '{"family": "gaussian", "field": "real", "params": {"mu": 0.5, "sigma": 2.0}}], "trials": 2}',
    ),
    "epi_report_trivial": (
        lambda: fmt.epi_report_to_dict(
            EpiReport(
                lhs=None, rhs=-INF, gap=None, gap_std_error=None, per_trial_gaps=(), tolerance=None,
                verdict="near_equality", classification=None, trivial=True, n_samples=2000, trials=1, seed=3,
            )
        ),
        '{"classification": null, "gap": null, "gap_std_error": null, "lhs": null, "n_samples": 2000, '
        '"per_trial_gaps": [], "rhs": "-inf", "seed": 3, "tolerance": null, "trials": 1, "trivial": true, '
        '"verdict": "near_equality"}',
    ),
    "epi_report_full": (
        lambda: fmt.epi_report_to_dict(
            EpiReport(
                lhs=EntropyEstimate(value=2.5, method="spacing", n_samples=2000, params={"m": 44}, std_error=0.0125),
                rhs=2.25, gap=0.25, gap_std_error=NAN, per_trial_gaps=(0.25, -INF), tolerance=0.0375,
                verdict="strict",
                classification=ComponentClassification(
                    present=(0, 1), recoverable=(0,), witnesses=np.array([[1.0, -0.25]]), tolerance=1e-8
                ),
                trivial=False, n_samples=2000, trials=2, seed=11,
            )
        ),
        '{"classification": {"field": "real", "present": [1, 2], "recoverable": [1], "tolerance": 1e-08, '
        '"witnesses": [[1.0, -0.25]]}, "gap": 0.25, "gap_std_error": "nan", "lhs": {"method": "spacing", '
        '"n_samples": 2000, "params": {"m": 44}, "std_error": 0.0125, "value": 2.5}, "n_samples": 2000, '
        '"per_trial_gaps": [0.25, "-inf"], "rhs": 2.25, "seed": 11, "tolerance": 0.0375, "trials": 2, '
        '"trivial": false, "verdict": "strict"}',
    ),
    "extraction_non_finite": (
        lambda: fmt.extraction_to_dict(
            ExtractionResult(
                demixer=np.array([[0.6, 0.8]]), contrast_value=-0.125, converged=False, sweeps=30,
                best_restart=1, restart_objectives=(INF, -0.125, NAN), trace=((0.5, NAN), (-INF, 0.25), (INF,)),
                whitener=np.array([[2.0, 0.0], [0.5, 1.0]]), n_extracted=1, seed=42,
            )
        ),
        '{"W": {"cols": 2, "data": [[0.6, 0.8]], "field": "real", "rows": 1}, "best_restart": 1, '
        '"contrast": -0.125, "converged": false, "n_extracted": 1, "restart_objectives": ["inf", -0.125, "nan"], '
        '"seeds": [42], "sweeps": 30, "trace": [[0.5, "nan"], ["-inf", 0.25], ["inf"]], '
        '"whitener": {"cols": 2, "data": [[2.0, 0.0], [0.5, 1.0]], "field": "real", "rows": 2}}',
    ),
    "quality_complex": (
        lambda: fmt.quality_to_dict(
            SeparationQuality(
                product=np.array([[0.9 + 0.1j, 0.05j], [0.0, -1.0 + 0.5j]]), dominance=(0.99, 0.8),
                selected=(0, 1), success=False, threshold=0.95,
            )
        ),
        '{"dominance": [0.99, 0.8], "product": [[[0.9, 0.1], [0.0, 0.05]], [[0.0, 0.0], [-1.0, 0.5]]], '
        '"selected": [1, 2], "success": false, "threshold": 0.95}',
    ),
    "decomposition": (
        lambda: fmt.decomposition_to_dict(
            ContrastDecomposition(
                contrast_value=1.5, marginal_term=0.5, alignment_term=0.25, residual=-0.0,
                common_entropy=1.4189385332046727, identity_gap=NAN, std_error=-INF,
                n_rows=2, n_samples=4000, seed=5,
            )
        ),
        '{"alignment_term": 0.25, "common_entropy": 1.4189385332046727, "contrast_value": 1.5, '
        '"identity_gap": "nan", "marginal_term": 0.5, "n_rows": 2, "n_samples": 4000, "residual": -0.0, '
        '"seed": 5, "std_error": "-inf"}',
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_encoder_golden_bytes(name):
    encode, compact = GOLDEN[name]
    expected = json.dumps(json.loads(compact), sort_keys=True, indent=2) + "\n"
    assert fmt.canonical_json(encode()) == expected


@pytest.mark.parametrize("decode, good, key", [
    (fmt.matrix_from_dict, {"rows": 1, "cols": 2, "field": "real", "data": [[1.0, 2.0]]}, "colums"),
    (fmt.model_from_dict, {"family": "gaussian", "params": {"sigma": 1.0}}, "feild"),
    (fmt.sources_from_obj, {"sources": [{"family": "gaussian", "params": {"sigma": 1.0}}]}, "source"),
], ids=["matrix", "source", "sources"])
def test_readers_reject_unknown_keys(decode, good, key):
    decode(good)
    with pytest.raises(ValueError) as err:
        decode({**good, key: 1})
    assert str(err.value).endswith(f" keys: [{key!r}]")


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
REPORT_ENCODERS = {
    "classification": fmt.classification_to_dict,
    "canonical": fmt.canonical_to_dict,
    "epi": fmt.epi_report_to_dict,
    "extraction": fmt.extraction_to_dict,
    "estimate": fmt.estimate_to_dict,
}
# The one report field whose JSON key is not its name.
JSON_KEY = {"contrast_value": "contrast"}


@st.composite
def reports(draw):
    """A report of each type in REPORT_ENCODERS (a canonical form only when no
    column is zero), built around a full-row-rank matrix of at most 3 x 4
    scaled {-1, 0, 1} entries, real or complex."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 4))
    entries = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=m * n, max_size=m * n))
    A = np.array(entries).reshape(m, n) * draw(st.sampled_from([1.0, 0.3, 1j, 0.5 - 0.25j]))
    assume(rank_of(A) == m)
    estimate = EntropyEstimate(
        value=draw(ANY_FLOAT),
        method=draw(st.sampled_from(["spacing", "knn"])),
        n_samples=draw(st.integers(2, 10**6)),
        params={"k": draw(st.integers(1, 10)), "jitter": draw(ANY_FLOAT)},
        std_error=draw(ANY_FLOAT),
    )
    classification = classify_components(A)
    restarts = draw(st.integers(1, 3))
    batch = {
        "classification": classification,
        "estimate": estimate,
        "epi": EpiReport(
            lhs=estimate, rhs=draw(ANY_FLOAT), gap=draw(ANY_FLOAT), gap_std_error=None,
            per_trial_gaps=tuple(draw(st.lists(ANY_FLOAT, max_size=3))), tolerance=draw(ANY_FLOAT),
            verdict="strict", classification=classification, trivial=False,
            n_samples=estimate.n_samples, trials=2, seed=draw(st.integers(0, 2**63)),
        ),
        "extraction": ExtractionResult(
            demixer=A, contrast_value=draw(ANY_FLOAT), converged=draw(st.booleans()),
            sweeps=draw(st.integers(0, 50)), best_restart=draw(st.integers(0, restarts - 1)),
            restart_objectives=tuple(draw(st.lists(ANY_FLOAT, min_size=restarts, max_size=restarts))),
            trace=tuple(tuple(draw(st.lists(ANY_FLOAT, max_size=3))) for _ in range(restarts)),
            whitener=np.eye(n) * draw(st.floats(0.1, 10.0)), n_extracted=m,
            seed=draw(st.integers(0, 2**63)),
        ),
    }
    if len(classification.present) == n:  # canonical_form needs every column
        batch["canonical"] = canonical_form(A)
    return batch


def json_number(x: float) -> float | str:
    """A float as canonical JSON parses it back: the number, or its string
    when it is not finite."""
    if math.isnan(x):
        return "nan"
    return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")


def assert_floats_parse_back(report, parsed: dict, name: str) -> None:
    """Every scalar float field of ``report``, nested reports included,
    reads back ``==`` from the parsed JSON."""
    for f in dataclasses.fields(report):
        value, key = getattr(report, f.name), JSON_KEY.get(f.name, f.name)
        if dataclasses.is_dataclass(value):
            assert_floats_parse_back(value, parsed[key], name)
        elif isinstance(value, float):
            assert parsed[key] == json_number(value), (name, f.name)


@PROPERTY_SETTINGS
@given(batch=reports())
def test_every_report_survives_a_json_round_trip(batch):
    for name, report in batch.items():
        text = fmt.canonical_json(REPORT_ENCODERS[name](report))
        parsed = json.loads(text)
        assert fmt.canonical_json(parsed) == text, name
        assert_floats_parse_back(report, parsed, name)
