import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixent
import mixent.cli
from mixent import errors
from mixent import (
    EpiExperimentConfig,
    MixingMatrix,
    circular_gaussian,
    gaussian,
    unit_variance_uniform,
)
from mixent import formats as fmt
from mixent.cli import main

H_NORMAL = 0.5 * math.log(2.0 * math.pi * math.e)
AVG = np.array([[1.0, 0.0, 0.0], [0.0, 2**-0.5, 2**-0.5]])
VERBS = ("generate", "analyze-matrix", "verify-epi", "entropy", "extract")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_script(*args):
    """Command and environment that run the `mixent` console script.

    The entry point is read from `[project.scripts]` in pyproject.toml and run
    as the wrapper that setuptools generates runs it, in a fresh interpreter
    that imports the same `mixent` package as this process. No install is
    needed, and a missing or wrong declaration fails the calling test.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh).get("project", {}).get("scripts", {}).get("mixent")
    assert entry is not None, "pyproject.toml declares no [project.scripts] mixent"
    module, _, attr = (part.strip() for part in entry.partition(":"))
    declared = getattr(importlib.import_module(module), attr, None)
    assert declared is main, f"mixent = {entry!r} does not resolve to mixent.cli.main"
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    src = str(Path(mixent.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return [sys.executable, "-c", code, *args], env


def write_sources(path, models):
    fmt.write_json(path, [fmt.model_to_dict(m) for m in models])
    return str(path)


def write_matrix(path, arr):
    fmt.write_json(path, fmt.matrix_to_dict(MixingMatrix.from_array(np.asarray(arr))))
    return str(path)


def write_config(path, matrix=np.eye(2), **kw):
    cfg = EpiExperimentConfig(
        matrix=MixingMatrix.from_array(matrix),
        sources=(gaussian(1.0), gaussian(1.0)),
        n_samples=2000,
        **kw,
    )
    fmt.write_json(path, fmt.config_to_dict(cfg))
    return str(path)


def test_generate_is_deterministic(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [gaussian(1.0), gaussian(2.0)])
    assert main(["generate", "--sources", src, "--n", "40", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--sources", src, "--n", "40", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "s1,s2"
    assert len(first.splitlines()) == 41
    assert main(["generate", "--sources", src, "--n", "40", "--seed", "8"]) == 0
    assert capsys.readouterr().out != first


def test_generate_applies_mixing(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [unit_variance_uniform()] * 2)
    mix = write_matrix(tmp_path / "m.json", [[1.0, 0.4], [0.3, 1.0]])
    out = tmp_path / "y.csv"
    args = ["generate", "--sources", src, "--n", "30", "--seed", "2", "--mix", mix]
    assert main(args + ["--out", str(out)]) == 0
    assert main(args) == 0
    assert out.read_text() == capsys.readouterr().out
    mixed, field = fmt.read_samples_csv(out)
    assert field == "real"
    assert main(["generate", "--sources", src, "--n", "30", "--seed", "2"]) == 0
    (tmp_path / "x.csv").write_text(capsys.readouterr().out)
    raw, _ = fmt.read_samples_csv(tmp_path / "x.csv")
    assert np.array_equal(mixed, raw @ np.array([[1.0, 0.4], [0.3, 1.0]]).T)


def test_generate_mix_shape_mismatch(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [gaussian(1.0)] * 2)
    mix = write_matrix(tmp_path / "m.json", np.eye(3))
    assert main(["generate", "--sources", src, "--n", "10", "--mix", mix]) == 4
    assert "columns" in capsys.readouterr().err


def test_generate_field_mismatch_exit_code(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [circular_gaussian(1.0)] * 2)
    mix = write_matrix(tmp_path / "m.json", np.eye(2))
    assert main(["generate", "--sources", src, "--n", "10", "--mix", mix]) == 17
    assert "UnsupportedFamily" in capsys.readouterr().err


def test_generate_mixed_fields_exit_code(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [gaussian(1.0), circular_gaussian(1.0)])
    assert main(["generate", "--sources", src, "--n", "10"]) == 17
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "UnsupportedFamily" in captured.err


def test_analyze_matrix_averaging_row(tmp_path, capsys):
    path = write_matrix(tmp_path / "a.json", AVG)
    assert main(["analyze-matrix", "--input", path]) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["rows"] == 2 and report["cols"] == 3
    assert report["rank"] == 2
    assert report["field"] == "real"
    assert report["classification"]["present"] == [1, 2, 3]
    assert report["classification"]["recoverable"] == [1]
    assert report["canonical"]["r"] == 1
    out = tmp_path / "report.json"
    assert main(["analyze-matrix", "--input", path, "--out", str(out)]) == 0
    assert out.read_text() == text


def test_analyze_matrix_field_check(tmp_path, capsys):
    path = write_matrix(tmp_path / "a.json", AVG)
    assert main(["analyze-matrix", "--input", path, "--field", "real"]) == 0
    capsys.readouterr()
    assert main(["analyze-matrix", "--input", path, "--field", "complex"]) == 4
    assert "does not match" in capsys.readouterr().err


def test_analyze_matrix_rank_deficient_exit_code(tmp_path, capsys):
    path = write_matrix(tmp_path / "a.json", np.ones((2, 2)))
    assert main(["analyze-matrix", "--input", path]) == 10
    assert "RankDeficient" in capsys.readouterr().err


def test_analyze_matrix_zero_column_exit_code(tmp_path, capsys):
    path = write_matrix(tmp_path / "a.json", np.array([[1.0, 0.0]]))
    assert main(["analyze-matrix", "--input", path]) == 11
    assert "ZeroColumn" in capsys.readouterr().err


def test_verify_epi_equality_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", seed=4)
    out = tmp_path / "report.json"
    assert main(["verify-epi", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "near_equality"
    assert report["trivial"] is False
    assert abs(report["gap"]) <= report["tolerance"]
    assert main(["verify-epi", "--config", cfg]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_verify_epi_violation_exit_code(tmp_path, monkeypatch):
    # An equality case whose one-row tail is estimated (the identity is an
    # exact equality); on this draw the estimate falls below the closed form.
    monkeypatch.setattr(mixent.epi_lab, "_TOLERANCE_SE", 0.0)
    cfg = write_config(tmp_path / "c.json", matrix=np.full((1, 2), 2**-0.5), seed=4)
    out = tmp_path / "report.json"
    assert main(["verify-epi", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "violation_flag"
    assert report["gap"] < 0.0
    assert report["tolerance"] == 0.0


def test_entropy_spacing(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [gaussian(1.0)])
    main(["generate", "--sources", src, "--n", "8000", "--seed", "3", "--out", str(tmp_path / "x.csv")])
    assert main(["entropy", "--input", str(tmp_path / "x.csv"), "--method", "spacing"]) == 0
    estimate = json.loads(capsys.readouterr().out)
    assert estimate["method"] == "spacing"
    assert estimate["n_samples"] == 8000
    assert abs(estimate["value"] - H_NORMAL) <= 0.08
    assert main([
        "entropy", "--input", str(tmp_path / "x.csv"),
        "--method", "spacing", "--m-spacing", "30",
    ]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["m"] == 30


def test_entropy_spacing_window_out_of_range_exit_four(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [gaussian(1.0)])
    main(["generate", "--sources", src, "--n", "1000", "--seed", "3", "--out", str(tmp_path / "x.csv")])
    assert main([
        "entropy", "--input", str(tmp_path / "x.csv"),
        "--method", "spacing", "--m-spacing", "501",
    ]) == 4
    assert "m must be in [1, 500], got 501" in capsys.readouterr().err


def test_entropy_knn(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [gaussian(1.0)] * 2)
    main(["generate", "--sources", src, "--n", "8000", "--seed", "3", "--out", str(tmp_path / "xy.csv")])
    assert main(["entropy", "--input", str(tmp_path / "xy.csv"), "--method", "knn", "--k", "4"]) == 0
    estimate = json.loads(capsys.readouterr().out)
    assert estimate["method"] == "knn"
    assert estimate["params"]["k"] == 4
    assert abs(estimate["value"] - 2.0 * H_NORMAL) <= 0.08


def test_entropy_spacing_needs_one_real_column(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [gaussian(1.0)] * 2)
    main(["generate", "--sources", src, "--n", "100", "--seed", "1", "--out", str(tmp_path / "xy.csv")])
    assert main(["entropy", "--input", str(tmp_path / "xy.csv"), "--method", "spacing"]) == 4
    assert "the spacing method needs a single real column" in capsys.readouterr().err
    csrc = write_sources(tmp_path / "c.json", [circular_gaussian(1.0)])
    main(["generate", "--sources", csrc, "--n", "100", "--seed", "1", "--out", str(tmp_path / "z.csv")])
    assert main(["entropy", "--input", str(tmp_path / "z.csv"), "--method", "spacing"]) == 4
    assert "the spacing method needs a single real column" in capsys.readouterr().err


def test_entropy_too_few_samples_exit_code(tmp_path, capsys):
    (tmp_path / "tiny.csv").write_text("s1\n" + "".join(f"{i}.0\n" for i in range(5)))
    assert main(["entropy", "--input", str(tmp_path / "tiny.csv"), "--method", "spacing"]) == 19
    assert "TooFewSamples" in capsys.readouterr().err


def test_entropy_degenerate_data_exit_code(tmp_path, capsys):
    (tmp_path / "const.csv").write_text("s1\n" + "1.0\n" * 100)
    assert main(["entropy", "--input", str(tmp_path / "const.csv"), "--method", "spacing"]) == 20
    assert "DegenerateData" in capsys.readouterr().err


def test_entropy_knn_grid_data_exit_code(tmp_path, capsys):
    # Standard normals on a 0.1 grid repeat points, so the kNN estimate
    # would be minus infinity.
    pts = np.round(np.random.Generator(np.random.Philox(7)).standard_normal((20000, 2)), 1)
    (tmp_path / "grid.csv").write_text(fmt.samples_csv_text(pts))
    assert main(["entropy", "--input", str(tmp_path / "grid.csv"), "--method", "knn"]) == 21
    assert "DuplicatePoints: zero 4-th neighbor distance" in capsys.readouterr().err


def test_extract_recovers_mixed_sources(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [unit_variance_uniform()] * 2)
    mix = write_matrix(tmp_path / "m.json", [[1.0, 0.4], [0.3, 1.0]])
    main([
        "generate", "--sources", src, "--n", "2000", "--seed", "5",
        "--mix", mix, "--out", str(tmp_path / "y.csv"),
    ])
    args = [
        "extract", "--input", str(tmp_path / "y.csv"), "--m", "2",
        "--seed", "1", "--restarts", "2", "--truth-mix", mix,
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    result = json.loads(first)
    assert result["n_extracted"] == 2
    assert result["seeds"] == [1]
    assert result["W"]["rows"] == 2 and result["W"]["cols"] == 2
    assert result["separation"]["success"] is True
    assert min(result["separation"]["dominance"]) >= 0.99
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_extract_field_mismatch(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [unit_variance_uniform()] * 2)
    main(["generate", "--sources", src, "--n", "1200", "--seed", "1", "--out", str(tmp_path / "y.csv")])
    assert main([
        "extract", "--input", str(tmp_path / "y.csv"), "--m", "1", "--field", "complex",
    ]) == 4
    assert "does not match" in capsys.readouterr().err


def test_extract_truth_mix_shape_mismatch_exit_four(tmp_path, capsys):
    src = write_sources(tmp_path / "s.json", [unit_variance_uniform()] * 2)
    main(["generate", "--sources", src, "--n", "1200", "--seed", "1", "--out", str(tmp_path / "y.csv")])
    capsys.readouterr()
    mix = write_matrix(tmp_path / "m.json", np.eye(3))
    assert main([
        "extract", "--input", str(tmp_path / "y.csv"), "--m", "1", "--restarts", "1",
        "--truth-mix", mix,
    ]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mixent: error: ValueError: W has 2 columns, M has 3 rows\n"


@pytest.mark.parametrize("verb", ["generate", "extract"])
def test_seed_out_of_range_exit_four(tmp_path, capsys, verb):
    src = write_sources(tmp_path / "s.json", [unit_variance_uniform()] * 2)
    main(["generate", "--sources", src, "--n", "1200", "--seed", "1", "--out", str(tmp_path / "y.csv")])
    capsys.readouterr()
    args = {
        "generate": ["generate", "--sources", src, "--n", "10"],
        "extract": ["extract", "--input", str(tmp_path / "y.csv"), "--m", "1"],
    }[verb]
    assert main(args + ["--seed", "-1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mixent: error: ValueError: seed must be an integer in [0, 2**64), got -1\n"


def test_verify_epi_seed_out_of_range_exit_four(tmp_path, capsys):
    # A rank-deficient matrix draws nothing, yet its report records the seed.
    cfg = json.loads(Path(write_config(tmp_path / "c.json", matrix=np.ones((2, 2)), seed=1)).read_text())
    cfg["seed"] = 2**64
    fmt.write_json(tmp_path / "c.json", cfg)
    assert main(["verify-epi", "--config", str(tmp_path / "c.json")]) == 4
    assert "seed must be an integer in [0, 2**64), got 18446744073709551616" in capsys.readouterr().err


def test_extract_singular_covariance_exit_code(tmp_path, capsys):
    x = np.random.Generator(np.random.Philox(1)).standard_normal(1200)
    (tmp_path / "dup.csv").write_text(
        "s1,s2\n" + "".join(f"{float(v)!r},{float(v)!r}\n" for v in x)
    )
    assert main(["extract", "--input", str(tmp_path / "dup.csv"), "--m", "1"]) == 22
    assert "SingularCovariance" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["extract", "--input", "x.csv", "--m", "0"]) == 2
    assert "must be at least 1" in capsys.readouterr().err
    src = write_sources(tmp_path / "s.json", [gaussian(1.0)])
    assert main(["generate", "--sources", src, "--n", "5", "--bogus"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["generate", "--source", src, "--n", "5"]) == 2
    assert "--sources" in capsys.readouterr().err


def test_missing_file_exit_three(tmp_path, capsys):
    assert main(["analyze-matrix", "--input", str(tmp_path / "nope.json")]) == 3
    assert "error" in capsys.readouterr().err


def test_malformed_json_exit_four(tmp_path, capsys):
    (tmp_path / "bad.json").write_text("{not json")
    assert main(["analyze-matrix", "--input", str(tmp_path / "bad.json")]) == 4
    assert "error" in capsys.readouterr().err


def test_analyze_matrix_flat_data_exit_four(tmp_path, capsys):
    fmt.write_json(tmp_path / "m.json", {"rows": 1, "cols": 2, "field": "real", "data": [1, 2]})
    assert main(["analyze-matrix", "--input", str(tmp_path / "m.json")]) == 4
    assert "ValueError: matrix data row 1 must be a list, got 1" in capsys.readouterr().err


def test_analyze_matrix_ragged_data_names_row(tmp_path, capsys):
    fmt.write_json(tmp_path / "m.json",
                   {"rows": 2, "cols": 2, "field": "real", "data": [[1, 2], [3]]})
    assert main(["analyze-matrix", "--input", str(tmp_path / "m.json")]) == 4
    assert "matrix data row 2 has 1 entries, row 1 has 2" in capsys.readouterr().err


def test_analyze_matrix_unknown_key_exit_four(tmp_path, capsys):
    fmt.write_json(tmp_path / "m.json",
                   {"rows": 1, "cols": 2, "colums": 2, "field": "real", "data": [[1, 2]]})
    assert main(["analyze-matrix", "--input", str(tmp_path / "m.json")]) == 4
    assert "unknown matrix keys: ['colums']" in capsys.readouterr().err


def test_generate_unknown_source_key_exit_four(tmp_path, capsys):
    fmt.write_json(tmp_path / "s.json",
                   [{"family": "gaussian", "params": {"sigma": 1.0}, "feild": "complex"}])
    assert main(["generate", "--sources", str(tmp_path / "s.json"), "--n", "5"]) == 4
    assert "source 1: unknown source keys: ['feild']" in capsys.readouterr().err


def test_verify_epi_string_n_samples_exit_four(tmp_path, capsys):
    cfg = fmt.read_json(write_config(tmp_path / "c.json", seed=1))
    cfg["n_samples"] = "2000"
    fmt.write_json(tmp_path / "c.json", cfg)
    assert main(["verify-epi", "--config", str(tmp_path / "c.json")]) == 4
    assert "config 'n_samples' must be an integer, got '2000'" in capsys.readouterr().err


def test_generate_source_not_an_object_exit_four(tmp_path, capsys):
    fmt.write_json(tmp_path / "s.json", [1])
    assert main(["generate", "--sources", str(tmp_path / "s.json"), "--n", "5"]) == 4
    assert "source 1: a source must be a JSON object, got 1" in capsys.readouterr().err


def test_generate_params_not_an_object_exit_four(tmp_path, capsys):
    fmt.write_json(tmp_path / "s.json", [{"family": "uniform", "params": 3}])
    assert main(["generate", "--sources", str(tmp_path / "s.json"), "--n", "5"]) == 4
    assert "source 1: 'params' must be a JSON object, got 3" in capsys.readouterr().err


# Raw JSON text, so that 1e400 reaches the reader, which parses it as inf.
@pytest.mark.parametrize("source, message", [
    ('{"family": "gaussian", "params": {}}', "gaussian requires parameter 'sigma'"),
    ('{"family": "gaussian", "params": {"sigma": [1]}}',
     "gaussian parameter 'sigma' must be a number, got [1]"),
    ('{"family": "gaussian_mixture_2", "params": {"weights": 1, "mus": [0, 1], "sigmas": [1, 1]}}',
     "gaussian_mixture_2 parameter 'weights' must be a list of two numbers, got 1"),
    ('{"family": "gaussian", "params": {"sigma": "2"}}',
     "gaussian parameter 'sigma' must be a number, got '2'"),
    ('{"family": "laplace", "params": {"scale": 1, "mu": 1e400}}',
     "laplace parameter 'mu' must be finite, got inf"),
    ('{"family": "gaussian", "params": {"sigma": 1, "mean": 5}}',
     "gaussian has no parameter 'mean'"),
], ids=["missing", "list", "mixture-scalar", "string", "overflow", "unknown"])
def test_generate_bad_params_exit_four(tmp_path, capsys, source, message):
    (tmp_path / "s.json").write_text(f"[{source}]")
    assert main(["generate", "--sources", str(tmp_path / "s.json"), "--n", "5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"source 1: {message}" in captured.err


def test_verify_epi_list_n_samples_exit_four(tmp_path, capsys):
    cfg = fmt.read_json(write_config(tmp_path / "c.json", seed=1))
    cfg["n_samples"] = [2000]
    fmt.write_json(tmp_path / "c.json", cfg)
    assert main(["verify-epi", "--config", str(tmp_path / "c.json")]) == 4
    assert "config 'n_samples' must be an integer, got [2000]" in capsys.readouterr().err


def test_verify_epi_fractional_n_samples_exit_four(tmp_path, capsys):
    cfg = fmt.read_json(write_config(tmp_path / "c.json", seed=1))
    cfg["n_samples"] = 2000.9
    fmt.write_json(tmp_path / "c.json", cfg)
    assert main(["verify-epi", "--config", str(tmp_path / "c.json")]) == 4
    assert "config 'n_samples' must be an integer, got 2000.9" in capsys.readouterr().err


def test_verify_epi_estimator_key_exit_four(tmp_path, capsys):
    # The experiment runs the one default estimator: an old config that still
    # carries estimator settings is refused, not run with other settings.
    cfg = fmt.read_json(write_config(tmp_path / "c.json", seed=1))
    cfg["estimator"] = {"knn_k": 4, "spacing_m": None, "tolerance_multiplier": 3.0}
    fmt.write_json(tmp_path / "c.json", cfg)
    assert main(["verify-epi", "--config", str(tmp_path / "c.json")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mixent: error: ValueError: unknown config keys: ['estimator']\n"


def test_entropy_empty_file_exit_four(tmp_path, capsys):
    (tmp_path / "empty.csv").write_text("")
    assert main(["entropy", "--input", str(tmp_path / "empty.csv"), "--method", "knn"]) == 4
    assert capsys.readouterr().err == "mixent: error: ValueError: empty samples file\n"


def test_entropy_non_finite_sample_names_line_and_column(tmp_path, capsys):
    (tmp_path / "nan.csv").write_text("s1\n" + "".join(f"{i}.0\n" for i in range(50)) + "nan\n")
    assert main(["entropy", "--input", str(tmp_path / "nan.csv"), "--method", "spacing"]) == 20
    assert "DegenerateData: line 52, column s1: value 'nan' is not finite" in (
        capsys.readouterr().err
    )


def test_entropy_non_numeric_sample_names_line_and_column(tmp_path, capsys):
    (tmp_path / "text.csv").write_text("s1,s2\n" + "1.0,2.0\n" * 60 + "3.0,abc\n")
    assert main(["entropy", "--input", str(tmp_path / "text.csv"), "--method", "knn"]) == 4
    assert "ValueError: line 62, column s2: value 'abc' is not a number" in capsys.readouterr().err


def test_help_via_console_script():
    cmd, env = console_script("--help")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    for verb in VERBS:
        assert verb in proc.stdout


@pytest.mark.skipif(shutil.which("mixent") is None, reason="mixent is not installed on PATH")
def test_help_via_installed_script():
    proc = subprocess.run(
        ["mixent", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    for verb in VERBS:
        assert verb in proc.stdout


def test_console_script_matches_direct_call(tmp_path, capsys):
    path = write_matrix(tmp_path / "a.json", AVG)
    cmd, env = console_script("analyze-matrix", "--input", path)
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert main(["analyze-matrix", "--input", path]) == 0
    assert proc.stdout == capsys.readouterr().out


ERROR_CLASSES = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.MixentError)),
    key=lambda c: c.__name__,
)


def documented_exit_codes():
    """Exit codes by class name, as the `mixent.cli` docstring lists them."""
    table = mixent.cli.__doc__.split("domain error class", 1)[1].split("Errors print", 1)[0]
    codes = {name: int(code) for code, name in re.findall(r"\b(\d+) (\w+)", table)}
    return {"MixentError": 4, "UsageError": 2, **codes}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_class_exit_code(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(mixent.cli, "_cmd_analyze_matrix", fail)
    assert main(["analyze-matrix", "--input", "unused.json"]) == documented_exit_codes()[cls.__name__]
    assert capsys.readouterr().err == f"mixent: error: {cls.__name__}: boom\n"


def test_exit_code_table_matches_error_classes():
    assert documented_exit_codes() == {c.__name__: c.exit_code for c in ERROR_CLASSES}


def test_analyze_matrix_inf_string_entry_exit_four(tmp_path, capsys):
    # A matrix needs finite entries, so "inf" is read as the string it is.
    fmt.write_json(tmp_path / "m.json",
                   {"rows": 1, "cols": 2, "field": "real", "data": [["inf", 1.0]]})
    assert main(["analyze-matrix", "--input", str(tmp_path / "m.json")]) == 4
    assert "matrix data row 1, entry 1: not a number: 'inf'" in capsys.readouterr().err
