"""Deterministic JSON and CSV formats for every object the CLI touches.

All JSON is emitted through :func:`canonical_json`: keys sorted, two-space
indent, a single trailing newline, floats in shortest round-trip form, and
the non-finite values encoded as the strings ``"-inf"``, ``"inf"``, and
``"nan"``.  Equal inputs therefore serialize to byte-identical output.

Complex scalars are encoded as two-element ``[re, im]`` arrays.  Index sets
(component labels, permutations, selected columns) are 1-based in JSON while
the Python API stays 0-based.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import distributions as dist
from .bse import ContrastDecomposition, ExtractionResult, SeparationQuality
from .entropy import EntropyEstimate
from .epi_lab import EpiExperimentConfig, EpiReport, EstimatorSettings
from .matrix_analysis import (
    CanonicalDecomposition,
    ComponentClassification,
    MixingMatrix,
)

__all__ = [
    "canonical_json",
    "read_json",
    "write_json",
    "matrix_to_dict",
    "matrix_from_dict",
    "model_to_dict",
    "model_from_dict",
    "sources_from_obj",
    "samples_csv_text",
    "write_samples_csv",
    "read_samples_csv",
    "estimate_to_dict",
    "estimate_from_dict",
    "classification_to_dict",
    "classification_from_dict",
    "canonical_to_dict",
    "settings_to_dict",
    "settings_from_dict",
    "config_to_dict",
    "config_from_dict",
    "epi_report_to_dict",
    "epi_report_from_dict",
    "extraction_to_dict",
    "quality_to_dict",
    "decomposition_to_dict",
]


def _num(x) -> float | str:
    x = float(x)
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _denum(v) -> float:
    if isinstance(v, str) and v not in ("-inf", "inf", "nan"):
        raise ValueError(f"not a number: {v!r}")
    return float(v)


def _plain(obj):
    """Recursively convert to JSON-encodable data with sanitized floats."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _num(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_num(obj.real), _num(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Serialize to the canonical byte-stable JSON form."""
    return json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj))


def read_json(path):
    return json.loads(Path(path).read_text())


def _data_to_array(data, field: str) -> np.ndarray:
    if field == "complex":
        rows = []
        for row in data:
            out = []
            for x in row:
                if not (isinstance(x, (list, tuple)) and len(x) == 2):
                    raise ValueError("complex entries must be [re, im] pairs")
                out.append(complex(_denum(x[0]), _denum(x[1])))
            rows.append(out)
        return np.array(rows, dtype=np.complex128)
    return np.array([[_denum(x) for x in row] for row in data], dtype=np.float64)


def matrix_to_dict(matrix) -> dict:
    """Encode a mixing matrix as {rows, cols, field, data} (row-major)."""
    if not isinstance(matrix, MixingMatrix):
        matrix = MixingMatrix.from_array(matrix)
    return _plain(
        {"rows": matrix.rows, "cols": matrix.cols, "field": matrix.field, "data": matrix.array}
    )


def matrix_from_dict(d: dict) -> MixingMatrix:
    for key in ("rows", "cols", "field", "data"):
        if key not in d:
            raise ValueError(f"matrix object is missing {key!r}")
    field = d["field"]
    if field not in ("real", "complex"):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    arr = _data_to_array(d["data"], field)
    if arr.shape != (int(d["rows"]), int(d["cols"])):
        raise ValueError(
            f"data shape {arr.shape} does not match rows/cols ({d['rows']}, {d['cols']})"
        )
    return MixingMatrix.from_array(arr, field=field)


def model_to_dict(model: dist.SourceModel) -> dict:
    return _plain({"family": model.family, "params": model.params, "field": model.field})


def model_from_dict(d: dict) -> dist.SourceModel:
    if "family" not in d or "params" not in d:
        raise ValueError("source object needs 'family' and 'params'")
    return dist.SourceModel(
        family=d["family"],
        params=dict(d["params"]),
        field=d.get("field", "real" if not str(d["family"]).startswith("complex") else "complex"),
    )


def sources_from_obj(obj) -> tuple[dist.SourceModel, ...]:
    """Accept either a bare list of source objects or {"sources": [...]}."""
    if isinstance(obj, dict):
        if "sources" not in obj:
            raise ValueError("sources object needs a 'sources' list")
        obj = obj["sources"]
    if not isinstance(obj, list) or not obj:
        raise ValueError("sources must be a non-empty list")
    return tuple(model_from_dict(d) for d in obj)


def samples_csv_text(samples: np.ndarray) -> str:
    """CSV text for samples: columns s1..sn, or s1_re,s1_im,.. for complex.

    Floats are written in shortest round-trip form, so equal arrays produce
    byte-identical text.
    """
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise ValueError("samples must be a 2-D array")
    n = arr.shape[1]
    lines = []
    if np.iscomplexobj(arr):
        header = ",".join(f"s{j + 1}_re,s{j + 1}_im" for j in range(n))
        for row in arr:
            lines.append(",".join(f"{repr(float(x.real))},{repr(float(x.imag))}" for x in row))
    else:
        header = ",".join(f"s{j + 1}" for j in range(n))
        for row in arr:
            lines.append(",".join(repr(float(x)) for x in row))
    return header + "\n" + "\n".join(lines) + "\n"


def write_samples_csv(path, samples: np.ndarray) -> None:
    Path(path).write_text(samples_csv_text(samples))


def read_samples_csv(path):
    """Read a samples CSV; returns (array, field)."""
    text = Path(path).read_text()
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty samples file")
    header = [h.strip() for h in lines[0][1].split(",")]
    complex_field = any(h.endswith("_re") for h in header)
    if complex_field:
        if len(header) % 2 != 0:
            raise ValueError("complex samples need paired _re/_im columns")
        n = len(header) // 2
        expected = [f"s{j + 1}_{p}" for j in range(n) for p in ("re", "im")]
    else:
        n = len(header)
        expected = [f"s{j + 1}" for j in range(n)]
    if header != expected:
        raise ValueError(f"unexpected CSV header {header}, expected {expected}")
    if len(lines) == 1:
        raise ValueError("no sample rows")
    rows = []
    for i, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(header):
            raise ValueError(f"line {i} has {len(fields)} fields, the header has {len(header)}")
        rows.append([float(v) for v in fields])
    raw = np.array(rows, dtype=np.float64)
    if complex_field:
        return raw[:, 0::2] + 1j * raw[:, 1::2], "complex"
    return raw, "real"


def estimate_to_dict(e: EntropyEstimate) -> dict:
    return _plain(dataclasses.asdict(e))


def estimate_from_dict(d: dict) -> EntropyEstimate:
    return EntropyEstimate(
        value=_denum(d["value"]),
        method=d["method"],
        n_samples=int(d["n_samples"]),
        params=dict(d["params"]),
        std_error=_denum(d["std_error"]),
    )


def classification_to_dict(c: ComponentClassification) -> dict:
    """Encode with 1-based component labels."""
    d = dataclasses.asdict(c)
    d["present"] = [j + 1 for j in c.present]
    d["recoverable"] = [j + 1 for j in c.recoverable]
    d["field"] = "complex" if np.iscomplexobj(c.witnesses) else "real"
    return _plain(d)


def classification_from_dict(d: dict) -> ComponentClassification:
    field = d.get("field", "real")
    data = d["witnesses"]
    if data:
        witnesses = _data_to_array(data, field)
    else:
        dtype = np.complex128 if field == "complex" else np.float64
        witnesses = np.zeros((0, 0), dtype=dtype)
    return ComponentClassification(
        present=tuple(int(j) - 1 for j in d["present"]),
        recoverable=tuple(int(j) - 1 for j in d["recoverable"]),
        witnesses=witnesses,
        tolerance=_denum(d["tolerance"]),
    )


def canonical_to_dict(dec: CanonicalDecomposition) -> dict:
    """Encode with a 1-based column permutation."""
    d = dataclasses.asdict(dec)
    d["permutation"] = [j + 1 for j in dec.permutation]
    return _plain(d)


def settings_to_dict(s: EstimatorSettings) -> dict:
    return _plain(dataclasses.asdict(s))


def settings_from_dict(d: dict) -> EstimatorSettings:
    known = {"knn_k", "spacing_m", "tolerance_multiplier", "jitter_seed"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown estimator keys: {sorted(unknown)}")
    kwargs = dict(d)
    if "spacing_m" in kwargs and kwargs["spacing_m"] is not None:
        kwargs["spacing_m"] = int(kwargs["spacing_m"])
    if "tolerance_multiplier" in kwargs:
        kwargs["tolerance_multiplier"] = _denum(kwargs["tolerance_multiplier"])
    return EstimatorSettings(**kwargs)


def config_to_dict(config: EpiExperimentConfig) -> dict:
    return {
        "matrix": matrix_to_dict(config.matrix),
        "sources": [model_to_dict(s) for s in config.sources],
        "n_samples": config.n_samples,
        "seed": config.seed,
        "trials": config.trials,
        "estimator": settings_to_dict(config.estimator),
    }


def config_from_dict(d: dict, base_dir=None) -> EpiExperimentConfig:
    """Build an experiment config; ``matrix_path`` is resolved against
    ``base_dir`` (usually the config file's directory)."""
    known = {"matrix", "matrix_path", "sources", "n_samples", "seed", "trials", "estimator"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if ("matrix" in d) == ("matrix_path" in d):
        raise ValueError("config needs exactly one of 'matrix' or 'matrix_path'")
    if "matrix" in d:
        matrix = matrix_from_dict(d["matrix"])
    else:
        path = Path(d["matrix_path"])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        matrix = matrix_from_dict(read_json(path))
    if "sources" not in d or "n_samples" not in d or "seed" not in d:
        raise ValueError("config needs 'sources', 'n_samples', and 'seed'")
    return EpiExperimentConfig(
        matrix=matrix,
        sources=sources_from_obj(d["sources"]),
        n_samples=int(d["n_samples"]),
        seed=int(d["seed"]),
        trials=int(d.get("trials", 1)),
        estimator=settings_from_dict(d.get("estimator", {})),
    )


def epi_report_to_dict(report: EpiReport) -> dict:
    d = dataclasses.asdict(report)
    if report.classification is not None:
        d["classification"] = classification_to_dict(report.classification)
    return _plain(d)


def epi_report_from_dict(d: dict) -> EpiReport:
    return EpiReport(
        lhs=None if d["lhs"] is None else estimate_from_dict(d["lhs"]),
        rhs=None if d["rhs"] is None else _denum(d["rhs"]),
        gap=None if d["gap"] is None else _denum(d["gap"]),
        gap_std_error=(
            None if d["gap_std_error"] is None else _denum(d["gap_std_error"])
        ),
        per_trial_gaps=tuple(_denum(g) for g in d["per_trial_gaps"]),
        tolerance=None if d["tolerance"] is None else _denum(d["tolerance"]),
        verdict=d["verdict"],
        classification=(
            None
            if d["classification"] is None
            else classification_from_dict(d["classification"])
        ),
        trivial=bool(d["trivial"]),
        n_samples=int(d["n_samples"]),
        trials=int(d["trials"]),
        seed=int(d["seed"]),
    )


def extraction_to_dict(result: ExtractionResult) -> dict:
    return _plain(
        {
            "W": matrix_to_dict(result.demixer),
            "contrast": result.contrast_value,
            "trace": result.trace,
            "whitener": matrix_to_dict(result.whitener),
            "seeds": [result.seed],
            "converged": result.converged,
            "sweeps": result.sweeps,
            "best_restart": result.best_restart,
            "restart_objectives": result.restart_objectives,
            "n_extracted": result.n_extracted,
        }
    )


def quality_to_dict(q: SeparationQuality) -> dict:
    d = dataclasses.asdict(q)
    d["selected"] = [j + 1 for j in q.selected]
    return _plain(d)


def decomposition_to_dict(d: ContrastDecomposition) -> dict:
    return _plain(dataclasses.asdict(d))
