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
from .complex_embedding import dtype_of, embed_samples, field_of, real_dims
from .entropy import EntropyEstimate
from .epi_lab import EpiExperimentConfig, EpiReport
from .errors import DegenerateData
from .matrix_analysis import (
    CanonicalDecomposition,
    ComponentClassification,
    MixingMatrix,
)
from .rng import is_int

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
    "classification_to_dict",
    "canonical_to_dict",
    "config_to_dict",
    "config_from_dict",
    "epi_report_to_dict",
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
    # A bool or a str is not a number; no "inf" string could make a finite matrix.
    if not (is_int(v) or isinstance(v, (float, np.floating))):
        raise ValueError(f"not a number: {v!r}")
    return float(v)


def _int(v, what: str) -> int:
    # A bool or a str is not an integer, and a float must be integral: 2000.0 reads as 2000.
    if is_int(v) or (isinstance(v, (float, np.floating)) and v.is_integer()):
        return int(v)
    raise ValueError(f"{what} must be an integer, got {v!r}")


def _object(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    return d


def _keys(d: dict, required: tuple, optional: tuple, what: str) -> None:
    """ValueError naming the keys if ``d`` has a key outside ``required +
    optional`` or lacks a required one."""
    unknown = set(d) - set(required + optional)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in d]
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")


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


def _entry(x, field: str):
    if field != "complex":
        return _denum(x)
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        raise ValueError("complex entries must be [re, im] pairs")
    return complex(_denum(x[0]), _denum(x[1]))


def _data_to_array(data, field: str) -> np.ndarray:
    """Rows of JSON numbers (or [re, im] pairs) as a float64 or complex128
    array; an unknown field, a row that is not a list, a row of another
    length than the first, or an entry that is not a number raises
    ValueError naming it."""
    dtype = dtype_of(field)
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"matrix data must be a list of rows, got {data!r}")
    rows = []
    for i, row in enumerate(data, 1):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"matrix data row {i} must be a list, got {row!r}")
        if rows and len(row) != len(rows[0]):
            raise ValueError(
                f"matrix data row {i} has {len(row)} entries, row 1 has {len(rows[0])}"
            )
        out = []
        for j, x in enumerate(row, 1):
            try:
                out.append(_entry(x, field))
            except ValueError as e:
                raise ValueError(f"matrix data row {i}, entry {j}: {e}") from None
        rows.append(out)
    return np.array(rows, dtype=dtype)


def matrix_to_dict(matrix) -> dict:
    """Encode a mixing matrix as {rows, cols, field, data} (row-major)."""
    if not isinstance(matrix, MixingMatrix):
        matrix = MixingMatrix.from_array(matrix)
    return _plain(
        {"rows": matrix.rows, "cols": matrix.cols, "field": matrix.field, "data": matrix.array}
    )


def matrix_from_dict(d: dict) -> MixingMatrix:
    _keys(_object(d, "matrix"), ("rows", "cols", "field", "data"), (), "matrix")
    field = d["field"]
    arr = _data_to_array(d["data"], field)
    if arr.shape != (_int(d["rows"], "matrix 'rows'"), _int(d["cols"], "matrix 'cols'")):
        raise ValueError(
            f"data shape {arr.shape} does not match rows/cols ({d['rows']}, {d['cols']})"
        )
    return MixingMatrix.from_array(arr, field=field)


def model_to_dict(model: dist.SourceModel) -> dict:
    return _plain({"family": model.family, "params": model.params, "field": model.field})


def model_from_dict(d: dict) -> dist.SourceModel:
    _keys(_object(d, "a source"), ("family", "params"), ("field",), "source")
    return dist.SourceModel(
        family=d["family"],
        params=dict(_object(d["params"], "'params'")),
        field=d.get("field"),
    )


def sources_from_obj(obj) -> tuple[dist.SourceModel, ...]:
    """Accept either a bare list of source objects or {"sources": [...]}."""
    if isinstance(obj, dict):
        _keys(obj, ("sources",), (), "sources")
        obj = obj["sources"]
    if not isinstance(obj, list) or not obj:
        raise ValueError("sources must be a non-empty list")
    models = []
    for i, d in enumerate(obj, 1):
        try:
            models.append(model_from_dict(d))
        except ValueError as e:
            raise ValueError(f"source {i}: {e}") from None
    return tuple(models)


def _csv_columns(n: int, field: str) -> list[str]:
    """Sample CSV column names: s1..sn, or s1_re,s1_im,.. for complex."""
    parts = ("_re", "_im") if field == "complex" else ("",)
    return [f"s{j + 1}{part}" for j in range(n) for part in parts]


def samples_csv_text(samples: np.ndarray) -> str:
    """CSV text for samples: columns s1..sn, or s1_re,s1_im,.. for complex.

    Floats are written in shortest round-trip form, so equal arrays produce
    byte-identical text.
    """
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise ValueError("samples must be a 2-D array")
    names = _csv_columns(arr.shape[1], field_of(arr))
    if np.iscomplexobj(arr):
        arr = embed_samples(arr)
    lines = [",".join(map(repr, row)) for row in arr.astype(np.float64).tolist()]
    return ",".join(names) + "\n" + "\n".join(lines) + "\n"


def write_samples_csv(path, samples: np.ndarray) -> None:
    Path(path).write_text(samples_csv_text(samples))


def read_samples_csv(path):
    """Read a samples CSV; returns (array, field).

    Complex samples come back as the complex128 view of the (re, im)
    columns.  Raises ValueError, naming the line and the column, on a cell
    that is not a number, and DegenerateData on a NaN or infinite value.
    """
    text = Path(path).read_text()
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty samples file")
    header = [h.strip() for h in lines[0][1].split(",")]
    field = "complex" if any(h.endswith("_re") for h in header) else "real"
    d = real_dims(field)
    if len(header) % d:
        raise ValueError("complex samples need paired _re/_im columns")
    expected = _csv_columns(len(header) // d, field)
    if header != expected:
        raise ValueError(f"unexpected CSV header {header}, expected {expected}")
    if len(lines) == 1:
        raise ValueError("no sample rows")
    rows = []
    for i, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {i} has {len(cells)} fields, the header has {len(header)}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError:
            for name, v in zip(header, cells):
                try:
                    float(v)
                except ValueError:
                    raise ValueError(
                        f"line {i}, column {name}: value {v.strip()!r} is not a number"
                    ) from None
    raw = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(raw))
    if bad.size:
        row, col = bad[0]
        i, ln = lines[row + 1]
        raise DegenerateData(
            f"line {i}, column {header[col]}: value {ln.split(',')[col].strip()!r} is not finite"
        )
    return raw.view(dtype_of(field)), field


def estimate_to_dict(e: EntropyEstimate) -> dict:
    return _plain(dataclasses.asdict(e))


def classification_to_dict(c: ComponentClassification) -> dict:
    """Encode with 1-based component labels.

    Each witness has the matrix's row count m as its length; with no
    witness the dict states m as ``rows`` instead.
    """
    d = dataclasses.asdict(c)
    d["present"] = [j + 1 for j in c.present]
    d["recoverable"] = [j + 1 for j in c.recoverable]
    d["field"] = field_of(c.witnesses)
    if len(c.witnesses) == 0:
        d["rows"] = c.witnesses.shape[1]
    return _plain(d)


def canonical_to_dict(dec: CanonicalDecomposition) -> dict:
    """Encode with a 1-based column permutation."""
    d = dataclasses.asdict(dec)
    d["permutation"] = [j + 1 for j in dec.permutation]
    return _plain(d)


def config_to_dict(config: EpiExperimentConfig) -> dict:
    return {
        "matrix": matrix_to_dict(config.matrix),
        "sources": [model_to_dict(s) for s in config.sources],
        "n_samples": config.n_samples,
        "seed": config.seed,
        "trials": config.trials,
    }


def config_from_dict(d: dict, base_dir=None) -> EpiExperimentConfig:
    """Build an experiment config; ``matrix_path`` is resolved against
    ``base_dir`` (usually the config file's directory)."""
    required = ("sources", "n_samples", "seed")
    _keys(_object(d, "config"), required, ("matrix", "matrix_path", "trials"), "config")
    if ("matrix" in d) == ("matrix_path" in d):
        raise ValueError("config needs exactly one of 'matrix' or 'matrix_path'")
    if "matrix" in d:
        matrix = matrix_from_dict(d["matrix"])
    else:
        if not isinstance(d["matrix_path"], str):
            raise ValueError(f"config 'matrix_path' must be a string, got {d['matrix_path']!r}")
        path = Path(d["matrix_path"])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        matrix = matrix_from_dict(read_json(path))
    return EpiExperimentConfig(
        matrix=matrix,
        sources=sources_from_obj(d["sources"]),
        n_samples=_int(d["n_samples"], "config 'n_samples'"),
        seed=_int(d["seed"], "config 'seed'"),
        trials=_int(d.get("trials", 1), "config 'trials'"),
    )


def epi_report_to_dict(report: EpiReport) -> dict:
    d = dataclasses.asdict(report)
    if report.classification is not None:
        d["classification"] = classification_to_dict(report.classification)
    return _plain(d)


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
