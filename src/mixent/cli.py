"""Command line interface.

Verbs
-----
generate        sample sources (optionally mixed) to CSV
analyze-matrix  classification and canonical form of a mixing matrix
verify-epi      run a mixture-entropy experiment from a config file
entropy         estimate the entropy of a sample file
extract         search for a demixing matrix on a sample file

Exit codes
----------
0 success, 1 the experiment flagged a violation, 2 usage error, 3 file
system error, 4 invalid values or malformed file content, and one code per
domain error class (each class carries it as ``exit_code``, see
:mod:`mixent.errors`):

    10 RankDeficient      11 ZeroColumn        12 NotOrthonormal
    13 NonPositiveLambda  14 NotSpd            15 BadBlockStructure
    16 AlreadySquare      17 UnsupportedFamily 18 NotCircular
    19 TooFewSamples      20 DegenerateData    21 DuplicatePoints
    22 SingularCovariance

Errors print a single line to stderr: ``mixent: error: <Class>: <message>``.
All JSON output is canonical (sorted keys, trailing newline), so equal
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats
from .bse import Observation, minimize_contrast, separation_quality
from .distributions import check_sources, sample_sources
from .entropy import KNN_K, knn_entropy, spacing_entropy, spacings_apply
from .epi_lab import run_epi_trial
from .errors import MixentError, UsageError
from .matrix_analysis import canonical_form, classify_components, rank_of

__all__ = ["main"]

DEFAULT_SEED = 0xC0FFEE


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_generate(args) -> int:
    sources = formats.sources_from_obj(formats.read_json(args.sources))
    X = sample_sources(sources, args.n, args.seed)
    if args.mix is not None:
        matrix = formats.matrix_from_dict(formats.read_json(args.mix))
        check_sources(sources, matrix.field, matrix.cols)
        X = X @ matrix.array.T
    _emit(formats.samples_csv_text(X), args.out)
    return 0


def _cmd_analyze_matrix(args) -> int:
    matrix = formats.matrix_from_dict(formats.read_json(args.input))
    if args.field is not None and args.field != matrix.field:
        raise ValueError(
            f"--field {args.field} does not match the matrix field {matrix.field}"
        )
    classification = classify_components(matrix.array)
    decomposition = canonical_form(matrix.array)
    out = {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "field": matrix.field,
        "rank": rank_of(matrix.array),
        "classification": formats.classification_to_dict(classification),
        "canonical": formats.canonical_to_dict(decomposition),
    }
    _emit(formats.canonical_json(out), args.out)
    return 0


def _cmd_verify_epi(args) -> int:
    config = formats.config_from_dict(
        formats.read_json(args.config), base_dir=Path(args.config).parent
    )
    report = run_epi_trial(config)
    _emit(formats.canonical_json(formats.epi_report_to_dict(report)), args.out)
    return 1 if report.verdict == "violation_flag" else 0


def _cmd_entropy(args) -> int:
    samples, field = formats.read_samples_csv(args.input)
    if args.method == "spacing":
        if not spacings_apply(field, samples.shape[1]):
            raise ValueError("the spacing method needs a single real column")
        estimate = spacing_entropy(samples[:, 0], m=args.m_spacing)
    else:
        estimate = knn_entropy(samples, k=args.k)
    _emit(formats.canonical_json(formats.estimate_to_dict(estimate)), args.out)
    return 0


def _cmd_extract(args) -> int:
    samples, field = formats.read_samples_csv(args.input)
    if args.field is not None and args.field != field:
        raise ValueError(
            f"--field {args.field} does not match the {field} samples file"
        )
    obs = Observation.from_samples(samples)
    result = minimize_contrast(
        obs, args.m, seed=args.seed, restarts=args.restarts
    )
    out = formats.extraction_to_dict(result)
    if args.truth_mix is not None:
        truth = formats.matrix_from_dict(formats.read_json(args.truth_mix))
        quality = separation_quality(result.demixer, truth.array)
        out["separation"] = formats.quality_to_dict(quality)
    _emit(formats.canonical_json(out), args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mixent",
        description="Entropy inequalities for linear mixtures of independent sources.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "generate", help="sample sources (optionally mixed) to CSV", allow_abbrev=False
    )
    p.add_argument("--sources", required=True, help="JSON file of source models")
    p.add_argument("--n", required=True, type=_positive_int, help="number of samples")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
    p.add_argument("--mix", default=None, help="optional mixing matrix JSON")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "analyze-matrix",
        help="classification and canonical form of a matrix",
        allow_abbrev=False,
    )
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument(
        "--field", choices=("real", "complex"), default=None,
        help="cross-check the matrix field",
    )
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_analyze_matrix)

    p = sub.add_parser(
        "verify-epi", help="run a mixture-entropy experiment", allow_abbrev=False
    )
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_verify_epi)

    p = sub.add_parser(
        "entropy", help="estimate the entropy of a sample file", allow_abbrev=False
    )
    p.add_argument("--input", required=True, help="samples CSV file")
    p.add_argument("--method", choices=("spacing", "knn"), required=True)
    p.add_argument("--k", type=_positive_int, default=KNN_K, help="neighbor count for knn")
    p.add_argument(
        "--m-spacing", type=_positive_int, default=None, help="window size for spacing"
    )
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser(
        "extract", help="search for a demixing matrix", allow_abbrev=False
    )
    p.add_argument("--input", required=True, help="samples CSV file")
    p.add_argument("--m", required=True, type=_positive_int, help="number of rows to extract")
    p.add_argument(
        "--field", choices=("real", "complex"), default=None,
        help="cross-check the sample field",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
    p.add_argument(
        "--restarts", type=_positive_int, default=5,
        help="most random restarts; they stop once two end within 0.02 nats of the best",
    )
    p.add_argument(
        "--truth-mix", default=None,
        help="known mixing matrix JSON for separation scoring",
    )
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_extract)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except MixentError as e:
        print(f"mixent: error: {type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"mixent: error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"mixent: error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
