"""Span tracing for the benchmark, installed from outside the package.

Every hook wraps one cross-module entry point of ``mixent`` and is installed
on every ``mixent`` module namespace that binds the same function object, so
``from .entropy import _knn_value`` in ``bse`` is traced as well.  A binding
in ``mixent.bse`` may carry its own span name: that is how calls made by the
extraction search (``.search``) are told apart from calls made by the
estimators themselves (``.estimate``).

Spans are aggregated as they close.  Each open span keeps the time its
children covered, so a span's self time is its duration minus the time of
the spans whose parent it is.  An operation span opened by the benchmark is
the root; the share of its wall time covered by its direct children is the
top-level coverage.

Only the standard library is imported here, so the bootstrap of a traced CLI
child can import this module before ``mixent``.
"""

from __future__ import annotations

import os
import sys
import time


class HookMissing(RuntimeError):
    """A wrapped entry point is missing or no longer callable."""


def _points(args, result):
    return {"points": args[0].shape[0]}


def _values(args, result):
    return {"values": result.size}


def _text_bytes(args, result):
    return {"bytes": len(result)}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _line_search(args, result):
    # args = (f, f0, lo, hi, budget); result = (t_best, f_best, evals)
    return {"evals": result[2], "accepted": int(result[1] < args[1])}


def _optimize_frame(args, result):
    # result = (U, objective, sweeps, converged, trace)
    return {"sweeps": result[2]}


# (defining module, attribute, span name, {binding module: span name}, counters)
HOOKS = (
    ("mixent.entropy", "spacing_entropy_value", "entropy.spacing_value.estimate",
     {"mixent.bse": "entropy.spacing_value.search"}, _points),
    ("mixent.entropy", "_knn_value", "entropy.knn_value.estimate",
     {"mixent.bse": "entropy.knn_value.search"}, _points),
    ("mixent.entropy", "spacing_entropy", "entropy.spacing_entropy", {}, None),
    ("mixent.entropy", "knn_entropy", "entropy.knn_entropy", {}, None),
    ("mixent.bse", "_optimize_frame", "bse.optimize_frame", {}, _optimize_frame),
    ("mixent.bse", "_line_search", "bse.line_search", {}, _line_search),
    ("mixent.bse", "whiten", "bse.whiten", {}, None),
    ("mixent.bse", "contrast", "bse.contrast", {}, None),
    ("mixent.matrix_analysis", "classify_components", "matrix_analysis.classify", {}, None),
    ("mixent.matrix_analysis", "canonical_form", "matrix_analysis.canonical_form", {}, None),
    ("mixent.matrix_analysis", "rank_of", "matrix_analysis.rank_of", {}, None),
    ("mixent.distributions", "sample", "distributions.sample", {}, _values),
    ("mixent.epi_lab", "run_epi_trial", "epi_lab.run_epi_trial", {}, None),
    ("mixent.epi_lab", "run_lemma2_sweep", "epi_lab.lemma_sweep", {}, None),
    ("mixent.complex_embedding", "embed_samples", "complex_embedding.embed_samples", {}, None),
    ("mixent.formats", "canonical_json", "formats.canonical_json", {}, _text_bytes),
    ("mixent.formats", "read_samples_csv", "formats.read_samples_csv", {}, _file_bytes),
    ("mixent.formats", "samples_csv_text", "formats.samples_csv_text", {}, _text_bytes),
)


class Tracer:
    """Aggregates closed spans by name: calls, busy time, self time, counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.coverage: list[float] = []
        # One frame per open span: [name, start, child time, is operation root].
        self._stack: list[list] = []

    def open(self, name: str, root: bool = False) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, root])

    def close(self) -> float:
        name, start, child, root = self._stack.pop()
        duration = time.perf_counter() - start
        if root:
            self.coverage.append(child / duration if duration > 0 else 0.0)
        else:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def span(self, name: str, fn, counters=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if counters is not None:
                for key, value in counters(args, result).items():
                    tracer.count(f"{name}.{key}", value)
            return result

        traced.__wrapped__ = fn
        return traced

    def merge(self, other: dict) -> None:
        """Add an aggregate written by :meth:`to_dict` (from a child process)."""
        for table, key in ((self.calls, "calls"), (self.busy, "busy"),
                           (self.self_time, "self"), (self.counters, "counters")):
            for name, value in other[key].items():
                table[name] = table.get(name, 0) + value

    def to_dict(self) -> dict:
        return {"calls": self.calls, "busy": self.busy, "self": self.self_time,
                "counters": self.counters}


def _mixent_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if (name == "mixent" or name.startswith("mixent.")) and mod is not None}


def resolve() -> list:
    """The original function of every hook, in ``HOOKS`` order.

    Raises :class:`HookMissing` if a defining module or attribute is gone,
    so a refactor can never turn a layer silently into zeros.
    """
    modules = _mixent_modules()
    originals = []
    for modname, attr, _, _, _ in HOOKS:
        fn = getattr(modules.get(modname), attr, None)
        if not callable(fn):
            raise HookMissing(f"traced entry point {modname}.{attr} is missing")
        originals.append(fn)
    return originals


def install(tracer: Tracer):
    """Wrap every hook on every ``mixent`` module that binds it.

    Returns the list of (module, attribute, original) needed by
    :func:`uninstall`; nothing is patched if :func:`resolve` fails.
    """
    originals = resolve()
    modules = _mixent_modules()
    patched = []
    for (modname, attr, span_name, overrides, counters), fn in zip(HOOKS, originals):
        for binder_name, binder in modules.items():
            for key, value in list(vars(binder).items()):
                if value is fn:
                    name = overrides.get(binder_name, span_name)
                    setattr(binder, key, tracer.span(name, fn, counters))
                    patched.append((binder, key, fn))
    return patched


def uninstall(patched) -> None:
    for binder, key, fn in patched:
        setattr(binder, key, fn)
