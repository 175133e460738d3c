"""Span tracing from outside the program.

While a :class:`Tracer` is installed, each public ``diqrng`` function named
in :data:`LAYERS` is replaced, at module attribute level, by a wrapper that
records a span (name, start, end, parent) and reads exact work counts off
the call's arguments and result.  Uninstalling restores the originals.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from diqrng import certify, extract, pipeline, source, statsuite, tomography
from diqrng.statsuite import suite as _suite


def _generate_counts(args, result) -> dict:
    windows = result.n_coincidences + result.n_herald_only
    return {
        "windows": windows,
        "coincidences": result.n_coincidences,
        "ties": result.n_ties,
        "bits": result.bits.n_bits,
    }


def _extract_counts(args, result) -> dict:
    raw, cfg = args[0], args[1]
    blocks = result.provenance["n_blocks"]
    m = result.provenance["block_m"]
    words = math.ceil(cfg.n / 64)
    # Computed, not measured: each word-op reads one block word and one
    # row word and updates one 8-byte accumulator.
    return {
        "bits_in": raw.n_bits,
        "blocks": blocks,
        "word_ops": blocks * m * words,
        "bytes_computed": blocks * m * words * 32,
    }


def _bayes_counts(args, result) -> dict:
    estimate, samples = result
    diag = estimate.diagnostics
    post = diag["R"] * diag["thin"]
    return {
        "proposals": diag["burn_in"] + post,
        "post_burn_in": post,
        "accepted": round(samples.acceptance_rate * post),
    }


def _suite_counts(args, result) -> dict:
    return {"applicable": sum(r.applicable for r in result.results.values())}


#: (span name, [(namespace, attribute), ...], count extractor or None).
#: ``min_entropy`` is also bound by name inside ``pipeline``, so both
#: bindings are replaced.
LAYERS = [
    ("pipeline.run_all", [(pipeline, "run_all")], None),
    ("source.scan_hom", [(source, "scan_hom")], None),
    ("source.generate_events", [(source, "generate_events")], _generate_counts),
    ("source.simulate_chsh_counts", [(source, "simulate_chsh_counts")], None),
    ("certify.chsh_direct", [(certify, "chsh_direct")], None),
    ("certify.min_entropy", [(certify, "min_entropy"), (pipeline, "min_entropy")], None),
    ("tomography.ls_invert", [(tomography, "ls_invert")], None),
    (
        "tomography.mle_estimate",
        [(tomography, "mle_estimate")],
        lambda args, result: {"iterations": result.diagnostics["iterations"]},
    ),
    ("tomography.bayesian_estimate", [(tomography, "bayesian_estimate")], _bayes_counts),
    (
        "tomography.posterior_functional",
        [(tomography, "posterior_functional")],
        lambda args, result: {"evaluations": args[0].R},
    ),
    ("extract.extract_stream", [(extract, "extract_stream")], _extract_counts),
    ("statsuite.run_suite", [(statsuite, "run_suite")], _suite_counts),
]


def suite_test_span(test: str) -> str:
    return "statsuite." + test.lower().replace(" ", "_")


# run_suite dispatches through its name -> function table, so the fifteen
# tests are traced by swapping that table's entries.
LAYERS += [
    (suite_test_span(name), [(_suite._TEST_FUNCTIONS, name)], None)
    for name in statsuite.TEST_NAMES
]


@dataclass
class Span:
    name: str
    op: int
    start: float
    end: float
    parent: int | None


def _get(namespace, key):
    return namespace[key] if isinstance(namespace, dict) else getattr(namespace, key)


def _set(namespace, key, value):
    if isinstance(namespace, dict):
        namespace[key] = value
    else:
        setattr(namespace, key, value)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self._op, time.perf_counter(), math.nan, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            op_counts = self.counts.setdefault(self._op, {})
            op_counts[f"{name}.calls"] = op_counts.get(f"{name}.calls", 0) + 1
            if counter is not None:
                for key, value in counter(args, result).items():
                    op_counts[f"{name}.{key}"] = op_counts.get(f"{name}.{key}", 0) + value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every layer function by its traced wrapper, then restore."""
        saved = []
        try:
            for name, targets, counter in LAYERS:
                for namespace, key in targets:
                    original = _get(namespace, key)
                    saved.append((namespace, key, original))
                    _set(namespace, key, self._wrap(name, original, counter))
            yield self
        finally:
            for namespace, key, original in reversed(saved):
                _set(namespace, key, original)

    @contextmanager
    def operation(self, op: int):
        """Attribute spans to operation ``op``; calls outside any operation
        pass straight through untraced."""
        self._op = op
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": self.counts}


def self_times(spans: list) -> list:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def layer_times(spans: list) -> dict:
    """``{op: {name: {"s": total, "self_s": self}}}``; a layer called more
    than once in an operation accumulates."""
    per_op: dict[int, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = per_op.setdefault(span.op, {}).setdefault(span.name, {"s": 0.0, "self_s": 0.0})
        entry["s"] += span.end - span.start
        entry["self_s"] += own
    return per_op


def median_layer_time(per_op: dict, names, kind: str = "s") -> float:
    """Median over traced operations of the summed time of ``names`` (one
    span name or a tuple); a layer an operation never entered counts as
    0 s for it (the workload bypasses that layer)."""
    if isinstance(names, str):
        names = (names,)
    if not per_op:
        return 0.0
    return statistics.median(
        sum(times.get(name, {}).get(kind, 0.0) for name in names)
        for times in per_op.values()
    )
