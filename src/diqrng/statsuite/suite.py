"""Suite-level orchestration: run all fifteen tests, aggregate, report."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .sp800_22 import (
    InsufficientLengthError,
    TestResult,
    _bits_of,
    _ks_p,
    _not_applicable,
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    fft_test,
    frequency_test,
    linear_complexity_test,
    longest_runs_test,
    non_overlapping_template_test,
    overlapping_template_test,
    random_excursions_test,
    random_excursions_variant_test,
    rank_test,
    runs_test,
    serial_test,
    universal_test,
)

_TEST_FUNCTIONS = {
    "Approximate Entropy": approximate_entropy_test,
    "Block Frequency": block_frequency_test,
    "Cumulative Sums": cumulative_sums_test,
    "FFT": fft_test,
    "Frequency": frequency_test,
    "Linear Complexity": linear_complexity_test,
    "Longest Runs": longest_runs_test,
    "Non Overlapping Template Matching": non_overlapping_template_test,
    "Overlapping Template Matching": overlapping_template_test,
    "Random Excursions": random_excursions_test,
    "Random Excursions Variant": random_excursions_variant_test,
    "Rank": rank_test,
    "Runs": runs_test,
    "Serial": serial_test,
    "Universal": universal_test,
}

#: The fifteen tests of the suite, alphabetical, as reported.
TEST_NAMES = tuple(_TEST_FUNCTIONS)

RECOMMENDED_SUITE_LENGTH = 1_000_000


def run_named_test(name: str, bits, threshold: float = 0.01, **params) -> TestResult:
    """Run one of the fifteen tests by its report name."""
    if name not in _TEST_FUNCTIONS:
        raise ValueError(f"unknown test {name!r}; expected one of {TEST_NAMES}")
    return _TEST_FUNCTIONS[name](bits, threshold=threshold, **params)


@dataclass(frozen=True)
class SuiteReport:
    results: dict
    threshold: float
    ks_aggregate: float | None
    stream_metadata: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def failing(self) -> list:
        return [name for name, r in self.results.items() if not r.passed]

    def to_json_dict(self) -> dict:
        tests = {}
        for name, r in self.results.items():
            tests[name] = {
                "p_values": list(r.p_values),
                "p_value": r.p_value,
                "passed": r.passed,
                "applicable": r.applicable,
                "note": r.note,
                "params": r.params,
            }
        return {
            "tests": tests,
            "threshold": self.threshold,
            "ks_aggregate": self.ks_aggregate,
            "all_passed": self.all_passed,
            "stream_metadata": self.stream_metadata,
        }

    def save_csv(self, path, reference: dict | None = None) -> Path:
        """One row per test; ``reference`` maps test names to published
        p-values for the last column (empty where absent)."""
        path = Path(path)
        reference = reference or {}
        with path.open("w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(
                ["test", "p_value", "passed", "n_p_values", "note", "reference_p_value"]
            )
            for name, r in self.results.items():
                p = "" if math.isnan(r.p_value) else f"{r.p_value:.6f}"
                writer.writerow(
                    [name, p, r.passed, len(r.p_values), r.note, reference.get(name)]
                )
        return path


def run_suite(bits, threshold: float = 0.01, stream_metadata: dict | None = None) -> SuiteReport:
    """All fifteen tests at the given threshold.

    Tests whose minimum length the stream does not meet
    (:class:`InsufficientLengthError`) come back as structured
    not-applicable results (passed, with the requirement in the note) rather
    than silent skips; any other error propagates.  The stream itself is
    never mutated and the tests are order-independent.
    """
    b = _bits_of(bits)
    if b.size < RECOMMENDED_SUITE_LENGTH:
        warnings.warn(
            f"stream has {b.size} bits; below the recommended "
            f"{RECOMMENDED_SUITE_LENGTH} for the full suite",
            stacklevel=2,
        )
    results = {}
    for name in TEST_NAMES:
        try:
            results[name] = _TEST_FUNCTIONS[name](b, threshold=threshold)
        except InsufficientLengthError as exc:
            results[name] = _not_applicable(name, {}, f"not applicable: {exc}")
    collected = [p for r in results.values() for p in r.p_values if not math.isnan(p)]
    ks = _ks_p(collected) if len(collected) >= 5 else None
    return SuiteReport(
        results=results,
        threshold=threshold,
        ks_aggregate=ks,
        stream_metadata=dict(stream_metadata or {}),
    )
