"""Suite-level orchestration: run the fifteen tests, judge them, report.

The tests in :mod:`diqrng.statsuite.sp800_22` compute p-values only.  This
module converts the bits once (:func:`~diqrng.extract.as_bits`), runs the
tests by their report names and turns each outcome into a
:class:`TestResult` in one function, :func:`_verdict`: the familywise p of
a multi-p-value test, the pass/fail threshold, and the not-applicable state
all live there.  A single sequence gets one verdict per test (SP 800-22
Rev 1a, section 4.2); the suite adds no aggregate of its own.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from diqrng._lanes import two_lanes
from diqrng.extract import as_bits

from .sp800_22 import (
    NotApplicable,
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

#: The tests :func:`run_suite` runs on its helper thread: the two bit-packed
#: GF(2) kernels, which allocate little.  The memory-heavy tests (FFT,
#: Approximate Entropy, Longest Runs, Random Excursions) stay on the calling
#: thread, because a thread's malloc arena keeps the pages it freed.
_HELPER_LANE = ("Linear Complexity", "Rank")


@dataclass(frozen=True)
class TestResult:
    """One test's verdict; the field order is the key order in suite.json."""

    p_values: tuple
    p_value: float
    passed: bool
    applicable: bool = True
    note: str = ""
    params: dict = field(default_factory=dict)


def _verdict(name: str, b: np.ndarray, threshold: float, **block_params) -> TestResult:
    """Run one test on 0/1 bits and judge it: the only maker of a TestResult.

    The scalar ``p_value`` of a multi-p-value test is the familywise p of
    the minimum, 1 - (1 - min p)^k, which keeps the per-test false-fail
    rate at the threshold.  A test that does not apply passes with no
    p-value, except a failed pre-test, which fails with p = 0.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be a number in [0, 1], got {threshold!r}")
    try:
        p_values, params = _TEST_FUNCTIONS[name](b, **block_params)
    except NotApplicable as exc:
        return TestResult(
            p_values=(0.0,) if exc.fails else (),
            p_value=0.0 if exc.fails else math.nan,
            passed=not exc.fails,
            params=exc.params,
            note=f"not applicable: {exc}",
            applicable=False,
        )
    p_values = tuple(float(p) for p in p_values)
    if len(p_values) == 1:
        scalar = p_values[0]
    else:
        # Familywise p of the minimum under independence; conservative
        # under the positive dependence these sub-statistics exhibit.
        p_min = min(min(p_values), 1.0 - 1e-16)
        scalar = -math.expm1(len(p_values) * math.log1p(-p_min))
    scalar = min(max(scalar, 0.0), 1.0)
    return TestResult(
        p_values=p_values, p_value=scalar, passed=bool(scalar >= threshold), params=params
    )


def run_named_test(name: str, bits, threshold: float = 0.01, **block_params) -> TestResult:
    """Run and judge one of the fifteen tests by its report name."""
    if name not in _TEST_FUNCTIONS:
        raise ValueError(f"unknown test {name!r}; expected one of {TEST_NAMES}")
    return _verdict(name, as_bits(bits), threshold, **block_params)


@dataclass(frozen=True)
class SuiteReport:
    results: dict
    threshold: float
    stream_metadata: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def failing(self) -> list:
        return [name for name, r in self.results.items() if not r.passed]

    def to_json_dict(self) -> dict:
        return {
            "tests": {name: asdict(r) for name, r in self.results.items()},
            "threshold": self.threshold,
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
    """All fifteen tests, each judged at the given threshold.

    A test that does not apply to the stream, its minimum length unmet
    included, comes back as a structured not-applicable result (see
    :func:`_verdict`) rather than a silent skip; any other error
    propagates.  The stream itself is never mutated and the tests are
    order-independent, so the tests of :data:`_HELPER_LANE` run on a helper
    thread while the calling thread runs the others
    (:func:`~diqrng._lanes.two_lanes`); the results keep
    :data:`TEST_NAMES` order.
    """
    b = as_bits(bits)
    if b.size < RECOMMENDED_SUITE_LENGTH:
        warnings.warn(
            f"stream has {b.size} bits; below the recommended "
            f"{RECOMMENDED_SUITE_LENGTH} for the full suite",
            stacklevel=2,
        )
    results = two_lanes(
        lambda name: _verdict(name, b, threshold),
        [name for name in TEST_NAMES if name not in _HELPER_LANE],
        _HELPER_LANE,
    )
    return SuiteReport(
        results={name: results[name] for name in TEST_NAMES},
        threshold=threshold,
        stream_metadata=dict(stream_metadata or {}),
    )
