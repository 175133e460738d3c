"""Suite-level orchestration: run the fifteen tests, judge them, report.

The tests in :mod:`diqrng.statsuite.sp800_22` compute p-values only.  This
module converts the bits once, runs the tests by their report names and
turns each outcome into a :class:`TestResult` in one function,
:func:`_verdict`: the familywise p of a multi-p-value test, the pass/fail
threshold, and the not-applicable state all live there.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import kolmogorov

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


@dataclass(frozen=True)
class TestResult:
    p_values: tuple
    p_value: float
    passed: bool
    params: dict = field(default_factory=dict)
    note: str = ""
    applicable: bool = True


def _bits_of(bits) -> np.ndarray:
    if hasattr(bits, "to_bits"):
        return bits.to_bits()
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    if arr.size and arr.max() > 1:
        raise ValueError("bit values must be 0 or 1")
    return arr


def _ks_p(p_values) -> float:
    """One-sample KS against Uniform[0,1], asymptotic distribution."""
    x = np.sort(np.asarray(p_values, dtype=float))
    n = x.size
    if n == 0:
        return 1.0
    grid = np.arange(1, n + 1) / n
    d = max(float(np.max(grid - x)), float(np.max(x - (grid - 1.0 / n))))
    return float(kolmogorov(math.sqrt(n) * d))


def _verdict(name: str, b: np.ndarray, threshold: float, **block_params) -> TestResult:
    """Run one test on 0/1 bits and judge it: the only maker of a TestResult.

    The scalar ``p_value`` of a multi-p-value test is the familywise p of
    the minimum, 1 - (1 - min p)^k, which keeps the per-test false-fail
    rate at the threshold; the KS p of the set and the minimum go into
    ``params`` for reference.  A test that does not apply passes with no
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
        p_min = min(p_values)
        # Familywise p of the minimum under independence; conservative
        # under the positive dependence these sub-statistics exhibit.
        scalar = -math.expm1(len(p_values) * math.log1p(-min(p_min, 1.0 - 1e-16)))
        params = {**params, "ks_p": _ks_p(p_values), "min_p": p_min}
    scalar = min(max(scalar, 0.0), 1.0)
    return TestResult(
        p_values=p_values, p_value=scalar, passed=bool(scalar >= threshold), params=params
    )


def run_named_test(name: str, bits, threshold: float = 0.01, **block_params) -> TestResult:
    """Run and judge one of the fifteen tests by its report name."""
    if name not in _TEST_FUNCTIONS:
        raise ValueError(f"unknown test {name!r}; expected one of {TEST_NAMES}")
    return _verdict(name, _bits_of(bits), threshold, **block_params)


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
    """All fifteen tests, each judged at the given threshold.

    A test that does not apply to the stream, its minimum length unmet
    included, comes back as a structured not-applicable result (see
    :func:`_verdict`) rather than a silent skip; any other error
    propagates.  The stream itself is never mutated and the tests are
    order-independent.
    """
    b = _bits_of(bits)
    if b.size < RECOMMENDED_SUITE_LENGTH:
        warnings.warn(
            f"stream has {b.size} bits; below the recommended "
            f"{RECOMMENDED_SUITE_LENGTH} for the full suite",
            stacklevel=2,
        )
    results = {name: _verdict(name, b, threshold) for name in TEST_NAMES}
    collected = [p for r in results.values() for p in r.p_values if not math.isnan(p)]
    ks = _ks_p(collected) if len(collected) >= 5 else None
    return SuiteReport(
        results=results,
        threshold=threshold,
        ks_aggregate=ks,
        stream_metadata=dict(stream_metadata or {}),
    )
