"""Known answers: the SP 800-22 tests on the first 10**6 binary digits of e.

SP 800-22 Rev 1a (sections 2.x.8) gives an example p-value for each test on
the first 10**6 bits of the binary expansion of e, the integer bits "10"
first.  The digits are computed here exactly, by binary splitting of
sum 1/k!, so the check needs no data file.

Twelve tests reproduce the document to 6 decimals.  Three differ only by a
deliberate choice of this package, and their repo values are pinned:

- Longest Runs: exact class probabilities instead of the rounded table
  (document 0.718945).
- Overlapping Template: the exact count distribution instead of the
  compound-Poisson approximation (document 0.110434).
- Linear Complexity: pi_0 = 1/96 = 0.010417 instead of the 0.01047 of NIST's
  C code (document 0.826335).

For Longest Runs and Linear Complexity the tests below recompute the
chi-square from the block statistics and show that substituting NIST's
values gives the document's number.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaincc

from diqrng.statsuite import (
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    fft_test,
    frequency_test,
    linear_complexity_batch,
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
from diqrng.statsuite.sp800_22 import _LINEAR_COMPLEXITY_PI, _longest_run_bin_probs

N_BITS = 10**6


def _series(a: int, b: int) -> tuple:
    """(p, q) with p / q = sum_{k=a+1}^{b} a! / k! and q = b! / a!."""
    if b - a == 1:
        return 1, b
    mid = (a + b) // 2
    p1, q1 = _series(a, mid)
    p2, q2 = _series(mid, b)
    return p1 * q2 + p2, q1 * q2


def e_binary_digits(n_bits: int) -> np.ndarray:
    """The first n_bits binary digits of e = 10.1011011111...

    Sums 1/k! up to the first K with K! > 2**(n_bits + 64), so the dropped
    tail is far below the last kept bit, then takes floor(e * 2**(n_bits-2)).
    """
    k = 1
    while math.lgamma(k + 1) / math.log(2.0) <= n_bits + 64:
        k += 1
    p, q = _series(0, k)
    digits = bin(((q + p) << (n_bits - 2)) // q)[2:]
    assert len(digits) == n_bits
    return np.frombuffer(digits.encode(), dtype=np.uint8) - ord("0")


@pytest.fixture(scope="module")
def e_bits():
    return e_binary_digits(N_BITS)


def test_leading_digits(e_bits):
    # e = 2.718281828... = 10.10110111111000010101000101100010100010101110...
    expected = "1010110111111000010101000101100010100010101110"
    assert "".join(map(str, e_bits[: len(expected)])) == expected
    assert e_bits.size == N_BITS


@pytest.mark.parametrize(
    "test, index, expected",
    [
        (frequency_test, 0, 0.953749),
        (block_frequency_test, 0, 0.211072),
        (runs_test, 0, 0.561917),
        (rank_test, 0, 0.306156),
        (fft_test, 0, 0.847187),
        # Template B = 000000001, the first aperiodic template of length 9.
        (non_overlapping_template_test, 0, 0.078790),
        (universal_test, 0, 0.282568),
        (approximate_entropy_test, 0, 0.700073),
        # The document prints 0.669887 / 0.724266 (rounded up).
        (cumulative_sums_test, 0, 0.669886),
        (cumulative_sums_test, 1, 0.724265),
        (serial_test, 0, 0.766182),
        (serial_test, 1, 0.462921),
        # State x = +1 of -4..-1, 1..4.
        (random_excursions_test, 4, 0.786868),
        # State x = -1 of -9..-1, 1..9.
        (random_excursions_variant_test, 8, 0.826009),
        # Repo conventions, pinned (see the module docstring).
        (longest_runs_test, 0, 0.718366),
        (overlapping_template_test, 0, 0.159037),
        (linear_complexity_test, 0, 0.826194),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_document_p_value(e_bits, test, index, expected):
    assert test(e_bits).p_values[index] == pytest.approx(expected, abs=5e-7)


def test_nist_pi0_gives_the_document_linear_complexity(e_bits):
    # The chi-square of linear_complexity_test, recomputed from the
    # complexities with either pi_0.
    block_m = 500
    n_blocks = N_BITS // block_m
    complexities = linear_complexity_batch(e_bits[: n_blocks * block_m].reshape(n_blocks, block_m))
    mu = block_m / 2.0 + (9.0 + (-1.0) ** (block_m + 1)) / 36.0 - (block_m / 3.0 + 2.0 / 9.0) / 2.0**block_m
    t_stat = (-1.0) ** block_m * (complexities - mu) + 2.0 / 9.0
    edges = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    nu = np.bincount(np.searchsorted(edges, t_stat, side="left"), minlength=7)

    def p_value(pi):
        expected = n_blocks * pi
        return float(gammaincc(3.0, np.sum((nu - expected) ** 2 / expected) / 2.0))

    assert _LINEAR_COMPLEXITY_PI[0] == 0.010417
    assert p_value(_LINEAR_COMPLEXITY_PI) == linear_complexity_test(e_bits).p_value
    nist_pi = _LINEAR_COMPLEXITY_PI.copy()
    nist_pi[0] = 0.01047
    assert p_value(nist_pi) == pytest.approx(0.826335, abs=5e-7)


def test_nist_table_gives_the_document_longest_runs(e_bits):
    # The chi-square of longest_runs_test, recomputed from the longest run of
    # ones in each block of 10**4 bits (classes <= 10, 11, ..., 15, >= 16),
    # with either class table.
    block_m = 10_000
    n_blocks = N_BITS // block_m
    text = (e_bits + ord("0")).astype(np.uint8).tobytes()
    longest = [
        max(map(len, text[i * block_m : (i + 1) * block_m].split(b"0"))) for i in range(n_blocks)
    ]
    nu = np.bincount(np.clip(longest, 10, 16) - 10, minlength=7)

    def p_value(pi):
        expected = n_blocks * np.asarray(pi)
        return float(gammaincc(3.0, np.sum((nu - expected) ** 2 / expected) / 2.0))

    exact_pi = _longest_run_bin_probs(block_m, 10, 16)
    assert p_value(exact_pi) == longest_runs_test(e_bits).p_values[0]
    # SP 800-22 Rev 1a, section 3.4: the probabilities rounded to 4 decimals.
    nist_pi = [0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727]
    assert p_value(nist_pi) == pytest.approx(0.718945, abs=5e-7)
