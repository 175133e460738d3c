"""The fifteen SP 800-22 statistical tests, as statistics only.

Each test takes a 0/1 ``uint8`` array and its own block parameters and
returns ``(p_values, params)``: the tuple of its p-values and a dict of the
statistics behind them.  Multi-p-value tests (Cumulative Sums, Serial,
Non Overlapping Template Matching, Random Excursions and its Variant)
return every p-value.  A test that does not apply to the stream raises
:class:`NotApplicable`.  No test judges its p-values: the suite
(:mod:`diqrng.statsuite.suite`) holds the threshold and makes every
verdict.

Class probabilities that the reference document tabulates in rounded form
(longest-run bins, overlapping-template bins, rank distribution) are
computed exactly here for the actual block lengths in use; the tests
validate them against brute-force enumeration.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from diqrng.extract import bitslice
from diqrng.qmath import read_only


# scipy.special is imported at the first p-value, not with the package.  The
# first call of each function below rebinds its module name to the scipy
# function itself, so later calls pay no import; every binding computes the
# same values.
def gammaincc(a, x):
    """Regularized upper incomplete gamma function Q(a, x)."""
    global gammaincc
    from scipy.special import gammaincc

    return gammaincc(a, x)


def ndtr(x):
    """Standard normal cumulative distribution function."""
    global ndtr
    from scipy.special import ndtr

    return ndtr(x)


class NotApplicable(ValueError):
    """The test does not apply to this stream.

    ``params`` holds the statistics that decided it.  ``fails`` marks a
    failed pre-test (Runs), which fails the stream instead of passing it.
    """

    def __init__(self, note: str, params: dict | None = None, fails: bool = False):
        super().__init__(note)
        self.params = {} if params is None else params
        self.fails = fails


def _require_length(n: int, minimum: int, name: str):
    if n < minimum:
        raise NotApplicable(f"{name} requires at least {minimum} bits, got {n}")


def _chi2_p(nu: np.ndarray, pi: np.ndarray, n: int) -> tuple:
    """Pearson chi^2 of class counts ``nu`` against n trials of class
    probabilities ``pi``, and its p-value at len(pi) - 1 degrees of freedom."""
    expected = n * pi
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    return chi2, gammaincc((len(pi) - 1) / 2.0, chi2 / 2.0)


# ---------------------------------------------------------------------------
# 1. Frequency (monobit)
# ---------------------------------------------------------------------------

def frequency_test(b: np.ndarray, min_n: int = 100) -> tuple:
    n = b.size
    _require_length(n, min_n, "Frequency")
    s_obs = abs(2.0 * int(b.sum()) - n) / math.sqrt(n)
    p = math.erfc(s_obs / math.sqrt(2.0))
    return (p,), {"n": n, "s_obs": s_obs}


# ---------------------------------------------------------------------------
# 2. Block Frequency
# ---------------------------------------------------------------------------

def block_frequency_test(b: np.ndarray, block_m: int = 128) -> tuple:
    n = b.size
    _require_length(n, max(100, block_m), "Block Frequency")
    n_blocks = n // block_m
    pi = b[: n_blocks * block_m].reshape(n_blocks, block_m).mean(axis=1)
    chi2 = 4.0 * block_m * float(np.sum((pi - 0.5) ** 2))
    p = gammaincc(n_blocks / 2.0, chi2 / 2.0)
    return (p,), {"M": block_m, "N": n_blocks, "chi2": chi2}


# ---------------------------------------------------------------------------
# 3. Runs
# ---------------------------------------------------------------------------

def runs_test(b: np.ndarray, min_n: int = 100) -> tuple:
    n = b.size
    _require_length(n, min_n, "Runs")
    pi = float(b.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        raise NotApplicable("frequency pre-test failed", {"pi": pi, "n": n}, fails=True)
    v_obs = 1 + int(np.count_nonzero(np.diff(b)))
    num = abs(v_obs - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = math.erfc(num / den)
    return (p,), {"pi": pi, "V_obs": v_obs, "n": n}


# ---------------------------------------------------------------------------
# 4. Longest Runs of ones
# ---------------------------------------------------------------------------

def _no_run_probability(n: int, run: int) -> float:
    """P(no run of `run` consecutive ones in n fair bits), exact recurrence.

    Let a_k count the run-free strings of length k: a_k = 2^k for k < run
    and a_run = 2^run - 1.  For k > run, appending a bit to a run-free
    string of length k - 1 gives 2 a_{k-1} strings; the ones that now hold
    a run end in 0 followed by `run` ones after a run-free prefix of length
    k - 1 - run, and there are a_{k-1-run} of those.  So
    a_k = 2 a_{k-1} - a_{k-1-run}, and q_k = a_k / 2^k obeys
    q_k = q_{k-1} - q_{k-1-run} / 2^(run+1): one multiply-subtract per bit.
    """
    if run <= 0:
        return 0.0
    if n < run:
        return 1.0
    q = [1.0] * run + [1.0 - 2.0**-run]  # q_0 .. q_run
    tail = 2.0 ** -(run + 1)
    for k in range(run + 1, n + 1):
        q.append(q[k - 1] - tail * q[k - 1 - run])
    return q[n]


@cache
def _longest_run_bin_probs(block_m: int, lo: int, hi: int) -> np.ndarray:
    """P(longest run <= lo), P(= lo + 1), .., P(>= hi) in one block, a
    read-only array computed once per (block_m, lo, hi)."""
    probs = []
    cdf_prev = 0.0
    for length in range(lo, hi):
        cdf = _no_run_probability(block_m, length + 1)  # P(longest <= length)
        probs.append(cdf - cdf_prev if probs else cdf)
        cdf_prev = cdf
    probs.append(1.0 - cdf_prev)
    return read_only(np.array(probs))


def _runs_of_ones(blocks: np.ndarray, k_max: int):
    """Yield, for k = 1 .. k_max, the array whose [i, j] is 1 when bits
    j .. j + k - 1 of row i of ``blocks`` are all ones:
    runs_k = runs_(k-1)[:, :-1] & blocks[:, k - 1:]."""
    runs = blocks
    yield runs
    for k in range(2, k_max + 1):
        runs = runs[:, :-1] & blocks[:, k - 1 :]
        yield runs


def longest_runs_test(b: np.ndarray) -> tuple:
    """The longest run of ones in a block is the largest k whose row of
    :func:`_runs_of_ones` holds a one; only the classes lo .. hi count, so
    k stops at hi and a block starts in class lo."""
    n = b.size
    _require_length(n, 128, "Longest Runs")
    if n >= 750_000:
        block_m, lo, hi = 10_000, 10, 16
    elif n >= 6272:
        block_m, lo, hi = 128, 4, 9
    else:
        block_m, lo, hi = 8, 1, 4
    n_blocks = n // block_m
    blocks = b[: n_blocks * block_m].reshape(n_blocks, block_m)
    longest = np.full(n_blocks, lo)
    for k, runs in enumerate(_runs_of_ones(blocks, hi), start=1):
        if k > lo:
            longest[runs.any(axis=1)] = k
    nu = np.bincount(longest - lo, minlength=hi - lo + 1)
    chi2, p = _chi2_p(nu, _longest_run_bin_probs(block_m, lo, hi), n_blocks)
    return (p,), {"M": block_m, "N": n_blocks, "chi2": chi2, "classes": f"{lo}..{hi}"}


# ---------------------------------------------------------------------------
# 5. Rank of binary matrices
# ---------------------------------------------------------------------------

def gf2_rank_batch(rows: np.ndarray) -> np.ndarray:
    """Ranks over GF(2) of many bit-packed square matrices at once.

    rows: (n_matrices, n_rows) unsigned ints, row r of matrix k packed
    LSB-first in rows[k, r].  Elimination without row swaps: each column's
    pivot is the first row that holds the bit, and it is XORed into every
    row that holds the bit, itself included.  That clears the column and
    zeroes the pivot row, so no row is a pivot twice.  The rank is the
    number of columns that had a pivot.
    """
    rows = rows.astype(np.uint64)
    n_mat, n_rows = rows.shape
    mats = np.arange(n_mat)
    rank = np.zeros(n_mat, dtype=np.int64)
    for col in range(n_rows):
        has_bit = (rows & np.uint64(1 << col)) != 0
        pivot = np.argmax(has_bit, axis=1)
        rank += has_bit[mats, pivot]
        rows ^= has_bit * rows[mats, pivot][:, np.newaxis]
    return rank


def full_rank_probability(m: int, q: int, r: int) -> float:
    """P(rank = r) for a random m x q matrix over GF(2)."""
    log_p = (r * (q + m - r) - m * q) * math.log(2.0)
    for i in range(r):
        log_p += math.log1p(-(2.0 ** (i - q)))
        log_p += math.log1p(-(2.0 ** (i - m)))
        log_p -= math.log1p(-(2.0 ** (i - r)))
    return math.exp(log_p)


def rank_test(b: np.ndarray) -> tuple:
    n = b.size
    _require_length(n, 38 * 1024, "Rank")
    n_mat = n // 1024
    mats = b[: n_mat * 1024].reshape(n_mat, 32, 32)
    packed = np.packbits(mats, axis=2, bitorder="little")
    rows = np.ascontiguousarray(packed).view("<u4").reshape(n_mat, 32)
    ranks = gf2_rank_batch(rows)
    p_full = full_rank_probability(32, 32, 32)
    p_minus1 = full_rank_probability(32, 32, 31)
    pi = np.array([p_full, p_minus1, 1.0 - p_full - p_minus1])
    nu = np.bincount(np.minimum(32 - ranks, 2), minlength=3)  # ranks 32, 31, <= 30
    chi2, p = _chi2_p(nu, pi, n_mat)
    return (p,), {"N": n_mat, "chi2": chi2}


# ---------------------------------------------------------------------------
# 6. Discrete Fourier Transform (spectral)
# ---------------------------------------------------------------------------

def fft_test(b: np.ndarray) -> tuple:
    """DFT at length n, as SP 800-22 defines the statistic; padding would
    change it.  The cost follows n's factors: ``np.fft.rfft`` takes 0.36 s
    at 1,200,003 = 3 * 7 * 57,143 samples against 0.032 s at 1,200,000."""
    n = b.size
    _require_length(n, 1000, "FFT")
    x = 2.0 * b.astype(np.float64) - 1.0
    moduli = np.abs(np.fft.rfft(x))[: n // 2]
    t_threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(moduli < t_threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = math.erfc(abs(d) / math.sqrt(2.0))
    return (p,), {"N0": n0, "N1": n1, "T": t_threshold, "d": d}


# ---------------------------------------------------------------------------
# 7. Non-overlapping Template Matching
# ---------------------------------------------------------------------------

@cache
def aperiodic_templates(m: int) -> tuple:
    """All length-m binary templates with no self-overlap (unbordered), in
    ascending order of value; built once per m."""
    out = []
    for value in range(2**m):
        tpl = [(value >> (m - 1 - i)) & 1 for i in range(m)]
        if all(tpl[: m - s] != tpl[s:] for s in range(1, m)):
            out.append(tuple(tpl))
    return tuple(out)


def non_overlapping_template_test(b: np.ndarray, m: int = 9, n_blocks: int = 8) -> tuple:
    """One p-value per aperiodic template of length m.

    W_j counts the occurrences of a template in block j, where the scan
    skips m bits after each match.  Every template here is unbordered: no
    proper prefix equals a proper suffix.  Two occurrences closer than m
    bits would overlap, and the overlap would be such a prefix-suffix pair,
    so no occurrence is ever skipped and W_j is simply the number of
    in-block windows equal to the template.  :func:`_window_counts` of each
    block therefore gives W for every template at once.
    """
    n = b.size
    _require_length(n, n_blocks * (2**m + m - 1), "Non Overlapping Template Matching")
    block_m = n // n_blocks
    blocks = b[: n_blocks * block_m].reshape(n_blocks, block_m)
    counts = np.array([_window_counts(block, m) for block in blocks])

    mu = (block_m - m + 1) / 2.0**m
    sigma2 = block_m * (2.0**-m - (2.0 * m - 1.0) * 2.0 ** (-2.0 * m))
    template_values = np.array(aperiodic_templates(m)) @ (1 << np.arange(m - 1, -1, -1))
    # cumsum adds block by block, the order a per-block scan uses, so the
    # p-values do not depend on numpy's pairwise summation.
    chi2 = np.cumsum((counts[:, template_values] - mu) ** 2 / sigma2, axis=0)[-1]
    p_values = tuple(gammaincc(n_blocks / 2.0, chi2 / 2.0))
    return p_values, {"m": m, "N": n_blocks, "M": block_m, "mu": mu, "sigma2": sigma2}


# ---------------------------------------------------------------------------
# 8. Overlapping Template Matching
# ---------------------------------------------------------------------------

@cache
def overlapping_count_probs(block_m: int, m: int, k_max: int) -> np.ndarray:
    """Exact distribution of the overlapping all-ones count in a block.

    Transfer-matrix DP over (trailing-ones run capped at m, count capped at
    k_max); returns P(count = 0), .., P(count >= k_max) as a read-only
    array computed once per (block_m, m, k_max).
    """
    state = np.zeros((m + 1, k_max + 1))
    state[0, 0] = 1.0
    for _ in range(block_m):
        nxt = np.zeros_like(state)
        nxt[0] += 0.5 * state.sum(axis=0)  # next bit is 0
        nxt[1 : m] += 0.5 * state[0 : m - 1]  # extend a short run
        occurred = 0.5 * (state[m - 1] + state[m])  # run reaches/stays at m
        nxt[m, 1:] += occurred[:-1]
        nxt[m, k_max] += occurred[k_max]
        state = nxt
    return read_only(state.sum(axis=0))


def overlapping_template_test(b: np.ndarray, m: int = 9, block_m: int = 1032) -> tuple:
    n = b.size
    _require_length(n, block_m, "Overlapping Template Matching")
    k_max = 5
    n_blocks = n // block_m
    blocks = b[: n_blocks * block_m].reshape(n_blocks, block_m)
    for runs in _runs_of_ones(blocks, m):
        pass  # the last runs are the all-ones m-bit windows
    counts = np.minimum(np.count_nonzero(runs, axis=1), k_max)
    nu = np.bincount(counts, minlength=k_max + 1)
    chi2, p = _chi2_p(nu, overlapping_count_probs(block_m, m, k_max), n_blocks)
    return (p,), {"m": m, "M": block_m, "N": n_blocks, "chi2": chi2}


# ---------------------------------------------------------------------------
# 9. Maurer's Universal
# ---------------------------------------------------------------------------

_UNIVERSAL_TABLE = {
    6: (5.2177052, 2.954),
    7: (6.1962507, 3.125),
    8: (7.1836656, 3.238),
    9: (8.1764248, 3.311),
    10: (9.1723243, 3.356),
    11: (10.170032, 3.384),
    12: (11.168765, 3.401),
    13: (12.168070, 3.410),
    14: (13.167693, 3.416),
    15: (14.167488, 3.419),
    16: (15.167379, 3.421),
}

_UNIVERSAL_THRESHOLDS = [
    (1_059_061_760, 16),
    (496_435_200, 15),
    (231_669_760, 14),
    (107_560_960, 13),
    (49_643_520, 12),
    (22_753_280, 11),
    (10_342_400, 10),
    (4_654_080, 9),
    (2_068_480, 8),
    (904_960, 7),
    (387_840, 6),
]


def universal_test(b: np.ndarray) -> tuple:
    n = b.size
    _require_length(n, 387_840, "Universal")
    length = next(l for bound, l in _UNIVERSAL_THRESHOLDS if n >= bound)
    q = 10 * 2**length
    k = n // length - q
    blocks = b[: (q + k) * length].reshape(q + k, length)
    # L <= 16, so every block value fits uint16, and a stable argsort of
    # uint16 keys is numpy's radix sort.
    weights = (1 << np.arange(length - 1, -1, -1)).astype(np.uint16)
    vals = blocks @ weights
    # Sorted by value, each value's blocks are in index order, so a block's
    # gap is its index minus the previous one's; the first block of a
    # value has gap index + 1 (the virtual previous block sits at -1).
    order = np.argsort(vals, kind="stable")
    bounds = np.searchsorted(vals[order], np.arange(2**length + 1))
    starts, ends = bounds[:-1], bounds[1:]
    gaps = np.diff(order, prepend=-1)
    first = starts[starts < ends]
    gaps[first] = order[first] + 1
    logs = np.log2(gaps)
    # Each value's first Q blocks only initialise; one sum per value of
    # the rest, added in value order.
    test_starts = starts + np.bincount(vals[:q], minlength=2**length)
    total = 0.0
    for lo, hi in zip(test_starts.tolist(), ends.tolist()):
        total += float(np.sum(logs[lo:hi]))
    fn = total / k
    expected, variance = _UNIVERSAL_TABLE[length]
    c = 0.7 - 0.8 / length + (4.0 + 32.0 / length) * k ** (-3.0 / length) / 15.0
    sigma = c * math.sqrt(variance / k)
    p = math.erfc(abs(fn - expected) / (math.sqrt(2.0) * sigma))
    return (p,), {"L": length, "Q": q, "K": k, "fn": fn}


# ---------------------------------------------------------------------------
# 10. Linear Complexity
# ---------------------------------------------------------------------------

def linear_complexity_batch(blocks: np.ndarray) -> np.ndarray:
    """Berlekamp-Massey linear complexity of many equal-length blocks.

    Bitsliced (:func:`diqrng.extract.bitslice`): row j of the connection
    polynomial C and of the pre-shifted correction polynomial
    B' = x^(n - m) B holds coefficient j of 64 blocks per uint64 word, so
    each step is a few word-row operations shared by all blocks.

    - B' only ever moves up one degree per step, in every block at once, so
      it is a window into a buffer whose start moves down one row per step.
    - The discrepancy is one XOR-reduce of C against the reversed sequence,
      whose rows at offset M - 1 - n hold s_n, s_(n-1), ... .
    - The update is C ^= B' & d; blocks with d = 1 and 2L <= n are promoted
      (B' <- the old C, L <- n + 1 - L).
    - deg C <= L and deg B' <= n + 1 - L, so only the first
      max(max L, n + 1 - min L) + 1 rows can be nonzero.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    n_blocks, m_len = blocks.shape
    rows = bitslice(blocks)
    n_words = rows.shape[1]
    # s_(n-j) for j = 0 .. n, then zeros: row j of seq[m_len - 1 - n:].
    seq = np.zeros((m_len + 2, n_words), dtype=np.uint64)
    seq[:m_len] = rows[::-1]
    c_poly = np.zeros((m_len + 2, n_words), dtype=np.uint64)
    c_poly[0] = ~np.uint64(0)
    # Row j of B' is b_buf[offset + j]; B = 1 at m = -1.
    b_buf = np.zeros((m_len + 2, n_words), dtype=np.uint64)
    offset = m_len + 1
    b_buf[offset] = ~np.uint64(0)
    lengths = np.zeros(n_blocks, dtype=np.int64)
    mask_bytes = np.zeros(n_words * 8, dtype=np.uint8)
    promote = mask_bytes.view(np.uint64)
    lo = hi = 0  # min and max of lengths
    for n in range(m_len):
        offset -= 1
        r = max(hi, n + 1 - lo) + 1
        c_rows = c_poly[:r]
        b_rows = b_buf[offset : offset + r]
        d = np.bitwise_xor.reduce(c_rows & seq[m_len - 1 - n : m_len - 1 - n + r], axis=0)
        mask_bytes[: (n_blocks + 7) // 8] = np.packbits(2 * lengths <= n, bitorder="little")
        promote &= d
        swap = (c_rows ^ b_rows) & promote
        c_rows ^= b_rows & d
        b_rows ^= swap
        promoted = np.unpackbits(mask_bytes, count=n_blocks, bitorder="little").astype(bool)
        if promoted.any():
            lengths[promoted] = n + 1 - lengths[promoted]
            lo, hi = int(lengths.min()), int(lengths.max())
    return lengths


_LINEAR_COMPLEXITY_PI = np.array(
    [0.010417, 0.03125, 0.125, 0.5, 0.25, 0.0625, 0.020833]
)


def linear_complexity_test(b: np.ndarray, block_m: int = 500) -> tuple:
    n = b.size
    _require_length(n, block_m, "Linear Complexity")
    n_blocks = n // block_m
    blocks = b[: n_blocks * block_m].reshape(n_blocks, block_m)
    complexities = linear_complexity_batch(blocks)
    mu = (
        block_m / 2.0
        + (9.0 + (-1.0) ** (block_m + 1)) / 36.0
        - (block_m / 3.0 + 2.0 / 9.0) / 2.0**block_m
    )
    t_stat = ((-1.0) ** block_m) * (complexities - mu) + 2.0 / 9.0
    edges = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    nu = np.bincount(np.searchsorted(edges, t_stat, side="left"), minlength=7)
    chi2, p = _chi2_p(nu, _LINEAR_COMPLEXITY_PI, n_blocks)
    mean_l = float(complexities.mean())
    return (p,), {"M": block_m, "N": n_blocks, "chi2": chi2, "mean_L": mean_l}


# ---------------------------------------------------------------------------
# 11. Serial
# ---------------------------------------------------------------------------

def _window_counts(b: np.ndarray, m: int) -> np.ndarray:
    """Counts of the b.size - m + 1 overlapping m-bit windows of b, indexed
    by value (MSB first).  A caller that wants cyclic windows appends the
    first m - 1 bits itself.

    b is packed MSB first, and word q is the big-endian uint64 of the 8
    bytes from byte q, so it holds bits 8q .. 8q + 63.  The window at bit
    8q + r is then (word_q >> (64 - m - r)) & (2^m - 1), for m <= 57; the
    2^m <= n rule of the tests that call this keeps m far below that.
    Eight shifts and bincounts over n / 8 words count all n windows.
    """
    n = b.size - m + 1  # windows
    n_words = (n + 7) // 8
    packed = np.zeros(n_words + 7, dtype=np.uint8)
    ext = np.packbits(b)
    packed[: ext.size] = ext
    words = np.ndarray(n_words, ">u8", packed, strides=(1,)).astype(np.uint64)
    counts = np.zeros(2**m, dtype=np.int64)
    mask = np.uint64(2**m - 1)
    for r in range(8):
        # Windows start at bits r, 8 + r, ..., below n.
        values = words[: (n - r + 7) // 8] >> np.uint64(64 - m - r)
        values &= mask
        counts += np.bincount(values.view(np.int64), minlength=2**m)
    return counts


def _prefix_counts(counts: np.ndarray) -> np.ndarray:
    """(m-1)-bit window counts from the m-bit ones.

    Windows are read MSB first, so the (m-1)-bit window at a position is
    the m-bit one shifted right by one, and values 2u and 2u + 1 both
    count towards u.  The integer counts equal a direct (m-1)-bit count.
    """
    return counts.reshape(-1, 2).sum(axis=1)


def _psi_squared(counts: np.ndarray, m: int, n: int) -> float:
    if m == 0:
        return 0.0
    return float(2.0**m / n * np.sum(counts.astype(np.float64) ** 2) - n)


def serial_test(b: np.ndarray, m: int = 16) -> tuple:
    """psi^2 of the n cyclic m-, (m - 1)- and (m - 2)-bit windows.

    The windows wrap, so the stream is counted with its first m - 1 bits
    appended (SP 800-22 Rev 1a, section 2.11.4); the shorter counts follow
    from the m-bit ones (:func:`_prefix_counts`).
    """
    n = b.size
    if m < 2:
        raise ValueError("Serial needs m >= 2")
    _require_length(n, 2**m, "Serial")
    counts_m = _window_counts(np.concatenate([b, b[: m - 1]]), m)
    counts_m1 = _prefix_counts(counts_m)
    psi_m = _psi_squared(counts_m, m, n)
    psi_m1 = _psi_squared(counts_m1, m - 1, n)
    psi_m2 = _psi_squared(_prefix_counts(counts_m1), m - 2, n)
    delta1 = psi_m - psi_m1
    delta2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = gammaincc(2.0 ** (m - 2), delta1 / 2.0)
    p2 = gammaincc(2.0 ** (m - 3), delta2 / 2.0)
    return (p1, p2), {"m": m, "del1": delta1, "del2": delta2}


# ---------------------------------------------------------------------------
# 12. Approximate Entropy
# ---------------------------------------------------------------------------

def _phi(counts: np.ndarray, m: int, n: int) -> float:
    if m == 0:
        return 0.0
    nz = counts[counts > 0].astype(np.float64)
    return float(np.sum(nz / n * np.log(nz / n)))


def approximate_entropy_test(b: np.ndarray, m: int = 10) -> tuple:
    """phi of the n cyclic m- and (m + 1)-bit windows.

    The windows wrap, so the stream is counted with its first m bits
    appended (SP 800-22 Rev 1a, section 2.12.4); the m-bit counts follow
    from the (m + 1)-bit ones (:func:`_prefix_counts`).
    """
    n = b.size
    _require_length(n, 2**m, "Approximate Entropy")
    counts_m1 = _window_counts(np.concatenate([b, b[:m]]), m + 1)
    ap_en = _phi(_prefix_counts(counts_m1), m, n) - _phi(counts_m1, m + 1, n)
    chi2 = 2.0 * n * (math.log(2.0) - ap_en)
    p = gammaincc(2.0 ** (m - 1), chi2 / 2.0)
    return (p,), {"m": m, "ApEn": ap_en, "chi2": chi2}


# ---------------------------------------------------------------------------
# 13. Cumulative Sums
# ---------------------------------------------------------------------------

def _random_walk(b: np.ndarray) -> np.ndarray:
    """The walk 0, S_1, .., S_n, 0 of a 0/1 stream, S_k being the sum of the
    first k steps (+1 per one, -1 per zero): int32, or int64 at n >= 2^31."""
    n = b.size
    walk = np.zeros(n + 2, dtype=np.int32 if n < 2**31 else np.int64)
    steps = walk[1:-1]
    steps[:] = b
    steps <<= 1
    steps -= 1
    np.cumsum(steps, out=steps)
    return walk


def _cusum_p(n: int, z: float) -> float:
    # Summation bounds follow the reference convention exactly (integer
    # truncation toward zero); the boundary terms matter for small n.  Each
    # sum takes one ndtr call over its k and adds its terms in k order in
    # Python floats, as a scalar loop over k would.
    if z <= 0.0:
        return 1.0
    sqrt_n = math.sqrt(n)
    ratio = n / z
    total = 1.0
    k_hi = int((ratio - 1.0) / 4.0)
    k = np.arange(int((-ratio + 1.0) / 4.0), k_hi + 1, dtype=np.float64)
    cdf = ndtr(np.array([4.0 * k + 1.0, 4.0 * k - 1.0]) * z / sqrt_n)
    for term in (cdf[0] - cdf[1]).tolist():
        total -= term
    k = np.arange(int((-ratio - 3.0) / 4.0), k_hi + 1, dtype=np.float64)
    cdf = ndtr(np.array([4.0 * k + 3.0, 4.0 * k + 1.0]) * z / sqrt_n)
    for term in (cdf[0] - cdf[1]).tolist():
        total += term
    return min(max(total, 0.0), 1.0)


def cumulative_sums_test(b: np.ndarray) -> tuple:
    """Forward and backward p-values from one walk.

    With S_0 = 0 and S_k the sum of the first k steps (+1 per one, -1 per
    zero), the forward partial sums are S_1 .. S_n and the backward ones
    are S_n - S_k for k = 0 .. n - 1.  So the forward z is max |S_k| and,
    |S_n - t| being convex in t, the backward z is the larger of
    |S_n - min_k S_k| and |S_n - max_k S_k| over k = 0 .. n.
    """
    n = b.size
    _require_length(n, 100, "Cumulative Sums")
    walk = _random_walk(b)
    lo, hi, s_n = int(walk.min()), int(walk.max()), int(walk[-2])
    z_forward = float(max(hi, -lo))
    z_backward = float(max(abs(s_n - lo), abs(s_n - hi)))
    return (_cusum_p(n, z_forward), _cusum_p(n, z_backward)), {"n": n}


# ---------------------------------------------------------------------------
# 14/15. Random Excursions and Variant
# ---------------------------------------------------------------------------

def _cycles(walk: np.ndarray, n_zeros: int) -> int:
    """Number of cycles J of a :func:`_random_walk` with ``n_zeros`` zeros:
    each zero after the first closes one, and the appended 0 closes one only
    when S_n is not already 0."""
    return n_zeros - 1 - int(walk[-2] == 0)


def _excursion_state_pi(x: int) -> np.ndarray:
    a = 1.0 / (2.0 * abs(x))
    b = 1.0 - a
    pi = [b]
    for k in range(1, 5):
        pi.append(a * a * b ** (k - 1))
    pi.append(a * b**4)
    return np.array(pi)


def random_excursions_test(b: np.ndarray) -> tuple:
    _require_length(b.size, 100, "Random Excursions")
    walk = _random_walk(b)
    near = np.flatnonzero(np.abs(walk) <= 4)
    values = walk[near]
    is_zero = values == 0
    zero_pos = near[is_zero]
    j_cycles = _cycles(walk, zero_pos.size)
    if j_cycles < 500:
        raise NotApplicable(f"only {j_cycles} cycles (< 500)", {"J": j_cycles})
    states = [-4, -3, -2, -1, 1, 2, 3, 4]
    hits, values = near[~is_zero], values[~is_zero].astype(np.int64)
    cycle_of_hit = np.searchsorted(zero_pos, hits, side="right") - 1
    # Row i of per_cycle counts the visits to states[i] in each cycle.
    state_row = values + 4 - (values > 0)
    per_cycle = np.bincount(state_row * j_cycles + cycle_of_hit, minlength=8 * j_cycles)
    per_cycle = np.minimum(per_cycle.reshape(8, j_cycles), 5)
    per_cycle += 6 * np.arange(8)[:, np.newaxis]
    nu_rows = np.bincount(per_cycle.ravel(), minlength=48).reshape(8, 6)
    p_values = tuple(
        _chi2_p(nu, _excursion_state_pi(x), j_cycles)[1] for x, nu in zip(states, nu_rows)
    )
    return p_values, {"J": j_cycles, "states": states}


def random_excursions_variant_test(b: np.ndarray) -> tuple:
    _require_length(b.size, 100, "Random Excursions Variant")
    walk = _random_walk(b)
    near = walk[np.abs(walk) <= 9].astype(np.int64)
    visits = np.bincount(near + 9, minlength=19)
    j_cycles = _cycles(walk, int(visits[9]))
    if j_cycles < 500:
        raise NotApplicable(f"only {j_cycles} cycles (< 500)", {"J": j_cycles})
    states = [x for x in range(-9, 10) if x != 0]
    p_values = []
    for x in states:
        xi = int(visits[x + 9])
        p_values.append(
            math.erfc(abs(xi - j_cycles) / math.sqrt(2.0 * j_cycles * (4.0 * abs(x) - 2.0)))
        )
    return tuple(p_values), {"J": j_cycles, "states": states}
