"""Slow reference implementations that the SP 800-22 tests check against.

These are plain, loop-by-loop versions of what `diqrng.statsuite` computes
in vectorized or closed form, plus the KS uniformity check that the
multi-seed tests apply to pooled p-values.  They live with the tests because
nothing in the package needs them.
"""

import math
from itertools import groupby

import numpy as np
from scipy.special import gammaincc, ndtr
from scipy.stats import kstest

from diqrng.statsuite.sp800_22 import _UNIVERSAL_THRESHOLDS, aperiodic_templates


def ks_uniformity(p_values) -> float:
    """Kolmogorov-Smirnov uniformity p-value over a set of p-values."""
    values = [float(p) for p in p_values]
    if len(values) < 5:
        raise ValueError("ks_uniformity needs at least 5 p-values")
    if any(not 0.0 <= p <= 1.0 for p in values):
        raise ValueError("p-values must lie in [0, 1]")
    return float(kstest(values, "uniform", method="asymp").pvalue)


def berlekamp_massey(bits) -> int:
    """Linear complexity of one bit sequence, textbook Berlekamp-Massey."""
    s = [int(x) & 1 for x in np.asarray(bits).ravel()]
    n = len(s)
    c = [0] * n
    b = [0] * n
    if n == 0:
        return 0
    c[0] = b[0] = 1
    length = 0
    m = -1
    for i in range(n):
        d = s[i]
        for j in range(1, length + 1):
            d ^= c[j] & s[i - j]
        if d:
            t = c.copy()
            shift = i - m
            for j in range(n - shift):
                c[j + shift] ^= b[j]
            if 2 * length <= i:
                length = i + 1 - length
                b = t
                m = i
    return length


def gf2_rank_reference(matrix: np.ndarray) -> int:
    """Plain row-reduction rank of one 0/1 matrix over GF(2)."""
    m = matrix.astype(np.uint8).copy()
    n_rows, n_cols = m.shape
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(n_rows):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def no_run_probability_weighted_sum(n: int, run: int) -> float:
    """P(no run of `run` ones in n fair bits) from q_k = sum_i q_{k-i} / 2^i,
    i = 1..run: the first 0 of a run-free string sits at position i."""
    if run <= 0:
        return 0.0
    q = [1.0] * min(run, n + 1)
    if n < run:
        return 1.0
    weights = [2.0 ** -(i + 1) for i in range(run)]
    history = list(q)
    for _ in range(run, n + 1):
        value = sum(w * history[-1 - i] for i, w in enumerate(weights))
        history.append(value)
        if len(history) > run + 1:
            history.pop(0)
    return history[-1]


def longest_run_of_ones(bits, block_m: int) -> list:
    """Longest run of ones in each whole block of block_m bits, one
    itertools.groupby scan per block."""
    b = np.asarray(bits, dtype=np.uint8)
    n_blocks = b.size // block_m
    return [
        max((len(list(run)) for bit, run in groupby(block) if bit), default=0)
        for block in b[: n_blocks * block_m].reshape(n_blocks, block_m).tolist()
    ]


def overlapping_ones_count(bits, block_m: int, m: int) -> list:
    """Overlapping all-ones m-bit windows in each whole block of block_m
    bits, by a scan that restarts one bit past each match."""
    b = np.asarray(bits, dtype=np.uint8)
    n_blocks = b.size // block_m
    ones = b"\x01" * m
    counts = []
    for block in b[: n_blocks * block_m].reshape(n_blocks, block_m):
        text = block.tobytes()
        count, at = 0, text.find(ones)
        while at >= 0:
            count, at = count + 1, text.find(ones, at + 1)
        counts.append(count)
    return counts


def universal_fn(bits) -> float:
    """Maurer's f_n by a loop over the block values: each value's 1-based
    block indices, in order, give its gaps (the first from a virtual block
    0), and the log2 of the gaps of the test blocks is summed per value."""
    b = np.asarray(bits, dtype=np.uint8)
    n = b.size
    length = next(l for bound, l in _UNIVERSAL_THRESHOLDS if n >= bound)
    q = 10 * 2**length
    k = n // length - q
    blocks = b[: (q + k) * length].reshape(q + k, length)
    weights = (1 << np.arange(length - 1, -1, -1)).astype(np.uint16)
    vals = blocks @ weights
    total = 0.0
    order = np.argsort(vals, kind="stable")
    sorted_vals = vals[order]
    boundaries = np.searchsorted(sorted_vals, np.arange(2**length + 1))
    for value in range(2**length):
        pos = order[boundaries[value] : boundaries[value + 1]]
        if pos.size == 0:
            continue
        pos1 = pos + 1  # 1-based block indices, virtual previous at 0
        gaps = np.diff(np.concatenate([[0], pos1]))
        in_test = pos1 > q
        if np.any(in_test):
            total += float(np.sum(np.log2(gaps[in_test])))
    return total / k


def _greedy_nonoverlap_count(positions: np.ndarray, m: int) -> int:
    """Matches found by a scan that jumps m bits past every match."""
    count = 0
    cursor = -m
    for pos in positions:
        if pos >= cursor + m:
            count += 1
            cursor = int(pos)
    return count


def non_overlapping_template_p_values(bits, m: int = 9, n_blocks: int = 8) -> tuple:
    """Non Overlapping Template p-values by sorting the window values,
    locating each template's positions, and scanning each block greedily."""
    b = np.asarray(bits, dtype=np.uint8)
    block_m = b.size // n_blocks
    used = n_blocks * block_m
    weights = 1 << np.arange(m - 1, -1, -1)
    v = np.lib.stride_tricks.sliding_window_view(b[:used], m) @ weights
    k_pos = np.arange(used - m + 1)
    valid = (k_pos % block_m) <= (block_m - m)
    positions = k_pos[valid]
    values = v[valid]
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    sorted_pos = positions[order]

    mu = (block_m - m + 1) / 2.0**m
    sigma2 = block_m * (2.0**-m - (2.0 * m - 1.0) * 2.0 ** (-2.0 * m))
    block_edges = np.arange(n_blocks + 1) * block_m
    p_values = []
    for tpl in aperiodic_templates(m):
        t_val = sum(bit << (m - 1 - i) for i, bit in enumerate(tpl))
        lo = np.searchsorted(sorted_vals, t_val, side="left")
        hi = np.searchsorted(sorted_vals, t_val, side="right")
        pos = sorted_pos[lo:hi]  # ascending within equal values (stable sort)
        cuts = np.searchsorted(pos, block_edges)
        chi2 = 0.0
        for blk in range(n_blocks):
            w = _greedy_nonoverlap_count(pos[cuts[blk] : cuts[blk + 1]], m)
            chi2 += (w - mu) ** 2 / sigma2
        p_values.append(float(gammaincc(n_blocks / 2.0, chi2 / 2.0)))
    return tuple(p_values)


def window_counts(bits, m: int) -> np.ndarray:
    """Counts of the n - m + 1 overlapping m-bit windows (MSB first), by
    value, one shift-or per window bit."""
    b = np.asarray(bits, dtype=np.uint8)
    n_out = b.size - m + 1
    v = np.zeros(n_out, dtype=np.uint32 if m <= 32 else np.uint64)
    for i in range(m):
        v = (v << 1) | b[i : i + n_out]
    return np.bincount(v, minlength=2**m)


def cyclic_window_counts(bits, m: int) -> np.ndarray:
    """Counts of the n cyclic m-bit windows (MSB first), by value: the
    stream with its first m - 1 bits appended."""
    b = np.asarray(bits, dtype=np.uint8)
    return window_counts(np.concatenate([b, b[: m - 1]]), m)


def cusum_p_scalar(n: int, z: float) -> float:
    """Cumulative Sums p-value, one scalar ndtr call per term."""
    if z <= 0.0:
        return 1.0
    sqrt_n = math.sqrt(n)
    ratio = n / z
    total = 1.0
    k_hi = int((ratio - 1.0) / 4.0)
    for k in range(int((-ratio + 1.0) / 4.0), k_hi + 1):
        total -= ndtr((4.0 * k + 1.0) * z / sqrt_n) - ndtr((4.0 * k - 1.0) * z / sqrt_n)
    for k in range(int((-ratio - 3.0) / 4.0), k_hi + 1):
        total += ndtr((4.0 * k + 3.0) * z / sqrt_n) - ndtr((4.0 * k + 1.0) * z / sqrt_n)
    return min(max(total, 0.0), 1.0)


def cumulative_sums_p_values(bits) -> tuple:
    """Forward and backward p-values, each from its own int64 cumsum."""
    x = 2 * np.asarray(bits, dtype=np.int64) - 1
    n = x.size
    return tuple(
        cusum_p_scalar(n, float(np.max(np.abs(np.cumsum(series))))) for series in (x, x[::-1])
    )


def random_walk_cycles(bits):
    """The walk [0, S_1 .. S_n] with a closing 0 appended unless S_n = 0,
    its zero positions, and the number of cycles J."""
    s = np.cumsum(2 * np.asarray(bits, dtype=np.int64) - 1)
    walk = np.concatenate([[0], s, [0]] if s[-1] != 0 else [[0], s])
    zero_pos = np.flatnonzero(walk == 0)
    return walk, zero_pos, int(zero_pos.size - 1)


def _excursion_state_pi(x: int) -> np.ndarray:
    a = 1.0 / (2.0 * abs(x))
    b = 1.0 - a
    return np.array([b] + [a * a * b ** (k - 1) for k in range(1, 5)] + [a * b**4])


def random_excursions_p_values(bits) -> tuple:
    """(p-values, J): one scan of the walk and one cycle bincount per state."""
    walk, zero_pos, j_cycles = random_walk_cycles(bits)
    p_values = []
    for x in (-4, -3, -2, -1, 1, 2, 3, 4):
        hits = np.flatnonzero(walk == x)
        cycle_of_hit = np.searchsorted(zero_pos, hits, side="right") - 1
        per_cycle = np.bincount(cycle_of_hit, minlength=j_cycles)
        nu = np.bincount(np.minimum(per_cycle, 5), minlength=6)
        expected = j_cycles * _excursion_state_pi(x)
        chi2 = float(np.sum((nu - expected) ** 2 / expected))
        p_values.append(gammaincc(2.5, chi2 / 2.0))
    return tuple(p_values), j_cycles


def random_excursions_variant_p_values(bits) -> tuple:
    """(p-values, J): one count of the walk's visits per state."""
    walk, _, j_cycles = random_walk_cycles(bits)
    p_values = []
    for x in (x for x in range(-9, 10) if x != 0):
        xi = int(np.count_nonzero(walk == x))
        p_values.append(
            math.erfc(abs(xi - j_cycles) / math.sqrt(2.0 * j_cycles * (4.0 * abs(x) - 2.0)))
        )
    return tuple(p_values), j_cycles
