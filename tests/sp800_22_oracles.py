"""Slow reference implementations that the SP 800-22 tests check against.

These are plain, loop-by-loop versions of what `diqrng.statsuite` computes
in vectorized or closed form, plus the KS uniformity check that the
multi-seed tests apply to pooled p-values.  They live with the tests because
nothing in the package needs them.
"""

import numpy as np
from scipy.special import gammaincc

from diqrng.statsuite import aperiodic_templates
from diqrng.statsuite.suite import _ks_p


def ks_uniformity(p_values) -> float:
    """Kolmogorov-Smirnov uniformity p-value over a set of p-values."""
    values = [float(p) for p in p_values]
    if len(values) < 5:
        raise ValueError("ks_uniformity needs at least 5 p-values")
    if any(not 0.0 <= p <= 1.0 for p in values):
        raise ValueError("p-values must lie in [0, 1]")
    return _ks_p(values)


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
