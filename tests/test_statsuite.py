import csv
import json
import math
import threading

import numpy as np
import pytest

from diqrng.statsuite import (
    NotApplicable,
    TEST_NAMES,
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    fft_test,
    frequency_test,
    linear_complexity_test,
    longest_runs_test,
    non_overlapping_template_test,
    overlapping_template_test,
    run_named_test,
    run_suite,
    runs_test,
    serial_test,
    universal_test,
)
from diqrng.pipeline import REFERENCE_EXPERIMENT, json_text
from diqrng.statsuite import suite
from diqrng.statsuite.sp800_22 import (
    _chi2_p,
    _cusum_p,
    _longest_run_bin_probs,
    _no_run_probability,
    _prefix_counts,
    _window_counts,
    aperiodic_templates,
    full_rank_probability,
    gammaincc,
    gf2_rank_batch,
    linear_complexity_batch,
    ndtr,
    overlapping_count_probs,
    random_excursions_test,
    random_excursions_variant_test,
)
from sp800_22_oracles import (
    berlekamp_massey,
    cumulative_sums_p_values,
    cusum_p_scalar,
    cyclic_window_counts,
    gf2_rank_reference,
    ks_uniformity,
    longest_run_of_ones,
    no_run_probability_weighted_sum,
    non_overlapping_template_p_values,
    overlapping_ones_count,
    random_excursions_p_values,
    random_excursions_variant_p_values,
    universal_fn,
    window_counts,
)


def bits_from_string(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


def cyclic(bits, m):
    """The stream with its first m - 1 bits appended, whose m-bit windows
    are the n cyclic windows of the stream."""
    return np.concatenate([bits, bits[: m - 1]])


def constant_and_alternating_streams(n):
    """All-zero, all-one and alternating streams of n bits."""
    return {
        "zeros": np.zeros(n, dtype=np.uint8),
        "ones": np.ones(n, dtype=np.uint8),
        "alternating": np.resize(np.array([1, 0], dtype=np.uint8), n),
    }


def oracle_streams(n):
    """A random stream of n bits and the constant and alternating ones."""
    random = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
    return {"random": random, **constant_and_alternating_streams(n)}


# Stream lengths at each edge of the Longest Runs regimes, with the
# (M, lo, hi) each selects; 127 is too short, 1,200,003 is no whole byte.
LONGEST_RUN_REGIMES = [
    (127, None),
    (128, (8, 1, 4)),
    (6_271, (8, 1, 4)),
    (6_272, (128, 4, 9)),
    (749_999, (128, 4, 9)),
    (750_000, (10_000, 10, 16)),
    (1_200_000, (10_000, 10, 16)),
    (1_200_003, (10_000, 10, 16)),
]


def balanced_stream(n, seed):
    """A random stream with as many ones as zeros (n even): its walk ends at 0."""
    return np.random.default_rng(seed).permutation(np.resize(np.array([0, 1], dtype=np.uint8), n))


def unbalanced_stream(n, seed):
    """A balanced stream with its last bit flipped: its walk ends at -2 or 2."""
    bits = balanced_stream(n, seed)
    bits[-1] ^= 1
    return bits


class TestSpecialFunctions:
    def test_igamc_reference_values(self):
        # Known values: Q(1/2, x) = erfc(sqrt(x)); Q(1, x) = exp(-x).
        for x in (0.1, 1.0, 4.0, 25.0):
            assert gammaincc(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-12)
            assert gammaincc(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_normal_cdf(self):
        assert ndtr(0.0) == pytest.approx(0.5)
        assert ndtr(1.959963985) == pytest.approx(0.975, abs=1e-6)


class TestFrequency:
    def test_reference_vector(self):
        # s_obs = 2/sqrt(10); p = erfc(s_obs / sqrt 2) = 0.5271 to 4 decimals.
        result = run_named_test("Frequency", bits_from_string("1011010101"), min_n=10)
        assert result.p_value == pytest.approx(0.5271, abs=5e-5)
        oracle = math.erfc((2.0 / math.sqrt(10)) / math.sqrt(2))
        assert result.p_value == pytest.approx(oracle, abs=1e-12)

    def test_alternating_is_perfectly_balanced(self):
        bits = np.tile([1, 0], 500_000)
        assert run_named_test("Frequency", bits).p_value == pytest.approx(1.0)

    def test_all_ones_fails(self):
        result = run_named_test("Frequency", np.ones(1_000_000, dtype=np.uint8))
        assert result.p_value < 1e-10
        assert not result.passed

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError, match="100"):
            frequency_test(np.ones(50, dtype=np.uint8))
        # Judged, a stream that is too short is not applicable and passes.
        result = run_named_test("Frequency", np.ones(50, dtype=np.uint8))
        assert not result.applicable and result.passed
        assert result.note == "not applicable: Frequency requires at least 100 bits, got 50"


class TestRuns:
    def test_reference_vector(self):
        # pi = 0.6, V_obs = 7 -> p = 0.1472 to 4 decimals.
        result = run_named_test("Runs", bits_from_string("1001101011"), min_n=10)
        assert result.p_value == pytest.approx(0.1472, abs=5e-5)
        oracle = math.erfc(abs(7 - 2 * 10 * 0.6 * 0.4) / (2 * math.sqrt(20) * 0.6 * 0.4))
        assert result.p_value == pytest.approx(oracle, abs=1e-12)

    def test_alternating_has_maximal_runs(self):
        result = run_named_test("Runs", np.tile([1, 0], 5000))
        assert result.p_value < 1e-10

    def test_pretest_failure_marks_not_applicable(self):
        with pytest.raises(NotApplicable, match="frequency pre-test failed") as raised:
            runs_test(np.ones(1000, dtype=np.uint8))
        assert raised.value.fails
        result = run_named_test("Runs", np.ones(1000, dtype=np.uint8))
        assert not result.applicable
        assert result.p_value == 0.0
        assert not result.passed

    def test_random_streams_pass(self):
        ok = 0
        for seed in range(50):
            bits = np.random.default_rng(seed).integers(0, 2, 100_000, dtype=np.uint8)
            ok += run_named_test("Runs", bits).passed
        assert ok >= 48


class TestLongestRuns:
    def test_no_run_probability_matches_enumeration(self):
        # Exhaustive oracle over all 2^12 strings.
        for run in (2, 3, 4):
            n = 12
            good = sum(
                1
                for v in range(2**n)
                if "1" * run not in format(v, f"0{n}b")
            )
            assert _no_run_probability(n, run) == pytest.approx(good / 2**n, abs=1e-12)

    @pytest.mark.parametrize(
        "block_m, runs", [(8, range(2, 5)), (128, range(5, 10)), (10_000, range(11, 17))]
    )
    def test_no_run_probability_matches_weighted_sum_recurrence(self, block_m, runs):
        for run in runs:
            assert _no_run_probability(block_m, run) == pytest.approx(
                no_run_probability_weighted_sum(block_m, run), rel=0, abs=1e-13
            )

    def test_reference_bin_probabilities_m8(self):
        # The tabulated M=8 class probabilities are exact dyadic numbers.
        pi = _longest_run_bin_probs(8, 1, 4)
        assert np.allclose(pi, [0.21484375, 0.3671875, 0.23046875, 0.1875], atol=1e-12)

    def test_reference_bin_probabilities_m128(self):
        pi = _longest_run_bin_probs(128, 4, 9)
        tabulated = [0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124]
        assert np.allclose(pi, tabulated, atol=5e-4)

    @pytest.mark.parametrize("n, regime", LONGEST_RUN_REGIMES)
    def test_per_block_longest_run_matches_groupby_oracle(self, n, regime):
        for name, bits in oracle_streams(n).items():
            if regime is None:
                with pytest.raises(NotApplicable):
                    longest_runs_test(bits)
                continue
            block_m, lo, hi = regime
            longest = longest_run_of_ones(bits, block_m)
            nu = np.bincount(np.clip(longest, lo, hi) - lo, minlength=hi - lo + 1)
            chi2, p = _chi2_p(nu, _longest_run_bin_probs(block_m, lo, hi), len(longest))
            p_values, params = longest_runs_test(bits)
            assert (params["M"], params["classes"]) == (block_m, f"{lo}..{hi}"), name
            assert p_values == (p,) and params["chi2"] == chi2, name

    def test_detects_long_run_excess(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 200_000, dtype=np.uint8)
        for k in range(28):  # plant a 28-long run of ones every 1001 bits
            bits[k::1001] = 1
        result = run_named_test("Longest Runs", bits)
        assert result.p_value < 0.01


class TestRank:
    @pytest.mark.parametrize(
        "kind", ["random", "repeated rows", "zero columns", "xor-dependent rows"]
    )
    def test_batch_matches_reference(self, kind):
        # Each deficient matrix loses 1 to 30 dimensions: rows copied over
        # others, columns zeroed, or rows replaced by the XOR of two rows
        # outside the replaced set.
        rng = np.random.default_rng(4)
        mats = rng.integers(0, 2, (60, 32, 32), dtype=np.uint8)
        for mat in mats if kind != "random" else ():
            k = int(rng.integers(1, 31))
            perm = rng.permutation(32)
            if kind == "repeated rows":
                k = min(k, 16)
                mat[perm[:k]] = mat[perm[k : 2 * k]]
            elif kind == "zero columns":
                mat[:, perm[:k]] = 0
            else:
                for r in perm[:k]:
                    a, c = rng.choice(perm[k:], 2, replace=False)
                    mat[r] = mat[a] ^ mat[c]
        packed = np.packbits(mats, axis=2, bitorder="little")
        rows = np.ascontiguousarray(packed).view("<u4").reshape(60, 32)
        batch = gf2_rank_batch(rows)
        ref = np.array([gf2_rank_reference(m) for m in mats])
        assert np.array_equal(batch, ref)
        if kind != "random":
            assert ref.max() < 32

    def test_rank_probability_formula(self):
        # Small-size oracle: enumerate all 2x2 matrices over GF(2).
        counts = {0: 0, 1: 0, 2: 0}
        for v in range(16):
            m = np.array([[v & 1, (v >> 1) & 1], [(v >> 2) & 1, (v >> 3) & 1]])
            counts[gf2_rank_reference(m)] += 1
        for r in (1, 2):
            assert full_rank_probability(2, 2, r) == pytest.approx(
                counts[r] / 16.0, abs=1e-12
            )
        assert full_rank_probability(32, 32, 32) == pytest.approx(0.2888, abs=1e-4)
        assert full_rank_probability(32, 32, 31) == pytest.approx(0.5776, abs=1e-4)

    def test_repeated_full_rank_pattern_fails(self):
        rng = np.random.default_rng(5)
        while True:
            block = rng.integers(0, 2, (32, 32), dtype=np.uint8)
            if gf2_rank_reference(block) == 32:
                break
        bits = np.tile(block.reshape(-1), 50)
        result = run_named_test("Rank", bits)
        assert result.p_value < 1e-6
        assert not result.passed

    def test_random_stream_passes(self):
        bits = np.random.default_rng(6).integers(0, 2, 100_000, dtype=np.uint8)
        assert run_named_test("Rank", bits).passed


class TestFft:
    def test_threshold_count_formula(self):
        n = 64_000
        _, params = fft_test(np.random.default_rng(7).integers(0, 2, n, dtype=np.uint8))
        assert params["N0"] == pytest.approx(0.95 * n / 2.0)
        assert params["T"] == pytest.approx(math.sqrt(math.log(1 / 0.05) * n))

    def test_pure_periodic_stream_fails(self):
        pattern = np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
        result = run_named_test("FFT", np.tile(pattern, 16_000))
        assert result.p_value < 1e-10
        assert not result.passed


class TestTemplates:
    def test_all_148_templates_for_m9(self):
        templates = aperiodic_templates(9)
        assert len(templates) == 148
        # Every template really is unbordered.
        for tpl in templates:
            for s in range(1, 9):
                assert list(tpl[: 9 - s]) != list(tpl[s:])

    def test_counts_for_smaller_m(self):
        # Known counts of unbordered binary words.
        assert len(aperiodic_templates(2)) == 2
        assert len(aperiodic_templates(3)) == 4
        assert len(aperiodic_templates(4)) == 6
        assert len(aperiodic_templates(5)) == 12

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 9])
    def test_p_values_match_sort_and_scan_oracle(self, m):
        # The oracle sorts the window values and scans each block greedily,
        # skipping m bits after a match; the bincount must agree exactly.
        rng = np.random.default_rng(100 + m)
        templates = aperiodic_templates(m)
        for planted in (False, True):
            for _ in range(3):
                n = int(rng.integers(8 * (2**m + m), 8 * (2**m + m) + 40_000))
                bits = rng.integers(0, 2, n, dtype=np.uint8)
                if planted:
                    tpl = templates[int(rng.integers(len(templates)))]
                    start = 0
                    while start + 4 * m <= n:  # runs of back-to-back copies
                        for k in range(int(rng.integers(1, 4))):
                            bits[start + k * m : start + (k + 1) * m] = tpl
                        start += int(rng.integers(4 * m, 12 * m))
                p_values, _ = non_overlapping_template_test(bits, m=m)
                assert p_values == non_overlapping_template_p_values(bits, m=m)
        for name, bits in constant_and_alternating_streams(8 * (2**m + m) + 13).items():
            p_values, _ = non_overlapping_template_test(bits, m=m)
            assert p_values == non_overlapping_template_p_values(bits, m=m), name

    def test_planted_template_fails(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, 80_000, dtype=np.uint8)
        tpl = aperiodic_templates(9)[0]
        for start in range(0, 79_000, 200):
            bits[start : start + 9] = tpl
        result = run_named_test("Non Overlapping Template Matching", bits)
        assert result.p_value < 0.01


class TestOverlapping:
    def test_count_distribution_matches_enumeration(self):
        # Exhaustive oracle at M=12, m=3: overlapping all-ones occurrences.
        m, block = 3, 12
        counter = np.zeros(4)
        for v in range(2**block):
            s = format(v, f"0{block}b")
            occ = sum(1 for i in range(block - m + 1) if s[i : i + m] == "1" * m)
            counter[min(occ, 3)] += 1
        probs = overlapping_count_probs(block, m, 3)
        assert np.allclose(probs, counter / 2**block, atol=1e-12)

    def test_probs_sum_to_one(self):
        probs = overlapping_count_probs(1032, 9, 5)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        # Close to the tabulated asymptotic values for lambda = 2.
        assert probs[0] == pytest.approx(0.364, abs=5e-3)

    @pytest.mark.parametrize("n", [n for n, _ in LONGEST_RUN_REGIMES])
    def test_per_block_count_matches_scan_oracle(self, n):
        # The suite's m = 9, M = 1032, and the enumerated m = 3, M = 12.
        for name, bits in oracle_streams(n).items():
            for m, block_m in ((9, 1032), (3, 12)):
                if n < block_m:
                    with pytest.raises(NotApplicable):
                        overlapping_template_test(bits, m=m, block_m=block_m)
                    continue
                counts = overlapping_ones_count(bits, block_m, m)
                nu = np.bincount(np.minimum(counts, 5), minlength=6)
                chi2, p = _chi2_p(nu, overlapping_count_probs(block_m, m, 5), len(counts))
                p_values, params = overlapping_template_test(bits, m=m, block_m=block_m)
                assert p_values == (p,) and params["chi2"] == chi2, (name, m)

    def test_all_ones_fails(self):
        result = run_named_test(
            "Overlapping Template Matching", np.ones(110_000, dtype=np.uint8)
        )
        assert result.p_value < 1e-10


class TestUniversal:
    @pytest.mark.parametrize("n", (387_840, 400_003, 904_960, 1_200_003))
    def test_fn_matches_per_value_loop(self, n):
        # 387,840 and 904,960 are the first lengths with L = 6 and L = 7.
        # "late" zeroes the first Q blocks and more, so every other value
        # first occurs among the test blocks, with a gap from block 0.
        streams = oracle_streams(n)
        streams["late"] = streams["random"].copy()
        streams["late"][: n // 50] = 0
        for name, bits in streams.items():
            assert universal_test(bits)[1]["fn"] == universal_fn(bits), name


class TestLinearComplexity:
    def test_all_zero_block(self):
        assert linear_complexity_batch(np.zeros((1, 30), dtype=np.uint8))[0] == 0

    def test_impulse_block_has_full_complexity(self):
        m = 40
        seq = np.zeros(m, dtype=np.uint8)
        seq[-1] = 1
        assert linear_complexity_batch(seq[np.newaxis])[0] == m

    def test_lfsr_sequence_complexity(self):
        # x^4 + x + 1 LFSR: complexity 4.
        state = [1, 0, 0, 1]
        seq = []
        for _ in range(40):
            seq.append(state[-1])
            state = [state[0] ^ state[-1]] + state[:-1]
        assert linear_complexity_batch(np.array([seq[::-1]], dtype=np.uint8))[0] <= 4

    def test_exhaustive_minimal_lfsr_agreement_length_10(self):
        # Spot-check of the Berlekamp-Massey oracle that the batch test
        # below relies on; the acceptance suite checks the batch exhaustively.
        rng = np.random.default_rng(10)
        for _ in range(64):
            seq = rng.integers(0, 2, 10, dtype=np.uint8)
            assert berlekamp_massey(seq) == minimal_lfsr_length(tuple(seq))

    def test_batch_agrees_with_reference_on_random_blocks(self):
        rng = np.random.default_rng(11)
        for m_len in (10, 63, 64, 65, 130, 500):
            blocks = rng.integers(0, 2, (40, m_len), dtype=np.uint8)
            batch = linear_complexity_batch(blocks)
            ref = np.array([berlekamp_massey(b) for b in blocks])
            assert np.array_equal(batch, ref), f"M={m_len}"

    @pytest.mark.parametrize(
        "n_blocks, m_len",
        [(n_blocks, m_len) for n_blocks in (1, 63, 64, 65, 130) for m_len in (1, 2, 9, 65, 130)]
        + [(65, 500)],
    )
    def test_bitsliced_batch_matches_reference_at_lane_edges(self, n_blocks, m_len):
        # Random blocks with all-zero (L = 0), all-one (L = 1) and impulse
        # (L = M) blocks among them, so one word holds the extreme lengths
        # that bound the rows each step may touch.
        rng = np.random.default_rng([n_blocks, m_len])
        blocks = rng.integers(0, 2, (n_blocks, m_len), dtype=np.uint8)
        special = rng.permutation(n_blocks)[:3]
        blocks[special[:1]] = 0
        blocks[special[1:2]] = 1
        blocks[special[2:3]] = 0
        blocks[special[2:3], -1] = 1
        batch = linear_complexity_batch(blocks)
        ref = np.array([berlekamp_massey(b) for b in blocks])
        assert batch.shape == (n_blocks,)
        assert np.array_equal(batch, ref)

    def test_periodic_stream_fails(self):
        bits = np.tile(np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8), 65_000)
        result = run_named_test("Linear Complexity", bits)
        assert result.p_value < 1e-10

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="500"):
            linear_complexity_test(np.ones(100, dtype=np.uint8))


def minimal_lfsr_length(seq):
    """Exhaustive minimal-LFSR search: smallest L such that some L-tap LFSR
    seeded with the first L bits reproduces the remainder."""
    n = len(seq)
    if all(b == 0 for b in seq):
        return 0
    for length in range(1, n):
        for taps in range(2**length):
            state = list(seq[:length])
            ok = True
            for i in range(length, n):
                nxt = 0
                t = taps
                for j in range(1, length + 1):
                    if t & 1:
                        nxt ^= state[-j]
                    t >>= 1
                if nxt != seq[i]:
                    ok = False
                    break
                state.append(nxt)
            if ok:
                return length
    return n


class TestSerialAndApEn:
    def test_serial_reference_example(self):
        # Worked example: eps = 0011011101, m = 3 -> p1 = 0.8088, p2 = 0.6703.
        bits = bits_from_string("0011011101")
        p_values, _ = serial_test(bits, m=3)
        assert p_values[0] == pytest.approx(0.8088, abs=5e-4)
        assert p_values[1] == pytest.approx(0.6703, abs=5e-4)

    def test_apen_reference_example(self):
        # Worked example: eps = 0100110101, m = 3 -> p = 0.261961.
        bits = bits_from_string("0100110101")
        p_values, _ = approximate_entropy_test(bits, m=3)
        assert p_values[0] == pytest.approx(0.261961, abs=1e-4)

    @pytest.mark.parametrize("m", (2, 3, 11, 16))
    def test_prefix_counts_equal_direct_counts(self, m):
        # Serial and Approximate Entropy derive the shorter window counts
        # from the longest one; the integer counts must be the direct ones.
        rng = np.random.default_rng(m)
        for n in (37, 5003):
            bits = rng.integers(0, 2, n, dtype=np.uint8)
            counts = _window_counts(cyclic(bits, m), m)
            assert np.array_equal(
                _prefix_counts(counts), _window_counts(cyclic(bits, m - 1), m - 1)
            )

    @pytest.mark.parametrize("n", (100, 127, 1001, 65_536, 1_200_003))
    def test_window_counts_equal_shift_or_oracle(self, n):
        # The packed-word counts must equal the shift-or ones at every bit
        # offset of the last, partial byte, of the stream as given and of
        # the stream with its first m - 1 bits appended.
        bits = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        for m in range(2, 18):
            assert np.array_equal(_window_counts(bits, m), window_counts(bits, m)), m
            assert np.array_equal(
                _window_counts(cyclic(bits, m), m), cyclic_window_counts(bits, m)
            ), m

    @pytest.mark.parametrize("n", (100, 127, 1001))
    def test_window_counts_of_constant_and_alternating_streams(self, n):
        for name, bits in constant_and_alternating_streams(n).items():
            for m in range(2, 18):
                counts = _window_counts(cyclic(bits, m), m)
                assert np.array_equal(counts, cyclic_window_counts(bits, m)), (name, m)
                assert counts.sum() == n

    def test_apen_all_zeros_fails(self):
        result = run_named_test("Approximate Entropy", np.zeros(40_000, dtype=np.uint8), m=3)
        assert result.p_value < 1e-10

    def test_constant_pattern_fails_serial(self):
        bits = np.tile(np.array([1, 1, 0, 0], dtype=np.uint8), 100_000)
        result = run_named_test("Serial", bits, m=8)
        assert result.p_value < 1e-10


class TestCumulativeSums:
    def test_reference_example(self):
        # Worked example: eps = 1011010111 -> z = 4, p(forward) = 0.4116588.
        bits = bits_from_string("1011010111")
        from diqrng.statsuite.sp800_22 import _cusum_p

        assert _cusum_p(10, 4.0) == pytest.approx(0.4116588, abs=1e-6)

    def test_vectorized_p_equals_scalar_terms(self):
        # One ndtr call per sum, terms added in k order: the same bits as one
        # scalar call per term, including the truncated boundary terms.
        for n in (100, 101, 1001, 65_536, 1_200_003):
            for z in sorted({1.0, 2.0, 3.0, 7.0, float(n // 7), float(n // 2), float(n)}):
                assert _cusum_p(n, z) == cusum_p_scalar(n, z), (n, z)

    @pytest.mark.parametrize("n", (100, 1001, 65_536, 1_200_003))
    def test_one_walk_equals_two_cumsums(self, n):
        streams = {
            "random": np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8),
            **constant_and_alternating_streams(n),
        }
        if n % 2 == 0:
            streams["ends at 0"] = balanced_stream(n, n)
            streams["ends off 0"] = unbalanced_stream(n, n)
        for name, bits in streams.items():
            assert cumulative_sums_test(bits)[0] == cumulative_sums_p_values(bits), name

    def test_alternating_minimal_excursion(self):
        p_values, _ = cumulative_sums_test(np.tile([1, 0], 100_000))
        assert min(p_values) > 0.99

    def test_all_zeros_fails(self):
        result = run_named_test("Cumulative Sums", np.zeros(10_000, dtype=np.uint8))
        assert result.p_value < 1e-10


class TestRandomExcursions:
    def test_not_applicable_below_cycle_floor(self):
        result = run_named_test("Random Excursions", np.ones(5000, dtype=np.uint8))
        assert not result.applicable
        assert result.passed  # structured NA, not a failure

    def test_applicable_on_long_random_stream(self):
        bits = np.random.default_rng(12).integers(0, 2, 1_200_000, dtype=np.uint8)
        result = run_named_test("Random Excursions", bits)
        if result.applicable:
            assert len(result.p_values) == 8
            assert all(0 <= p <= 1 for p in result.p_values)
        variant = run_named_test("Random Excursions Variant", bits)
        if variant.applicable:
            assert len(variant.p_values) == 18

    @staticmethod
    def assert_both_tests_match_oracles(bits):
        for test, oracle in (
            (random_excursions_test, random_excursions_p_values),
            (random_excursions_variant_test, random_excursions_variant_p_values),
        ):
            p_values, j_cycles = oracle(bits)
            if j_cycles < 500:
                with pytest.raises(NotApplicable) as info:
                    test(bits)
                assert info.value.params == {"J": j_cycles}
            else:
                got, params = test(bits)
                assert got == p_values and params["J"] == j_cycles

    @pytest.mark.parametrize("ends_at_zero", [True, False], ids=["ends at 0", "ends off 0"])
    @pytest.mark.parametrize("n", (1000, 65_536, 1_200_002))
    def test_one_walk_equals_per_state_oracle(self, n, ends_at_zero):
        # J must not count the appended closing 0 twice when S_n is 0.
        bits = (balanced_stream if ends_at_zero else unbalanced_stream)(n, n)
        self.assert_both_tests_match_oracles(bits)

    @pytest.mark.parametrize("name", ["zeros", "ones", "alternating"])
    def test_constant_and_alternating_streams_match_oracle(self, name):
        self.assert_both_tests_match_oracles(constant_and_alternating_streams(10_000)[name])

    def test_state_probabilities_sum_to_one(self):
        from diqrng.statsuite.sp800_22 import _excursion_state_pi

        for x in (-4, -1, 1, 3):
            assert _excursion_state_pi(x).sum() == pytest.approx(1.0, abs=1e-12)


class TestKsUniformity:
    def test_uniform_samples_pass(self):
        ok = 0
        for seed in range(100):
            values = np.random.default_rng(seed).random(100)
            ok += ks_uniformity(values) >= 0.01
        assert ok >= 98

    def test_degenerate_values_fail(self):
        assert ks_uniformity([0.5] * 100) < 1e-10

    def test_five_point_example(self):
        # D = 0.1 -> asymptotic p effectively 1.
        assert ks_uniformity([0.1, 0.3, 0.5, 0.7, 0.9]) > 0.999

    def test_too_few_values_rejected(self):
        with pytest.raises(ValueError):
            ks_uniformity([0.1, 0.2, 0.3, 0.4])


def _one_at_a_time(bits):
    return {name: run_named_test(name, bits) for name in TEST_NAMES}


class TestSuiteLanes:
    """run_suite runs the tests of suite._HELPER_LANE on a helper thread and
    the rest on the calling thread; the report must not show it."""

    @pytest.mark.filterwarnings("ignore:stream has")
    @pytest.mark.parametrize(
        "bits",
        [
            np.random.default_rng(17).integers(0, 2, 1_200_000, dtype=np.uint8),
            # Rank needs 38,912 bits, so it is not applicable here.
            np.random.default_rng(18).integers(0, 2, 20_000, dtype=np.uint8),
            # The Runs pre-test fails.
            np.ones(200_000, dtype=np.uint8),
        ],
        ids=["random-1.2M", "random-20k", "all-ones"],
    )
    def test_suite_equals_the_tests_run_one_at_a_time(self, bits):
        threads = threading.active_count()
        report = run_suite(bits)
        assert threading.active_count() == threads
        expected = _one_at_a_time(bits)
        assert list(report.results) == list(TEST_NAMES)
        # repr compares the NaN p-values of not-applicable tests too.
        assert repr(report.results) == repr(expected)

    def test_helper_lane_tests_run_on_one_other_thread(self, monkeypatch):
        ran_on = {}
        for name, fn in list(suite._TEST_FUNCTIONS.items()):

            def recorded(b, _name=name, _fn=fn, **params):
                ran_on[_name] = threading.get_ident()
                return _fn(b, **params)

            monkeypatch.setitem(suite._TEST_FUNCTIONS, name, recorded)
        run_suite(np.random.default_rng(19).integers(0, 2, 1_000_000, dtype=np.uint8))
        caller = threading.get_ident()
        assert set(ran_on) == set(TEST_NAMES)
        assert {name for name, ident in ran_on.items() if ident != caller} == set(
            suite._HELPER_LANE
        )
        assert len({ran_on[name] for name in suite._HELPER_LANE}) == 1

    @pytest.mark.parametrize("name", ["Rank", "Frequency"])
    def test_an_error_in_either_lane_propagates(self, monkeypatch, name):
        assert ("Rank" in suite._HELPER_LANE) and ("Frequency" not in suite._HELPER_LANE)

        def broken(b, **params):
            raise RuntimeError(f"{name} broke")

        monkeypatch.setitem(suite._TEST_FUNCTIONS, name, broken)
        threads = threading.active_count()
        bits = np.random.default_rng(20).integers(0, 2, 1_000_000, dtype=np.uint8)
        with pytest.raises(RuntimeError, match=f"^{name} broke$"):
            run_suite(bits)
        assert threading.active_count() == threads


class TestSuite:
    def test_all_fifteen_names_present(self):
        bits = np.random.default_rng(13).integers(0, 2, 1_200_000, dtype=np.uint8)
        report = run_suite(bits)
        assert tuple(report.results.keys()) == TEST_NAMES
        assert len(TEST_NAMES) == 15

    def test_all_zeros_fails_designated_tests(self):
        with pytest.warns(UserWarning):
            report = run_suite(np.zeros(200_000, dtype=np.uint8))
        failing = set(report.failing())
        assert {"Frequency", "Runs", "Approximate Entropy"} <= failing

    def test_biased_stream_fails_frequency(self):
        rng = np.random.default_rng(14)
        bits = (rng.random(1_200_000) < 0.52).astype(np.uint8)
        report = run_suite(bits)
        assert not report.results["Frequency"].passed
        # s_obs is about 44 standard deviations for a 2% bias.
        assert report.results["Frequency"].params["s_obs"] == pytest.approx(44, abs=5)

    def test_deterministic_and_order_independent(self):
        # The second run judges at another threshold: the statistics must
        # not move, and only the verdicts may.
        bits = np.random.default_rng(15).integers(0, 2, 1_200_000, dtype=np.uint8)
        a = run_suite(bits)
        b = run_suite(bits, threshold=0.5)
        for name in TEST_NAMES:
            assert a.results[name].p_value == b.results[name].p_value or (
                math.isnan(a.results[name].p_value)
                and math.isnan(b.results[name].p_value)
            )
            assert a.results[name].p_values == b.results[name].p_values
            assert a.results[name].params == b.results[name].params
        for report in (a, b):
            for result in report.results.values():
                if result.applicable:
                    assert result.passed == (result.p_value >= report.threshold)

    def test_json_and_csv_serialization(self, tmp_path):
        bits = np.random.default_rng(16).integers(0, 2, 1_200_000, dtype=np.uint8)
        report = run_suite(bits)
        csv_path = report.save_csv(tmp_path / "suite.csv")
        data = report.to_json_dict()
        # One verdict per test and no suite-wide aggregate.
        assert list(data) == ["tests", "threshold", "all_passed", "stream_metadata"]
        assert set(data["tests"].keys()) == set(TEST_NAMES)
        # The key order of each entry is the order suite.json is written in.
        keys = ["p_values", "p_value", "passed", "applicable", "note", "params"]
        assert all(list(entry) == keys for entry in data["tests"].values())
        assert data["threshold"] == 0.01
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 16  # header + 15 tests
        # Not-applicable notes hold commas ("..., got 20000"); quoting keeps
        # every row at the header's six fields.
        with pytest.warns(UserWarning):
            report = run_suite(np.random.default_rng(16).integers(0, 2, 20_000, dtype=np.uint8))
        reference = REFERENCE_EXPERIMENT["dataset_A"]["suite_p_values"]
        with report.save_csv(tmp_path / "short.csv", reference).open(newline="") as f:
            header, *rows = list(csv.reader(f))
        assert header == ["test", "p_value", "passed", "n_p_values", "note", "reference_p_value"]
        assert [row[0] for row in rows] == list(TEST_NAMES)
        assert all(len(row) == 6 for row in rows)
        by_name = {row[0]: row for row in rows}
        assert by_name["Rank"][4] == report.results["Rank"].note
        assert ", got 20000" in by_name["Rank"][4]
        assert by_name["Rank"][1] == ""
        # The report files carry the same not-applicable p-value as null.
        assert json.loads(json_text(report.to_json_dict()))["tests"]["Rank"]["p_value"] is None
        for name, row in by_name.items():
            assert float(row[5]) == reference[name]

    def test_short_stream_yields_structured_na(self):
        with pytest.warns(UserWarning):
            report = run_suite(np.random.default_rng(17).integers(0, 2, 5000, dtype=np.uint8))
        universal = report.results["Universal"]
        assert not universal.applicable
        assert "not applicable" in universal.note

    def test_other_value_errors_propagate(self, monkeypatch):
        def broken(bits):
            raise ValueError("bug in a test")

        monkeypatch.setitem(suite._TEST_FUNCTIONS, "FFT", broken)
        bits = np.random.default_rng(18).integers(0, 2, 1_200_000, dtype=np.uint8)
        with pytest.raises(ValueError, match="bug in a test"):
            run_suite(bits)

    def test_length_errors_are_typed(self):
        for test, n in [
            (block_frequency_test, 99),
            (non_overlapping_template_test, 4000),
            (overlapping_template_test, 1000),
            (linear_complexity_test, 499),
        ]:
            with pytest.raises(NotApplicable, match="requires at least"):
                test(np.ones(n, dtype=np.uint8))

    @pytest.mark.filterwarnings("ignore:stream has 1000 bits")
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.01, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        bits = np.random.default_rng(19).integers(0, 2, 1000, dtype=np.uint8)
        message = r"threshold must be a number in \[0, 1\]"
        with pytest.raises(ValueError, match=message):
            run_suite(bits, threshold=threshold)
        with pytest.raises(ValueError, match=message):
            run_named_test("Frequency", bits, threshold=threshold)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            run_named_test("Monobit", np.ones(100, dtype=np.uint8))
