import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diqrng.extract import (
    BitStream,
    ExtractorConfig,
    ToeplitzSeed,
    bitslice,
    choose_output_length,
    extract_stream,
    toeplitz_hash,
)

#: Block counts around the 64-lane word boundaries.
BLOCK_COUNTS = (1, 63, 64, 65, 130)


def naive_toeplitz_oracle(x, seed_bits, n, m):
    """Dense GF(2) matrix-vector product straight from the index formula.

    ``x`` is one n-bit block or a (B, n) stack; the result is (m,) or
    (B, m).  T is built a few hundred rows at a time and multiplied in
    float32, which is exact for sums of up to 2**24 ones.
    """
    x = np.asarray(x, dtype=np.float32)
    seed_bits = np.asarray(seed_bits)
    i = np.arange(m)[:, np.newaxis]
    j = np.arange(n)[np.newaxis, :]
    out = np.empty(x.shape[:-1] + (m,), dtype=np.uint8)
    for start in range(0, m, 256):
        t = seed_bits[i[start : start + 256] - j + n - 1].astype(np.float32)
        out[..., start : start + 256] = (x @ t.T) % 2
    return out


class TestBitStream:
    def test_bit_roundtrip(self):
        rng = np.random.default_rng(0)
        for n in (1, 7, 64, 65, 1000):
            bits = rng.integers(0, 2, n, dtype=np.uint8)
            stream = BitStream.from_bits(bits)
            assert np.array_equal(stream.to_bits(), bits)
            assert stream.ones() == int(bits.sum())

    def test_byte_roundtrip_little_endian(self):
        stream = BitStream.from_bits([1, 0, 0, 0, 0, 0, 0, 0, 1])
        payload = stream.to_bytes()
        assert payload == b"\x01\x01"
        back = BitStream.from_bytes(payload, 9)
        assert np.array_equal(back.to_bits(), stream.to_bits())

    def test_pad_bits_must_be_zero(self):
        with pytest.raises(ValueError):
            BitStream(np.array([0xFFFF], dtype=np.uint64), 8)

    def test_word_count_must_match(self):
        with pytest.raises(ValueError):
            BitStream(np.zeros(2, dtype=np.uint64), 64)

    def test_save_load_with_sidecar(self, tmp_path):
        rng = np.random.default_rng(1)
        stream = BitStream.from_bits(
            rng.integers(0, 2, 777, dtype=np.uint8),
            provenance={"stage": "raw", "rng_seed": 5},
        )
        path = stream.save(tmp_path / "bits.bin")
        assert (tmp_path / "bits.bin.json").exists()
        back = BitStream.load(path)
        assert back.sha256() == stream.sha256()
        assert back.n_bits == 777
        assert back.provenance["rng_seed"] == 5

    def test_corrupted_payload_detected(self, tmp_path):
        stream = BitStream.from_bits(np.ones(64, dtype=np.uint8))
        path = stream.save(tmp_path / "bits.bin")
        payload = bytearray(path.read_bytes())
        payload[0] ^= 1
        path.write_bytes(bytes(payload))
        with pytest.raises(ValueError):
            BitStream.load(path)


class TestToeplitzHash:
    def test_worked_three_by_two_example(self):
        seed = ToeplitzSeed(np.array([1, 0, 1, 1], dtype=np.uint8), n=3, m=2)
        y = toeplitz_hash(np.array([1, 1, 0], dtype=np.uint8), seed)
        assert np.array_equal(y, [1, 0])

    def test_zero_input_hashes_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, m = 50, 20
            seed = ToeplitzSeed(rng.integers(0, 2, n + m - 1, dtype=np.uint8), n, m)
            assert not toeplitz_hash(np.zeros(n, dtype=np.uint8), seed).any()

    def test_word_packed_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            m = int(rng.integers(1, max(2, min(n, 33))))
            seed_bits = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
            x = rng.integers(0, 2, n, dtype=np.uint8)
            seed = ToeplitzSeed(seed_bits, n, m)
            assert np.array_equal(
                toeplitz_hash(x, seed), naive_toeplitz_oracle(x, seed_bits, n, m)
            )

    def test_length_mismatch_rejected(self):
        seed = ToeplitzSeed(np.ones(6, dtype=np.uint8), n=4, m=3)
        with pytest.raises(ValueError):
            toeplitz_hash(np.ones(5, dtype=np.uint8), seed)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_gf2_linearity(self, seed_int):
        rng = np.random.default_rng(seed_int)
        n, m = 48, 16
        seed = ToeplitzSeed(rng.integers(0, 2, n + m - 1, dtype=np.uint8), n, m)
        x = rng.integers(0, 2, n, dtype=np.uint8)
        y = rng.integers(0, 2, n, dtype=np.uint8)
        lhs = toeplitz_hash(x ^ y, seed)
        rhs = toeplitz_hash(x, seed) ^ toeplitz_hash(y, seed)
        assert np.array_equal(lhs, rhs)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            ToeplitzSeed(np.ones(5, dtype=np.uint8), n=3, m=3)  # m must be < n
        with pytest.raises(ValueError):
            ToeplitzSeed(np.ones(4, dtype=np.uint8), n=3, m=3)


class TestBitslice:
    @pytest.mark.parametrize("n_blocks", BLOCK_COUNTS)
    def test_lane_layout(self, n_blocks):
        rng = np.random.default_rng(n_blocks)
        blocks = rng.integers(0, 2, (n_blocks, 9), dtype=np.uint8)
        rows = bitslice(blocks)
        assert rows.dtype == np.uint64
        assert rows.shape == (9, -(-n_blocks // 64))
        for k in range(9):
            for block in range(rows.shape[1] * 64):
                w, b = divmod(block, 64)
                lane = (int(rows[k, w]) >> b) & 1
                assert lane == (blocks[block, k] if block < n_blocks else 0)


class TestChooseOutputLength:
    def test_leftover_hash_sizing(self):
        assert choose_output_length(4500, 0.9997, 2.0**-100) == 4298

    def test_limit_of_full_entropy_and_no_security(self):
        # h = 1 and epsilon -> 1 keeps every input bit (degenerate limit).
        assert choose_output_length(4500, 1.0, 1.0) == 4500

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ValueError):
            choose_output_length(100, 0.5, 2.0**-100)
        with pytest.raises(ValueError):
            choose_output_length(100, 1.5, 0.5)


class TestExtractStream:
    def test_single_block_yields_m_bits(self):
        rng = np.random.default_rng(4)
        raw = BitStream.from_bits(rng.integers(0, 2, 4500, dtype=np.uint8))
        out = extract_stream(raw, ExtractorConfig(rng_seed=1))
        assert out.n_bits == 1200
        assert out.stage == "extracted"

    def test_paper_ratio_reduction(self):
        rng = np.random.default_rng(5)
        raw = BitStream.from_bits(rng.integers(0, 2, 45_000, dtype=np.uint8))
        out = extract_stream(raw, ExtractorConfig(rng_seed=2))
        assert out.n_bits == 12_000  # 10 blocks of 4500 -> 1200

    def test_partial_trailing_block_discarded(self):
        rng = np.random.default_rng(6)
        raw = BitStream.from_bits(rng.integers(0, 2, 4500 + 4499, dtype=np.uint8))
        out = extract_stream(raw, ExtractorConfig(rng_seed=3))
        assert out.n_bits == 1200

    def test_reproducible_for_same_seed(self):
        rng = np.random.default_rng(7)
        raw = BitStream.from_bits(rng.integers(0, 2, 9000, dtype=np.uint8))
        a = extract_stream(raw, ExtractorConfig(rng_seed=11))
        b = extract_stream(raw, ExtractorConfig(rng_seed=11))
        c = extract_stream(raw, ExtractorConfig(rng_seed=12))
        assert a.sha256() == b.sha256()
        assert a.sha256() != c.sha256()

    def test_blockwise_equals_per_block_hash(self):
        rng = np.random.default_rng(8)
        cfg = ExtractorConfig(n=96, m=32, rng_seed=21)
        raw_bits = rng.integers(0, 2, 96 * 7, dtype=np.uint8)
        out = extract_stream(BitStream.from_bits(raw_bits), cfg)
        seed = cfg.build_seed()
        expected = np.concatenate(
            [toeplitz_hash(raw_bits[k * 96 : (k + 1) * 96], seed) for k in range(7)]
        )
        assert np.array_equal(out.to_bits(), expected)

    def test_input_shorter_than_block_rejected(self):
        raw = BitStream.from_bits(np.ones(100, dtype=np.uint8))
        with pytest.raises(ValueError):
            extract_stream(raw, ExtractorConfig())

    def test_leftover_hash_mode(self):
        rng = np.random.default_rng(9)
        raw = BitStream.from_bits(rng.integers(0, 2, 9000, dtype=np.uint8))
        cfg = ExtractorConfig(mode="leftover_hash", h_inf=0.9997, rng_seed=4)
        out = extract_stream(raw, cfg)
        assert out.n_bits == 2 * 4298

    def test_external_seed_bits(self):
        rng = np.random.default_rng(10)
        seed_bits = rng.integers(0, 2, 4500 + 1200 - 1, dtype=np.uint8)
        raw = BitStream.from_bits(rng.integers(0, 2, 4500, dtype=np.uint8))
        out = extract_stream(raw, ExtractorConfig(seed_bits=seed_bits))
        seed = ToeplitzSeed(seed_bits, 4500, 1200)
        assert np.array_equal(out.to_bits(), toeplitz_hash(raw.to_bits(), seed))


class TestBitslicedEdges:
    """Block counts around the 64-lane words and block lengths that are not
    a multiple of 8 or 64, against the dense oracle, with a partial
    trailing block that must be dropped."""

    @pytest.mark.parametrize("n_blocks", BLOCK_COUNTS)
    @pytest.mark.parametrize(
        "n, m_values",
        [(9, (1, 4, 8)), (65, (1, 17, 64)), (130, (1, 35, 129)), (4500, (1, 1200, 4499))],
    )
    def test_extract_stream_matches_oracle(self, n_blocks, n, m_values):
        rng = np.random.default_rng([n_blocks, n])
        raw_bits = rng.integers(0, 2, n_blocks * n + n - 1, dtype=np.uint8)
        blocks = raw_bits[: n_blocks * n].reshape(n_blocks, n)
        for m in m_values:
            cfg = ExtractorConfig(n=n, m=m, rng_seed=m)
            out = extract_stream(BitStream.from_bits(raw_bits), cfg)
            expected = naive_toeplitz_oracle(blocks, cfg.build_seed().bits, n, m)
            assert out.n_bits == n_blocks * m
            assert np.array_equal(out.to_bits().reshape(n_blocks, m), expected), f"m={m}"


class TestBiasedInputWhitening:
    def test_leftover_hash_output_passes_frequency(self):
        # Input bias p1 = 0.6 gives h_inf = -log2(0.6) = 0.737 per bit; the
        # leftover-hash sizing keeps 3116 of every 4500 bits and the output
        # parity bias collapses to 0.2^2250, so the monobit test must pass.
        from diqrng.certify import min_entropy
        from diqrng.statsuite import run_named_test

        h_inf = -np.log2(0.6)
        cfg = ExtractorConfig(mode="leftover_hash", h_inf=float(h_inf), rng_seed=77)
        assert cfg.resolve_m() == 3116
        passed = 0
        for seed in range(20):
            rng = np.random.default_rng([seed, 6060])
            raw_bits = (rng.random(4500 * 20) < 0.6).astype(np.uint8)
            raw = BitStream.from_bits(raw_bits)
            assert min_entropy(raw).h_inf < 1.0  # genuinely biased input
            out = extract_stream(raw, cfg)
            if run_named_test("Frequency", out.to_bits()).passed:
                passed += 1
        assert passed >= 19


class TestTwoUniversality:
    def test_collision_rate_matches_two_to_minus_m(self):
        # Fixed x != x'; over random seeds collisions happen iff T(x ^ x') = 0.
        n, m, n_seeds = 32, 8, 100_000
        rng = np.random.default_rng(12)
        d = rng.integers(0, 2, n, dtype=np.uint8)
        d[0] = 1  # ensure x != x'
        seeds = rng.integers(0, 2, (n_seeds, n + m - 1), dtype=np.uint8)
        # y_i = parity over j of seed[i - j + n - 1] d_j: one matmul over GF(2).
        selector = np.zeros((n + m - 1, m), dtype=np.float32)
        for i in range(m):
            for j in range(n):
                if d[j]:
                    selector[i - j + n - 1, i] += 1.0
        outputs = (seeds.astype(np.float32) @ selector) % 2.0
        collisions = int(np.count_nonzero(~outputs.any(axis=1)))
        expected = n_seeds * 2.0**-m
        assert abs(collisions - expected) <= 0.1 * expected

    def test_selector_agrees_with_hash(self):
        # The vectorized collision predicate above must match toeplitz_hash.
        rng = np.random.default_rng(13)
        n, m = 32, 8
        d = rng.integers(0, 2, n, dtype=np.uint8)
        d[0] = 1
        for _ in range(20):
            seed_bits = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
            seed = ToeplitzSeed(seed_bits, n, m)
            direct = toeplitz_hash(d, seed)
            selector = np.zeros((n + m - 1, m), dtype=np.float32)
            for i in range(m):
                for j in range(n):
                    if d[j]:
                        selector[i - j + n - 1, i] += 1.0
            via_selector = (seed_bits.astype(np.float32) @ selector) % 2.0
            assert np.array_equal(direct, via_selector.astype(np.uint8))
