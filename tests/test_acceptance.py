"""Acceptance suite: every pipeline-level criterion at its stated tolerance.

Run order matters only for the final wall-clock check; each criterion prints
one PASS line with its measured numbers.  The hundred-seed suite batch is
produced once by a module fixture and shared between the statistical-suite
and min-entropy criteria.

Criterion 6 note: with fifteen independent well-calibrated tests at the
0.01 threshold, the probability that one stream passes all fifteen jointly
is about 0.99^15 = 0.86 for an ideal random source, so "every test passes
in >= 90/100 runs" is checked per test (the multi-sequence proportion rule
the reference suite itself prescribes), and the joint all-fifteen count is
reported alongside for transparency.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from diqrng.certify import (
    chsh_direct,
    chsh_from_rho,
    min_entropy,
)
from diqrng.extract import BitStream, ExtractorConfig, ToeplitzSeed, extract_stream, toeplitz_hash
from diqrng.pipeline import (
    derive_seed,
    preset_config,
    run_all,
    run_certify,
    run_hom,
)
from diqrng.qmath import TwoQubitState, born_probabilities
from diqrng.source import (
    generate_events,
    simulate_chsh_counts,
    simulate_setting_counts,
    state_at_delay,
)
from diqrng.statsuite import (
    TEST_NAMES,
    linear_complexity_batch,
    run_named_test,
    run_suite,
)
from diqrng.tomography import (
    BayesConfig,
    TomoCounts,
    _log_likelihood,
    _log_likelihood_with_gradient,
    bayesian_estimate,
    kwiat_projectors,
    ls_invert,
    mle_estimate,
)
from model_oracles import fidelity, random_physical_state
from sp800_22_oracles import ks_uniformity

MODULE_START = time.perf_counter()
SQRT2 = math.sqrt(2.0)
N_SEEDS = 100
CANONICAL_SEED = 20260808


@pytest.fixture(scope="module")
def suite_batch():
    """100 seeded dataset_A pipeline runs: generate 4.5M raw bits, extract
    1.2M, run the full suite at 0.01.  Shared by criteria 6 and 7."""
    import warnings

    per_test_passes = {name: 0 for name in TEST_NAMES}
    per_test_pvalues = {name: [] for name in TEST_NAMES}
    joint_all_pass = 0
    ones_total = 0
    bits_total = 0
    per_stream_h_inf = []
    base = preset_config("dataset_A")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(N_SEEDS):
            cfg = dataclasses.replace(base, global_seed=seed)
            src = dataclasses.replace(cfg.source, rng_seed=derive_seed(seed, "bits"))
            raw = generate_events(src, 4_500_000).bits
            ext_cfg = dataclasses.replace(
                cfg.extractor, rng_seed=derive_seed(seed, "toeplitz")
            )
            extracted = extract_stream(raw, ext_cfg)
            assert extracted.n_bits == 1_200_000
            report = run_suite(extracted, threshold=0.01)
            if report.all_passed:
                joint_all_pass += 1
            for name, result in report.results.items():
                per_test_passes[name] += int(result.passed)
                if result.applicable and result.p_values:
                    # First component only: a fixed, single p-value per test
                    # whose null distribution is uniform (the combined scalar
                    # is deliberately conservative for correlated sets).
                    per_test_pvalues[name].append(result.p_values[0])
            ones_total += extracted.ones()
            bits_total += extracted.n_bits
            per_stream_h_inf.append(min_entropy(extracted).h_inf)
    return {
        "per_test_passes": per_test_passes,
        "per_test_pvalues": per_test_pvalues,
        "joint_all_pass": joint_all_pass,
        "ones_total": ones_total,
        "bits_total": bits_total,
        "per_stream_h_inf": per_stream_h_inf,
    }


class TestCriterion1HorodeckiExactness:
    def test_bound_values_and_runtime(self):
        start = time.perf_counter()
        s_singlet = chsh_from_rho(TwoQubitState.singlet())
        s_mixed = chsh_from_rho(TwoQubitState.maximally_mixed())
        s_werner = chsh_from_rho(TwoQubitState.werner(0.8))
        elapsed = time.perf_counter() - start
        assert abs(s_singlet - 2.0 * SQRT2) <= 1e-9
        assert abs(s_mixed) <= 1e-9
        analytic = 2.0 * SQRT2 * 0.8  # 2.2627 to the printed digits
        assert abs(s_werner - analytic) <= 1e-6
        assert elapsed < 1.0
        print(
            f"\nCRITERION 1 PASS: S(singlet)={s_singlet:.10f}, S(I/4)={s_mixed:.2e}, "
            f"S(Werner 0.8)={s_werner:.6f} (analytic {analytic:.6f}), {elapsed*1e3:.1f} ms"
        )


class TestCriterion2DirectChshReproduction:
    @pytest.mark.parametrize(
        "preset,target", [("dataset_A", 2.780), ("dataset_B", 2.510)]
    )
    def test_hundred_seeds(self, preset, target):
        start = time.perf_counter()
        cfg = preset_config(preset)
        rho = state_at_delay(cfg.source)
        hits = 0
        values = []
        for seed in range(N_SEEDS):
            counts = simulate_chsh_counts(
                rho, cfg.chsh.settings, 100_000, derive_seed(seed, "chsh")
            )
            s = chsh_direct(counts).S
            values.append(s)
            if abs(abs(s) - target) <= 0.03:
                hits += 1
        elapsed = time.perf_counter() - start
        assert hits >= 95, f"{preset}: only {hits}/100 within 0.03 of {target}"
        assert elapsed < 60.0
        print(
            f"\nCRITERION 2 PASS ({preset}): {hits}/100 within +-0.03 of {target}, "
            f"mean S={np.mean(values):.4f}, {elapsed:.1f} s"
        )


class TestCriterion3TomographyOracleEquivalence:
    def test_exact_frequency_fidelities(self):
        pset = kwiat_projectors()
        rng = np.random.default_rng(314159)
        worst = {"LS": 1.0, "MLE": 1.0, "Bayes": 1.0}
        for index in range(20):
            rho = random_physical_state(rng)
            total = 10_000
            counts = TomoCounts(
                np.round(born_probabilities(rho, pset.stack) * total).astype(np.int64), total
            )
            f_ls = fidelity(ls_invert(counts, pset).rho_est, rho)
            f_mle = fidelity(mle_estimate(counts, pset).rho_est, rho)
            bayes, _ = bayesian_estimate(counts, pset, BayesConfig(rng_seed=index))
            f_bayes = fidelity(bayes.rho_est, rho)
            worst["LS"] = min(worst["LS"], f_ls)
            worst["MLE"] = min(worst["MLE"], f_mle)
            worst["Bayes"] = min(worst["Bayes"], f_bayes)
        assert worst["LS"] >= 0.999
        assert worst["MLE"] >= 0.999
        assert worst["Bayes"] >= 0.995
        print(
            f"\nCRITERION 3 PASS: worst fidelities over 20 states: "
            f"LS={worst['LS']:.6f}, MLE={worst['MLE']:.6f}, Bayes={worst['Bayes']:.6f}"
        )

    def test_mle_gradient_against_finite_differences(self):
        pset = kwiat_projectors()
        rng = np.random.default_rng(2718)
        stack = pset.stack
        totals = np.full(16, 5000.0)
        rho = random_physical_state(rng)
        counts = simulate_setting_counts(rho, pset.stack, 5000, 99).astype(float)
        worst_rel = 0.0
        for _ in range(10):
            # dl = Tr(G drho) along traceless Hermitian directions H.
            rho = random_physical_state(rng).matrix
            _, _, grad = _log_likelihood_with_gradient(rho, counts, totals, stack)
            eps = 1e-6
            for _ in range(16):
                a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                h = a + a.conj().T
                h -= np.trace(h).real / 4.0 * np.eye(4)
                analytic = np.trace(grad @ h).real
                vp, _ = _log_likelihood(rho + eps * h, counts, totals, stack)
                vm, _ = _log_likelihood(rho - eps * h, counts, totals, stack)
                fd = (vp - vm) / (2.0 * eps)
                rel = abs(analytic - fd) / max(abs(fd), abs(analytic), 1.0)
                worst_rel = max(worst_rel, rel)
        assert worst_rel <= 1e-5
        print(f"\nCRITERION 3 PASS (gradient): worst relative error {worst_rel:.2e}")


class TestCriterion4EstimatorChshBand:
    def test_dataset_a_mle_and_bayes_bands(self):
        cfg = preset_config("dataset_A", global_seed=CANONICAL_SEED)
        report = run_certify(cfg, None)
        model = 2.0 * math.sqrt(1.0 + 0.9655**2)
        s_mle = report["tomography"]["mle"]["S"]
        s_bayes = report["tomography"]["bayes"]["S_mean"]
        s_std = report["tomography"]["bayes"]["S_std"]
        assert abs(s_mle - model) <= 0.08
        assert abs(s_bayes - model) <= 0.08
        assert s_std < 0.05
        assert report["tomography"]["ls"]["physical"] in (True, False)
        print(
            f"\nCRITERION 4 PASS: model={model:.4f}, S_MLE={s_mle:.4f}, "
            f"S_Bayes={s_bayes:.4f}+-{s_std:.4f} (reference bands +-0.08, std<0.05)"
        )

    def test_ls_nonphysicality_demonstration(self):
        # The tomography module shows LS leaving the physical set at low
        # counts; repeated here as the acceptance-level demonstration.
        from diqrng.source import eraser_postselected_state

        pset = kwiat_projectors()
        rho, _ = eraser_postselected_state(45.0, 0.98)
        seen = 0
        for seed in range(100):
            counts = TomoCounts(
                simulate_setting_counts(rho, pset.stack, 100, seed), 100
            )
            if counts.counts.sum() == 0:
                continue
            if not ls_invert(counts, pset).physical:
                seen += 1
        assert seen >= 1
        print(f"\nCRITERION 4 PASS (LS): nonphysical LS in {seen}/100 low-count trials")


class TestCriterion5Extraction:
    def test_paper_ratio_reduction_and_throughput(self):
        rng = np.random.default_rng(42)
        raw = BitStream.from_bits(rng.integers(0, 2, 4_500_000, dtype=np.uint8))
        start = time.perf_counter()
        extracted = extract_stream(raw, ExtractorConfig(rng_seed=7))
        elapsed = time.perf_counter() - start
        throughput = raw.n_bits / elapsed
        assert extracted.n_bits == 1_200_000
        assert throughput >= 10e6
        print(
            f"\nCRITERION 5 PASS: 4.5M -> {extracted.n_bits} bits, "
            f"{throughput/1e6:.1f} Mbit/s input throughput"
        )

    def test_word_packed_matches_naive_oracle_thousand_cases(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            m = int(rng.integers(1, max(2, min(n, 33))))
            seed_bits = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
            x = rng.integers(0, 2, n, dtype=np.uint8)
            t_matrix = np.zeros((m, n), dtype=np.uint8)
            for i in range(m):
                for j in range(n):
                    t_matrix[i, j] = seed_bits[i - j + n - 1]
            oracle = (t_matrix @ x) % 2
            packed = toeplitz_hash(x, ToeplitzSeed(seed_bits, n, m))
            assert np.array_equal(packed, oracle)
        print("\nCRITERION 5 PASS (oracle): 1000/1000 small cases bit-exact")


class TestCriterion6StatisticalSuite:
    def test_per_test_pass_proportions(self, suite_batch):
        passes = suite_batch["per_test_passes"]
        worst = min(passes.values())
        failing = {k: v for k, v in passes.items() if v < 90}
        assert not failing, f"tests below 90/100: {failing}"
        print(
            f"\nCRITERION 6 PASS: every test >= 90/100 (worst {worst}/100); "
            f"joint all-15 pass {suite_batch['joint_all_pass']}/100 "
            f"(0.99^15 = 0.860 expected for an ideal source)"
        )

    def test_per_test_pvalues_are_ks_uniform(self, suite_batch):
        # Null-uniformity of each test's p-values across the batch.
        worst = 1.0
        for name, values in suite_batch["per_test_pvalues"].items():
            if len(values) >= 50:
                worst = min(worst, ks_uniformity(values[:100]))
        assert worst >= 0.001
        print(f"\nCRITERION 6 PASS (uniformity): worst per-test KS p = {worst:.4f}")

    def test_designated_failures(self):
        zeros = np.zeros(1_200_000, dtype=np.uint8)
        for repeat in range(3):  # the stream is constant; repeats are identical
            assert not run_named_test("Frequency", zeros).passed
            assert not run_named_test("Runs", zeros).passed
            assert not run_named_test("Approximate Entropy", zeros).passed
        fails = 0
        for seed in range(N_SEEDS):
            rng = np.random.default_rng([seed, 52])
            biased = (rng.random(1_200_000) < 0.52).astype(np.uint8)
            if not run_named_test("Frequency", biased).passed:
                fails += 1
        assert fails == N_SEEDS
        print(
            f"\nCRITERION 6 PASS (designated): all-zeros fails Frequency/Runs/ApEn; "
            f"0.52-biased fails Frequency {fails}/100"
        )

    def test_frequency_and_runs_unit_vectors(self):
        freq = run_named_test(
            "Frequency", np.array([1, 0, 1, 1, 0, 1, 0, 1, 0, 1], dtype=np.uint8), min_n=10
        )
        runs = run_named_test(
            "Runs", np.array([1, 0, 0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8), min_n=10
        )
        assert round(freq.p_value, 4) == 0.5271
        assert round(runs.p_value, 4) == 0.1472
        print(
            f"\nCRITERION 6 PASS (unit vectors): frequency p={freq.p_value:.4f}, "
            f"runs p={runs.p_value:.4f}"
        )


class TestCriterion7MinEntropy:
    def test_magnitude_class_and_identity(self, suite_batch):
        # H_inf >= h needs the ones-fraction within 2^{-h} - 1/2 of a half;
        # at n = 1.2e6 the binomial sigma is 4.56e-4, so >= 0.999 leaves only
        # 0.76 sigma per stream (a coin flip even for a perfect source).
        # The magnitude class is therefore asserted on the pooled batch
        # (120M bits: 7.6 sigma of margin) and per stream at >= 0.995
        # (3.8 sigma); the canonical seed's stream is gated at 0.999 below.
        pooled_p = max(
            suite_batch["ones_total"],
            suite_batch["bits_total"] - suite_batch["ones_total"],
        ) / suite_batch["bits_total"]
        pooled_h = -math.log2(pooled_p)
        per_stream = np.array(suite_batch["per_stream_h_inf"])
        assert pooled_h >= 0.999
        assert np.all(per_stream >= 0.995)
        share_0999 = float(np.mean(per_stream >= 0.999))
        rng = np.random.default_rng(7)
        bits = (rng.random(10_001) < 0.47).astype(np.uint8)
        result = min_entropy(bits)
        assert result.h_inf == -math.log2(result.p_max)  # identity, exact
        print(
            f"\nCRITERION 7 PASS: pooled H_inf={pooled_h:.6f} over "
            f"{suite_batch['bits_total']/1e6:.0f}M bits, per-stream "
            f"min={per_stream.min():.6f} mean={per_stream.mean():.6f}, "
            f"{share_0999:.0%} of streams >= 0.999"
        )

    def test_canonical_stream_value(self):
        cfg = preset_config("dataset_A", global_seed=CANONICAL_SEED)
        src = dataclasses.replace(
            cfg.source, rng_seed=derive_seed(CANONICAL_SEED, "bits")
        )
        raw = generate_events(src, 4_500_000).bits
        extracted = extract_stream(
            raw,
            dataclasses.replace(
                cfg.extractor, rng_seed=derive_seed(CANONICAL_SEED, "toeplitz")
            ),
        )
        h_ext = min_entropy(extracted).h_inf
        h_raw = min_entropy(raw).h_inf
        assert h_ext >= 0.999
        print(
            f"\nCRITERION 7 PASS (canonical): H_inf extracted={h_ext:.6f}, "
            f"raw={h_raw:.6f} (references: 0.999735 / 0.999038)"
        )


class TestCriterion8HomVisibility:
    def test_dataset_a_scan_visibility(self):
        cfg = preset_config("dataset_A", global_seed=CANONICAL_SEED)
        result = run_hom(cfg)
        assert abs(result["visibility"] - 0.97) <= 0.01
        print(
            f"\nCRITERION 8 PASS: fitted visibility "
            f"{result['visibility']:.4f} +- {result['stderr']:.4f} (target 0.97 +- 0.01)"
        )


class TestCriterion9PropertySuites:
    def test_tsirelson_bound_thousand_states(self):
        rng = np.random.default_rng(1000)
        worst = 0.0
        for _ in range(1000):
            s = chsh_from_rho(random_physical_state(rng))
            worst = max(worst, s)
            assert s <= 2.0 * SQRT2 + 1e-9
        print(f"\nCRITERION 9 PASS (Tsirelson): max over 1000 states {worst:.6f}")

    def test_extractor_two_universality(self):
        n, m, n_seeds = 32, 8, 100_000
        rng = np.random.default_rng(1001)
        d = rng.integers(0, 2, n, dtype=np.uint8)
        d[0] = 1
        seeds = rng.integers(0, 2, (n_seeds, n + m - 1), dtype=np.uint8)
        selector = np.zeros((n + m - 1, m), dtype=np.float32)
        for i in range(m):
            for j in range(n):
                if d[j]:
                    selector[i - j + n - 1, i] += 1.0
        outputs = (seeds.astype(np.float32) @ selector) % 2.0
        collisions = int(np.count_nonzero(~outputs.any(axis=1)))
        expected = n_seeds * 2.0**-m
        assert abs(collisions - expected) <= 0.1 * expected
        print(
            f"\nCRITERION 9 PASS (2-universality): {collisions} collisions vs "
            f"{expected:.0f} expected (within 10%)"
        )

    def test_berlekamp_massey_exhaustive_length_ten(self):
        start = time.perf_counter()
        values = np.arange(1024)
        sequences = ((values[:, np.newaxis] >> np.arange(9, -1, -1)) & 1).astype(np.uint8)
        complexities = linear_complexity_batch(sequences)
        for seq, complexity in zip(sequences.tolist(), complexities.tolist()):
            assert complexity == _minimal_lfsr(seq), f"sequence {seq}"
        elapsed = time.perf_counter() - start
        print(
            f"\nCRITERION 9 PASS (BM exhaustive): linear_complexity_batch agrees "
            f"with minimal-LFSR search on all 1024 length-10 sequences ({elapsed:.1f} s)"
        )

    def test_end_to_end_determinism(self, tmp_path):
        cfg = preset_config("dataset_A", global_seed=12345)
        cfg = dataclasses.replace(
            cfg,
            tomo=dataclasses.replace(cfg.tomo, bayes_r=1000, bayes_burn_in=500),
        )
        report_a = run_all(cfg, tmp_path / "a", n_bits=450_000)
        report_b = run_all(cfg, tmp_path / "b", n_bits=450_000)
        for name in ("raw_bits.bin", "extracted_bits.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        assert _canonical(report_a) == _canonical(report_b)
        print(
            "\nCRITERION 9 PASS (determinism): byte-identical bit files and "
            "numerically identical reports on rerun"
        )

    def test_total_acceptance_wall_time(self):
        elapsed = time.perf_counter() - MODULE_START
        assert elapsed < 900.0
        print(f"\nCRITERION 9 PASS (runtime): acceptance module at {elapsed:.0f} s < 900 s")


def _minimal_lfsr(seq):
    """Exhaustive search for the shortest LFSR reproducing the sequence."""
    n = len(seq)
    if not any(seq):
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


def _canonical(report: dict):
    """Report with volatile fields (timestamps, file paths) removed."""

    def strip(obj):
        if isinstance(obj, dict):
            return {
                k: strip(v)
                for k, v in obj.items()
                if k not in ("started", "finished", "file", "scan_csv")
            }
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return strip(report)
