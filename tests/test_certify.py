import math

import numpy as np
import pytest

from diqrng import certify
from diqrng.certify import (
    ChshCounts,
    ChshSettings,
    chsh_direct,
    chsh_from_rho,
    min_entropy,
    optimal_settings_for_visibility,
)
from diqrng.extract import BitStream
from diqrng.pipeline import preset_config
from diqrng.qmath import born_probabilities, pauli_compose
from diqrng.source import eraser_postselected_state, simulate_chsh_counts, state_at_delay
from model_oracles import (
    chsh_direct_reference,
    chsh_predicted,
    chsh_quad_projectors,
    correlation_matrix,
    maximally_mixed,
    predicted_E,
    random_physical_state,
    random_unitary,
    singlet,
    werner,
)

SQRT2 = math.sqrt(2.0)


def dephased_state(v):
    rho, _ = eraser_postselected_state(45.0, v)
    return rho


class TestCorrelationE:
    """E of one setting pair, read off its row of chsh_direct(...).e_values."""

    @staticmethod
    def e_of_row(quad, row):
        quads = np.full((4, 4), 25, dtype=np.int64)
        quads[row] = quad
        return chsh_direct(ChshCounts(quads)).e_values[row]

    def test_perfect_correlation(self):
        for row in range(4):
            assert self.e_of_row((100, 100, 0, 0), row) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        for row in range(4):
            assert self.e_of_row((0, 0, 100, 100), row) == pytest.approx(-1.0)

    def test_uncorrelated(self):
        for row in range(4):
            assert self.e_of_row((50, 50, 50, 50), row) == pytest.approx(0.0)


class TestPredictedE:
    def test_singlet_closed_form(self):
        # E(alpha, beta) = -cos 2(alpha - beta) for the singlet.
        rho = singlet()
        for alpha, beta in [(0, 0), (10, 55), (0, 22.5), (30, 75), (45, 0)]:
            expected = -math.cos(math.radians(2.0 * (alpha - beta)))
            assert predicted_E(rho, alpha, beta) == pytest.approx(expected, abs=1e-12)

    def test_singlet_cardinal_values(self):
        rho = singlet()
        assert predicted_E(rho, 17.0, 17.0) == pytest.approx(-1.0)
        assert predicted_E(rho, 0.0, 45.0) == pytest.approx(0.0, abs=1e-12)
        assert predicted_E(rho, 22.5, 0.0) == pytest.approx(
            -math.cos(math.radians(45.0)), abs=1e-12
        )


class TestChshDirect:
    def test_analytic_singlet_counts_reach_tsirelson(self):
        # Oracle: exact Born quads N = total * p at the standard angles.
        settings = ChshSettings()
        rho = singlet()
        total = 10_000
        quads = np.empty((4, 4), dtype=np.int64)
        for row, (alpha, beta) in enumerate(settings.pairs()):
            e = -math.cos(math.radians(2.0 * (alpha - beta)))
            p_pp = (1.0 + e) / 4.0
            p_pm = (1.0 - e) / 4.0
            quads[row] = np.round(
                np.array([p_pp, p_pp, p_pm, p_pm]) * total
            ).astype(np.int64)
        result = chsh_direct(ChshCounts(quads))
        assert abs(result.S) == pytest.approx(2.0 * SQRT2, abs=1e-3)
        assert result.violates_classical

    def test_uncorrelated_counts_give_zero(self):
        quads = np.full((4, 4), 25, dtype=np.int64)
        result = chsh_direct(ChshCounts(quads))
        assert result.S == pytest.approx(0.0)
        assert not result.violates_classical

    def test_stderr_scales_with_counts(self):
        quads_small = np.full((4, 4), 25, dtype=np.int64)
        quads_big = np.full((4, 4), 2500, dtype=np.int64)
        assert chsh_direct(ChshCounts(quads_big)).stderr < chsh_direct(
            ChshCounts(quads_small)
        ).stderr

    def test_zero_pair_total_rejected(self):
        quads = np.full((4, 4), 10, dtype=np.int64)
        quads[2] = 0
        with pytest.raises(ValueError):
            ChshCounts(quads)

    @pytest.mark.parametrize("preset", ["dataset_A", "dataset_B", "classical_source"])
    def test_equals_the_per_row_reference_exactly(self, preset):
        cfg = preset_config(preset)
        rho = state_at_delay(cfg.source)
        for seed in range(50):
            counts = simulate_chsh_counts(rho, cfg.chsh.settings, cfg.chsh.pairs_per_setting, seed)
            result = chsh_direct(counts)
            assert (result.S, result.stderr, result.e_values) == chsh_direct_reference(counts.quads)


class TestChshFromRho:
    def test_singlet_reaches_tsirelson(self):
        assert chsh_from_rho(singlet()) == pytest.approx(
            2.0 * SQRT2, abs=1e-9
        )

    def test_maximally_mixed_is_zero(self):
        assert chsh_from_rho(maximally_mixed()) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_werner_scaling(self):
        # Analytic oracle: C = -p I so S = 2 sqrt(2) p.
        for p in (0.8, 0.5, 0.9):
            assert chsh_from_rho(werner(p)) == pytest.approx(
                2.0 * SQRT2 * p, abs=1e-6
            )

    def test_dephased_family_closed_form(self):
        # Singular values {1, v, v} give S = 2 sqrt(1 + v^2).
        for v in (0.9655, 0.758, 0.5, 0.0):
            expected = 2.0 * math.sqrt(1.0 + v * v)
            assert chsh_from_rho(dephased_state(v)) == pytest.approx(
                expected, abs=1e-9
            )

    def test_dataset_anchor_values(self):
        assert chsh_from_rho(dephased_state(0.9655)) == pytest.approx(2.78, abs=5e-3)
        assert chsh_from_rho(dephased_state(0.758)) == pytest.approx(2.51, abs=5e-3)

    def test_tsirelson_bound_on_random_states(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            s = chsh_from_rho(random_physical_state(rng))
            assert s <= 2.0 * SQRT2 + 1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            rho = random_physical_state(rng)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert chsh_from_rho(rotated) == pytest.approx(
                chsh_from_rho(rho), abs=1e-9
            )

    def test_product_states_respect_classical_bound(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            a = random_pure_state_1q(rng)
            b = random_pure_state_1q(rng)
            rho = np.kron(a, b)
            assert chsh_from_rho(rho) <= 2.0 + 1e-9

    def test_rejects_nonphysical(self):
        u = np.zeros((4, 4))
        u[0, 0] = 1.0
        u[1, 1] = -2.0
        with pytest.raises(ValueError):
            chsh_from_rho(pauli_compose(u))

    def test_stack_matches_per_state_calls(self):
        rng = np.random.default_rng(23)
        states = [random_physical_state(rng, rank=1 + k % 4) for k in range(12)]
        states += [singlet(), maximally_mixed()]
        stack = np.stack(states).reshape(2, 7, 4, 4)
        values = chsh_from_rho(stack)
        assert values.shape == (2, 7)
        per_state = np.array([chsh_from_rho(rho) for rho in states]).reshape(2, 7)
        assert np.max(np.abs(values - per_state)) <= 1e-12

        def reference(rho):
            # The one-state formula through the correlation matrix.
            s1, s2, _ = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
            return min(2.0 * math.sqrt(s1 * s1 + s2 * s2), 2.0 * SQRT2 + 1e-9)

        expected = np.array([reference(rho) for rho in states]).reshape(2, 7)
        assert np.max(np.abs(values - expected)) <= 1e-12

    def test_stack_rejects_one_nonphysical_member(self):
        rng = np.random.default_rng(24)
        stack = np.stack([random_physical_state(rng) for _ in range(5)])
        u = np.zeros((4, 4))
        u[0, 0] = 1.0
        u[1, 1] = -2.0
        bad_positivity = stack.copy()
        bad_positivity[3] = pauli_compose(u)
        # Hermiticity defect 1e-10: inside the 1e-9 trace and eigenvalue
        # tolerances, outside the 1e-12 Pauli-decomposition limit.
        bad_hermiticity = stack.copy()
        bad_hermiticity[1, 0, 1] += 1e-10
        for bad, member in ((bad_positivity, 3), (bad_hermiticity, 1)):
            with pytest.raises(ValueError, match="physical"):
                chsh_from_rho(bad)
            with pytest.raises(ValueError):
                chsh_from_rho(bad[member])

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_is_named_before_any_eigensolve(self, value):
        # eigvalsh on a NaN stack fails with "Eigenvalues did not converge".
        rng = np.random.default_rng(25)
        stack = np.stack([random_physical_state(rng) for _ in range(5)])
        stack[2, 1, 3] = value
        identity = np.eye(4)[np.newaxis]
        for caller, call, entry in (
            ("chsh_from_rho", lambda: chsh_from_rho(stack), (2, 1, 3)),
            ("chsh_from_rho", lambda: chsh_from_rho(stack[2]), (1, 3)),
            ("born_probabilities", lambda: born_probabilities(stack[2], identity), (1, 3)),
        ):
            with pytest.raises(ValueError) as error:
                call()
            assert str(error.value).startswith(f"{caller} requires finite states; entry {entry} is ")


def random_pure_state_1q(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestOptimalSettings:
    def test_unit_visibility_recovers_tsirelson(self):
        settings = optimal_settings_for_visibility(1.0)
        s = chsh_predicted(singlet(), settings)
        assert s == pytest.approx(2.0 * SQRT2, abs=1e-12)

    def test_dephased_state_reaches_horodecki_bound(self):
        for v in (0.9655, 0.758):
            rho = dephased_state(v)
            settings = optimal_settings_for_visibility(v)
            assert chsh_predicted(rho, settings) == pytest.approx(
                chsh_from_rho(rho), abs=1e-12
            )

    def test_standard_settings_are_suboptimal_off_dip(self):
        v = 0.758
        rho = dephased_state(v)
        s_std = abs(chsh_predicted(rho, ChshSettings()))
        assert s_std == pytest.approx(SQRT2 * (1.0 + v), abs=1e-12)
        assert s_std < chsh_from_rho(rho)


class TestChshAtSettings:
    def test_matches_the_analyzer_oracle_on_random_states_and_settings(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            rho = random_physical_state(rng, rank=int(rng.integers(1, 5)))
            settings = ChshSettings(*rng.uniform(0.0, 180.0, 4))
            assert certify.chsh_at_settings(rho, settings) == pytest.approx(
                chsh_predicted(rho, settings), abs=1e-12
            )

    @pytest.mark.parametrize("preset", ["dataset_A", "dataset_B"])
    def test_reaches_the_bound_at_each_presets_optimal_settings(self, preset):
        cfg = preset_config(preset)
        rho = state_at_delay(cfg.source)
        assert certify.chsh_at_settings(rho, cfg.chsh.settings) == pytest.approx(
            chsh_from_rho(rho), abs=1e-12
        )

    @pytest.mark.parametrize("preset", ["dataset_A", "dataset_B", "classical_source"])
    def test_equals_the_per_row_reference_on_the_born_probabilities(self, preset):
        cfg = preset_config(preset)
        rho = state_at_delay(cfg.source)
        probs = born_probabilities(rho, cfg.chsh.settings.projectors().reshape(16, 4, 4))
        s, _, _ = chsh_direct_reference(probs.reshape(4, 4))
        assert certify.chsh_at_settings(rho, cfg.chsh.settings) == s


class TestDirectVsPredictedConsistency:
    def test_simulated_counts_match_model_within_three_sigma(self):
        rng_seed = 99
        for v in (1.0, 0.9655, 0.758):
            rho = dephased_state(v)
            settings = (
                optimal_settings_for_visibility(v) if v > 0 else ChshSettings()
            )
            counts = simulate_chsh_counts(rho, settings, 200_000, rng_seed)
            result = chsh_direct(counts)
            predicted = chsh_predicted(rho, settings)
            assert abs(result.S - predicted) <= 3.0 * result.stderr + 1e-12

    def test_empirical_e_tracks_cosine_law(self):
        rho = singlet()
        for k, (alpha, beta) in enumerate([(0.0, 10.0), (15.0, 60.0), (30.0, 37.5)]):
            settings = ChshSettings(a=alpha, a_prime=45.0, b=beta, b_prime=67.5)
            counts = simulate_chsh_counts(rho, settings, 100_000, 7 + k)
            e_emp = chsh_direct(counts).e_values[0]
            expected = -math.cos(math.radians(2.0 * (alpha - beta)))
            sigma = math.sqrt((1.0 - expected**2) / 100_000.0) + 1e-9
            assert abs(e_emp - expected) <= 3.0 * sigma + 0.003


class TestMinEntropy:
    def test_balanced_stream(self):
        bits = np.tile([0, 1], 500)
        result = min_entropy(bits)
        assert result.h_inf == pytest.approx(1.0)
        assert result.p_max == pytest.approx(0.5)

    def test_all_zeros(self):
        result = min_entropy(np.zeros(1000, dtype=np.uint8))
        assert result.h_inf == 0.0
        assert result.p_max == 1.0

    def test_reference_magnitude(self):
        # p_max = 2^-0.999735 reproduces the quoted dataset-A figure.
        n = 2_000_000
        p_max = 2.0 ** -0.999735
        ones = round(p_max * n)
        bits = np.concatenate([np.ones(ones, np.uint8), np.zeros(n - ones, np.uint8)])
        result = min_entropy(bits)
        assert result.h_inf == pytest.approx(0.999735, abs=1e-5)

    def test_identity_holds_exactly(self):
        rng = np.random.default_rng(23)
        bits = (rng.random(10_001) < 0.47).astype(np.uint8)
        result = min_entropy(bits)
        assert result.h_inf == -math.log2(result.p_max)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(24)
        bits = (rng.random(5000) < 0.3).astype(np.uint8)
        shuffled = bits.copy()
        rng.shuffle(shuffled)
        assert min_entropy(bits) == min_entropy(shuffled)

    def test_accepts_bitstream(self):
        stream = BitStream.from_bits(np.tile([0, 1], 32))
        assert min_entropy(stream).h_inf == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_entropy(np.array([], dtype=np.uint8))


class TestChshProjectors:
    @pytest.mark.parametrize("v", [None, 0.9655, 0.758])
    def test_match_the_per_quad_kron_products(self, v):
        settings = ChshSettings() if v is None else optimal_settings_for_visibility(v)
        stack = settings.projectors()
        assert stack.shape == (4, 4, 4, 4)
        assert np.max(np.abs(stack - chsh_quad_projectors(settings))) <= 1e-15


class TestSettingsValidation:
    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            ChshSettings(a=-5.0)
        with pytest.raises(ValueError):
            ChshSettings(b=180.0)

    def test_quads_shape_enforced(self):
        with pytest.raises(ValueError):
            ChshCounts(np.ones((3, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            ChshCounts(-np.ones((4, 4), dtype=np.int64))
