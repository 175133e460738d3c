import hashlib
import json
import math

import numpy as np
import pytest

from diqrng.certify import chsh_from_rho
from diqrng.pipeline import derive_seed, json_text, preset_config
from diqrng.qmath import born_probabilities, physicality
from diqrng.source import eraser_postselected_state, simulate_setting_counts, state_at_delay
from diqrng.tomography import (
    KWIAT,
    KWIAT_LABELS,
    PosteriorSamples,
    TomoConfig,
    TomoCounts,
    _log_likelihood,
    _log_likelihood_with_gradient,
    _log_target,
    _pauli_map,
    _project_to_states,
    _quadratic_forms,
    _rho_from_vector,
    bayesian_estimate,
    effective_sample_size,
    ls_invert,
    mle_estimate,
    posterior_functional,
    split_rhat,
)
from model_oracles import (
    fidelity,
    maximally_mixed,
    random_physical_state,
    random_walk_chain_reference,
    singlet,
)


def exact_counts(rho, total=10_000):
    return TomoCounts(
        np.round(born_probabilities(rho, KWIAT) * total).astype(np.int64), total
    )


def random_traceless_hermitian(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    return h - np.trace(h).real / 4.0 * np.eye(4)


def pipeline_tomo_counts(preset, seed):
    """The tomography counts run_certify builds for a preset and seed."""
    cfg = preset_config(preset, seed)
    total = cfg.tomo.acquisition_total
    counts = simulate_setting_counts(
        state_at_delay(cfg.source), KWIAT, total, derive_seed(seed, "tomo")
    )
    return TomoCounts(counts, total), cfg.source.overlap_at_delay()


class TestProjectorSet:
    def test_labels_and_shapes(self):
        assert len(KWIAT) == len(KWIAT_LABELS) == 16
        for proj in KWIAT:
            assert proj.shape == (4, 4)
            assert np.max(np.abs(proj @ proj - proj)) < 1e-12

    def test_stack_is_read_only_and_sized(self):
        assert KWIAT.shape == (16, 4, 4)
        with pytest.raises(ValueError):
            KWIAT[0, 0, 0] = 0.0

    def test_singlet_probabilities(self):
        probs = dict(zip(KWIAT_LABELS, born_probabilities(singlet(), KWIAT)))
        assert probs["HH"] == pytest.approx(0.0, abs=1e-12)
        assert probs["VV"] == pytest.approx(0.0, abs=1e-12)
        assert probs["HV"] == pytest.approx(0.5, abs=1e-12)
        assert probs["VH"] == pytest.approx(0.5, abs=1e-12)

    def test_born_map_has_full_rank(self):
        assert np.linalg.matrix_rank(_pauli_map(KWIAT), tol=1e-10) == 16


class TestLeastSquares:
    def test_exact_singlet_recovery(self):
        result = ls_invert(exact_counts(singlet(), 10**9))
        assert np.max(np.abs(result.rho_est - singlet())) < 1e-8
        assert not result.rho_est.flags.writeable

    def test_exact_mixed_recovery(self):
        result = ls_invert(exact_counts(maximally_mixed(), 10**9))
        assert np.max(np.abs(result.rho_est - np.eye(4) / 4.0)) < 1e-8

    def test_random_states_recovered_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rho = random_physical_state(rng)
            result = ls_invert(exact_counts(rho, 10**9))
            assert fidelity(result.rho_est, rho) > 0.999999

    def test_nonphysical_outputs_happen_at_low_counts(self):
        # Near-pure truth + acquisition_total 100 gives negative eigenvalues
        # in repeated trials.
        rho, _ = eraser_postselected_state(45.0, 0.98)
        nonphysical_seen = 0
        for seed in range(100):
            counts = TomoCounts(
                simulate_setting_counts(rho, KWIAT, 100, seed), 100
            )
            if counts.counts.sum() == 0:
                continue
            result = ls_invert(counts)
            if not result.physical:
                nonphysical_seen += 1
        assert nonphysical_seen >= 1
        # It is still returned, flagged, with diagnostics attached.
        assert "min_eigenvalue" in result.diagnostics


class TestMle:
    def test_exact_singlet_high_count(self):
        result = mle_estimate(exact_counts(singlet(), 1_000_000))
        assert result.physical
        assert fidelity(result.rho_est, singlet()) >= 0.9999

    def test_exact_maximally_mixed(self):
        result = mle_estimate(exact_counts(maximally_mixed(), 1_000_000))
        assert fidelity(result.rho_est, maximally_mixed()) >= 0.999

    def test_degenerate_tiny_counts_stay_physical(self):
        result = mle_estimate(TomoCounts(np.ones(16, dtype=np.int64), 16))
        assert result.physical
        assert np.trace(result.rho_est) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            mle_estimate(TomoCounts(np.zeros(16, dtype=np.int64), 100))

    def test_likelihood_never_decreases(self):
        # The duality-gap stop puts the result within tol of the maximum, so
        # it is at most tol below the start (the projected LS state).
        rho = random_physical_state(np.random.default_rng(1))
        counts = TomoCounts(
            simulate_setting_counts(rho, KWIAT, 5000, 3), 5000
        )
        result = mle_estimate(counts, TomoConfig(mle_tol=1e-3))
        assert result.diagnostics["log_likelihood"] > -np.inf
        assert result.physical
        start = _project_to_states(ls_invert(counts).rho_est)
        start_value, _ = _log_likelihood(
            start, counts.counts.astype(float), np.full(16, 5000.0), KWIAT
        )
        assert result.diagnostics["log_likelihood"] >= start_value - 1e-3

    def test_analytic_gradient_matches_finite_differences(self):
        # dl = Tr(G drho): check Tr(G H) against central differences of
        # l(rho + eps H) along random traceless Hermitian directions H.
        rng = np.random.default_rng(2)
        stack = KWIAT
        totals = np.full(16, 5000.0)
        truth = random_physical_state(rng)
        counts = simulate_setting_counts(truth, KWIAT, 5000, 4).astype(float)
        for _ in range(10):
            rho = random_physical_state(rng)
            _, _, grad = _log_likelihood_with_gradient(rho, counts, totals, stack)
            eps = 1e-6
            for _ in range(4):
                h = random_traceless_hermitian(rng)
                analytic = np.trace(grad @ h).real
                v_plus, _ = _log_likelihood(rho + eps * h, counts, totals, stack)
                v_minus, _ = _log_likelihood(rho - eps * h, counts, totals, stack)
                fd = (v_plus - v_minus) / (2.0 * eps)
                scale = max(abs(fd), abs(analytic), 1.0)
                assert abs(analytic - fd) / scale <= 1e-5

    def test_nonconvergence_raises_with_diagnostics(self):
        rho, _ = eraser_postselected_state(45.0, 0.9655)
        counts = TomoCounts(
            simulate_setting_counts(rho, KWIAT, 10_000, 0), 10_000
        )
        with pytest.raises(RuntimeError, match="gradient norm"):
            mle_estimate(counts, TomoConfig(mle_max_iters=5))

    @pytest.mark.parametrize("seed", [20260810, 20260832])
    def test_converges_at_former_nonconvergent_seeds(self, seed):
        counts, overlap = pipeline_tomo_counts("dataset_A", seed)
        result = mle_estimate(counts, TomoConfig(mle_tol=1e-3))
        assert result.diagnostics["duality_gap"] <= 1e-3
        model = 2.0 * math.sqrt(1.0 + overlap**2)
        assert abs(chsh_from_rho(result.rho_est) - model) <= 0.08

    def test_duality_gap_certifies_the_optimum(self):
        tol = 1e-3
        counts, _ = pipeline_tomo_counts("dataset_A", 20260810)
        result = mle_estimate(counts, TomoConfig(mle_tol=tol))
        rho_hat = result.rho_est
        n = counts.counts.astype(float)
        total = float(counts.acquisition_total)

        def born(rho):
            p = [np.trace(proj @ rho).real for proj in KWIAT]
            return np.clip(p, 1e-12, 1.0 - 1e-12)

        def loglik(rho):
            p = born(rho)
            return float(np.sum(n * np.log(p) + (total - n) * np.log(1.0 - p)))

        p_hat = born(rho_hat)
        weights = n / p_hat - (total - n) / (1.0 - p_hat)
        g_op = sum(w * proj for w, proj in zip(weights, KWIAT))
        gap = np.linalg.eigvalsh(g_op)[-1] - np.trace(g_op @ rho_hat).real
        assert gap <= tol
        assert gap == pytest.approx(result.diagnostics["duality_gap"], rel=1e-6, abs=1e-8)
        assert loglik(rho_hat) == pytest.approx(result.diagnostics["log_likelihood"], abs=1e-6)
        rng = np.random.default_rng(21)
        for eps in np.geomspace(1e-4, 1e-1, 50):
            sigma = random_physical_state(rng, rank=int(rng.integers(1, 5)))
            assert loglik((1.0 - eps) * rho_hat + eps * sigma) <= loglik(rho_hat) + tol


class TestBayesian:
    def test_prior_mean_is_maximally_mixed(self):
        # Direct prior sampling: the mixture construction averages to I/4.
        rng = np.random.default_rng(4)
        acc = np.zeros((4, 4), dtype=complex)
        n_draws = 4000
        for _ in range(n_draws):
            acc += _rho_from_vector(rng.standard_normal(36), 4)
        mean = acc / n_draws
        assert np.max(np.abs(mean - np.eye(4) / 4.0)) < 0.02

    def test_empty_data_posterior_matches_prior(self):
        # All-zero counts carry no record: the sampler targets the prior and
        # its mean approaches I/4 (cross-checked against direct prior
        # sampling in test_prior_mean_is_maximally_mixed).
        counts = TomoCounts(np.zeros(16, dtype=np.int64), 100)
        result, samples = bayesian_estimate(
            counts, 5, TomoConfig(bayes_r=6000, bayes_burn_in=1000, bayes_thin=3)
        )
        assert result.physical
        assert samples.R == 6000
        assert np.max(np.abs(result.rho_est - np.eye(4) / 4.0)) < 0.02

    def test_posterior_concentrates_on_truth(self):
        rng = np.random.default_rng(6)
        rho = random_physical_state(rng)
        result, _ = bayesian_estimate(exact_counts(rho, 10_000), 7)
        assert fidelity(result.rho_est, rho) >= 0.995

    def test_posterior_std_shrinks_with_counts(self):
        rho, _ = eraser_postselected_state(45.0, 0.9)
        stds = []
        for total in (1000, 10_000, 100_000):
            counts = TomoCounts(
                simulate_setting_counts(rho, KWIAT, total, 8), total
            )
            _, samples = bayesian_estimate(
                counts, 9, TomoConfig(bayes_r=3000, bayes_burn_in=1500, bayes_thin=3)
            )
            stds.append(posterior_functional(samples, chsh_from_rho)[1])
        assert stds[0] > stds[1] > stds[2]

    def test_two_chains_agree_within_three_sigma(self):
        rho, _ = eraser_postselected_state(45.0, 0.9655)
        counts = TomoCounts(
            simulate_setting_counts(rho, KWIAT, 10_000, 10), 10_000
        )
        means = []
        stds = []
        for seed in (11, 12):
            _, samples = bayesian_estimate(counts, seed)
            summary = posterior_functional(samples, chsh_from_rho)
            means.append(summary.mean)
            stds.append(summary.std)
        combined = math.hypot(stds[0], stds[1])
        assert abs(means[0] - means[1]) <= 3.0 * combined

    def test_acceptance_rate_in_window(self):
        rho = random_physical_state(np.random.default_rng(13))
        _, samples = bayesian_estimate(exact_counts(rho, 10_000), 14)
        assert 0.05 <= samples.acceptance_rate <= 0.6

    def test_every_sample_is_a_state(self):
        rho = random_physical_state(np.random.default_rng(15))
        _, samples = bayesian_estimate(
            exact_counts(rho, 1000),
            16, TomoConfig(bayes_r=500, bayes_burn_in=200, bayes_thin=1),
        )
        assert physicality(samples.rho_samples, "test")[0].all()
        assert not samples.rho_samples.flags.writeable

    def test_r_validation(self):
        with pytest.raises(ValueError, match="bayes_r must be at least 100, got 50"):
            TomoConfig(bayes_r=50)
        with pytest.raises(ValueError, match="bayes_burn_in must be at most bayes_r, 500, got 1000"):
            TomoConfig(bayes_r=500, bayes_burn_in=1000)

    @pytest.mark.parametrize("k_components", [1, 2, 4])
    def test_log_target_matches_rho_form_likelihood(self, k_components):
        # The chain's real-arithmetic Born map against l(rho(x)), the form the
        # MLE and the sequential oracle use, plus the standard normal prior.
        counts, _ = pipeline_tomo_counts("dataset_A", 20260808)
        n = counts.counts.astype(float)
        totals = np.full(16, float(counts.acquisition_total))
        x = np.random.default_rng(40 + k_components).standard_normal((200, 9 * k_components))
        prior = -0.5 * np.sum(x * x, axis=-1)
        want = _log_likelihood(_rho_from_vector(x, k_components), n, totals, KWIAT)[0] + prior
        got = _log_target(x, k_components, (n, totals, _quadratic_forms(KWIAT)))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # An empty record has a flat likelihood: the log-target is the prior.
        np.testing.assert_allclose(_log_target(x, k_components, None), prior, rtol=1e-12, atol=0.0)

    def test_quadratic_forms_of_any_hermitian_set(self):
        # psi^dag P psi = v^T Q v with v = [Re psi, Im psi], also for
        # Hermitian operators that are not rank-1 projectors.
        rng = np.random.default_rng(44)
        a = rng.standard_normal((16, 4, 4)) + 1j * rng.standard_normal((16, 4, 4))
        stack = a + a.conj().transpose(0, 2, 1)
        kets = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        v = np.concatenate([kets.real, kets.imag], axis=1)
        got = np.einsum("ra,rb->rab", v, v).reshape(10, 64) @ _quadratic_forms(stack)
        want = np.einsum("ri,kij,rj->rk", kets.conj(), stack, kets).real
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "case",
        [
            "pipeline dataset_A 20260809",
            "K=1 burn_in=230 thin=1",
            "K=2 burn_in=117 thin=3",
            "step=0.03 burn_in=160 thin=2",
            "empty",
        ],
    )
    def test_prefetched_chain_matches_sequential_oracle(self, case):
        # The prefetched chain must be the one-proposal-at-a-time chain, bit
        # for bit.  The odd burn-in lengths end inside an adaptation window.
        if case.startswith("pipeline"):
            counts, _ = pipeline_tomo_counts("dataset_A", 20260809)
            cfg = preset_config("dataset_A", 20260809).tomo
            seed = derive_seed(20260809, "bayes")
        elif case.startswith("K=1"):
            counts, _ = pipeline_tomo_counts("dataset_B", 20260808)
            seed, cfg = 31, TomoConfig(bayes_r=500, bayes_burn_in=230, bayes_thin=1, bayes_k=1)
        elif case.startswith("K=2"):
            counts, _ = pipeline_tomo_counts("dataset_B", 20260808)
            seed, cfg = 32, TomoConfig(bayes_r=400, bayes_burn_in=117, bayes_thin=3, bayes_k=2)
        elif case.startswith("step"):
            counts, _ = pipeline_tomo_counts("dataset_B", 20260808)
            seed, cfg = 34, TomoConfig(bayes_r=300, bayes_burn_in=160, bayes_thin=2, bayes_step=0.03)
        else:
            counts = TomoCounts(np.zeros(16, dtype=np.int64), 100)
            seed, cfg = 33, TomoConfig(bayes_r=600, bayes_burn_in=100, bayes_thin=2)
        result, samples = bayesian_estimate(counts, seed, cfg)
        ref_x, ref_rho, ref_acceptance, ref_step = random_walk_chain_reference(counts, cfg, seed)
        assert np.array_equal(samples.samples, ref_x)
        assert np.array_equal(samples.rho_samples, ref_rho)
        assert np.array_equal(samples.acceptance_rate, ref_acceptance)
        assert np.array_equal(result.diagnostics["step_final"], ref_step)
        assert result.diagnostics["evaluations"] > cfg.bayes_burn_in + cfg.bayes_r * cfg.bayes_thin

    @pytest.mark.parametrize(
        "preset, evaluations, acceptance, step_final, samples_sha256",
        [
            ("dataset_A", 55_019, 0.22396, 0.013545124061076427, "de8a0797db845093"),
            ("dataset_B", 67_242, 0.30984, 0.010155613783108005, "6eb9e5c8d6d1ea3b"),
        ],
    )
    def test_pipeline_chain_pinned(self, preset, evaluations, acceptance, step_final, samples_sha256):
        # The pipeline chains at seed 20260808 as the per-step loop drew
        # them: a leaner loop must not move a draw, a decision or the count
        # of log-targets computed.
        counts, _ = pipeline_tomo_counts(preset, 20260808)
        cfg = preset_config(preset, 20260808).tomo
        result, samples = bayesian_estimate(counts, derive_seed(20260808, "bayes"), cfg)
        assert result.diagnostics["evaluations"] == evaluations
        assert samples.acceptance_rate == acceptance
        assert result.diagnostics["step_final"] == step_final
        assert hashlib.sha256(samples.samples.tobytes()).hexdigest()[:16] == samples_sha256


class TestPosteriorFunctional:
    def test_trace_functional_is_constant(self):
        counts = TomoCounts(np.ones(16, dtype=np.int64), 16)
        _, samples = bayesian_estimate(
            counts, 17, TomoConfig(bayes_r=500, bayes_burn_in=200, bayes_thin=1)
        )
        summary = posterior_functional(
            samples, lambda ms: np.trace(ms, axis1=1, axis2=2).real
        )
        assert summary.mean == pytest.approx(1.0, abs=1e-9)
        assert summary.std < 1e-9

    def test_fidelity_with_truth_functional(self):
        rho = random_physical_state(np.random.default_rng(18))
        _, samples = bayesian_estimate(exact_counts(rho, 10_000), 19)
        summary = posterior_functional(
            samples, lambda ms: [fidelity(m, rho) for m in ms]
        )
        assert summary.mean >= 0.95

    def test_needs_at_least_two_samples(self):
        samples = PosteriorSamples(
            samples=np.zeros((1, 36)),
            rho_samples=np.eye(4, dtype=complex)[np.newaxis] / 4.0,
            acceptance_rate=0.3,
        )
        with pytest.raises(ValueError):
            posterior_functional(samples, lambda m: 1.0)

    @pytest.mark.parametrize(
        "preset, seed, rhat, ess",
        [("dataset_A", 20260809, 1.195, 15), ("dataset_B", 20260808, 1.026, 131)],
    )
    def test_pipeline_chain_convergence_is_reported(self, preset, seed, rhat, ess):
        counts, _ = pipeline_tomo_counts(preset, seed)
        cfg = preset_config(preset, seed).tomo
        _, samples = bayesian_estimate(counts, derive_seed(seed, "bayes"), cfg)
        with pytest.warns(UserWarning, match="split R-hat"):
            summary = posterior_functional(samples, chsh_from_rho)
        assert round(summary.split_rhat, 3) == rhat
        assert round(summary.ess) == ess

    def test_rhat_and_ess_of_independent_draws(self):
        draws = np.random.default_rng(41).standard_normal(20_000)
        assert split_rhat(draws) == pytest.approx(1.0, abs=0.005)
        assert effective_sample_size(draws) == pytest.approx(20_000, rel=0.1)

    def test_ess_of_an_autoregressive_chain(self):
        phi, n = 0.9, 100_000
        rng = np.random.default_rng(42)
        noise = rng.standard_normal(n)
        draws = np.empty(n)
        draws[0] = noise[0] / math.sqrt(1.0 - phi**2)
        for i in range(1, n):
            draws[i] = phi * draws[i - 1] + noise[i]
        assert effective_sample_size(draws) == pytest.approx(n * (1 - phi) / (1 + phi), rel=0.15)
        assert split_rhat(draws) == pytest.approx(1.0, abs=0.01)

    def test_constant_draws_have_no_convergence_figures(self):
        assert math.isnan(split_rhat(np.ones(100)))
        assert math.isnan(effective_sample_size(np.ones(100)))

    def test_draws_without_spread_warn_and_encode_as_null(self):
        # NaN fails every comparison, so only "warn unless R-hat <= 1.01
        # and ESS >= 400" catches a functional whose draws never move.
        cfg = TomoConfig(bayes_r=200, bayes_burn_in=100, bayes_thin=1)
        _, samples = bayesian_estimate(exact_counts(singlet()), 5, cfg)
        with pytest.warns(UserWarning, match="functional draws have split R-hat nan and ESS nan"):
            summary = posterior_functional(samples, lambda r: np.ones(len(r)))

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        data = json.loads(json_text({"one": summary._asdict()}), parse_constant=reject)
        assert data["one"] == {"mean": 1.0, "std": 0.0, "split_rhat": None, "ess": None}


class TestOracleEquivalence:
    def test_three_estimators_agree_on_exact_frequencies(self):
        rng = np.random.default_rng(20)
        for seed in range(3):
            rho = random_physical_state(rng)
            counts = exact_counts(rho, 100_000)
            f_ls = fidelity(ls_invert(counts).rho_est, rho)
            f_mle = fidelity(mle_estimate(counts).rho_est, rho)
            bayes, _ = bayesian_estimate(counts, seed)
            f_bayes = fidelity(bayes.rho_est, rho)
            assert f_ls >= 0.999
            assert f_mle >= 0.999
            assert f_bayes >= 0.995
