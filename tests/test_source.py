import itertools
import math
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import diqrng
from diqrng.certify import chsh_from_rho
from diqrng.pipeline import derive_seed, preset_config
from diqrng.qmath import born_probabilities, kron2, physicality, polarizer
from diqrng.source import (
    _CHUNK_BITS,
    _chunk_bits,
    EventStream,
    HomScan,
    SourceConfig,
    default_scan_positions,
    eraser_postselected_state,
    generate_events,
    hom_coincidence_rate,
    scan_hom,
    simulate_setting_counts,
    state_at_delay,
    visibility_from_scan,
)
from model_oracles import chunk_bits_reference, hom_scan_from_csv, maximally_mixed, singlet


# ---------------------------------------------------------------------------
# Oracle: explicit two-photon amplitude enumeration through a 50:50 beam
# splitter.  Single-photon modes are (port, polarization, internal wavepacket)
# with ports 3/4 at the output; photon 2 carries sqrt(v) of the internal mode
# shared with photon 1 and sqrt(1-v) of an orthogonal one.  Post-selection
# keeps one photon per port and traces out the internal label.
# ---------------------------------------------------------------------------

def fock_enumeration_oracle(hwp_angle_deg, overlap):
    phi = math.radians(2.0 * hwp_angle_deg)
    pol2 = {"H": math.cos(phi), "V": math.sin(phi)}
    internal2 = {0: math.sqrt(overlap), 1: math.sqrt(1.0 - overlap)}

    # Output-mode amplitudes of each input photon after the beam splitter:
    # port1 -> (port3 + i port4)/sqrt(2); port2 -> (i port3 + port4)/sqrt(2).
    c1 = {}
    c2 = {}
    for pol in ("H", "V"):
        for internal in (0, 1):
            amp1 = 1.0 if (pol == "H" and internal == 0) else 0.0
            amp2 = pol2[pol] * internal2[internal]
            c1[(3, pol, internal)] = amp1 / math.sqrt(2.0)
            c1[(4, pol, internal)] = 1j * amp1 / math.sqrt(2.0)
            c2[(3, pol, internal)] = 1j * amp2 / math.sqrt(2.0)
            c2[(4, pol, internal)] = amp2 / math.sqrt(2.0)

    # Bosonic amplitude on unordered mode pairs restricted to one photon in
    # port 3 and one in port 4: psi[(s,w),(s',w')] for (3,s,w) and (4,s',w').
    pol_labels = ("H", "V")
    psi = {}
    for s, w, sp, wp in itertools.product(pol_labels, (0, 1), pol_labels, (0, 1)):
        j = (3, s, w)
        k = (4, sp, wp)
        psi[(s, w, sp, wp)] = c1[j] * c2[k] + c1[k] * c2[j]

    p_post = sum(abs(a) ** 2 for a in psi.values())
    rho = np.zeros((4, 4), dtype=complex)
    index = {"H": 0, "V": 1}
    for (s, w, sp, wp), amp in psi.items():
        for (t, x, tp, xp), amp2 in psi.items():
            if w == x and wp == xp:  # trace over internal labels
                row = 2 * index[s] + index[sp]
                col = 2 * index[t] + index[tp]
                rho[row, col] += amp * np.conj(amp2)
    if p_post > 0:
        rho /= p_post
    return rho, p_post


class TestEraserState:
    def test_full_eraser_gives_singlet(self):
        rho, p = eraser_postselected_state(45.0, 1.0)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(rho - singlet())) < 1e-12
        assert not rho.flags.writeable

    def test_matches_fock_oracle_across_parameters(self):
        for angle in (45.0, 30.0, 10.0, 0.0):
            for overlap in (1.0, 0.9655, 0.758, 0.5, 0.0):
                rho, p = eraser_postselected_state(angle, overlap)
                rho_oracle, p_oracle = fock_enumeration_oracle(angle, overlap)
                assert p == pytest.approx(p_oracle, abs=1e-12)
                if p > 0:
                    assert np.max(np.abs(rho - rho_oracle)) < 1e-12

    def test_no_eraser_bunches_completely(self):
        rho, p = eraser_postselected_state(0.0, 1.0)
        assert p == 0.0
        assert rho is None

    def test_zero_overlap_is_fully_dephased(self):
        rho, p = eraser_postselected_state(45.0, 0.0)
        assert p == pytest.approx(0.5)
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 0.5
        assert np.max(np.abs(rho - expected)) < 1e-12
        assert chsh_from_rho(rho) == pytest.approx(2.0, abs=1e-9)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            eraser_postselected_state(50.0, 1.0)
        with pytest.raises(ValueError):
            eraser_postselected_state(-1.0, 1.0)
        with pytest.raises(ValueError):
            eraser_postselected_state(45.0, 1.5)


class TestHomCurve:
    def test_far_from_dip_recovers_baseline(self):
        cfg = SourceConfig()
        r0 = cfg.pair_rate * cfg.det_efficiency**2
        assert hom_coincidence_rate(cfg, 1e9) == pytest.approx(r0)

    def test_dip_depth_at_center(self):
        cfg = SourceConfig(visibility_v0=0.97)
        r0 = cfg.pair_rate * cfg.det_efficiency**2
        assert hom_coincidence_rate(cfg, 0.0) == pytest.approx(0.03 * r0)

    def test_one_sigma_point(self):
        cfg = SourceConfig(visibility_v0=0.97)
        r0 = cfg.pair_rate * cfg.det_efficiency**2
        expected = r0 * (1.0 - 0.97 * math.exp(-0.5))
        assert hom_coincidence_rate(cfg, cfg.dip_sigma_nm) == pytest.approx(expected)

    def test_scan_is_deterministic(self):
        cfg = SourceConfig(rng_seed=77)
        positions = default_scan_positions(cfg)
        scan_a = scan_hom(cfg, positions, 0.5)
        scan_b = scan_hom(cfg, positions, 0.5)
        assert np.array_equal(scan_a.counts, scan_b.counts)

    def test_zero_dwell_gives_zero_counts(self):
        cfg = SourceConfig()
        scan = scan_hom(cfg, default_scan_positions(cfg), 0.0)
        assert np.all(scan.counts == 0)

    def test_empty_positions_rejected(self):
        with pytest.raises(ValueError):
            scan_hom(SourceConfig(), [], 1.0)


class TestVisibilityFit:
    @pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
    def test_noiseless_scan_recovers_exactly(self):
        cfg = SourceConfig(visibility_v0=0.97)
        positions = default_scan_positions(cfg)
        # Exact model counts at a scale where integer rounding is negligible.
        scale = 1e8 / hom_coincidence_rate(cfg, 1e9)
        counts = np.round(
            [hom_coincidence_rate(cfg, p) * scale for p in positions]
        ).astype(np.int64)
        v, v_err = visibility_from_scan(HomScan(positions, counts, dwell_s=scale))
        assert v == pytest.approx(0.97, abs=1e-6)

    def test_poisson_scan_recovers_within_tolerance(self):
        cfg = SourceConfig(visibility_v0=0.97, rng_seed=5)
        positions = default_scan_positions(cfg)
        r0 = cfg.pair_rate * cfg.det_efficiency**2
        dwell = 1e4 / r0  # peak counts around 10^4
        for seed in range(5):
            scan = scan_hom(SourceConfig(visibility_v0=0.97, rng_seed=seed), positions, dwell)
            v, _ = visibility_from_scan(scan)
            assert abs(v - 0.97) <= 0.01

    @pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
    def test_flat_scan_fits_zero_visibility(self):
        cfg = SourceConfig(visibility_v0=0.0, rng_seed=3)
        scan = scan_hom(cfg, default_scan_positions(cfg), 0.5)
        v, _ = visibility_from_scan(scan)
        assert abs(v) < 0.01

    def test_too_few_points_rejected(self):
        cfg = SourceConfig()
        scan = scan_hom(cfg, np.linspace(-300, 300, 5), 0.5)
        with pytest.raises(ValueError):
            visibility_from_scan(scan)

    def test_csv_roundtrip(self, tmp_path):
        cfg = SourceConfig(rng_seed=11)
        scan = scan_hom(cfg, default_scan_positions(cfg, n_points=15), 0.25)
        path = scan.to_csv(tmp_path / "scan.csv")
        back = hom_scan_from_csv(path)
        assert np.array_equal(back.counts, scan.counts)
        assert np.allclose(back.positions_nm, scan.positions_nm)
        assert back.dwell_s == scan.dwell_s
        assert back.rng_seed == scan.rng_seed


class TestStateAtDelay:
    def test_on_dip_unit_visibility_is_singlet(self):
        cfg = SourceConfig(visibility_v0=1.0, delay_tau_nm=0.0)
        rho = state_at_delay(cfg)
        assert np.max(np.abs(rho - singlet())) < 1e-12

    def test_dataset_anchor_chsh_values(self):
        # v solved from 2 sqrt(1 + v^2) = S gives the two operating points.
        rho_a = state_at_delay(SourceConfig(visibility_v0=0.9655))
        assert chsh_from_rho(rho_a) == pytest.approx(2.0 * math.sqrt(1 + 0.9655**2), abs=1e-9)
        assert chsh_from_rho(rho_a) == pytest.approx(2.78, abs=5e-3)
        rho_b = state_at_delay(SourceConfig(visibility_v0=0.758))
        assert chsh_from_rho(rho_b) == pytest.approx(2.51, abs=5e-3)

    def test_always_physical_and_monotone_in_delay(self):
        cfg0 = SourceConfig(visibility_v0=0.97, dip_sigma_nm=400.0)
        previous = None
        for tau in (0.0, 100.0, 250.0, 500.0, 900.0, 2000.0):
            cfg = SourceConfig(
                visibility_v0=0.97, dip_sigma_nm=400.0, delay_tau_nm=tau
            )
            rho = state_at_delay(cfg)
            assert physicality(rho, "test")[0]
            s = chsh_from_rho(rho)
            if previous is not None:
                assert s <= previous + 1e-12
            previous = s
        assert cfg0.overlap_at_delay() == pytest.approx(0.97)


class TestGenerateEvents:
    def test_same_seed_identical_streams(self):
        cfg = SourceConfig(rng_seed=42)
        a = generate_events(cfg, 10_000)
        b = generate_events(cfg, 10_000)
        assert a.bits.sha256() == b.bits.sha256()
        assert a.n_herald_only == b.n_herald_only

    def test_different_seed_differs(self):
        a = generate_events(SourceConfig(rng_seed=1), 10_000)
        b = generate_events(SourceConfig(rng_seed=2), 10_000)
        assert a.bits.sha256() != b.bits.sha256()

    def test_exact_bit_count_and_invariant(self):
        stream = generate_events(SourceConfig(rng_seed=3), 12_345)
        assert stream.bits.n_bits == 12_345
        assert stream.bits.n_bits == stream.n_coincidences - stream.n_ties

    def test_noisy_counts_stop_at_the_last_kept_bit(self):
        # Only the windows up to the last kept bit are counted, so every
        # counted coincidence is a bit or a tie.
        cfg = SourceConfig(dark_rate=5e7, rng_seed=12)
        for n_bits in (1, 12_345, _CHUNK_BITS + 1000):
            stream = generate_events(cfg, n_bits)
            assert stream.n_coincidences - stream.n_ties == n_bits
        assert stream.n_ties > 0

    def test_perfect_detectors_count_one_window_per_bit(self):
        cfg = SourceConfig(dark_rate=0.0, det_efficiency=1.0, rng_seed=13)
        stream = generate_events(cfg, 20_000)
        assert (stream.n_coincidences, stream.n_herald_only, stream.n_ties) == (20_000, 0, 0)

    def test_event_stream_rejects_counts_that_do_not_match_the_bits(self):
        bits = generate_events(SourceConfig(rng_seed=14), 100).bits
        EventStream(bits, n_coincidences=103, n_herald_only=50, n_double_dark=0, n_ties=3)
        with pytest.raises(ValueError, match="coincidence"):
            EventStream(bits, n_coincidences=103, n_herald_only=50, n_double_dark=0, n_ties=0)

    def test_balanced_within_binomial_bound(self):
        n = 1_000_000
        stream = generate_events(SourceConfig(rng_seed=4), n)
        ones = stream.bits.ones()
        assert abs(ones / n - 0.5) <= 0.0015  # 3 sigma of a fair binomial

    def test_perfect_detectors_have_no_herald_only(self):
        cfg = SourceConfig(dark_rate=0.0, det_efficiency=1.0, rng_seed=5)
        stream = generate_events(cfg, 50_000)
        assert stream.n_herald_only == 0
        assert stream.n_ties == 0
        assert stream.n_double_dark == 0

    def test_zero_efficiency_rejected(self):
        # A source that detects no pairs is rejected when it is built.
        with pytest.raises(ValueError, match="det_efficiency must be in"):
            SourceConfig(det_efficiency=0.0, dark_rate=0.0)
        with pytest.raises(ValueError, match="pair_rate must be positive"):
            SourceConfig(pair_rate=0.0)

    def test_dark_saturation_rejected(self):
        # At one dark click per gate every gate clicks on both paths, so a
        # source there could never make a bit.
        for dark_rate in (1e9, 3e9):
            with pytest.raises(ValueError, match=r"dark_rate \* coincidence_window .* below 1"):
                SourceConfig(dark_rate=dark_rate)
        with pytest.raises(ValueError, match=r"dark_rate \* coincidence_window"):
            SourceConfig(dark_rate=1.0, coincidence_window=2.0)
        SourceConfig(dark_rate=5e8)

    def test_sidecar_carries_source_snapshot(self, tmp_path):
        cfg = SourceConfig(rng_seed=8)
        stream = generate_events(cfg, 1000).bits
        stream.save(tmp_path / "bits.bin")
        import json

        sidecar = json.loads((tmp_path / "bits.bin.json").read_text())
        assert sidecar["stage"] == "raw"
        assert sidecar["source_config"]["rng_seed"] == 8
        assert sidecar["source_config"]["det_efficiency"] == cfg.det_efficiency

    def test_chunking_is_schedule_independent(self):
        cfg = SourceConfig(rng_seed=6)
        n = _CHUNK_BITS + 1000
        full = generate_events(cfg, n)
        # Producing chunk 1 before chunk 0 gives the same stream.
        second, _ = _chunk_bits(cfg, 0.5, 1, 1000)
        first, _ = _chunk_bits(cfg, 0.5, 0, _CHUNK_BITS)
        assert np.array_equal(
            full.bits.to_bits(), np.concatenate([first, second])
        )


def _p_v(cfg: SourceConfig) -> float:
    """P(V) of the post-selected state, as generate_events computes it."""
    return born_probabilities(state_at_delay(cfg), kron2(np.eye(2), polarizer([90.0])))[0]


class TestBlockStreamedChunks:
    """The chunk kernel reads each batch's uniforms in blocks and stops at
    the last kept window; the reference draws every batch as whole arrays.
    Bits and (coincidences, herald-only, double-dark, ties) must be equal."""

    @staticmethod
    def _assert_matches_reference(cfg, chunk_index, n_bits):
        p_v = _p_v(cfg)
        bits, counts = _chunk_bits(cfg, p_v, chunk_index, n_bits)
        ref_bits, ref_counts = chunk_bits_reference(cfg, p_v, chunk_index, n_bits)
        assert np.array_equal(bits, ref_bits)
        assert counts == ref_counts
        return counts

    @pytest.mark.parametrize("preset", ["dataset_A", "dataset_B"])
    @pytest.mark.parametrize("seed", [0, 1, 20260808])
    def test_preset_sources(self, preset, seed):
        cfg = replace(preset_config(preset).source, rng_seed=seed)
        for chunk_index, n_bits in ((0, 150_000), (3, 777)):
            self._assert_matches_reference(cfg, chunk_index, n_bits)

    @pytest.mark.parametrize("dark_rate", [0.0, 5e7])
    def test_with_and_without_dark_counts(self, dark_rate):
        # dark_rate 0 draws two arrays per batch, a positive rate four.
        cfg = SourceConfig(dark_rate=dark_rate, rng_seed=21)
        counts = self._assert_matches_reference(cfg, 1, 200_000)
        assert (counts[2] > 0) == (dark_rate > 0)

    def test_second_batch(self):
        # At det_efficiency 1e-3 a batch of a few bits often ends short, so
        # the chunk draws a second batch further along the same stream.
        eta, p_dark = 1e-3, SourceConfig().dark_rate * SourceConfig().coincidence_window
        p_click = eta + (1.0 - eta) * p_dark
        p_valid = p_click * (1.0 - p_dark) + (1.0 - p_click) * p_dark
        second_batches = 0
        for seed in range(72):
            cfg = SourceConfig(det_efficiency=eta, rng_seed=seed)
            for n_bits in range(1, 6):
                coincidences, herald_only, _, _ = self._assert_matches_reference(
                    cfg, seed % 3, n_bits
                )
                first_batch = int(n_bits / p_valid * 1.05) + 64
                second_batches += coincidences + herald_only > first_batch
        assert second_batches > 0

    @pytest.mark.parametrize("n_bits", [_CHUNK_BITS + 1, 4_500_003])
    def test_whole_stream_joins_the_reference_chunks(self, n_bits):
        cfg = SourceConfig(rng_seed=22)
        p_v = _p_v(cfg)
        chunks = [
            chunk_bits_reference(cfg, p_v, start // _CHUNK_BITS, min(_CHUNK_BITS, n_bits - start))
            for start in range(0, n_bits, _CHUNK_BITS)
        ]
        stream = generate_events(cfg, n_bits)
        assert np.array_equal(stream.bits.to_bits(), np.concatenate([bits for bits, _ in chunks]))
        totals = np.sum([counts for _, counts in chunks], axis=0)
        assert (
            stream.n_coincidences,
            stream.n_herald_only,
            stream.n_double_dark,
            stream.n_ties,
        ) == tuple(totals)


class TestRawStreamPin:
    def test_dataset_a_raw_stream_is_pinned(self):
        # The raw stream of the canonical run: dataset_A, the "bits" seed of
        # global seed 20260808, 4.5 M bits.
        cfg = preset_config("dataset_A")
        src = replace(cfg.source, rng_seed=derive_seed(cfg.global_seed, "bits"))
        stream = generate_events(src, cfg.n_bits)
        assert stream.bits.sha256() == (
            "dce478b2aa4e3f03445fa302d94d9bfc32003c6219b65c4a0f4dd2e707cbdb27"
        )
        assert (
            stream.n_coincidences,
            stream.n_herald_only,
            stream.n_double_dark,
            stream.n_ties,
        ) == (4_500_000, 3_001_451, 0, 0)

    def test_45m_bits_grow_peak_rss_by_under_40_mb(self):
        # A fresh interpreter, so the peak is this generation's own.  The
        # stream's payload is 5.6 MB; the rest is one chunk's working set.
        pytest.importorskip("resource")
        script = textwrap.dedent(
            """
            import resource, sys
            sys.path.insert(0, {src!r})
            from diqrng.source import SourceConfig, generate_events
            generate_events(SourceConfig(), 1000)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            generate_events(SourceConfig(), 45_000_000)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            unit = 1 if sys.platform == "darwin" else 1024
            print((after - before) * unit / 2**20)
            """
        ).format(src=str(Path(diqrng.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 40.0


class TestSimulateCounts:
    def test_zero_probability_gives_zero(self):
        rho = singlet()
        hh = np.outer([1, 0, 0, 0], [1, 0, 0, 0])[np.newaxis]
        for seed in range(5):
            assert simulate_setting_counts(rho, hh, 10_000, seed)[0] == 0

    def test_unit_probability_within_poisson_band(self):
        rho = maximally_mixed()
        count = simulate_setting_counts(rho, np.eye(4)[np.newaxis], 10_000, 9)[0]
        assert abs(count - 10_000) <= 300  # 3 sigma

    def test_setting_counts_deterministic_and_sized(self):
        rho = singlet()
        stack = kron2(polarizer([0.0, 45.0, 90.0]), np.eye(2))
        a = simulate_setting_counts(rho, stack, 1000, 17)
        b = simulate_setting_counts(rho, stack, 1000, 17)
        assert np.array_equal(a, b)
        assert a.shape == (3,)
