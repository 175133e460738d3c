"""Stochastic simulator of the SPDC + HOM + quantum-eraser photon-pair source.

Produces HOM coincidence scans, post-selected two-qubit polarization states
parameterized by the path delay, heralded H/V bit streams, and Poissonian
projector counts for the tomography and CHSH stages.  Every stochastic
operation is a pure function of its inputs and an explicit RNG seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .certify import ChshCounts, ChshSettings
from .extract import BitStream
from .qmath import born_probabilities, kron2, polarizer, read_only

# Sub-stream tags keeping the independent consumers of one seed apart.
_HOM_STREAM = 1
_EVENT_STREAM = 2
_COUNT_STREAM = 3

_CHUNK_BITS = 1 << 20
# Windows per block of an event chunk: one array's uniforms are 512 KB of float64.
_BLOCK_WINDOWS = 1 << 16


@dataclass(frozen=True)
class SourceConfig:
    """Physical parameters of the simulated source.

    visibility_v0     peak HOM visibility (dip depth at zero delay)
    dip_sigma_nm      Gaussian dip 1/e half-width (free parameter; the
                      reference setup does not quote one)
    delay_tau_nm      path-length offset from the dip center
    pair_rate         detected-pair generation rate, pairs/s
    dark_rate         dark counts/s per detector
    det_efficiency    per-arm detection efficiency
    coincidence_window  coincidence gate, seconds
    rng_seed          seed of the HOM scan and the event stream; not part
                      of a pipeline config, whose stages derive it from
                      the global seed
    """

    visibility_v0: float = 0.97
    dip_sigma_nm: float = 300.0
    delay_tau_nm: float = 0.0
    pair_rate: float = 50_000.0
    dark_rate: float = 100.0
    det_efficiency: float = 0.6
    coincidence_window: float = 1e-9
    rng_seed: int = 12345

    def __post_init__(self):
        if not 0.0 <= self.visibility_v0 <= 1.0:
            raise ValueError("visibility_v0 must be in [0, 1]")
        if self.dip_sigma_nm <= 0:
            raise ValueError("dip_sigma_nm must be positive")
        # A source that detects no pairs has no HOM dip and no bits.
        if not self.pair_rate > 0:
            raise ValueError(f"pair_rate must be positive, got {self.pair_rate!r}")
        if not 0.0 < self.det_efficiency <= 1.0:
            raise ValueError(f"det_efficiency must be in (0, 1], got {self.det_efficiency!r}")
        for name in ("dark_rate", "coincidence_window"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # The product is the dark-click probability of one detector in one
        # gate.  At 1 every gate clicks on both paths and no bit is ever made.
        if not self.dark_rate * self.coincidence_window < 1.0:
            raise ValueError(
                "dark_rate * coincidence_window is the dark-click probability per "
                f"gate and must be below 1, got {self.dark_rate!r} * {self.coincidence_window!r}"
            )

    def overlap_at_delay(self) -> float:
        """Indistinguishability overlap v = v0 exp(-tau^2 / (2 sigma^2))."""
        x = self.delay_tau_nm / self.dip_sigma_nm
        return self.visibility_v0 * math.exp(-0.5 * x * x)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(dataclasses.asdict(self), sort_keys=True).encode()
        ).hexdigest()


@dataclass(frozen=True)
class HomScan:
    """One translation-stage sweep: coincidences per dwell at each position."""

    positions_nm: np.ndarray
    counts: np.ndarray
    dwell_s: float
    rng_seed: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions_nm, dtype=float)
        cnt = np.asarray(self.counts, dtype=np.int64)
        if pos.size != cnt.size:
            raise ValueError("positions and counts must have equal length")
        if np.any(cnt < 0):
            raise ValueError("counts must be non-negative")
        pos.flags.writeable = False
        cnt.flags.writeable = False
        object.__setattr__(self, "positions_nm", pos)
        object.__setattr__(self, "counts", cnt)

    def to_csv(self, path) -> Path:
        path = Path(path)
        lines = [f"# dwell_s={float(self.dwell_s)!r} rng_seed={self.rng_seed}"]
        lines.append("position_nm,counts")
        for p, c in zip(self.positions_nm, self.counts):
            lines.append(f"{float(p)!r},{int(c)}")
        path.write_text("\n".join(lines) + "\n")
        return path


@dataclass(frozen=True)
class EventStream:
    """Heralded bit stream plus bookkeeping on non-bit outcomes."""

    bits: BitStream
    n_coincidences: int
    n_herald_only: int
    n_double_dark: int
    n_ties: int

    def __post_init__(self):
        if self.bits.n_bits != self.n_coincidences - self.n_ties:
            raise ValueError("every coincidence that is not a tie must be a bit")


# ---------------------------------------------------------------------------
# HOM curve
# ---------------------------------------------------------------------------

def hom_coincidence_rate(cfg: SourceConfig, tau_nm: float) -> float:
    """R(tau) = R0 (1 - v0 exp(-tau^2 / 2 sigma^2)); R0 set by pair rate and
    two-detector efficiency."""
    r0 = cfg.pair_rate * cfg.det_efficiency ** 2
    x = tau_nm / cfg.dip_sigma_nm
    return r0 * (1.0 - cfg.visibility_v0 * math.exp(-0.5 * x * x))


def default_scan_positions(cfg: SourceConfig, n_points: int = 61, span_sigmas: float = 3.0):
    return np.linspace(
        -span_sigmas * cfg.dip_sigma_nm, span_sigmas * cfg.dip_sigma_nm, n_points
    )


def scan_hom(cfg: SourceConfig, positions_nm, dwell_s: float) -> HomScan:
    """Poisson-sampled coincidence counts at each stage position."""
    positions = np.asarray(positions_nm, dtype=float)
    if positions.size == 0:
        raise ValueError("scan needs at least one stage position")
    if dwell_s < 0:
        raise ValueError("dwell time must be non-negative")
    rng = np.random.default_rng([cfg.rng_seed, _HOM_STREAM])
    rates = np.array([hom_coincidence_rate(cfg, p) for p in positions])
    counts = rng.poisson(rates * dwell_s)
    return HomScan(positions, counts, dwell_s, rng_seed=cfg.rng_seed)


def _dip_model(tau, r0, v, sigma, tau0):
    return r0 * (1.0 - v * np.exp(-((tau - tau0) ** 2) / (2.0 * sigma ** 2)))


def visibility_from_scan(scan: HomScan) -> tuple:
    """Least-squares fit of the Gaussian-dip model; returns (v, v_err).

    v is (C_max - C_min) / C_max of the fitted curve, which is the fitted dip
    depth parameter itself.  scipy.optimize is imported here, at the first
    fit, so that importing the package does not load it.
    """
    from scipy.optimize import curve_fit

    if scan.positions_nm.size < 7:
        raise ValueError("need at least 7 scan points spanning the dip")
    counts = scan.counts.astype(float)
    c_max = float(counts.max())
    if c_max <= 0:
        raise RuntimeError("HOM fit failed: scan contains no counts")
    c_min = float(counts.min())
    i_min = int(np.argmin(counts))
    span = float(scan.positions_nm.max() - scan.positions_nm.min())
    p0 = [
        c_max,
        max(1e-6, 1.0 - c_min / c_max),
        max(span / 6.0, 1e-9),
        float(scan.positions_nm[i_min]),
    ]
    sigma_w = np.sqrt(np.clip(counts, 1.0, None))
    try:
        popt, pcov = curve_fit(
            _dip_model,
            scan.positions_nm,
            counts,
            p0=p0,
            sigma=sigma_w,
            maxfev=20_000,
        )
    except (RuntimeError, ValueError) as exc:
        residual = counts - _dip_model(scan.positions_nm, *p0)
        raise RuntimeError(
            "HOM fit failed to converge: "
            f"{exc}; initial-guess residual rms {float(np.sqrt(np.mean(residual**2))):.3g}"
        ) from exc
    v = float(popt[1])
    v_err = float(np.sqrt(abs(pcov[1, 1])))
    return v, v_err


# ---------------------------------------------------------------------------
# Post-selected polarization state
# ---------------------------------------------------------------------------

def eraser_postselected_state(hwp_angle_deg: float, overlap: float) -> tuple:
    """Two-qubit state after the eraser HWP and one-photon-per-port
    post-selection, with the post-selection probability.

    The HWP at angle theta rotates the second photon's polarization by
    2*theta.  At 45 degrees and unit overlap the coincidence amplitudes are
    (|HV> - |VH>)/2, i.e. the singlet at probability 1/2.  Partial overlap v
    dephases the HV/VH coherence to -v/2 and lets a (1-v)/2 fraction of the
    HH component anti-bunch into the cross port; away from the 0/45 degree
    endpoints that HH term stays partially coherent with HV and VH through
    the shared wavepacket mode.

    Returns (rho, p_postselect), rho a read-only (4, 4) array; rho is None
    when p_postselect == 0.
    """
    if not 0.0 <= hwp_angle_deg <= 45.0:
        raise ValueError("eraser HWP angle must be in [0, 45] degrees")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be in [0, 1]")
    phi = math.radians(2.0 * hwp_angle_deg)
    s = math.sin(phi)
    c = math.cos(phi)
    p_post = s * s / 2.0 + c * c * (1.0 - overlap) / 2.0
    if p_post <= 0.0:
        return None, 0.0
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = s * s / 4.0
    m[1, 2] = m[2, 1] = -overlap * s * s / 4.0
    m[0, 0] = c * c * (1.0 - overlap) / 2.0
    m[0, 1] = m[1, 0] = m[0, 2] = m[2, 0] = s * c * (1.0 - overlap) / 4.0
    return read_only(m / p_post), p_post


def state_at_delay(cfg: SourceConfig) -> np.ndarray:
    """Post-selected (dephased) state at the configured delay; the overlap
    follows the HOM envelope."""
    rho, _ = eraser_postselected_state(45.0, cfg.overlap_at_delay())
    return rho


# ---------------------------------------------------------------------------
# Event generation
# ---------------------------------------------------------------------------

def _chunk_bits(cfg: SourceConfig, p_v: float, chunk_index: int, n_bits: int):
    """Simulate one chunk of heralded windows; returns (bits, diagnostics).

    Deterministic in (cfg.rng_seed, chunk_index) only, so chunks can be
    produced in any order or in parallel.  A batch of ``batch`` windows
    takes its uniforms from the chunk's PCG64 stream as consecutive arrays:
    photon polarization, detection and, when dark counts are possible, the
    H and V dark clicks.  ``Generator.random`` takes one 64-bit output per
    double, so array j starts at output ``j * batch`` past the earlier
    batches.  Each array is read from its own copy of the stream, advanced
    to that start, in blocks of _BLOCK_WINDOWS windows, and reading stops
    at the block that holds the chunk's last kept window.  The diagnostics
    count the windows up to that one.
    """
    seed = [cfg.rng_seed, _EVENT_STREAM, chunk_index]
    eta = cfg.det_efficiency
    p_dark = cfg.dark_rate * cfg.coincidence_window
    probs = [p_v, eta, p_dark, p_dark] if p_dark > 0.0 else [p_v, eta]

    # P(exactly one of the H/V detectors clicks) for batch sizing.
    p_click_given_photon = eta + (1.0 - eta) * p_dark
    p_valid = p_click_given_photon * (1.0 - p_dark) + (1.0 - p_click_given_photon) * p_dark
    p_valid = max(p_valid, 1e-6)

    bits = np.empty(n_bits, dtype=np.uint8)
    uniforms = np.empty(_BLOCK_WINDOWS)
    flags = np.empty((len(probs), _BLOCK_WINDOWS), dtype=bool)
    filled = drawn = 0
    coincidences = herald_only = double_dark = ties = 0
    while filled < n_bits:
        batch = int((n_bits - filled) / p_valid * 1.05) + 64
        streams = [
            np.random.Generator(np.random.PCG64(seed).advance(drawn + j * batch))
            for j in range(len(probs))
        ]
        drawn += len(probs) * batch
        for start in range(0, batch, _BLOCK_WINDOWS):
            size = min(_BLOCK_WINDOWS, batch - start)
            block = flags[:, :size]
            # Each array's block is compared while its uniforms are in cache.
            for stream, p, flag in zip(streams, probs, block):
                np.less(stream.random(out=uniforms[:size]), p, out=flag)
            photon_v, detected, *dark = block
            click_h = detected & ~photon_v
            click_v = detected & photon_v
            if dark:
                click_h |= dark[0]
                click_v |= dark[1]
            need = n_bits - filled
            kept = np.flatnonzero(click_h ^ click_v)[:need]
            used = int(kept[-1]) + 1 if kept.size == need else size
            clicks = int(np.count_nonzero(click_h[:used] | click_v[:used]))
            coincidences += clicks
            herald_only += used - clicks
            if dark:
                double_dark += int(np.count_nonzero(dark[0][:used] & dark[1][:used]))
            ties += clicks - kept.size
            bits[filled : filled + kept.size] = click_v[kept]
            filled += kept.size
            if filled == n_bits:
                break
    return bits, (coincidences, herald_only, double_dark, ties)


def generate_events(cfg: SourceConfig, n_bits: int) -> EventStream:
    """Heralded H/V bit stream: bit 0 on an H-path click, bit 1 on a V-path
    click; ties (both paths clicking in one window) are discarded and
    counted.  Exactly n_bits bits are returned, deterministically per seed.

    Each chunk is packed into the stream's payload as soon as it is made;
    every chunk but the last is a whole number of bytes.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    rho = state_at_delay(cfg)
    p_v = born_probabilities(rho, kron2(np.eye(2), polarizer([90.0])))[0]

    data = np.empty((n_bits + 7) // 8, dtype=np.uint8)
    totals = np.zeros(4, dtype=np.int64)
    for start in range(0, n_bits, _CHUNK_BITS):
        bits, diag = _chunk_bits(cfg, p_v, start // _CHUNK_BITS, min(_CHUNK_BITS, n_bits - start))
        packed = np.packbits(bits, bitorder="little")
        data[start // 8 : start // 8 + packed.size] = packed
        totals += diag

    stream = BitStream(
        data,
        n_bits,
        provenance={
            "stage": "raw",
            "source_config_sha256": cfg.digest(),
            "source_config": dataclasses.asdict(cfg),
            "rng_seed": cfg.rng_seed,
        },
    )
    return EventStream(
        bits=stream,
        n_coincidences=int(totals[0]),
        n_herald_only=int(totals[1]),
        n_double_dark=int(totals[2]),
        n_ties=int(totals[3]),
    )


# ---------------------------------------------------------------------------
# Poissonian projector counts (feed tomography and direct CHSH)
# ---------------------------------------------------------------------------

def simulate_setting_counts(
    rho: np.ndarray, stack, expected_total: float, rng_seed: int
) -> np.ndarray:
    """Poissonian counts, one per projector of a (K, 4, 4) stack, under one seed."""
    if expected_total < 0:
        raise ValueError("expected_total must be non-negative")
    probs = born_probabilities(rho, stack)
    rng = np.random.default_rng([int(rng_seed), _COUNT_STREAM])
    return rng.poisson(expected_total * probs).astype(np.int64)


def simulate_chsh_counts(
    rho: np.ndarray,
    settings: ChshSettings,
    pairs_per_setting: int,
    rng_seed: int,
) -> ChshCounts:
    """Coincidence quads for the four CHSH setting pairs, from the joint
    projectors of ``settings.projectors()`` (pairs in PAIR_ORDER, outcomes
    in QUAD_ORDER)."""
    if pairs_per_setting < 1:
        raise ValueError("pairs_per_setting must be at least 1")
    stack = settings.projectors().reshape(16, 4, 4)
    quads = simulate_setting_counts(rho, stack, pairs_per_setting, rng_seed)
    return ChshCounts(quads=quads.reshape(4, 4))
