"""Test-side references for the quantum model: the analytic CHSH prediction
with two-outcome analyzers A = P(angle) - P(angle + 90), the per-quad joint
polarizer projectors built one np.kron at a time, random states and
unitaries, a reader for the HOM scan CSV, and the Bayes chain run one
proposal at a time.

The library builds its projectors as broadcast stacks (``qmath.polarizer``,
``qmath.kron2``, ``ChshSettings.projectors``); the constructions here are
deliberately the explicit ket / outer product / np.kron forms, so tests that
compare the simulator against them do not compare it against itself.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from diqrng.certify import ChshSettings
from diqrng.qmath import TwoQubitState, is_physical
from diqrng.source import HomScan
from diqrng.tomography import _log_likelihood, _rho_from_vector


def linear_polarizer(angle_deg: float) -> np.ndarray:
    """|a><a| for the ket cos(a)|H> + sin(a)|V>."""
    a = math.radians(angle_deg)
    ket = np.array([math.cos(a), math.sin(a)], dtype=complex)
    return np.outer(ket, ket.conj())


def analyzer_operator(angle_deg: float) -> np.ndarray:
    """Two-outcome analyzer A = P(angle) - P(angle + 90); eigenvalues +-1."""
    return linear_polarizer(angle_deg) - linear_polarizer(angle_deg + 90.0)


def chsh_quad_projectors(settings: ChshSettings) -> np.ndarray:
    """(4, 4, 4, 4) joint projectors; per pair (alpha, beta) the quad order
    N(a,b), N(a_perp,b_perp), N(a,b_perp), N(a_perp,b)."""
    quads = []
    for alpha, beta in settings.pairs():
        p_a, p_ap = linear_polarizer(alpha), linear_polarizer(alpha + 90.0)
        p_b, p_bp = linear_polarizer(beta), linear_polarizer(beta + 90.0)
        quads.append([np.kron(p_a, p_b), np.kron(p_ap, p_bp), np.kron(p_a, p_bp), np.kron(p_ap, p_b)])
    return np.array(quads)


def predicted_E(rho: TwoQubitState, alpha_deg: float, beta_deg: float) -> float:
    """Analytic E = Tr(rho A(alpha) x A(beta)) for two-outcome analyzers."""
    if not is_physical(rho):
        raise ValueError("predicted_E requires a physical state")
    op = np.kron(analyzer_operator(alpha_deg), analyzer_operator(beta_deg))
    return float(np.trace(op @ rho.matrix).real)


def chsh_predicted(rho: TwoQubitState, settings: ChshSettings) -> float:
    """Noise-free S for given analyzer settings."""
    e = [predicted_E(rho, a, b) for a, b in settings.pairs()]
    return e[0] - e[1] + e[2] + e[3]


def random_physical_state(rng: np.random.Generator, rank: int | None = None) -> TwoQubitState:
    """Ginibre-ensemble density matrix; full rank unless rank is given."""
    k = 4 if rank is None else rank
    if not 1 <= k <= 4:
        raise ValueError("rank must be in 1..4")
    g = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
    m = g @ g.conj().T
    return TwoQubitState(m / np.trace(m).real)


def random_pure_state(rng: np.random.Generator) -> TwoQubitState:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return TwoQubitState.from_vector(v)


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-ish random unitary from the QR of a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hom_scan_from_csv(path) -> HomScan:
    """Read back a scan written by ``HomScan.to_csv``."""
    lines = Path(path).read_text().strip().splitlines()
    header = {}
    for token in lines[0].lstrip("# ").split():
        key, value = token.split("=")
        header[key] = value
    rows = [line.split(",") for line in lines[2:]]
    return HomScan(
        positions_nm=np.array([float(r[0]) for r in rows]),
        counts=np.array([int(r[1]) for r in rows]),
        dwell_s=float(header["dwell_s"]),
        rng_seed=int(header["rng_seed"]),
    )


def random_walk_chain_reference(counts, pset, cfg):
    """The Bayes chain one proposal at a time: the sequential random-walk
    Metropolis loop that ``tomography.bayesian_estimate`` prefetches.
    It calls the package's ``_rho_from_vector`` and ``_log_likelihood`` on
    one state at a time, the rho form the MLE also uses, so it checks the
    chain's real-arithmetic log-target as well as its prefetching.
    Returns (samples, rho_samples, acceptance_rate, step_final)."""
    stack = pset.stack
    n = counts.counts.astype(float)
    totals = np.full(16, float(counts.acquisition_total))
    empty_record = int(counts.counts.sum()) == 0
    dim = 9 * cfg.K
    rng = np.random.default_rng([int(cfg.rng_seed), 0xBA7E5])

    def log_target(x):
        rho = _rho_from_vector(x, cfg.K)
        if empty_record:
            return -0.5 * float(x @ x), rho
        ll, _ = _log_likelihood(rho, n, totals, stack)
        return ll - 0.5 * float(x @ x), rho

    x = rng.standard_normal(dim)
    log_p, rho = log_target(x)
    step = cfg.step
    total_steps = cfg.burn_in + cfg.R * cfg.thin
    kept_x = np.empty((cfg.R, dim))
    kept_rho = np.empty((cfg.R, 4, 4), dtype=complex)
    kept = 0
    accepted_post = 0
    window_accepts = 0
    for i in range(total_steps):
        proposal = x + step * rng.standard_normal(dim)
        cand_log_p, cand_rho = log_target(proposal)
        if math.log(rng.random()) < cand_log_p - log_p:
            x, log_p, rho = proposal, cand_log_p, cand_rho
            window_accepts += 1
            if i >= cfg.burn_in:
                accepted_post += 1
        if (i + 1) % 50 == 0:
            if i < cfg.burn_in:
                step *= math.exp(0.6 * (window_accepts / 50.0 - 0.3))
            window_accepts = 0
        if i >= cfg.burn_in and (i - cfg.burn_in) % cfg.thin == cfg.thin - 1:
            kept_x[kept] = x
            kept_rho[kept] = rho
            kept += 1
    return kept_x, kept_rho, accepted_post / (cfg.R * cfg.thin), step
