"""Test-side references for the quantum model: named states (pure, singlet,
maximally mixed, Werner) as (4, 4) arrays, the analytic CHSH prediction
with two-outcome analyzers A = P(angle) - P(angle + 90), the CHSH estimate
of a (4, 4) count array computed one setting pair at a time, the per-quad
joint polarizer projectors built one np.kron at a time, the Pauli decomposition,
correlation matrix and Uhlmann fidelity of a state, random states and
unitaries, a reader for the HOM scan CSV, the Bayes chain run one proposal
at a time, and the heralded event chunk drawn as whole batch arrays.

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
from diqrng.qmath import DEFAULT_TOL, HERMITICITY_TOL, PAULI2, require_physical
from diqrng.source import _EVENT_STREAM, HomScan
from diqrng.tomography import KWIAT, _log_likelihood, _rho_from_vector


def pure_state(psi) -> np.ndarray:
    """|psi><psi| from a 4-component ket, normalized here."""
    v = np.asarray(psi, dtype=complex).reshape(4)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot build a state from the zero vector")
    v = v / norm
    return np.outer(v, v.conj())


def singlet() -> np.ndarray:
    return pure_state([0.0, 1.0, -1.0, 0.0])


def maximally_mixed() -> np.ndarray:
    return np.eye(4, dtype=complex) / 4.0


def werner(p: float) -> np.ndarray:
    """p * singlet + (1-p) * I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("werner weight must be in [0, 1]")
    return p * singlet() + (1.0 - p) * maximally_mixed()


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


def predicted_E(rho: np.ndarray, alpha_deg: float, beta_deg: float) -> float:
    """Analytic E = Tr(rho A(alpha) x A(beta)) for two-outcome analyzers."""
    require_physical(rho, "predicted_E")
    op = np.kron(analyzer_operator(alpha_deg), analyzer_operator(beta_deg))
    return float(np.trace(op @ rho).real)


def chsh_predicted(rho: np.ndarray, settings: ChshSettings) -> float:
    """Noise-free S for given analyzer settings."""
    e = [predicted_E(rho, a, b) for a, b in settings.pairs()]
    return e[0] - e[1] + e[2] + e[3]


def chsh_direct_reference(quads) -> tuple:
    """(S, stderr, e_values) of a (4, 4) array of quads (PAIR_ORDER rows,
    QUAD_ORDER columns), one row at a time: E = (q0 + q1 - q2 - q3) / total
    and its Poisson variance sum_k q_k ((sign_k - E) / total)^2 per row."""
    e_values, var = [], 0.0
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    for quad in quads:
        q = np.asarray(quad, dtype=float).reshape(4)
        total = float(q.sum())
        e = float((q[0] + q[1] - q[2] - q[3]) / total)
        e_values.append(e)
        var += float(np.sum(q * ((signs - e) / total) ** 2))
    s = e_values[0] - e_values[1] + e_values[2] + e_values[3]
    return s, math.sqrt(var), tuple(e_values)


def pauli_decompose(rho: np.ndarray) -> np.ndarray:
    """Coefficients u[i,j] = Tr(rho (sigma_i x sigma_j)), a real 4x4 array;
    the inverse of ``qmath.pauli_compose``."""
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("pauli_decompose requires a Hermitian matrix")
    if abs(np.trace(rho) - 1.0) > DEFAULT_TOL:
        raise ValueError("pauli_decompose requires unit trace")
    return np.einsum("ijab,ba->ij", PAULI2, rho).real


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 block c[i,j] = Tr(rho (sigma_i x sigma_j)), i,j in {x,y,z}."""
    require_physical(rho, "correlation_matrix")
    return pauli_decompose(rho)[1:, 1:].copy()


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2."""
    require_physical(np.stack([a, b]), "fidelity")
    sqrt_a = _psd_sqrt(0.5 * (a + a.conj().T))
    inner = sqrt_a @ (0.5 * (b + b.conj().T)) @ sqrt_a
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    f = float(np.sum(np.sqrt(np.clip(w, 0.0, None)))) ** 2
    return min(max(f, 0.0), 1.0)


def random_physical_state(rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Ginibre-ensemble density matrix; full rank unless rank is given."""
    k = 4 if rank is None else rank
    if not 1 <= k <= 4:
        raise ValueError("rank must be in 1..4")
    g = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return pure_state(v)


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


def random_walk_chain_reference(counts, cfg, rng_seed):
    """The Bayes chain one proposal at a time: the sequential random-walk
    Metropolis loop that ``tomography.bayesian_estimate`` prefetches.
    It calls the package's ``_rho_from_vector`` and ``_log_likelihood`` on
    one state at a time, the rho form the MLE also uses, so it checks the
    chain's real-arithmetic log-target as well as its prefetching.
    ``cfg`` is a ``TomoConfig``, of which it reads the ``bayes_*`` fields.
    Returns (samples, rho_samples, acceptance_rate, step_final)."""
    R, burn_in, thin, K = cfg.bayes_r, cfg.bayes_burn_in, cfg.bayes_thin, cfg.bayes_k
    n = counts.counts.astype(float)
    totals = np.full(16, float(counts.acquisition_total))
    empty_record = int(counts.counts.sum()) == 0
    dim = 9 * K
    rng = np.random.default_rng([int(rng_seed), 0xBA7E5])

    def log_target(x):
        rho = _rho_from_vector(x, K)
        if empty_record:
            return -0.5 * float(x @ x), rho
        ll, _ = _log_likelihood(rho, n, totals, KWIAT)
        return ll - 0.5 * float(x @ x), rho

    x = rng.standard_normal(dim)
    log_p, rho = log_target(x)
    step = cfg.bayes_step
    total_steps = burn_in + R * thin
    kept_x = np.empty((R, dim))
    kept_rho = np.empty((R, 4, 4), dtype=complex)
    kept = 0
    accepted_post = 0
    window_accepts = 0
    for i in range(total_steps):
        proposal = x + step * rng.standard_normal(dim)
        cand_log_p, cand_rho = log_target(proposal)
        if math.log(rng.random()) < cand_log_p - log_p:
            x, log_p, rho = proposal, cand_log_p, cand_rho
            window_accepts += 1
            if i >= burn_in:
                accepted_post += 1
        if (i + 1) % 50 == 0:
            if i < burn_in:
                step *= math.exp(0.6 * (window_accepts / 50.0 - 0.3))
            window_accepts = 0
        if i >= burn_in and (i - burn_in) % thin == thin - 1:
            kept_x[kept] = x
            kept_rho[kept] = rho
            kept += 1
    return kept_x, kept_rho, accepted_post / (R * thin), step


def chunk_bits_reference(cfg, p_v: float, chunk_index: int, n_bits: int):
    """One chunk of heralded windows drawn as whole batch arrays; returns
    (bits, (coincidences, herald_only, double_dark, ties)).

    Each batch draws its uniforms as whole arrays in the order photon
    polarization, detection, H dark click, V dark click (the dark arrays
    only when the dark probability is positive), every array at once.  The
    diagnostics count the windows up to the last kept bit.
    """
    rng = np.random.default_rng([cfg.rng_seed, _EVENT_STREAM, chunk_index])
    eta = cfg.det_efficiency
    p_dark = cfg.dark_rate * cfg.coincidence_window

    # P(exactly one of the H/V detectors clicks) for batch sizing.
    p_click_given_photon = eta + (1.0 - eta) * p_dark
    p_valid = p_click_given_photon * (1.0 - p_dark) + (1.0 - p_click_given_photon) * p_dark
    p_valid = max(p_valid, 1e-6)

    bits = np.empty(n_bits, dtype=np.uint8)
    filled = 0
    coincidences = herald_only = double_dark = ties = 0
    while filled < n_bits:
        need = n_bits - filled
        batch = int(need / p_valid * 1.05) + 64
        photon_v = rng.random(batch) < p_v
        detected = rng.random(batch) < eta
        if p_dark > 0.0:
            dark_h = rng.random(batch) < p_dark
            dark_v = rng.random(batch) < p_dark
        else:
            dark_h = np.zeros(batch, dtype=bool)
            dark_v = np.zeros(batch, dtype=bool)
        click_h = (~photon_v & detected) | dark_h
        click_v = (photon_v & detected) | dark_v
        kept = np.flatnonzero(click_h ^ click_v)[:need]
        used = int(kept[-1]) + 1 if kept.size == need else batch
        clicks = int(np.count_nonzero(click_h[:used] | click_v[:used]))
        coincidences += clicks
        herald_only += used - clicks
        double_dark += int(np.count_nonzero(dark_h[:used] & dark_v[:used]))
        ties += clicks - kept.size
        bits[filled : filled + kept.size] = click_v[kept]
        filled += kept.size
    return bits, (coincidences, herald_only, double_dark, ties)
