"""Density-matrix estimation from the counts of one fixed tomography design.

The design is :data:`KWIAT`, the 16 two-qubit polarization projectors of
James, Kwiat, Munro and White (PRA 64, 052312, 2001); its Pauli design
matrix and the chain's quadratic forms are built once, at import.  Every
estimator takes the 16 counts in :data:`KWIAT_LABELS` order.

Three estimators: least-squares inversion (fast, possibly nonphysical),
maximum likelihood by accelerated projected gradient ascent on the density
matrix (always physical, stopped by a duality-gap certificate), and a
pseudo-Bayesian posterior mean sampled with random-walk Metropolis-Hastings
over a K-component pure-state mixture (always physical).  The posterior of
any state functional, with split-R-hat and effective sample size, comes
from :func:`posterior_functional` on the sampler's draws.  Their settings,
and those of the acquisition, are one :class:`TomoConfig`, the pipeline's
``tomo`` section.

The chain's log-target never forms a density matrix: the Born probabilities
come from the real and imaginary parts of the kets through one fixed
(64, 16) real matrix of quadratic forms, and rho is built only for the kept
draws, once, after the chain.  That log-target can differ from the rho-form
value l(rho(x)) of the likelihood the MLE uses by a few ulps (at most 2,
about 2.9e-11 at l = -7.8e4, over the kept draws of the pipeline chains),
so a Metropolis test that ties to that precision could go the other way.
The tests pin the kept draws, their states, the acceptance rate and the
final step bit for bit against a sequential loop on l(rho(x)) at a pipeline
case, two small K = 1 and K = 2 chains and the empty record.

Likelihood convention: each of the 16 settings is an independent
acquisition of ``acquisition_total`` pairs, so the log-likelihood
conditions each count on its setting total,

    l(rho) = sum_i [ n_i log p_i + (N_i - n_i) log(1 - p_i) ],

whose maximizer at noise-free frequencies is the generating state (the bare
product of p_i^{n_i} is not stationary at the truth for this projector list,
whose operator sum is far from proportional to the identity).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .qmath import PAULI2, kron2, pauli_compose, physicality, read_only

KWIAT_LABELS = (
    "HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
    "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL",
)

_KET = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "R": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
}


def _pauli_map(stack: np.ndarray) -> np.ndarray:
    """M[k, 4i+j] = Tr(P_k sigma_i x sigma_j) for a (16, 4, 4) projector stack."""
    return np.einsum("kij,abji->kab", stack, PAULI2).real.reshape(len(stack), 16)


def _product_projectors(labels) -> np.ndarray:
    """The (len(labels), 4, 4) stack of |ab><ab| for two-letter labels ab
    (first letter = heralding arm analyzer, second = measured arm)."""
    kets = np.array([[_KET[label[0]], _KET[label[1]]] for label in labels])
    arm = kets[..., :, np.newaxis] * kets[..., np.newaxis, :].conj()
    return kron2(arm[:, 0], arm[:, 1])


#: The 16-setting polarization design, a read-only (16, 4, 4) projector
#: stack in KWIAT_LABELS order.
KWIAT = read_only(_product_projectors(KWIAT_LABELS))


@dataclass(frozen=True)
class TomoCounts:
    counts: np.ndarray
    acquisition_total: float

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (16,):
            raise ValueError("tomography needs exactly 16 counts")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        if self.acquisition_total <= 0:
            raise ValueError("acquisition_total must be positive")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    def frequencies(self) -> np.ndarray:
        return self.counts / self.acquisition_total


@dataclass(frozen=True)
class TomoConfig:
    """Tomography stage settings: the pairs acquired per setting, the MLE's
    iteration cap and duality-gap bound (in nats), and the Bayes sampler's
    kept draws R, burn-in, thinning, initial step and mixture size K."""

    acquisition_total: int = 10_000
    mle_max_iters: int = 20_000
    mle_tol: float = 1e-3
    bayes_r: int = 5000
    bayes_burn_in: int = 2000
    bayes_thin: int = 5
    bayes_step: float = 0.08
    bayes_k: int = 4

    def __post_init__(self):
        for key, valid, rule in (
            ("acquisition_total", self.acquisition_total >= 1, "at least 1"),
            ("mle_max_iters", self.mle_max_iters >= 1, "at least 1"),
            ("mle_tol", self.mle_tol > 0, "positive"),
            ("bayes_r", self.bayes_r >= 100, "at least 100"),
            ("bayes_burn_in", self.bayes_burn_in <= self.bayes_r, f"at most bayes_r, {self.bayes_r}"),
            ("bayes_thin", self.bayes_thin >= 1, "at least 1"),
            ("bayes_step", self.bayes_step > 0, "positive"),
            ("bayes_k", self.bayes_k >= 1, "at least 1"),
        ):
            if not valid:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")


@dataclass(frozen=True)
class TomoResult:
    rho_est: np.ndarray  # read-only (4, 4)
    physical: bool
    diagnostics: dict = field(default_factory=dict)


def _result(rho: np.ndarray, what: str, diagnostics: dict) -> TomoResult:
    """The estimate rho, read-only, with its physicality and minimum
    eigenvalue."""
    physical, (_, _, min_eig) = physicality(rho, what)
    return TomoResult(
        rho_est=read_only(rho),
        physical=bool(physical),
        diagnostics={**diagnostics, "min_eigenvalue": float(min_eig)},
    )


@dataclass(frozen=True)
class PosteriorSamples:
    """Thinned post-burn-in parameter vectors with their realized states."""

    samples: np.ndarray  # (R, 9K) parameter vectors
    rho_samples: np.ndarray  # (R, 4, 4) realized density matrices, read-only
    acceptance_rate: float

    @property
    def R(self) -> int:
        return int(self.samples.shape[0])


# ---------------------------------------------------------------------------
# Least-squares inversion
# ---------------------------------------------------------------------------

#: The KWIAT Born map as p = _OFFSET + _DESIGN u_free over the 15 free
#: Pauli coefficients, shapes (16,) and (16, 15).
_BORN_MAP = read_only(_pauli_map(KWIAT) / 4.0)
_OFFSET, _DESIGN = _BORN_MAP[:, 0], _BORN_MAP[:, 1:]


def ls_invert(counts: TomoCounts) -> TomoResult:
    """Least-squares inversion of measured frequencies.

    The result is Hermitian with unit trace by construction but has no
    positivity guarantee; the ``physical`` flag says whether it happens to
    be a state.
    """
    shifted = counts.frequencies() - _OFFSET
    u_free, *_ = np.linalg.lstsq(_DESIGN, shifted, rcond=None)
    u = np.empty((4, 4))
    u[0, 0] = 1.0
    u.flat[1:] = u_free
    return _result(pauli_compose(u), "ls_invert", {})


# ---------------------------------------------------------------------------
# Maximum likelihood by accelerated projected gradient ascent on the state
# ---------------------------------------------------------------------------

_P_CLIP = 1e-12


def _binomial_log_likelihood(probs: np.ndarray, counts, totals):
    """Binomial log-likelihood of the 16 counts at each (..., 16) row of
    Born probabilities, shape (...), and the clipped probabilities it was
    evaluated at."""
    probs = np.minimum(np.maximum(probs, _P_CLIP), 1.0 - _P_CLIP)
    value = np.add.reduce(counts * np.log(probs) + (totals - counts) * np.log1p(-probs), axis=-1)
    return value, probs


def _log_likelihood(rho: np.ndarray, counts, totals, stack):
    """Binomial log-likelihood of the 16 counts under each state of an
    (..., 4, 4) stack, shape (...), and the clipped (..., 16) Born
    probabilities it was evaluated at."""
    probs = np.einsum("kij,...ji->...k", stack, rho).real
    return _binomial_log_likelihood(probs, counts, totals)


def _log_likelihood_with_gradient(rho: np.ndarray, counts, totals, stack):
    """l(rho), its clipped Born probabilities, and the gradient operator
    G = sum_k (dl/dp_k) P_k, so that dl = Tr(G drho), for one state."""
    value, probs = _log_likelihood(rho, counts, totals, stack)
    weights = counts / probs - (totals - counts) / (1.0 - probs)
    return float(value), probs, np.einsum("k,kij->ij", weights, stack)


def _divergence(p_new, p, counts, totals) -> float:
    """l(p) + dl(p).(p_new - p) - l(p_new) >= 0, summed term by term so it
    stays accurate where a difference of log-likelihoods would cancel."""
    u = p_new / p - 1.0
    v = (p - p_new) / (1.0 - p)
    return float(np.sum(counts * (u - np.log1p(u)) + (totals - counts) * (v - np.log1p(v))))


def _project_to_states(h: np.ndarray) -> np.ndarray:
    """Nearest density matrix to the Hermitian matrix h (Frobenius norm): one
    eigh, then the eigenvalues projected onto the probability simplex."""
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    desc = w[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1, 5)
    theta = shifts[desc > shifts][-1]
    return (v * np.clip(w - theta, 0.0, None)) @ v.conj().T


def mle_estimate(counts: TomoCounts, cfg: TomoConfig = TomoConfig()) -> TomoResult:
    """Maximum-likelihood state by accelerated projected gradient ascent on
    rho (FISTA; Shang, Zhang and Ng, PRA 95, 062336, 2017).

    Ascent starts from the least-squares state projected onto the density
    matrices, backtracks on the quadratic lower bound of l, and resets the
    momentum when l decreases or the momentum opposes the ascent step
    (O'Donoghue and Candes).  It stops once the duality gap lambda_max(G) -
    Tr(G rho) is at most ``cfg.mle_tol``, G being the gradient operator (dl
    = Tr(G drho)); l is concave, so the gap bounds l(MLE) - l(rho), in nats.
    It raises a RuntimeError if that takes more than ``cfg.mle_max_iters``
    iterations.
    """
    max_iters, tol = cfg.mle_max_iters, cfg.mle_tol
    if int(counts.counts.sum()) == 0:
        raise ValueError("maximum likelihood needs at least one positive count")
    n = counts.counts.astype(float)
    totals = np.full(16, float(counts.acquisition_total))
    model = (n, totals, KWIAT)
    rho = _project_to_states(ls_invert(counts).rho_est)
    value, y_probs, grad = _log_likelihood_with_gradient(rho, *model)
    y, y_grad, theta = rho, grad, 1.0
    step = 1.0 / (np.linalg.norm(grad) + 1.0)
    for iterations in range(max_iters + 1):
        mu = np.vdot(grad, rho).real
        gap = float(np.linalg.eigvalsh(grad)[-1] - mu)
        if gap <= tol:
            break
        if iterations == max_iters:
            raise RuntimeError(
                f"MLE did not converge in {max_iters} iterations (log-likelihood "
                f"{value:.6f}, duality gap {gap:.3e}, gradient norm "
                f"{np.linalg.norm(grad - np.trace(grad).real / 4.0 * np.eye(4)):.3e})"
            )
        # Let the step grow back after a backtrack, then halve it until
        # l(cand) >= l(y) + Tr(G_y d) - |d|^2 / (2 step), written as a
        # divergence so the test holds at float resolution of l.
        step *= 2.0
        while True:
            cand = _project_to_states(y + step * y_grad)
            cand_value, cand_probs, cand_grad = _log_likelihood_with_gradient(cand, *model)
            d = cand - y
            div = _divergence(cand_probs, y_probs, n, totals)
            if div <= np.vdot(d, d).real / (2.0 * step):
                break
            step *= 0.5
        momentum = cand - rho
        if cand_value < value or np.vdot(d, momentum).real < 0.0:
            theta = 1.0
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        rho, value, grad = cand, cand_value, cand_grad
        y = rho + ((theta - 1.0) / theta_next) * momentum
        _, y_probs, y_grad = _log_likelihood_with_gradient(y, *model)
        theta = theta_next
    return _result(
        rho,
        "mle_estimate",
        {
            "iterations": iterations,
            "log_likelihood": value,
            "duality_gap": gap,
            "kkt_residual": float(np.linalg.norm(grad @ rho - mu * rho)),
        },
    )


# ---------------------------------------------------------------------------
# Bayesian posterior mean via random-walk Metropolis-Hastings
# ---------------------------------------------------------------------------

def _ndtr(x):
    """Standard normal CDF.  scipy.special is imported at the first call, not
    with the package; that call rebinds this name to ``scipy.special.ndtr``,
    so the chain's later calls pay no import."""
    global _ndtr
    from scipy.special import ndtr as _ndtr

    return _ndtr(x)


def _gamma_from_normal(y: np.ndarray) -> np.ndarray:
    """Unit-rate exponential (Gamma(1)) via the probability transform."""
    return -np.log(_ndtr(-np.minimum(np.maximum(y, -8.0), 8.0)))


def _rho_from_vector(x: np.ndarray, k_components: int) -> np.ndarray:
    """The mixture state of each (..., 9K) parameter vector, (..., 4, 4)."""
    params = x.reshape(x.shape[:-1] + (k_components, 9))
    kets = params[..., 0:4] + 1j * params[..., 4:8]
    norms = np.linalg.norm(kets, axis=-1)
    norms = np.where(norms < 1e-12, 1e-12, norms)
    kets = kets / norms[..., np.newaxis]
    gammas = _gamma_from_normal(params[..., 8])
    weights = gammas / gammas.sum(axis=-1, keepdims=True)
    return np.einsum("...k,...ki,...kj->...ij", weights, kets, kets.conj())


def _quadratic_forms(stack: np.ndarray) -> np.ndarray:
    """The (64, 16) real matrix whose column j is Q_j = [[Re P_j, -Im P_j],
    [Im P_j, Re P_j]] flattened, so that psi^dag P_j psi = v^T Q_j v for
    the real 8-vector v = [Re psi, Im psi] of any ket and any Hermitian P_j."""
    forms = np.block([[stack.real, -stack.imag], [stack.imag, stack.real]])
    return forms.reshape(len(stack), 64).T.copy()


#: The chain's quadratic forms of the KWIAT projectors.
_KWIAT_FORMS = read_only(_quadratic_forms(KWIAT))


def _log_target(x: np.ndarray, k_components: int, model):
    """Unnormalized log posterior of each (..., 9K) parameter vector.

    The prior is standard normal; ``model`` is (counts, totals, Q) with Q
    from :func:`_quadratic_forms` (``_KWIAT_FORMS`` in the chain), or None
    for an empty record (flat likelihood).  The Born probabilities are
    computed from the kets in real arithmetic, without forming rho: with
    v_k = [Re psi_k, Im psi_k] and c_k = w_k / |v_k|^2, p = R Q for
    R = sum_k c_k v_k v_k^T.  x.x is a matmul so that a batch gives the
    same bits as one vector at a time.
    """
    log_p = -0.5 * (x[..., np.newaxis, :] @ x[..., :, np.newaxis])[..., 0, 0]
    if model is None:
        return log_p
    counts, totals, forms = model
    params = x.reshape(x.shape[:-1] + (k_components, 9))
    kets = params[..., 0:8]
    gammas = _gamma_from_normal(params[..., 8])
    # c_k = w_k / |v_k|^2, with the ket-norm floor of _rho_from_vector.
    sq_norms = np.maximum(np.add.reduce(kets * kets, axis=-1), 1e-24)
    scale = gammas / (np.add.reduce(gammas, axis=-1, keepdims=True) * sq_norms)
    outer = kets.swapaxes(-1, -2) @ (scale[..., np.newaxis] * kets)
    probs = outer.reshape(outer.shape[:-2] + (64,)) @ forms
    return _binomial_log_likelihood(probs, counts, totals)[0] + log_p


#: Steps per adaptation window; the step size only changes between windows.
_WINDOW = 50
#: Proposals evaluated as one batch while the chain keeps rejecting.
_PREFETCH = 8


def bayesian_estimate(counts: TomoCounts, rng_seed: int, cfg: TomoConfig = TomoConfig()):
    """Posterior mean state and samples; returns (TomoResult, PosteriorSamples).

    The state is a K-component mixture rho(x) = sum w_k |psi_k><psi_k| with
    Dirichlet weights (normalized unit-rate gammas) and Haar-ish pure
    states from normalized complex normal 4-vectors.  All 9K parameters are
    standard normal under the prior; the gamma variables come from the
    inverse-CDF transform of the last coordinate of each component.  The
    chain keeps R = ``cfg.bayes_r`` draws, every ``cfg.bayes_thin``-th step
    after ``cfg.bayes_burn_in`` steps, with K = ``cfg.bayes_k``, from the
    stream of ``rng_seed``.

    A functional of the state is summarized from the samples by
    :func:`posterior_functional`.  All-zero counts are treated as an empty
    record (flat likelihood), so the posterior is the prior and the sample
    mean approaches I/4.

    The chain is random-walk Metropolis with the step adapted towards 30 %
    acceptance every 50 steps during burn-in.  Its proposals are prefetched
    (Brockwell, J. Comput. Graph. Stat. 15, 246, 2006): up to ``_PREFETCH``
    proposals x + step z_i are evaluated as one batch against the current
    x, the first one whose log u_i clears the Metropolis test is the next
    accepted step, the ones before it are rejections and the ones after it
    are thrown away and re-evaluated from the new x.  This makes the
    sequential chain's decisions: a rejected step leaves x unchanged, the
    noise z_i and log u_i do not depend on the state (they are drawn per
    window in the sequential order), and no batch crosses a window
    boundary, where the step may change.

    The bookkeeping is per batch, not per step.  The batch's log-targets
    are one ``tolist()``, scanned for the first accept.  Every step before
    that accept keeps x, so the kept draws among them (steps
    burn_in + thin - 1 + thin r) are x; the accept is counted towards the
    acceptance rate when it is at or after ``burn_in``.  Keeping the draws
    in the preallocated (R, 9K) array, rather than a list of accepted
    states to index after the chain, leaves no small allocations behind.

    The log-target is computed from the 9K parameters in real arithmetic
    (:func:`_log_target`), without a density matrix; the kept draws'
    states are built once at the end, by :func:`_rho_from_vector` on the
    (R, 9K) stack.  The one caveat is rounding: this log-target can differ
    from the rho-form value l(rho(x)) by a few ulps, so only a Metropolis
    test that ties to that precision could be decided differently from a
    chain that evaluates l(rho(x)) (see the module docstring).
    ``diagnostics["evaluations"]`` counts the log-targets computed,
    thrown-away ones included.
    """
    R, burn_in, thin, K = cfg.bayes_r, cfg.bayes_burn_in, cfg.bayes_thin, cfg.bayes_k
    model = None
    if int(counts.counts.sum()) > 0:
        totals = np.full(16, float(counts.acquisition_total))
        model = (counts.counts.astype(float), totals, _KWIAT_FORMS)
    dim = 9 * K
    rng = np.random.default_rng([int(rng_seed), 0xBA7E5])

    x = rng.standard_normal(dim)
    log_p = float(_log_target(x, K, model))
    evaluations = 1
    step = cfg.bayes_step
    total_steps = burn_in + R * thin
    kept_x = np.empty((R, dim))
    kept = 0
    next_kept = burn_in + thin - 1
    accepted_post = 0
    noise = np.empty((_WINDOW, dim))
    log_u = [0.0] * _WINDOW
    for start in range(0, total_steps, _WINDOW):
        width = min(_WINDOW, total_steps - start)
        for j in range(width):
            rng.standard_normal(out=noise[j])
            log_u[j] = math.log(rng.random())
        window_accepts = 0
        j = 0
        while j < width:
            end = min(j + _PREFETCH, width)
            proposals = x + step * noise[j:end]
            cand_log_p = _log_target(proposals, K, model).tolist()
            evaluations += end - j
            accept = end
            for a in range(j, end):
                if log_u[a] < cand_log_p[a - j] - log_p:
                    accept = a
                    break
            # The steps before the accept keep x.  A kept step at the accept
            # itself is filled by the next batch, or after the loop.
            while next_kept < start + accept:
                kept_x[kept] = x
                kept += 1
                next_kept += thin
            if accept == end:
                j = end
            else:
                x, log_p = proposals[accept - j], cand_log_p[accept - j]
                window_accepts += 1
                if start + accept >= burn_in:
                    accepted_post += 1
                j = accept + 1
        if width == _WINDOW and start + _WINDOW <= burn_in:
            step *= math.exp(0.6 * (window_accepts / _WINDOW - 0.3))
    kept_x[kept:] = x
    acceptance = accepted_post / (R * thin)
    kept_rho = _rho_from_vector(kept_x, K)
    diagnostics = {
        "step_final": step,
        "evaluations": evaluations,
        "R": R,
        "burn_in": burn_in,
        "thin": thin,
    }
    if acceptance < 0.01 or acceptance > 0.95:
        warnings.warn(
            f"MCMC acceptance rate {acceptance:.3f} outside [0.01, 0.95]; "
            "posterior summaries may be unreliable",
            stacklevel=2,
        )
    samples = PosteriorSamples(
        samples=kept_x,
        rho_samples=read_only(kept_rho),
        acceptance_rate=acceptance,
    )
    return _result(kept_rho.mean(axis=0), "bayesian_estimate", diagnostics), samples


class FunctionalSummary(NamedTuple):
    """Posterior summary of one state functional's chain-ordered draws."""

    mean: float
    std: float
    split_rhat: float
    ess: float


def split_rhat(draws: np.ndarray) -> float:
    """Potential scale reduction of one chain's draws cut into 4 equal
    consecutive pieces (the classic between/within formula); leading draws
    that do not fill a piece are dropped.  NaN when a piece has fewer than
    2 draws or no spread."""
    draws = np.asarray(draws, dtype=float)
    n = draws.size // 4
    if n < 2:
        return math.nan
    pieces = draws[draws.size - 4 * n:].reshape(4, n)
    within = pieces.var(axis=1, ddof=1).mean()
    if within == 0.0:
        return math.nan
    between = n * pieces.mean(axis=1).var(ddof=1)
    return float(math.sqrt(((n - 1) / n * within + between / n) / within))


def effective_sample_size(draws: np.ndarray) -> float:
    """Effective sample size of one chain's draws, n / tau, with tau from
    Geyer's initial positive sequence: autocorrelation pairs rho_2k +
    rho_2k+1 are summed up to the first one that is not positive.  NaN when
    the draws have no spread."""
    centred = np.asarray(draws, dtype=float) - np.mean(draws)
    n = centred.size
    spectrum = np.fft.rfft(centred, 2 * n)
    acov = np.fft.irfft(spectrum * spectrum.conj(), 2 * n)[:n]
    if acov[0] == 0.0:
        return math.nan
    rho = acov / acov[0]
    pairs = rho[0 : n - 1 : 2] + rho[1:n:2]
    stop = np.flatnonzero(pairs <= 0.0)
    tau = 2.0 * pairs[: stop[0] if stop.size else pairs.size].sum() - 1.0
    return float(n / tau)


def posterior_functional(samples: PosteriorSamples, phi) -> FunctionalSummary:
    """Posterior mean, standard deviation, split-R-hat (4 pieces) and ESS of
    a state functional.

    ``phi`` is called once, on the (R, 4, 4) stack of sampled density
    matrices, and must return R values.  Warns unless R-hat <= 1.01 and
    ESS >= 400, so also when draws with no spread leave them NaN.
    """
    if samples.R < 2:
        raise ValueError("posterior_functional needs at least 2 samples")
    values = np.asarray(phi(samples.rho_samples), dtype=float)
    if values.shape != (samples.R,):
        raise ValueError(f"functional gave shape {values.shape}, expected ({samples.R},)")
    summary = FunctionalSummary(
        float(values.mean()),
        float(values.std(ddof=1)),
        split_rhat(values),
        effective_sample_size(values),
    )
    if not (summary.split_rhat <= 1.01 and summary.ess >= 400):
        warnings.warn(
            f"posterior functional draws have split R-hat {summary.split_rhat:.3f} and "
            f"ESS {summary.ess:.0f} (want <= 1.01 and >= 400); their mean and "
            "standard deviation rest on few effective draws",
            stacklevel=2,
        )
    return summary
