"""Quantumness certification: CHSH estimates and min-entropy.

Two routes to the Bell parameter are provided.  ``chsh_direct`` works from
coincidence counts the way a polarization experiment does, and
``chsh_at_settings`` is its noise-free value for a state at the same
settings; ``chsh_from_rho`` computes the maximum attainable value for a
density matrix from the two largest singular values of its correlation
matrix (the horodecki-singular-value convention, noted in every report).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .extract import BitStream
from .qmath import HERMITICITY_TOL, PAULI2, born_probabilities, kron2, polarizer, require_physical

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
CLASSICAL_BOUND = 2.0

#: Quad order within one setting pair: N(a,b), N(a_perp,b_perp), N(a,b_perp), N(a_perp,b).
QUAD_ORDER = ("pp", "mm", "pm", "mp")

#: Setting-pair order: (a,b), (a,b'), (a',b), (a',b').
PAIR_ORDER = ("ab", "ab'", "a'b", "a'b'")

#: Polarizer offset of an outcome letter in QUAD_ORDER ("m" is the perpendicular one).
_OUTCOME_OFFSET_DEG = {"p": 0.0, "m": 90.0}


@dataclass(frozen=True)
class ChshSettings:
    """Analyzer angles in degrees for the four CHSH measurement bases."""

    a: float = 0.0
    a_prime: float = 45.0
    b: float = 22.5
    b_prime: float = 67.5

    def __post_init__(self):
        for name, angle in asdict(self).items():
            if not 0.0 <= angle < 180.0:
                raise ValueError(f"analyzer angle {name}={angle} outside [0, 180)")

    def pairs(self):
        """The four (alice, bob) angle pairs in PAIR_ORDER."""
        return (
            (self.a, self.b),
            (self.a, self.b_prime),
            (self.a_prime, self.b),
            (self.a_prime, self.b_prime),
        )

    def projectors(self) -> np.ndarray:
        """Joint outcome projectors P(alpha + da) x P(beta + db), shape
        (4, 4, 4, 4): setting pairs in PAIR_ORDER, outcomes in QUAD_ORDER."""
        alice, bob = np.array(self.pairs()).T
        da, db = np.array([[_OUTCOME_OFFSET_DEG[c] for c in q] for q in QUAD_ORDER]).T
        return kron2(polarizer(alice[:, None] + da), polarizer(bob[:, None] + db))


def optimal_settings_for_visibility(v: float) -> ChshSettings:
    """Angles maximizing S for the dephased singlet family (correlation
    matrix diag(-v, -v, -1)); reduces to the standard singlet set at v=1 up
    to a local relabeling.  Degenerates at v=0, where no violating settings
    exist."""
    if not 0.0 < v <= 1.0:
        raise ValueError("visibility must be in (0, 1] for optimal settings")
    mu_deg = math.degrees(math.atan(v))
    return ChshSettings(
        a=135.0,
        a_prime=90.0,
        b=mu_deg / 2.0,
        b_prime=(180.0 - mu_deg / 2.0) % 180.0,
    )


@dataclass(frozen=True)
class ChshCounts:
    """Coincidence counts for the four setting pairs.

    ``quads`` has shape (4, 4): rows follow PAIR_ORDER, columns follow
    QUAD_ORDER, i.e. column 0 is N(alpha,beta), column 1 is
    N(alpha_perp,beta_perp), column 2 is N(alpha,beta_perp) and column 3 is
    N(alpha_perp,beta).
    """

    quads: np.ndarray

    def __post_init__(self):
        q = np.array(self.quads, dtype=np.int64)
        if q.shape != (4, 4):
            raise ValueError("ChshCounts expects a (4, 4) array of counts")
        if np.any(q < 0):
            raise ValueError("counts must be non-negative")
        if np.any(q.sum(axis=1) <= 0):
            raise ValueError("every setting pair needs a positive total")
        q.flags.writeable = False
        object.__setattr__(self, "quads", q)


@dataclass(frozen=True)
class ChshResult:
    S: float
    stderr: float
    e_values: tuple

    @property
    def violates_classical(self) -> bool:
        # Strict inequality: the classical boundary itself is not a violation.
        return abs(self.S) > CLASSICAL_BOUND


@dataclass(frozen=True)
class MinEntropyResult:
    h_inf: float
    p_max: float
    n_bits: int


def _chsh_of_quads(quads) -> tuple:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b'), its Poisson variance and
    the four E values of a (4, 4) array of quads (PAIR_ORDER rows,
    QUAD_ORDER columns); each row gives E = (q0 + q1 - q2 - q3) / total."""
    q = np.asarray(quads, dtype=float)
    total = q.sum(axis=1)
    e = (q[:, 0] + q[:, 1] - q[:, 2] - q[:, 3]) / total
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    var = np.sum(q * ((signs - e[:, None]) / total[:, None]) ** 2, axis=1)
    e0, e1, e2, e3 = e.tolist()
    return e0 - e1 + e2 + e3, sum(var.tolist()), (e0, e1, e2, e3)


def chsh_direct(counts: ChshCounts) -> ChshResult:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') from measured quads."""
    s, var, e = _chsh_of_quads(counts.quads)
    return ChshResult(S=s, stderr=math.sqrt(var), e_values=e)


def chsh_at_settings(rho, settings: ChshSettings) -> float:
    """Noise-free S of the (4, 4) state rho at the given settings: the
    combination of :func:`chsh_direct` with the Born probabilities of
    ``settings.projectors()`` in place of the quads."""
    probs = born_probabilities(rho, settings.projectors().reshape(16, 4, 4))
    return _chsh_of_quads(probs.reshape(4, 4))[0]


def chsh_from_rho(rho):
    """Maximum CHSH value 2 sqrt(s1^2 + s2^2), s1 >= s2 the two largest
    singular values of the correlation matrix, of one (4, 4) state (a
    float) or of each state in an (..., 4, 4) stack (an array of shape
    (...))."""
    require_physical(rho, "chsh_from_rho", herm_tol=HERMITICITY_TOL)
    c = np.einsum("ijab,...ba->...ij", PAULI2[1:, 1:], rho).real
    s = np.linalg.svd(c, compute_uv=False)
    values = np.minimum(2.0 * np.sqrt(s[..., 0] ** 2 + s[..., 1] ** 2), TSIRELSON_BOUND + 1e-9)
    return float(values) if values.ndim == 0 else values


def min_entropy(bits) -> MinEntropyResult:
    """Single-bit i.i.d. min-entropy: H_inf = -log2(max(p0, p1)).

    Accepts a BitStream, read as it is, or a 0/1 array (see
    :func:`~diqrng.extract.as_bits`).
    """
    stream = bits if isinstance(bits, BitStream) else BitStream.from_bits(bits)
    n = stream.n_bits
    if n < 1:
        raise ValueError("min_entropy needs at least one bit")
    ones = stream.ones()
    p_max = max(ones, n - ones) / n
    return MinEntropyResult(h_inf=-math.log2(p_max), p_max=p_max, n_bits=n)
