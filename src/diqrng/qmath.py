"""Small dense complex linear algebra for two-qubit polarization states.

Everything here is hard-coded to the 4x4 (two-qubit) case.  The basis order is
fixed globally as |HH>, |HV>, |VH>, |VV>, with the first slot belonging to the
heralding arm.  Density matrices are carried by :class:`TwoQubitState`; Pauli
coefficient matrices (4x4) are plain real numpy arrays.  All operations are
pure functions on effectively immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: sigma_0 .. sigma_3 (identity, x, y, z)
PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def kron2(a, b) -> np.ndarray:
    """Tensor product a x b of 2x2 matrices, broadcast over leading axes:
    (..., 2, 2) and (..., 2, 2) give (..., 4, 4)."""
    a, b = np.asarray(a), np.asarray(b)
    out = a[..., :, np.newaxis, :, np.newaxis] * b[..., np.newaxis, :, np.newaxis, :]
    return out.reshape(out.shape[:-4] + (4, 4))


#: PAULI2[i, j] = sigma_i x sigma_j, the 16 two-qubit Pauli operators.
PAULI2 = kron2(PAULI[:, np.newaxis], PAULI[np.newaxis, :])


DEFAULT_TOL = 1e-9
HERMITICITY_TOL = 1e-12


def _coerce_matrix(matrix, size: int) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class TwoQubitState:
    """A 4x4 complex matrix in the fixed |HH>,|HV>,|VH>,|VV> basis.

    Construction is permissive on purpose: least-squares tomography can
    legitimately produce non-positive matrices, and they still need a home.
    Use :func:`is_physical` to check trace / hermiticity / positivity.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _coerce_matrix(self.matrix, 4)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_vector(cls, psi) -> "TwoQubitState":
        """Pure state |psi><psi| from a 4-component ket (normalized here)."""
        v = np.asarray(psi, dtype=complex).reshape(4)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def singlet(cls) -> "TwoQubitState":
        return cls.from_vector([0.0, 1.0, -1.0, 0.0])

    @classmethod
    def maximally_mixed(cls) -> "TwoQubitState":
        return cls(np.eye(4) / 4.0)

    @classmethod
    def werner(cls, p: float) -> "TwoQubitState":
        """p * singlet + (1-p) * I/4."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("werner weight must be in [0, 1]")
        return cls(p * cls.singlet().matrix + (1.0 - p) * np.eye(4) / 4.0)

    # -- inspection ---------------------------------------------------

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def polarizer(angle_deg) -> np.ndarray:
    """Projector onto the linear polarization cos(a)|H> + sin(a)|V>, for a
    scalar or an array of angles in degrees; shape (..., 2, 2)."""
    a = np.radians(np.asarray(angle_deg, dtype=float))
    ket = np.stack([np.cos(a), np.sin(a)], axis=-1).astype(complex)
    return ket[..., :, np.newaxis] * ket[..., np.newaxis, :].conj()


# ---------------------------------------------------------------------------
# Physicality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysicalityReport:
    physical: bool
    trace_deviation: float
    hermiticity_defect: float
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.physical


def physicality_defects(m: np.ndarray):
    """Trace deviation, hermiticity defect and minimum eigenvalue of every
    matrix in an (..., 4, 4) stack, as three arrays of shape (...)."""
    adjoint = m.conj().swapaxes(-1, -2)
    tr_dev = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    herm = np.max(np.abs(m - adjoint), axis=(-2, -1))
    min_eig = np.linalg.eigvalsh(0.5 * (m + adjoint))[..., 0]
    return tr_dev, herm, min_eig


def is_physical(rho: TwoQubitState, tol: float = DEFAULT_TOL) -> PhysicalityReport:
    """Check trace one, hermiticity, and positive semi-definiteness within tol."""
    tr_dev, herm, min_eig = (float(x) for x in physicality_defects(rho.matrix))
    ok = tr_dev <= tol and herm <= tol and min_eig >= -tol
    return PhysicalityReport(ok, tr_dev, herm, min_eig)


def require_physical(m: np.ndarray, what: str, herm_tol: float = DEFAULT_TOL):
    """Raise ValueError unless every matrix of the (..., 4, 4) stack m is a
    state within DEFAULT_TOL, with hermiticity defect within herm_tol."""
    tr_dev, herm, min_eig = physicality_defects(m)
    bad = np.flatnonzero((tr_dev > DEFAULT_TOL) | (herm > herm_tol) | (min_eig < -DEFAULT_TOL))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"{what} requires physical states; {bad.size} of {np.size(tr_dev)} fail, "
            f"the first (flat index {i}) with trace deviation {tr_dev.flat[i]:.2e}, "
            f"hermiticity defect {herm.flat[i]:.2e}, min eigenvalue {min_eig.flat[i]:.2e}"
        )


# ---------------------------------------------------------------------------
# Pauli composition and the Born map
# ---------------------------------------------------------------------------

def pauli_compose(u) -> TwoQubitState:
    """Assemble rho = (1/4) sum u[i,j] sigma_i x sigma_j.

    Hermitian and unit-trace by construction when u[0,0] == 1; positivity is
    the caller's problem (check with :func:`is_physical`).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (4, 4):
        raise ValueError("pauli coefficients must be a 4x4 real array")
    if abs(u[0, 0] - 1.0) > DEFAULT_TOL:
        raise ValueError("u[0,0] must equal 1 for a unit-trace state")
    return TwoQubitState(np.einsum("ij,ijab->ab", u, PAULI2) / 4.0)


def born_probabilities(rho: TwoQubitState, stack) -> np.ndarray:
    """p_k = Tr(P_k rho) for every projector of a (K, 4, 4) stack.

    rho must be a state, and every P_k Hermitian and idempotent within
    1e-10; each is checked once per call.  Probabilities outside
    [-1e-9, 1 + 1e-9] raise; the rest are clipped to [0, 1].
    """
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1:] != (4, 4):
        raise ValueError(f"born_probabilities needs a (K, 4, 4) stack, got {stack.shape}")
    require_physical(rho.matrix, "born_probabilities")
    for defect, what in (
        (np.abs(stack @ stack - stack), "idempotent"),
        (np.abs(stack - stack.conj().swapaxes(-1, -2)), "Hermitian"),
    ):
        bad = np.flatnonzero(np.max(defect, axis=(-2, -1)) > 1e-10)
        if bad.size:
            raise ValueError(f"projector {bad[0]} of the stack is not {what}")
    p = np.einsum("kij,ji->k", stack, rho.matrix).real
    if np.any((p < -DEFAULT_TOL) | (p > 1.0 + DEFAULT_TOL)):
        raise ValueError(f"Born probabilities {p} outside [0, 1]")
    return np.clip(p, 0.0, 1.0)
