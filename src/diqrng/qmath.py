"""Small dense complex linear algebra for two-qubit polarization states.

Everything here is hard-coded to the 4x4 (two-qubit) case.  The basis order is
fixed globally as |HH>, |HV>, |VH>, |VV>, with the first slot belonging to the
heralding arm.  A density matrix is a read-only complex (4, 4) array, and a
stack of them is an (..., 4, 4) array; :func:`physicality` is the one test of
trace one, hermiticity and positive semi-definiteness.  Pauli coefficient
matrices (4x4) are plain real numpy arrays.  All operations are pure
functions.
"""

from __future__ import annotations

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


def read_only(array: np.ndarray) -> np.ndarray:
    """Mark array read-only in place and return it."""
    array.flags.writeable = False
    return array


def polarizer(angle_deg) -> np.ndarray:
    """Projector onto the linear polarization cos(a)|H> + sin(a)|V>, for a
    scalar or an array of angles in degrees; shape (..., 2, 2)."""
    a = np.radians(np.asarray(angle_deg, dtype=float))
    ket = np.stack([np.cos(a), np.sin(a)], axis=-1).astype(complex)
    return ket[..., :, np.newaxis] * ket[..., np.newaxis, :].conj()


# ---------------------------------------------------------------------------
# Physicality
# ---------------------------------------------------------------------------

def physicality(m, what: str, herm_tol: float = DEFAULT_TOL):
    """Whether each matrix of the (..., 4, 4) stack m is a state: trace
    deviation and negative eigenvalues within DEFAULT_TOL, hermiticity
    defect within herm_tol.  Returns a bool array of shape (...) and the
    trace deviation, hermiticity defect and minimum eigenvalue of every
    matrix, as three arrays of shape (...).  A non-finite entry raises
    ValueError, naming ``what``, before any eigenvalue is computed."""
    m = np.asarray(m)
    finite = np.isfinite(m)
    if not finite.all():
        entry = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"{what} requires finite states; entry {entry} is {m[entry]}")
    adjoint = m.conj().swapaxes(-1, -2)
    tr_dev = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    herm = np.max(np.abs(m - adjoint), axis=(-2, -1))
    min_eig = np.linalg.eigvalsh(0.5 * (m + adjoint))[..., 0]
    ok = (tr_dev <= DEFAULT_TOL) & (herm <= herm_tol) & (min_eig >= -DEFAULT_TOL)
    return ok, (tr_dev, herm, min_eig)


def require_physical(m, what: str, herm_tol: float = DEFAULT_TOL):
    """Raise ValueError unless every matrix of the (..., 4, 4) stack m is a
    state (see :func:`physicality`)."""
    ok, (tr_dev, herm, min_eig) = physicality(m, what, herm_tol)
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"{what} requires physical states; {bad.size} of {ok.size} fail, "
            f"the first (flat index {i}) with trace deviation {tr_dev.flat[i]:.2e}, "
            f"hermiticity defect {herm.flat[i]:.2e}, min eigenvalue {min_eig.flat[i]:.2e}"
        )


# ---------------------------------------------------------------------------
# Pauli composition and the Born map
# ---------------------------------------------------------------------------

def pauli_compose(u) -> np.ndarray:
    """Assemble rho = (1/4) sum u[i,j] sigma_i x sigma_j, read-only.

    Hermitian and unit-trace by construction when u[0,0] == 1; positivity is
    the caller's problem (check with :func:`physicality`).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (4, 4):
        raise ValueError("pauli coefficients must be a 4x4 real array")
    if abs(u[0, 0] - 1.0) > DEFAULT_TOL:
        raise ValueError("u[0,0] must equal 1 for a unit-trace state")
    return read_only(np.einsum("ij,ijab->ab", u, PAULI2) / 4.0)


def born_probabilities(rho, stack) -> np.ndarray:
    """p_k = Tr(P_k rho) for every projector of a (K, 4, 4) stack.

    rho must be one (4, 4) state, and every P_k Hermitian and idempotent
    within 1e-10; each is checked once per call.  Probabilities outside
    [-1e-9, 1 + 1e-9] raise; the rest are clipped to [0, 1].
    """
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1:] != (4, 4):
        raise ValueError(f"born_probabilities needs a (K, 4, 4) stack, got {stack.shape}")
    require_physical(rho, "born_probabilities")
    for defect, what in (
        (np.abs(stack @ stack - stack), "idempotent"),
        (np.abs(stack - stack.conj().swapaxes(-1, -2)), "Hermitian"),
    ):
        bad = np.flatnonzero(np.max(defect, axis=(-2, -1)) > 1e-10)
        if bad.size:
            raise ValueError(f"projector {bad[0]} of the stack is not {what}")
    p = np.einsum("kij,ji->k", stack, rho).real
    if np.any((p < -DEFAULT_TOL) | (p > 1.0 + DEFAULT_TOL)):
        raise ValueError(f"Born probabilities {p} outside [0, 1]")
    return np.clip(p, 0.0, 1.0)
