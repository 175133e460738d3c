import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diqrng.qmath import (
    PAULI,
    PAULI2,
    born_probabilities,
    kron2,
    pauli_compose,
    physicality,
    polarizer,
)
from model_oracles import (
    correlation_matrix,
    fidelity,
    linear_polarizer,
    maximally_mixed,
    pauli_decompose,
    pure_state,
    random_physical_state,
    random_pure_state,
    random_unitary,
    singlet,
    werner,
)


def random_hermitian_unit_trace(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (g + g.conj().T)
    h = h - np.eye(4) * (np.trace(h).real - 1.0) / 4.0
    return h


def charpoly_roots(a):
    """Oracle: eigenvalues via Newton's identities and companion-matrix roots.

    Builds the characteristic polynomial from traces of powers, then calls
    np.roots.  Entirely independent of the LAPACK eigensolver under test.
    """
    p1 = np.trace(a)
    p2 = np.trace(a @ a)
    p3 = np.trace(a @ a @ a)
    p4 = np.trace(a @ a @ a @ a)
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4.0
    coeffs = [1.0, -e1, e2, -e3, e4]
    roots = np.roots([complex(c) for c in coeffs])
    assert np.max(np.abs(roots.imag)) < 1e-7
    return np.sort(roots.real)


class TestPauliDecomposition:
    def test_pauli2_is_the_kron_table(self):
        for i in range(4):
            for j in range(4):
                assert np.array_equal(PAULI2[i, j], np.kron(PAULI[i], PAULI[j]))

    def test_identity_over_four(self):
        u = pauli_decompose(maximally_mixed())
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(u, expected, atol=1e-12)

    def test_singlet_coefficients(self):
        # Oracle: direct 4x4 trace computation, element by element.
        rho = singlet()
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                expected[i, j] = np.trace(
                    np.kron(PAULI[i], PAULI[j]) @ rho
                ).real
        u = pauli_decompose(rho)
        assert np.allclose(u, expected, atol=1e-12)
        assert u[0, 0] == pytest.approx(1.0)
        assert np.allclose(np.diag(u)[1:], [-1.0, -1.0, -1.0], atol=1e-12)
        off = u.copy()
        off[0, 0] = 0.0
        np.fill_diagonal(off, 0.0)
        assert np.max(np.abs(off)) < 1e-12

    def test_roundtrip_on_random_physical_states(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            rho = random_physical_state(rng)
            back = pauli_compose(pauli_decompose(rho))
            assert np.max(np.abs(back - rho)) <= 1e-12

    def test_roundtrip_on_random_hermitian_unit_trace(self):
        # The maps are mutually inverse linear bijections on the whole
        # Hermitian unit-trace space, physical or not.
        rng = np.random.default_rng(11)
        for _ in range(1000):
            rho = random_hermitian_unit_trace(rng)
            back = pauli_compose(pauli_decompose(rho))
            assert np.max(np.abs(back - rho)) <= 1e-12

    def test_compose_trivial_and_out_of_range(self):
        u = np.zeros((4, 4))
        u[0, 0] = 1.0
        assert np.allclose(pauli_compose(u), np.eye(4) / 4.0)
        u[3, 3] = -2.0
        physical, (_, _, min_eig) = physicality(pauli_compose(u), "test")
        assert not physical
        assert min_eig < 0

    def test_decompose_rejects_non_hermitian(self):
        bad = np.diag([1.0, 0, 0, 0]) + 0.5j * np.eye(4, k=1)
        with pytest.raises(ValueError):
            pauli_decompose(bad)


class TestCorrelationMatrix:
    def test_singlet_is_minus_identity(self):
        c = correlation_matrix(singlet())
        assert np.allclose(c, -np.eye(3), atol=1e-12)

    def test_maximally_mixed_is_zero(self):
        assert np.allclose(correlation_matrix(maximally_mixed()), 0.0)

    def test_product_hh_state(self):
        c = correlation_matrix(pure_state([1, 0, 0, 0]))
        assert np.allclose(c, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_singular_values_bounded_for_physical_states(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            c = correlation_matrix(random_physical_state(rng))
            s = np.linalg.svd(c, compute_uv=False)
            assert np.all(s <= 1.0 + 1e-9)

    def test_rejects_nonphysical(self):
        u = np.zeros((4, 4))
        u[0, 0] = 1.0
        u[1, 1] = -2.0
        with pytest.raises(ValueError):
            correlation_matrix(pauli_compose(u))


class TestBornProbability:
    def test_singlet_marginals(self):
        rho = singlet()
        p_h, p_v = born_probabilities(rho, kron2(polarizer([0.0, 90.0]), np.eye(2)))
        assert p_h == pytest.approx(0.5, abs=1e-12)
        assert p_v == pytest.approx(0.5, abs=1e-12)

    def test_identity_projector(self):
        rng = np.random.default_rng(13)
        eye = np.eye(4)[np.newaxis]
        for _ in range(10):
            assert born_probabilities(random_physical_state(rng), eye)[0] == pytest.approx(1.0)

    def test_complete_projector_set_sums_to_one(self):
        rng = np.random.default_rng(14)
        basis = np.array([np.diag([1.0 if i == k else 0.0 for i in range(4)]) for k in range(4)])
        for _ in range(50):
            rho = random_physical_state(rng)
            total = sum(born_probabilities(rho, basis))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_idempotent(self):
        stack = kron2(polarizer([0.0, 45.0, 90.0]), np.eye(2)).copy()
        stack[1] = 0.5 * np.eye(4)
        with pytest.raises(ValueError, match="projector 1 of the stack is not idempotent"):
            born_probabilities(singlet(), stack)

    def test_rejects_non_hermitian(self):
        # [[1, 1], [0, 0]] is idempotent but not Hermitian.
        stack = kron2(polarizer([0.0, 45.0, 90.0]), np.eye(2)).copy()
        stack[2] = kron2(np.array([[1.0, 1.0], [0.0, 0.0]]), np.eye(2))
        with pytest.raises(ValueError, match="projector 2 of the stack is not Hermitian"):
            born_probabilities(singlet(), stack)

    def test_rejects_nonphysical_state(self):
        with pytest.raises(ValueError, match="physical"):
            born_probabilities(np.eye(4), np.eye(4)[np.newaxis])

    def test_polarizer_and_kron2_match_the_explicit_forms(self):
        angles = np.array([[0.0, 22.5, 45.0], [67.5, 90.0, 135.0]])
        stack = polarizer(angles)
        assert stack.shape == (2, 3, 2, 2)
        for index in np.ndindex(angles.shape):
            assert np.max(np.abs(stack[index] - linear_polarizer(angles[index]))) <= 1e-15
        joint = kron2(stack, polarizer(30.0))
        assert joint.shape == (2, 3, 4, 4)
        for index in np.ndindex(angles.shape):
            assert np.array_equal(joint[index], np.kron(stack[index], polarizer(30.0)))


class TestPhysicality:
    def test_accepts_standard_states(self):
        physical, _ = physicality(np.stack([maximally_mixed(), singlet()]), "test")
        assert physical.tolist() == [True, True]

    def test_reports_negative_eigenvalue(self):
        u = np.zeros((4, 4))
        u[0, 0] = 1.0
        u[3, 3] = -2.0
        physical, (_, _, min_eig) = physicality(pauli_compose(u), "test")
        assert not physical
        assert min_eig < -1e-3

    def test_min_eigenvalue_matches_charpoly_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rho = random_hermitian_unit_trace(rng)
            expected = charpoly_roots(rho)[0]
            assert abs(physicality(rho, "test")[1][2] - expected) <= 1e-8

    def test_reports_trace_deviation(self):
        physical, (tr_dev, _, _) = physicality(np.eye(4) / 2.0, "test")
        assert not physical
        assert tr_dev == pytest.approx(1.0)

    def test_states_are_read_only(self):
        u = np.zeros((4, 4))
        u[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            pauli_compose(u)[0, 0] = 1.0


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            rho = random_physical_state(rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_singlet_vs_maximally_mixed(self):
        # Closed form for pure-vs-mixed: F = <psi| rho |psi> = 1/4.
        f = fidelity(singlet(), maximally_mixed())
        assert f == pytest.approx(0.25, abs=1e-10)

    def test_orthogonal_pure_states(self):
        hh, vv = pure_state([1, 0, 0, 0]), pure_state([0, 0, 0, 1])
        f = fidelity(hh, vv)
        assert f == pytest.approx(0.0, abs=1e-10)

    def test_symmetry_and_pure_closed_form(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            a = random_physical_state(rng)
            b = random_pure_state(rng)
            f_ab = fidelity(a, b)
            f_ba = fidelity(b, a)
            assert f_ab == pytest.approx(f_ba, abs=1e-7)
            # Oracle for pure b: F = <psi| a |psi>.
            w, v = np.linalg.eigh(b)
            psi = v[:, -1]
            expected = float((psi.conj() @ a @ psi).real)
            assert f_ab == pytest.approx(expected, abs=1e-7)

    def test_rejects_nonphysical(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(4), singlet())


class TestWernerAndSerialization:
    def test_werner_interpolates(self):
        assert np.allclose(
            werner(1.0), singlet()
        )
        assert np.allclose(
            werner(0.0), np.eye(4) / 4.0
        )

    def test_local_unitary_preserves_fidelity_with_self(self):
        rng = np.random.default_rng(18)
        rho = random_physical_state(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        assert physicality(u @ rho @ u.conj().T, "test")[0]


@st.composite
def hermitian_states(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_hermitian_unit_trace(rng)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(hermitian_states())
    def test_pauli_maps_are_mutually_inverse(self, rho):
        back = pauli_compose(pauli_decompose(rho))
        assert np.max(np.abs(back - rho)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_eigenvalues_sum_to_trace(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_physical_state(rng)
        w, _ = np.linalg.eigh(rho)
        assert math.isclose(float(np.sum(w)), 1.0, abs_tol=1e-10)
        assert w[0] >= -1e-12
