import json

import numpy as np
import pytest

from qdiscord import (
    Dqc1Instance,
    haar_random_unitary,
    input_state,
    jones_unitary,
    load_unitary_json,
    output_state,
    pauli_realize,
    tensor,
    trace_estimate,
)
from qdiscord.dqc1 import controlled, hadamard, unitary_from_dict, unitary_to_dict
from qdiscord.linalg import PAULI_1Q, partial_transpose


class TestInstanceValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            Dqc1Instance(1.0, np.ones((2, 2)))

    def test_rejects_non_finite_unitary(self):
        u = np.eye(2, dtype=complex)
        u[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Dqc1Instance(1.0, u)

    def test_rejects_epsilon_out_of_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            Dqc1Instance(1.5, np.eye(2))

    def test_rejects_over_qubit_cap(self):
        with pytest.raises(ValueError, match="cap"):
            Dqc1Instance(1.0, np.eye(256))

    def test_n_derived_from_dimension(self):
        assert Dqc1Instance(0.5, np.eye(8)).n == 3


class TestInputState:
    def test_pure_top_qubit(self):
        rho = input_state(Dqc1Instance(1.0, np.eye(2)))
        np.testing.assert_allclose(rho.entries, np.diag([0.5, 0.5, 0, 0]), atol=1e-15)

    def test_fully_mixed(self):
        rho = input_state(Dqc1Instance(0.0, np.eye(4)))
        np.testing.assert_allclose(rho.entries, np.eye(8) / 8, atol=1e-15)

    def test_small_bias_spectrum(self):
        eps = 1.4e-5
        rho = input_state(Dqc1Instance(eps, np.eye(8)))
        w = np.sort(np.linalg.eigvalsh(rho.entries))
        expected = np.sort([(1 - eps) / 16] * 8 + [(1 + eps) / 16] * 8)
        np.testing.assert_allclose(w, expected, atol=1e-15)


class TestOutputState:
    def test_controlled_identity_after_hadamard(self):
        for n in (1, 2, 3):
            rho = output_state(Dqc1Instance(1.0, np.eye(2**n)))
            expected = tensor((PAULI_1Q["I"] + PAULI_1Q["X"]) / 2, np.eye(2**n) / 2**n)
            np.testing.assert_allclose(rho.entries, expected, atol=1e-14)

    def test_zero_bias_stays_mixed(self):
        u = haar_random_unitary(8, seed=3)
        rho = output_state(Dqc1Instance(0.0, u))
        np.testing.assert_allclose(rho.entries, np.eye(16) / 16, atol=1e-14)

    def test_jones_off_diagonal_block(self):
        u = jones_unitary()
        rho = output_state(Dqc1Instance(1.0, u))
        np.testing.assert_allclose(rho.entries[8:, :8], u / 16, atol=1e-14)
        np.testing.assert_allclose(rho.entries[:8, 8:], u.conj().T / 16, atol=1e-14)

    def test_circuit_path_matches_closed_form(self):
        # independent conjugation oracle, not the library's internal check
        u = haar_random_unitary(4, seed=11)
        eps = 0.37
        circuit = controlled(u) @ tensor(hadamard(), np.eye(4))
        rho_in = input_state(Dqc1Instance(eps, u)).entries
        oracle = circuit @ rho_in @ circuit.conj().T
        np.testing.assert_allclose(
            output_state(Dqc1Instance(eps, u)).entries, oracle, atol=1e-12
        )

    @pytest.mark.parametrize("eps", [0.0, 1e-5, 0.5, 1.0])
    def test_valid_density_matrix(self, eps):
        rho = output_state(Dqc1Instance(eps, jones_unitary()))
        assert abs(np.trace(rho.entries) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho.entries)[0] > -1e-10

    def test_no_entanglement_across_top_split(self):
        # PPT proxy: partial transpose over the top qubit stays PSD
        for seed in range(100):
            u = haar_random_unitary(8, seed=seed)
            rho = output_state(Dqc1Instance(1.0, u))
            pt = partial_transpose(rho.entries, (2, 8), subsystem=0)
            assert np.linalg.eigvalsh(pt)[0] >= -1e-10


class TestTraceEstimate:
    def test_identity(self):
        est = trace_estimate(Dqc1Instance(1.0, np.eye(8)))
        assert est == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_traceless_unitary(self):
        u = pauli_realize("ZII").copy()
        est = trace_estimate(Dqc1Instance(1.0, u))
        assert abs(est) < 1e-12

    def test_jones_diagonal_summation(self):
        w = np.exp(-3j * np.pi / 5)
        a, b = -(w**4), w**8
        expected = (3 + 3 * a + 2 * b) / 8
        est = trace_estimate(Dqc1Instance(1.0, jones_unitary()))
        assert est == pytest.approx(expected, abs=1e-12)
        assert est.real == pytest.approx(0.0569, abs=5e-5)
        assert est.imag == pytest.approx(0.2097, abs=5e-5)

    def test_identity_holds_for_haar_unitaries(self):
        for n in (1, 2, 3):
            for seed in range(20):
                u = haar_random_unitary(2**n, seed=seed)
                for eps in (1.0, 0.5, 1.4e-5):
                    est = trace_estimate(Dqc1Instance(eps, u))
                    exact = eps * np.trace(u) / 2**n
                    assert abs(est - exact) < 1e-10


class TestJonesUnitary:
    def test_fourth_diagonal_entry_is_one(self):
        assert jones_unitary()[3, 3] == pytest.approx(1.0 + 0j, abs=1e-15)

    def test_unit_modulus_phases(self):
        u = jones_unitary()
        np.testing.assert_allclose(np.abs(np.diag(u)), np.ones(8), atol=1e-15)

    def test_phases_simplify(self):
        u = jones_unitary()
        a = -np.exp(-2j * np.pi / 5)
        b = np.exp(-4j * np.pi / 5)
        np.testing.assert_allclose(np.diag(u), [a, a, b, 1, a, b, 1, 1], atol=1e-14)

    def test_is_unitary(self):
        u = jones_unitary()
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-14)


class TestHaarRandomUnitary:
    def test_scalar_case_unit_modulus(self):
        u = haar_random_unitary(1, seed=0)
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(haar_random_unitary(8, 7), haar_random_unitary(8, 7))

    def test_unitary_within_tolerance(self):
        u = haar_random_unitary(16, seed=1)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-10)

    def test_trace_second_moment(self):
        # Haar moment: E |Tr U|^2 = 1; also invariant under fixed left rotation
        v = haar_random_unitary(8, seed=999)
        plain, rotated = [], []
        for seed in range(2000):
            u = haar_random_unitary(8, seed=seed)
            plain.append(abs(np.trace(u)) ** 2)
            rotated.append(abs(np.trace(v @ u)) ** 2)
        assert np.mean(plain) == pytest.approx(1.0, abs=0.1)
        assert np.mean(rotated) == pytest.approx(1.0, abs=0.1)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            haar_random_unitary(512, seed=0)


class TestUnitaryJson:
    def test_round_trip(self, tmp_path):
        u = haar_random_unitary(4, seed=2)
        path = tmp_path / "u.json"
        path.write_text(json.dumps(unitary_to_dict(u)))
        np.testing.assert_allclose(load_unitary_json(path), u, atol=1e-15)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            unitary_from_dict({"dim": 2})
        with pytest.raises(ValueError, match="malformed"):
            unitary_from_dict({"dim": float("inf"), "re": [[1]], "im": [[0]]})
        with pytest.raises(ValueError, match="malformed"):
            unitary_from_dict({"dim": 1, "re": [[10**400]], "im": [[0]]})

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            unitary_from_dict({"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})
