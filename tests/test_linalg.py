import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdiscord import (
    DensityMatrix,
    pauli_labels,
    pauli_realize,
    tensor,
)
from qdiscord.linalg import PAULI_1Q, entropy_from_eigenvalues

from .conftest import random_density_matrix, random_state

I2 = PAULI_1Q["I"]
X = PAULI_1Q["X"]
Y = PAULI_1Q["Y"]
Z = PAULI_1Q["Z"]


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(I2, I2), np.eye(4))

    def test_diagonal_kronecker(self):
        np.testing.assert_allclose(tensor(Z, Z), np.diag([1, -1, -1, 1]))

    def test_associates_to_pauli_string(self):
        direct = tensor(tensor(X, I2), I2)
        np.testing.assert_allclose(direct, pauli_realize("XII"))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m / np.trace(m))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_rejects_non_finite_entries(self):
        m = np.eye(4, dtype=complex) / 4
        m[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)

    @pytest.mark.parametrize("dim", [3, 6, 12])
    def test_rejects_dimension_not_a_power_of_2(self, dim):
        with pytest.raises(ValueError, match=f"^dimension {dim} is not a power of 2$"):
            DensityMatrix(np.eye(dim) / dim)

    def test_rejects_bad_partition(self):
        # qubit A is the first qubit, so a one-qubit register leaves B empty
        with pytest.raises(ValueError) as err:
            DensityMatrix(np.eye(2) / 2)
        assert str(err.value) == "dimension 2 holds one qubit, and an A|B state needs at least two"

    def test_entries_read_only(self):
        rho = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.3


class TestPartialTrace:
    def test_dqc1_output_top_qubit_matches_trace_identity(self):
        # brute-force index contraction of the top qubit against its closed form
        from qdiscord import Dqc1Instance, jones_unitary, output_state, trace_estimate

        inst = Dqc1Instance(0.7, jones_unitary())
        rho = output_state(inst)
        d = rho.dim
        top = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for b in range(d // 2):
                    top[i, j] += rho.entries[i * (d // 2) + b, j * (d // 2) + b]
        est = trace_estimate(inst)
        expected = (I2 + est.real * X + est.imag * Y) / 2
        np.testing.assert_allclose(top, expected, atol=1e-12)


def entropy(m) -> float:
    """H(m) = -Tr(m log2 m) in bits."""
    return entropy_from_eigenvalues(np.linalg.eigvalsh(np.asarray(m)))


class TestEntropy:
    def test_pure_state(self):
        assert entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert entropy(I2 / 2) == pytest.approx(1.0, abs=1e-12)

    def test_sixteen_dim(self):
        assert entropy(np.eye(16) / 16) == pytest.approx(4.0, abs=1e-12)

    def test_additive_on_product_states(self):
        for seed in range(100):
            a = random_state(1, seed=seed)
            b = random_density_matrix(2, seed=seed + 1000).entries
            assert abs(entropy(tensor(a, b)) - (entropy(a) + entropy(b))) < 1e-9

    def test_bounds(self):
        h = entropy(random_density_matrix(2, seed=9).entries)
        assert 0 <= h <= 2

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            entropy_from_eigenvalues(np.array([1.1, -0.1]))


class TestPauliRealize:
    def test_single_identity(self):
        np.testing.assert_array_equal(pauli_realize("I"), I2)

    def test_two_qubit(self):
        np.testing.assert_allclose(pauli_realize("XZ"), tensor(X, Z))

    def test_traceless_involution(self):
        m = pauli_realize("XIIZ")
        assert abs(np.trace(m)) < 1e-14
        np.testing.assert_allclose(m @ m, np.eye(16), atol=1e-14)

    def test_rejects_illegal_symbol(self):
        with pytest.raises(ValueError, match="illegal"):
            pauli_realize("XQ")

    def test_rejects_over_cap(self):
        with pytest.raises(ValueError, match="cap"):
            pauli_realize("I" * 9)

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError, match="^empty Pauli label$"):
            pauli_realize("")

    @settings(deadline=None, max_examples=40)
    @given(st.text(alphabet="IXYZ", min_size=1, max_size=4))
    def test_unitary_hermitian_involution(self, label):
        m = pauli_realize(label)
        d = m.shape[0]
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        np.testing.assert_allclose(m @ m, np.eye(d), atol=1e-14)

    def test_orthogonality_two_qubits_exhaustive(self):
        labels = pauli_labels(2)
        assert len(labels) == 16
        for li in labels:
            for lj in labels:
                tr = np.trace(pauli_realize(li) @ pauli_realize(lj))
                expected = 4.0 if li == lj else 0.0
                assert abs(tr - expected) < 1e-12


def test_pauli_labels_product_order():
    labels = pauli_labels(3)
    assert len(labels) == 64
    assert labels[:5] == ["III", "IIX", "IIY", "IIZ", "IXI"]


@pytest.mark.parametrize("n_qubits", [0, 9])
def test_pauli_labels_outside_one_to_the_qubit_cap_refused(n_qubits):
    with pytest.raises(ValueError, match=r"^n_qubits must be in \[1, 8\]$"):
        pauli_labels(n_qubits)


def test_random_density_matrix_deterministic():
    a = random_density_matrix(2, seed=42)
    b = random_density_matrix(2, seed=42)
    np.testing.assert_array_equal(a.entries, b.entries)
