import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdiscord import (
    DensityMatrix,
    pauli_labels,
    pauli_realize,
    random_density_matrix,
    tensor,
    von_neumann_entropy,
)
from qdiscord.linalg import PAULI_1Q, hermitian_eigenvalues, partial_trace, singular_values

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
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m / np.trace(m))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_non_finite_entries(self):
        m = np.eye(2, dtype=complex) / 2
        m[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)

    def test_rejects_bad_partition(self):
        with pytest.raises(ValueError, match="partition"):
            DensityMatrix(np.eye(4) / 4, (1, 2))

    def test_default_partition_per_qubit(self):
        rho = DensityMatrix(np.eye(8) / 8)
        assert rho.qubit_partition == (1, 1, 1)
        assert rho.subsystem_dims == (2, 2, 2)

    def test_entries_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.3


class TestPartialTrace:
    def test_product_state_factorizes(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = (I2 + 0.2 * X) / 2
        rho = DensityMatrix(tensor(a, b), (1, 1))
        np.testing.assert_allclose(partial_trace(rho, 0).entries, a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(rho, 1).entries, b, atol=1e-14)

    def test_bell_marginal_is_maximally_mixed(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi.conj()), (1, 1))
        np.testing.assert_allclose(partial_trace(rho, 0).entries, I2 / 2, atol=1e-14)

    def test_dqc1_output_top_qubit_matches_trace_identity(self):
        # brute-force index-contraction oracle against the reshape-based path
        from qdiscord import Dqc1Instance, jones_unitary, output_state, trace_estimate

        inst = Dqc1Instance(0.7, jones_unitary())
        rho = output_state(inst)
        top = partial_trace(rho, 0).entries
        d = rho.dim
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for b in range(d // 2):
                    oracle[i, j] += rho.entries[i * (d // 2) + b, j * (d // 2) + b]
        np.testing.assert_allclose(top, oracle, atol=1e-14)
        est = trace_estimate(inst)
        expected = (I2 + est.real * X + est.imag * Y) / 2
        np.testing.assert_allclose(top, expected, atol=1e-12)

    def test_rejects_invalid_subsystem(self):
        rho = DensityMatrix(np.eye(4) / 4, (1, 1))
        with pytest.raises(ValueError, match="invalid subsystem"):
            partial_trace(rho, 2)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_preserves_trace_and_hermiticity(self, seed):
        rho = random_density_matrix((1, 1, 1), seed=seed)
        reduced = partial_trace(rho, [0, 2])
        assert abs(np.trace(reduced.entries) - 1) < 1e-12
        assert np.abs(reduced.entries - reduced.entries.conj().T).max() < 1e-12

    def test_linear_in_input(self):
        r1 = random_density_matrix((1, 1), seed=1)
        r2 = random_density_matrix((1, 1), seed=2)
        mix = DensityMatrix(0.3 * r1.entries + 0.7 * r2.entries, (1, 1))
        lhs = partial_trace(mix, 0).entries
        rhs = 0.3 * partial_trace(r1, 0).entries + 0.7 * partial_trace(r2, 0).entries
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


class TestHermitianEigenvalues:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4)

    def test_pauli_z(self):
        np.testing.assert_allclose(hermitian_eigenvalues(Z), [1, -1])

    def test_two_by_two_closed_form(self):
        np.testing.assert_allclose(hermitian_eigenvalues((I2 + 0.5 * X) / 2), [0.75, 0.25])

    def test_descending_and_traces(self):
        rho = random_density_matrix((1, 1), seed=5)
        w = hermitian_eigenvalues(rho.entries)
        assert np.all(np.diff(w) <= 0)
        assert abs(w.sum() - np.trace(rho.entries).real) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(I2 / 2) == pytest.approx(1.0, abs=1e-12)

    def test_sixteen_dim(self):
        assert von_neumann_entropy(np.eye(16) / 16) == pytest.approx(4.0, abs=1e-12)

    def test_additive_on_product_states(self):
        for seed in range(100):
            a = random_density_matrix((1,), seed=seed)
            b = random_density_matrix((1, 1), seed=seed + 1000)
            prod = DensityMatrix(tensor(a.entries, b.entries), (1, 2))
            total = von_neumann_entropy(prod)
            parts = von_neumann_entropy(a) + von_neumann_entropy(b)
            assert abs(total - parts) < 1e-9

    def test_bounds(self):
        rho = random_density_matrix((1, 1), seed=9)
        h = von_neumann_entropy(rho)
        assert 0 <= h <= 2


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(4)), np.ones(4))

    def test_zero_matrix(self):
        np.testing.assert_allclose(singular_values(np.zeros((4, 4))), np.zeros(4))

    def test_published_truncated_matrix_rank_three(self):
        from qdiscord import eq3_fixture

        sv = singular_values(eq3_fixture().values)
        assert int((sv > 0.05).sum()) == 3

    def test_transpose_agrees(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 7))
        a = singular_values(m)
        b = singular_values(m.T)
        np.testing.assert_allclose(a, b, atol=1e-12)


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


def test_random_density_matrix_deterministic():
    a = random_density_matrix((1, 1), seed=42)
    b = random_density_matrix((1, 1), seed=42)
    np.testing.assert_array_equal(a.entries, b.entries)
