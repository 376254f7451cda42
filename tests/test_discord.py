import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdiscord import (
    DensityMatrix,
    Dqc1Instance,
    MeasurementBasis,
    MinimizerOptions,
    ScalingFitError,
    conditional_state,
    discord,
    discord_at_small_polarization,
    dqc1_discord,
    fit_polarization_scaling,
    haar_random_unitary,
    is_zero_discord,
    jones_unitary,
    mutual_information,
    named_state,
    output_state,
    projective_average,
    random_density_matrix,
    tensor,
)
from qdiscord.linalg import PAULI_1Q, entropy_from_eigenvalues

I2 = PAULI_1Q["I"]
X = PAULI_1Q["X"]
Z = PAULI_1Q["Z"]

Z_BASIS = MeasurementBasis(0.0, 0.0)


def classical_zz_state() -> DensityMatrix:
    return DensityMatrix((np.eye(4) + tensor(Z, Z)) / 4, (1, 1))


class TestMeasurementBasis:
    @settings(deadline=None, max_examples=50)
    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_projectors_complete_and_idempotent(self, theta, phi):
        e0, e1 = MeasurementBasis(theta, phi).projectors()
        np.testing.assert_allclose(e0 + e1, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(e0 @ e0, e0, atol=1e-12)
        np.testing.assert_allclose(e1 @ e1, e1, atol=1e-12)

    def test_canonical_ranges(self):
        b = MeasurementBasis(-0.3, 7.0)
        assert 0 <= b.theta <= np.pi
        assert 0 <= b.phi < 2 * np.pi

    def test_outcome_vectors_match_projectors(self):
        b = MeasurementBasis(1.1, 2.2)
        for v, e in zip(b.outcome_vectors(), b.projectors()):
            np.testing.assert_allclose(np.outer(v, v.conj()), e, atol=1e-12)


class TestConditionalState:
    def test_deterministic_outcome(self):
        sigma = random_density_matrix((1,), seed=4).entries
        rho = DensityMatrix(tensor(np.diag([1.0, 0.0]), sigma), (1, 1))
        p, cond = conditional_state(rho, Z_BASIS, 0)
        assert p == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(cond.entries, sigma, atol=1e-12)
        p1, cond1 = conditional_state(rho, Z_BASIS, 1)
        assert p1 < 1e-14 and cond1 is None

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (1, 1))
        for k in (0, 1):
            p, cond = conditional_state(rho, MeasurementBasis(0.8, 0.3), k)
            assert p == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(cond.entries, I2 / 2, atol=1e-12)

    def test_bell_perfect_correlation(self):
        p, cond = conditional_state(named_state("bell"), Z_BASIS, 0)
        assert p == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(cond.entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rho = random_density_matrix((1, 2), seed=8)
        b = MeasurementBasis(2.0, 1.0)
        total = sum(conditional_state(rho, b, k)[0] for k in (0, 1))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestMutualInformation:
    def test_product_state_zero(self):
        assert abs(mutual_information(named_state("product-fixture"))) < 1e-9

    def test_bell_two_bits(self):
        assert mutual_information(named_state("bell")) == pytest.approx(2.0, abs=1e-12)

    def test_classical_zz_one_bit(self):
        # eigenvalue-enumeration oracle: spectra are (1/2,1/2,0,0), marginals I/2
        rho = classical_zz_state()
        h_ab = entropy_from_eigenvalues(np.array([0.5, 0.5, 0.0, 0.0]))
        oracle = 1.0 + 1.0 - h_ab
        assert mutual_information(rho) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(1.0, abs=1e-12)

    def test_rejects_dims_mismatch(self):
        rho = random_density_matrix((1, 1), seed=0)
        with pytest.raises(ValueError, match="dims"):
            mutual_information(rho, dims=(2, 4))


class TestDiscord:
    def test_product_state_zero(self):
        assert discord(named_state("product-fixture")).discord < 1e-9

    def test_random_product_states_zero(self):
        from .conftest import random_product_state

        for seed in range(5):
            rho = random_product_state(2, seed)
            assert discord(rho).discord < 1e-9

    def test_bell_one_bit(self):
        res = discord(named_state("bell"))
        assert res.discord == pytest.approx(1.0, abs=1e-6)
        assert res.mutual_information == pytest.approx(2.0, abs=1e-9)
        assert res.classical_correlations == pytest.approx(1.0, abs=1e-6)

    def test_classical_zz_zero_with_z_argmin(self):
        res = discord(classical_zz_state())
        assert res.discord < 1e-9
        # argmin along +-z
        assert min(res.argmin_basis.theta, np.pi - res.argmin_basis.theta) < 1e-3

    def test_decomposition_consistent(self):
        rho = random_density_matrix((1, 2), seed=17)
        res = discord(rho)
        gap = res.mutual_information - res.classical_correlations
        assert res.discord == pytest.approx(gap, abs=1e-9)

    def test_rejects_non_qubit_a_side(self):
        rho = random_density_matrix((2, 1), seed=1)
        with pytest.raises(ValueError, match="A side"):
            discord(rho, dims=(4, 2))

    def test_nonnegative_on_random_states(self):
        # 200 states across two-to-four total qubits
        sizes = [(1, 1)] * 80 + [(1, 2)] * 80 + [(1, 3)] * 40
        for seed, part in enumerate(sizes):
            rho = random_density_matrix(part, seed=seed)
            assert discord(rho).discord >= -1e-9

    def test_local_unitary_invariance(self):
        rho = random_density_matrix((1, 2), seed=11)
        d0 = discord(rho).discord
        for seed in range(20):
            ua = haar_random_unitary(2, 100 + seed)
            ub = haar_random_unitary(4, 200 + seed)
            u = np.kron(ua, ub)
            rotated = DensityMatrix(u @ rho.entries @ u.conj().T, (1, 2))
            assert abs(discord(rotated).discord - d0) < 1e-7

    def test_monotone_in_bias_for_jones(self):
        u = jones_unitary()
        values = [
            discord(output_state(Dqc1Instance(eps, u))).discord
            for eps in np.arange(0.0, 1.01, 0.1)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_grid_doubling_robust_on_fixtures(self):
        for name in ("bell", "product-fixture", "initial-dqc1", "final-dqc1"):
            rho = named_state(name)
            d64 = discord(rho, opts=MinimizerOptions(grid=64)).discord
            d128 = discord(rho, opts=MinimizerOptions(grid=128)).discord
            assert abs(d64 - d128) < 1e-8


class TestProjectiveAverage:
    def test_fixed_point_for_diagonal_states(self):
        rho = classical_zz_state()
        np.testing.assert_allclose(
            projective_average(rho, Z_BASIS).entries, rho.entries, atol=1e-14
        )

    def test_bell_dephases(self):
        out = projective_average(named_state("bell"), Z_BASIS)
        expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        np.testing.assert_allclose(out.entries, expected, atol=1e-14)

    def test_erases_x_coherence(self):
        rho = DensityMatrix(tensor((I2 + X) / 2, I2 / 2), (1, 1))
        out = projective_average(rho, Z_BASIS)
        np.testing.assert_allclose(out.entries, np.eye(4) / 4, atol=1e-14)

    def test_idempotent(self):
        rho = random_density_matrix((1, 2), seed=23)
        b = MeasurementBasis(0.9, 4.0)
        once = projective_average(rho, b)
        twice = projective_average(once, b)
        assert np.abs(once.entries - twice.entries).max() < 1e-12


class TestIsZeroDiscord:
    def test_product_state(self):
        verdict = is_zero_discord(named_state("product-fixture"))
        assert verdict.is_zero and verdict.basis is not None

    def test_bell_state(self):
        verdict = is_zero_discord(named_state("bell"))
        assert not verdict.is_zero
        # oracle minimum over bases is 1/sqrt(2)
        assert verdict.distance == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_dqc1_output_half_bias(self):
        rho = output_state(Dqc1Instance(0.5, jones_unitary()))
        verdict = is_zero_discord(rho)
        assert not verdict.is_zero
        assert verdict.distance > 1e-3

    def test_consistency_with_discord_and_invariance(self):
        from .conftest import random_classical_quantum_state, random_product_state

        for seed in range(5):
            for rho in (
                random_classical_quantum_state(2, seed),
                random_product_state(2, seed),
            ):
                verdict = is_zero_discord(rho)
                assert verdict.is_zero
                assert discord(rho).discord < 1e-6
                averaged = projective_average(rho, verdict.basis)
                assert np.linalg.norm(rho.entries - averaged.entries) < 1e-6


class TestDqc1Discord:
    """The eigenphase closed form against the dense search on the output state."""

    EPSILONS = (1e-3, 3e-3, 1e-2, 0.1, 0.5, 1.0)

    @pytest.mark.parametrize(
        "unitary",
        [jones_unitary(), haar_random_unitary(8, 1), haar_random_unitary(16, 2),
         haar_random_unitary(32, 3)],
        ids=["jones", "haar8", "haar16", "haar32"],
    )
    def test_matches_dense_discord(self, unitary):
        eigphases = np.angle(np.linalg.eigvals(unitary))
        for eps in self.EPSILONS:
            fast = dqc1_discord(eigphases, eps)
            dense = discord(output_state(Dqc1Instance(eps, unitary)))
            np.testing.assert_allclose(fast.discord, dense.discord, rtol=1e-9, atol=1e-13)
            np.testing.assert_allclose(
                fast.mutual_information, dense.mutual_information, rtol=1e-9, atol=1e-13
            )

    @pytest.mark.parametrize(
        "unitary", [np.eye(8), np.kron(np.kron(Z, I2), I2)], ids=["identity", "ZII"]
    )
    def test_zero_discord_unitaries_exactly_zero(self, unitary):
        eigphases = np.angle(np.linalg.eigvals(unitary))
        for eps in self.EPSILONS:
            assert dqc1_discord(eigphases, eps).discord == 0.0


class TestSmallPolarization:
    def test_jones_endpoint(self):
        value = discord_at_small_polarization(jones_unitary(), 1.4e-5)
        assert value == pytest.approx(5.4e-11, rel=0.15)

    def test_fit_exponent_quadratic(self):
        fit = fit_polarization_scaling(jones_unitary())
        assert 1.98 < fit.exponent < 2.02

    def test_identity_short_circuits_to_zero(self):
        assert discord_at_small_polarization(np.eye(8), 1e-5) == 0.0

    def test_pauli_unitary_is_zero_discord_family(self):
        u = np.kron(np.kron(Z, I2), I2)
        assert discord_at_small_polarization(u, 1e-5) == 0.0

    def test_rejects_large_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            discord_at_small_polarization(jones_unitary(), 1e-3)

    def test_scaling_violation_raises(self):
        # far outside the quadratic regime the fitted exponent drifts past 2.02
        with pytest.raises(ScalingFitError, match="exponent"):
            fit_polarization_scaling(jones_unitary(), fit_epsilons=(0.9, 0.6, 0.3))
