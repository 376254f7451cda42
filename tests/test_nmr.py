import numpy as np
import pytest

from qdiscord import (
    DensityMatrix,
    correlation_matrix,
    embed,
    load_ensemble,
    measured_correlation_matrix,
    named_state,
    simulate_measurement,
)

from .conftest import (
    boltzmann_polarization,
    random_density_matrix,
    verdict_polarization_invariance,
)
from .oracles import rank_lower_bound

GAMMA_C13 = 6.728e7  # rad s^-1 T^-1, supplied by the caller


class TestBoltzmannPolarization:
    def test_carbon13_at_16p4_tesla_room_temperature(self):
        alpha = boltzmann_polarization(GAMMA_C13, 16.4, 300.0)
        assert alpha == pytest.approx(1.4e-5, rel=0.02)

    def test_zero_field(self):
        assert boltzmann_polarization(GAMMA_C13, 0.0, 300.0) == 0.0

    def test_linear_in_field(self):
        a1 = boltzmann_polarization(GAMMA_C13, 8.2, 300.0)
        a2 = boltzmann_polarization(GAMMA_C13, 16.4, 300.0)
        assert a2 == pytest.approx(2 * a1, rel=1e-14)

    def test_linearity_grid(self):
        fields = np.linspace(1.0, 20.0, 10)
        temps = np.linspace(250.0, 350.0, 10)
        for b in fields:
            for t in temps:
                alpha = boltzmann_polarization(GAMMA_C13, b, t)
                ref = boltzmann_polarization(GAMMA_C13, 1.0, 1.0)
                assert abs(alpha - ref * b / t) / alpha < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            boltzmann_polarization(-1.0, 16.4, 300.0)
        with pytest.raises(ValueError):
            boltzmann_polarization(GAMMA_C13, 16.4, 0.0)


class TestEmbed:
    def test_alpha_one_is_identity_operation(self):
        pps = named_state("final-dqc1")
        np.testing.assert_allclose(embed(pps, 1.0).entries, pps.entries, atol=1e-15)

    def test_maximally_mixed_fixed_point(self):
        pps = DensityMatrix(np.eye(8) / 8)
        out = embed(pps, 0.37)
        np.testing.assert_allclose(out.entries, np.eye(8) / 8, atol=1e-15)

    def test_correlation_entries_scale_by_alpha(self):
        pps = random_density_matrix(3, seed=6)
        alpha = 0.0123
        base = correlation_matrix(pps)
        mixed = correlation_matrix(embed(pps, alpha))
        assert mixed.values[0, 0] == 1.0
        scaled = alpha * base.values
        scaled[0, 0] = 1.0
        np.testing.assert_allclose(mixed.values, scaled, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.1])
    def test_rejects_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            embed(named_state("bell"), alpha)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-3, 0.5, 1.0])
    def test_preserves_valid_state(self, alpha):
        pps = named_state("bell")
        out = embed(pps, alpha)  # DensityMatrix validation runs in constructor
        assert abs(np.trace(out.entries) - 1) < 1e-12


class TestVerdictPolarizationInvariance:
    def test_final_dqc1_nonzero_across_alphas(self):
        assert verdict_polarization_invariance(named_state("final-dqc1"), [1e-3, 1e-2, 0.5])

    def test_classical_state_zero_across_alphas(self):
        from qdiscord import tensor
        from qdiscord.linalg import PAULI_1Q

        z = PAULI_1Q["Z"]
        pps = DensityMatrix((np.eye(4) + tensor(z, z)) / 4)
        assert verdict_polarization_invariance(pps, [0.05, 0.4, 1.0])

    def test_bell_extreme_alphas(self):
        assert verdict_polarization_invariance(named_state("bell"), [0.01, 0.99])


class TestSimulateMeasurement:
    def test_zero_sigma_exact(self):
        rho = named_state("final-dqc1")
        value, sigma = simulate_measurement(rho, "XIII", 0.0, seed=0)
        w = np.exp(-3j * np.pi / 5)
        expected = ((3 + 3 * (-(w**4)) + 2 * w**8) / 8).real
        assert sigma == 0.0
        assert value == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed_traceless(self):
        rho = DensityMatrix(np.eye(16) / 16)
        value, _ = simulate_measurement(rho, "XIZY", 0.0, seed=0)
        assert abs(value) < 1e-14

    def test_deterministic_per_seed_and_observable(self):
        rho = named_state("initial-dqc1")
        a = simulate_measurement(rho, "ZIII", 0.1, seed=7)
        b = simulate_measurement(rho, "ZIII", 0.1, seed=7)
        c = simulate_measurement(rho, "IZII", 0.1, seed=7)
        assert a == b
        assert a != c

    def test_sample_mean_converges(self):
        rho = named_state("bell")
        sigma = 0.2
        draws = np.array(
            [simulate_measurement(rho, "XX", sigma, seed=s)[0] for s in range(10_000)]
        )
        # law of large numbers: 3 sigma / sqrt(N) band around Tr(rho P) = 1
        assert abs(draws.mean() - 1.0) < 3 * sigma / 100

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            simulate_measurement(named_state("bell"), "XX", -0.1, seed=0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="qubits"):
            simulate_measurement(named_state("bell"), "XXX", 0.1, seed=0)


class TestMeasuredCorrelationMatrix:
    def test_identity_entry_exact(self):
        corr = measured_correlation_matrix(named_state("bell"), 0.1, seed=0)
        assert corr.values[0, 0] == 1.0
        assert corr.sigmas[0, 0] == 0.0
        assert np.all(corr.sigmas.ravel()[1:] == 0.1)

    def test_zero_sigma_matches_exact(self):
        rho = named_state("final-dqc1")
        measured = measured_correlation_matrix(rho, 0.0, seed=0)
        exact = correlation_matrix(rho)
        np.testing.assert_allclose(measured.values, exact.values, atol=1e-14)

    def test_noise_is_deterministic(self):
        rho = named_state("bell")
        a = measured_correlation_matrix(rho, 0.05, seed=3)
        b = measured_correlation_matrix(rho, 0.05, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("name", ["bell", "initial-dqc1", "final-dqc1"])
    def test_entries_are_simulated_measurements(self, name):
        # oracle: one simulate_measurement per observable, which recomputes Tr(rho P)
        rho = embed(named_state(name), 1e-3)
        corr = measured_correlation_matrix(rho, 0.05, seed=7)
        for i, row in enumerate(corr.row_labels):
            for j, col in enumerate(corr.col_labels):
                if i == j == 0:
                    continue
                reading, _ = simulate_measurement(rho, row + col, 0.05, seed=7)
                assert abs(corr.values[i, j] - reading) <= 1e-15


class TestWitnessEmbeddingCommutation:
    def test_rank_commutes_with_embedding(self):
        tau = 1e-7
        for seed in range(50):
            pps = random_density_matrix(3, seed=seed)
            base = rank_lower_bound(correlation_matrix(pps), tau)
            for alpha in (1e-4, 1e-2, 0.5):
                mixed = correlation_matrix(embed(pps, alpha))
                assert rank_lower_bound(mixed, tau * alpha) == base


class TestEnsembleIo:
    def test_named_pps(self):
        state = load_ensemble({"alpha": 0.25, "pps": "bell"})
        expected = embed(named_state("bell"), 0.25)
        assert np.array_equal(state.entries, expected.entries)
        assert abs(np.trace(state.entries) - 1) < 1e-12

    def test_inline_matrix_pps(self):
        pps = named_state("product-fixture")
        state = load_ensemble(
            {
                "alpha": 0.5,
                "pps": {"re": pps.entries.real.tolist(), "im": pps.entries.imag.tolist()},
            }
        )
        assert np.array_equal(state.entries, embed(pps, 0.5).entries)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            load_ensemble({"pps": "bell"})
        with pytest.raises(ValueError, match="malformed"):
            load_ensemble({"alpha": 0.1, "pps": {"re": [[1]]}})
        inline = {"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
        for pps in ({**inline, "qubit_partition": 1}, {**inline, "qubit_partition": [[1]]}):
            with pytest.raises(ValueError, match="malformed"):
                load_ensemble({"alpha": 0.1, "pps": pps})
        with pytest.raises(ValueError, match="square 2-d array"):
            load_ensemble({"alpha": 0.1, "pps": {"re": 1, "im": 0}})
        with pytest.raises(ValueError, match="malformed"):
            load_ensemble({"alpha": 10**400, "pps": "bell"})

    @pytest.mark.parametrize(
        "dim, part, message",
        [
            (8, [1, 1, 1], "malformed pps spec: key 'qubit_partition' is not read"),
            (8, [3], "malformed pps spec: key 'qubit_partition' is not read"),
            (2, None, "dimension 2 holds one qubit, and an A|B state needs at least two"),
        ],
        ids=["three-block", "one-block", "one-qubit"],
    )
    def test_rejects_pps_without_an_a_b_split(self, dim, part, message):
        # qubit A is the pps's first qubit and B the rest: a pps that states
        # another split is refused, as is one with no qubit left for B
        pps = {"re": (np.eye(dim) / dim).tolist(), "im": np.zeros((dim, dim)).tolist()}
        if part is not None:
            pps["qubit_partition"] = part
        with pytest.raises(ValueError) as err:
            load_ensemble({"alpha": 0.5, "pps": pps})
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("part", [[1.9, 1.2], [True, True], "11"], ids=["floats", "bools", "string"])
    def test_rejects_non_integer_partition(self, part):
        # read with int() each of these would load as (1, 1); no partition is read at all
        pps = {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        pps["qubit_partition"] = part
        with pytest.raises(ValueError) as err:
            load_ensemble({"alpha": 0.5, "pps": pps})
        assert str(err.value) == (
            "malformed pps spec: key 'qubit_partition' is not read; an inline pps is "
            '{"re", "im"} alone, with qubit A its first qubit'
        )

    @pytest.mark.parametrize(
        "alpha, shown",
        [(True, "True"), ("0.001", "'0.001'"), (None, "None"), ([0.5], "[0.5]")],
        ids=["bool", "string", "null", "list"],
    )
    def test_rejects_a_non_numeric_alpha(self, alpha, shown):
        # read with float() the first two would load at alpha 1 and 0.001
        with pytest.raises(ValueError) as err:
            load_ensemble({"alpha": alpha, "pps": "bell"})
        assert str(err.value) == f"malformed ensemble spec: alpha {shown} is not a number"

    @pytest.mark.parametrize("alpha", [np.int64(1), np.float32(0.5)])
    def test_numpy_alpha_loads(self, alpha):
        state = load_ensemble({"alpha": alpha, "pps": "bell"})
        assert np.array_equal(state.entries, embed(named_state("bell"), float(alpha)).entries)

    def test_ensemble_alpha_validated(self):
        with pytest.raises(ValueError, match=r"alpha 1\.5 outside \(0, 1\]"):
            load_ensemble({"alpha": 1.5, "pps": "bell"})
