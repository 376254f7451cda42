import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdiscord import (
    CorrelationMatrix,
    DensityMatrix,
    Dqc1Instance,
    column_combination_scan,
    correlation_matrix,
    default_tau,
    eq3_fixture,
    extract_columns,
    input_state,
    jones_unitary,
    monte_carlo_svd,
    named_state,
    output_state,
    pauli_labels,
    pauli_realize,
    random_density_matrix,
    rank_lower_bound,
    reconstruct_state,
    witness_procedure,
    write_histogram_csvs,
    z_sector_first_policy,
)
from qdiscord.witness import (
    OUTCOME_INCONCLUSIVE,
    OUTCOME_WITNESSED,
    SingularValueDistribution,
    TAU_FLOOR,
    WitnessVerdict,
)


def scaled_non_identity(corr: CorrelationMatrix, kappa: float) -> CorrelationMatrix:
    values = np.array(corr.values) * kappa
    values[0, 0] = corr.values[0, 0]
    sigmas = None if corr.sigmas is None else corr.sigmas * kappa
    return CorrelationMatrix(corr.rows, corr.cols, values, sigmas)


class TestCorrelationMatrix:
    def test_maximally_mixed_rank_one(self):
        rho = DensityMatrix(np.eye(4) / 4, (1, 1))
        corr = correlation_matrix(rho)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(corr.values, expected, atol=1e-14)
        assert rank_lower_bound(corr, 0.5) == 1

    def test_bell_pauli_decomposition(self):
        corr = correlation_matrix(named_state("bell"))
        expected = np.diag([1.0, 1.0, -1.0, 1.0])
        np.testing.assert_allclose(corr.values, expected, atol=1e-14)
        assert rank_lower_bound(corr, 0.5) == 4

    def test_dqc1_rows_are_trace_contractions(self):
        # oracle: r(X, B) = Re Tr(U B)/8 and r(Y, B) = Im Tr(U B)/8 at full bias
        u = jones_unitary()
        corr = correlation_matrix(output_state(Dqc1Instance(1.0, u)))
        for j, lab in enumerate(corr.cols):
            tr = np.trace(u @ pauli_realize(lab))
            assert corr.values[1, j] == pytest.approx(tr.real / 8, abs=1e-12)
            assert corr.values[2, j] == pytest.approx(tr.imag / 8, abs=1e-12)

    def test_identity_entry_snaps_to_one(self):
        corr = correlation_matrix(random_density_matrix((1, 2), seed=3))
        assert corr.values[0, 0] == 1.0

    def test_rejects_identity_entry_far_from_one(self):
        with pytest.raises(ValueError, match="identity entry"):
            CorrelationMatrix(("I",), ("I",), np.array([[0.9]]))

    def test_rejects_identity_sigma(self):
        with pytest.raises(ValueError, match="uncertainty"):
            CorrelationMatrix(("I",), ("I",), np.array([[1.0]]), np.array([[0.1]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_values_and_sigmas(self, bad):
        values = np.array([[1.0, 0.2], [0.1, bad]])
        with pytest.raises(ValueError, match="non-finite"):
            CorrelationMatrix(("I", "X"), ("I", "Z"), values)
        sigmas = np.array([[0.0, 0.1], [0.1, bad]])
        with pytest.raises(ValueError, match="non-finite"):
            CorrelationMatrix(("I", "X"), ("I", "Z"), np.eye(2), sigmas)

    @pytest.mark.parametrize(
        "rows, cols, message",
        [
            (("I", "Q"), ("I", "Z"), "Pauli"),
            ((1, 2), ("I", "Z"), "Pauli"),
            (("I", "XX"), ("I", "Z"), "one length"),
            (("I", "X"), ("I", "I"), "duplicate"),
            (("I", "X"), ("", ""), "Pauli"),
        ],
    )
    def test_rejects_bad_labels(self, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            CorrelationMatrix(rows, cols, np.eye(2))

    def test_round_trip_reconstruction(self):
        for seed in range(10):
            rho = random_density_matrix((1, 3), seed=seed)
            corr = correlation_matrix(rho)
            back = reconstruct_state(corr)
            assert np.linalg.norm(back - rho.entries) < 1e-10

    def test_json_round_trip(self, tmp_path):
        corr = eq3_fixture()
        path = tmp_path / "m.json"
        corr.save(path)
        loaded = CorrelationMatrix.load(path)
        np.testing.assert_array_equal(loaded.values, corr.values)
        np.testing.assert_array_equal(loaded.sigmas, corr.sigmas)
        assert loaded.rows == corr.rows and loaded.cols == corr.cols


class TestExtractColumns:
    def test_select_all_is_identity(self):
        corr = correlation_matrix(named_state("bell"))
        out = extract_columns(corr, corr.cols)
        np.testing.assert_array_equal(out.values, corr.values)

    def test_papers_four_columns_from_full_matrix(self):
        corr = correlation_matrix(named_state("final-dqc1"))
        labels = ("III", "IZI", "IIZ", "IZZ")
        out = extract_columns(corr, labels)
        assert out.shape == (4, 4)
        for j, lab in enumerate(labels):
            np.testing.assert_array_equal(out.values[:, j], corr.column(lab)[0])

    def test_single_column_rank_at_most_one(self):
        corr = correlation_matrix(named_state("final-dqc1"))
        out = extract_columns(corr, ("IZI",))
        assert rank_lower_bound(out, 1e-10) <= 1

    def test_rejects_unknown_label(self):
        corr = correlation_matrix(named_state("bell"))
        with pytest.raises(ValueError, match="unknown column"):
            extract_columns(corr, ("XX",))


class TestRankLowerBound:
    def test_identity_matrix(self):
        assert rank_lower_bound(np.eye(4), 0.5) == 4

    def test_published_truncation_rank_three(self):
        assert rank_lower_bound(eq3_fixture(), 0.05) == 3

    def test_initial_state_structure_rank_one(self):
        # ((I + eps Z)/2) (+) I/8 has only the identity row/column populated
        corr = correlation_matrix(input_state(Dqc1Instance(0.3, jones_unitary())))
        assert rank_lower_bound(corr, 0.05) == 1

    def test_never_exceeds_min_shape(self):
        assert rank_lower_bound(np.ones((4, 64)), 0.0) <= 4


class TestDefaultTau:
    def test_eq3_noise_scale(self):
        corr = eq3_fixture()
        assert default_tau(corr.sigmas) == pytest.approx(2 * 0.05 * 2, abs=1e-12)

    def test_floor_without_sigmas(self):
        assert default_tau(None) == TAU_FLOOR
        assert default_tau(np.zeros((4, 4))) == TAU_FLOOR

    def test_column_count_scaling(self):
        sig = np.full((4, 16), 0.1)
        assert default_tau(sig) == pytest.approx(2 * 0.1 * 4, abs=1e-12)
        assert default_tau(sig, n_cols=4) == pytest.approx(2 * 0.1 * 2, abs=1e-12)


class TestMonteCarloSvd:
    def test_zero_sigma_samples_identical(self):
        corr = correlation_matrix(named_state("bell")).with_uniform_sigmas(0.0)
        dist = monte_carlo_svd(corr, 50, seed=0)
        sv = np.linalg.svd(corr.values, compute_uv=False)
        np.testing.assert_array_equal(dist.samples, np.tile(sv, (50, 1)))

    def test_rejects_missing_sigmas(self):
        corr = correlation_matrix(named_state("bell"))
        with pytest.raises(ValueError, match="sigmas"):
            monte_carlo_svd(corr, 10, seed=0)

    def test_scalar_folded_normal(self):
        corr = CorrelationMatrix(("X",), ("X",), np.array([[1.0]]), np.array([[0.1]]))
        dist = monte_carlo_svd(corr, 20000, seed=5)
        # mu/sigma = 10: folding is negligible, so mean ~ 1 and spread ~ 0.1
        assert dist.samples.mean() == pytest.approx(1.0, abs=0.005)
        assert dist.samples.std() == pytest.approx(0.1, abs=0.01)

    def test_eq3_distribution_shape(self):
        dist = monte_carlo_svd(eq3_fixture(), 10000, seed=1, bin_width=0.005)
        q01 = dist.quantile(0.01)
        med = dist.medians()
        assert q01[2] > 0.2  # third singular value bounded away from zero
        assert med[3] < 0.05  # fourth consistent with zero

    def test_overflowing_sigmas_refused(self):
        corr = eq3_fixture()
        sigmas = np.where(corr.sigmas > 0, 1e308, 0.0)
        huge = CorrelationMatrix(corr.rows, corr.cols, corr.values, sigmas)
        with pytest.raises(ValueError, match="non-finite"):
            monte_carlo_svd(huge, 100, seed=0)

    def test_deterministic(self):
        a = monte_carlo_svd(eq3_fixture(), 200, seed=9)
        b = monte_carlo_svd(eq3_fixture(), 200, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestSingularValueDistribution:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_histogram_invariants(self, seed):
        rng = np.random.default_rng(seed)
        samples = np.sort(np.abs(rng.standard_normal((200, 3))), axis=1)[:, ::-1]
        dist = SingularValueDistribution(samples, 0.05)
        for h in dist.histograms:
            assert h.relative_occurrence.sum() * 0.05 == pytest.approx(1.0, abs=1e-6)
            assert np.all(np.diff(h.cumulative) >= 0)
            assert h.cumulative[-1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bin_width", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_bad_bin_width(self, bin_width):
        with pytest.raises(ValueError, match="bin_width"):
            SingularValueDistribution(np.ones((10, 2)), bin_width)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_samples(self, bad):
        samples = np.ones((10, 2))
        samples[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SingularValueDistribution(samples, 0.005)

    def test_rejects_bin_count_over_cap(self):
        # 1.0 / 1e-7 asks for 10^7 bins; refused before any allocation
        with pytest.raises(ValueError, match="histogram bins"):
            SingularValueDistribution(np.ones((10, 2)), 1e-7)

    def test_distinguishable_count(self):
        samples = np.tile([1.0, 0.3, 0.01], (100, 1))
        dist = SingularValueDistribution(samples, 0.005)
        assert dist.n_distinguishable(0.05, 0.99) == 2


class TestColumnCombinationScan:
    def test_pool_size(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        dist = column_combination_scan(corr, 100, 10, seed=0)
        assert dist.samples.shape == (1000, 4)

    def test_rank_one_zero_sigma(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.0)
        dist = column_combination_scan(corr, 50, 2, seed=0)
        assert np.all(dist.samples[:, 0] > 0.9)
        assert np.all(dist.samples[:, 1:] < 1e-12)

    def test_initial_state_paper_scale(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        dist = column_combination_scan(corr, 1000, 10, seed=0)
        q01 = dist.quantile(0.01)
        assert q01[0] > 1.0  # one clear nonzero singular value (sqrt(2) central)
        assert np.all(q01[1:] < 0.2)  # three others close to zero

    def test_rejects_too_few_columns(self):
        corr = extract_columns(correlation_matrix(named_state("final-dqc1")), ("III", "IZI"))
        with pytest.raises(ValueError, match="4 columns"):
            column_combination_scan(corr.with_uniform_sigmas(0.05), 10, 2, seed=0)

    def test_deterministic(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        a = column_combination_scan(corr, 20, 3, seed=4)
        b = column_combination_scan(corr, 20, 3, seed=4)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestPolicy:
    def test_z_sector_first_for_three_qubits(self):
        policy = z_sector_first_policy(pauli_labels(3))
        assert set(policy.order[:4]) == {"III", "IZI", "IIZ", "IZZ"}
        assert policy.order[4:8] == ("ZII", "ZIZ", "ZZI", "ZZZ")
        assert len(policy.order) == 64


class TestColumnSource:
    def test_fetch_at_most_once(self):
        source = eq3_fixture().as_source()
        source.fetch("III")
        with pytest.raises(ValueError, match="already measured"):
            source.fetch("III")

    def test_unknown_label(self):
        source = eq3_fixture().as_source()
        with pytest.raises(ValueError, match="unknown column"):
            source.fetch("XXX")


class TestWitnessProcedure:
    def test_eq3_fixture_witnessed_with_four_columns(self):
        verdict = witness_procedure(eq3_fixture().as_source(), seed=1)
        assert verdict.outcome == OUTCOME_WITNESSED
        assert verdict.rank_lower_bound == 3
        assert len(verdict.columns_used) == 4
        assert verdict.tau == pytest.approx(0.2, abs=1e-12)

    def test_step_seeded_by_seed_and_step_index(self):
        # the last rank check is monte_carlo_svd on the columns used, seeded [seed, step]
        corr = eq3_fixture()
        verdict = witness_procedure(corr.as_source(), n_samples=500, seed=4)
        sub = extract_columns(corr, verdict.columns_used)
        step = len(verdict.columns_used) - 1
        expected = monte_carlo_svd(sub, 500, [4, step])
        np.testing.assert_array_equal(verdict.distribution.samples, expected.samples)

    def test_initial_state_inconclusive_after_full_tomography(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        verdict = witness_procedure(corr.as_source(), n_samples=2000, seed=1)
        assert verdict.outcome == OUTCOME_INCONCLUSIVE
        assert verdict.rank_lower_bound == 1
        assert len(verdict.columns_used) == 64

    def test_exact_bell_witnessed_rank_four(self):
        corr = correlation_matrix(named_state("bell")).with_uniform_sigmas(0.0)
        verdict = witness_procedure(corr.as_source(), seed=0)
        assert verdict.outcome == OUTCOME_WITNESSED
        assert verdict.rank_lower_bound == 4

    def test_soundness_on_classical_quantum_states(self):
        from .conftest import random_classical_quantum_state

        for seed in range(25):
            rho = random_classical_quantum_state(2, seed)
            corr = correlation_matrix(rho).with_uniform_sigmas(0.0)
            verdict = witness_procedure(corr.as_source(), n_samples=100, seed=seed)
            assert verdict.outcome == OUTCOME_INCONCLUSIVE

    def test_deterministic_distributions(self):
        a = witness_procedure(eq3_fixture().as_source(), seed=3)
        b = witness_procedure(eq3_fixture().as_source(), seed=3)
        np.testing.assert_array_equal(a.distribution.samples, b.distribution.samples)

    def test_verdict_consistency_enforced(self):
        dist = SingularValueDistribution(np.tile([1.0, 0.5], (10, 1)), 0.005)
        with pytest.raises(ValueError, match="inconsistent"):
            WitnessVerdict(OUTCOME_WITNESSED, 2, ("II",), 0.99, 2, 0.1, dist)


class TestScaleInvariance:
    def test_exact_matrices_full_kappa_range(self):
        for seed in range(50):
            corr = correlation_matrix(random_density_matrix((1, 2), seed=seed))
            base = rank_lower_bound(corr, TAU_FLOOR)
            for kappa in (0.1, 0.5, 2.0, 10.0):
                scaled = scaled_non_identity(corr, kappa)
                assert rank_lower_bound(scaled, TAU_FLOOR * kappa) == base

    def test_eq3_noise_scaled(self):
        # kappa kept below the identity normalization: for kappa*tau > 1 the
        # fixed identity entry drops out of the count, which is physical
        corr = eq3_fixture()
        tau = default_tau(corr.sigmas)
        base = rank_lower_bound(corr, tau)
        for kappa in (0.1, 0.5, 2.0):
            scaled = scaled_non_identity(corr, kappa)
            assert rank_lower_bound(scaled, tau * kappa) == base
            assert default_tau(scaled.sigmas) == pytest.approx(tau * kappa, abs=1e-12)


class TestHistogramCsv:
    def test_csv_format_and_normalization(self, tmp_path):
        dist = monte_carlo_svd(eq3_fixture(), 500, seed=2, bin_width=0.01)
        paths = write_histogram_csvs(dist, tmp_path / "hist")
        assert len(paths) == 4
        for path in paths:
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "bin_center,relative_occurrence,cumulative"
            body = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
            assert body.shape[1] == 3
            # fixed-point 6 decimals
            assert all(len(cell.split(".")[1]) == 6 for cell in lines[1].split(","))
            assert body[:, 1].sum() * 0.01 == pytest.approx(1.0, abs=2e-3)
            assert abs(body[-1, 2] - 1.0) < 1e-6
