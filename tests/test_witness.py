import ast
import json
import math
import zlib
from pathlib import Path

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
    input_state,
    jones_unitary,
    named_state,
    output_state,
    pauli_labels,
    pauli_realize,
    witness_procedure,
    write_histogram_csvs,
    z_sector_first_order,
)
from qdiscord import witness as wit
from qdiscord.witness import (
    GRAM_RESOLUTION,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_WITNESSED,
    SingularValueDistribution,
    TAU_FLOOR,
)

from .conftest import (
    extract_columns,
    matrix_document,
    monte_carlo_svd,
    random_classical_quantum_state,
    random_density_matrix,
)
from .oracles import rank_lower_bound, reconstruct_state, svd_combination_scan


def stacked_draws(corr: CorrelationMatrix, n_samples: int, seed: int) -> np.ndarray:
    """The (n_samples, rows, cols) perturbed matrices of the Monte Carlo, each
    column drawn from its own default_rng([seed, crc32(label)]) stream."""
    out = np.empty((n_samples,) + corr.values.shape)
    for j, label in enumerate(corr.col_labels):
        rng = np.random.default_rng([seed, zlib.crc32(label.encode())])
        noise = rng.standard_normal((n_samples, len(corr.row_labels)))
        out[:, :, j] = corr.values[:, j] + noise * corr.sigmas[:, j]
    return out


def scaled_non_identity(corr: CorrelationMatrix, kappa: float) -> CorrelationMatrix:
    values = np.array(corr.values) * kappa
    values[0, 0] = corr.values[0, 0]
    sigmas = None if corr.sigmas is None else corr.sigmas * kappa
    return CorrelationMatrix(corr.row_labels, corr.col_labels, values, sigmas)


def outer_product_gram(corr: CorrelationMatrix, n_samples: int, seed: int, k: int) -> np.ndarray:
    """Full (n_samples, rows, rows) Gram stack of the first k columns, each
    drawn from the witness's keyed stream and folded as a whole outer
    product c c^T."""
    gram = np.zeros((n_samples, len(corr.row_labels), len(corr.row_labels)))
    for j, label in enumerate(corr.col_labels[:k]):
        col = corr.values[:, j]
        if np.any(corr.sigmas[:, j] > 0):
            rng = np.random.default_rng([seed, zlib.crc32(label.encode())])
            col = col + rng.standard_normal((n_samples, col.size)) * corr.sigmas[:, j]
        gram += np.atleast_2d(col)[:, :, None] * np.atleast_2d(col)[:, None, :]
    return gram


def full_quantiles(gram: np.ndarray, n_sv: int, q: float) -> np.ndarray:
    """np.quantile of the floored singular values from a full eigvalsh of a
    Gram stack: the rank check without bounds."""
    lam = np.linalg.eigvalsh(gram)[:, ::-1][:, :n_sv]
    lam[lam < GRAM_RESOLUTION**2 * lam[:, :1]] = 0.0
    return np.quantile(np.sqrt(lam), q, axis=0)


def floor_rises_matrix() -> CorrelationMatrix:
    """Seven columns of noise 3e-6 around the identity's 1, whose three small
    singular values (about 7e-6) are resolved, then an exact column of 10 that
    lifts the largest to about 10 and so puts them under the resolution."""
    values = np.zeros((4, 8))
    values[0, 0], values[0, 7] = 1.0, 10.0
    sigmas = np.full((4, 8), 3e-6)
    sigmas[0, 0] = 0.0
    sigmas[:, 7] = 0.0
    return CorrelationMatrix(("I", "X", "Y", "Z"), pauli_labels(2)[:8], values, sigmas)


def with_exact_columns(corr: CorrelationMatrix) -> CorrelationMatrix:
    """corr with columns 0, 1 and 5 exact (zero sigma) and column 8 all zero,
    which leaves every Gram matrix unchanged when it is folded."""
    values, sigmas = np.array(corr.values), np.array(corr.sigmas)
    sigmas[:, [0, 1, 5, 8]] = 0.0
    values[:, 8] = 0.0
    return CorrelationMatrix(corr.row_labels, corr.col_labels, values, sigmas)


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
        for j, lab in enumerate(corr.col_labels):
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
        path.write_text(json.dumps(matrix_document(corr)))
        loaded = CorrelationMatrix.load(path)
        np.testing.assert_array_equal(loaded.values, corr.values)
        np.testing.assert_array_equal(loaded.sigmas, corr.sigmas)
        assert loaded.row_labels == corr.row_labels and loaded.col_labels == corr.col_labels


class TestExtractColumns:
    def test_select_all_is_identity(self):
        corr = correlation_matrix(named_state("bell"))
        out = extract_columns(corr, corr.col_labels)
        np.testing.assert_array_equal(out.values, corr.values)

    def test_papers_four_columns_from_full_matrix(self):
        corr = correlation_matrix(named_state("final-dqc1"))
        labels = ("III", "IZI", "IIZ", "IZZ")
        out = extract_columns(corr, labels)
        assert out.values.shape == (4, 4)
        for j, lab in enumerate(labels):
            np.testing.assert_array_equal(out.values[:, j], corr.values[:, corr.col_labels.index(lab)])

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

    @pytest.mark.parametrize("bin_width", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_bad_bin_width(self, bin_width):
        with pytest.raises(ValueError, match="bin_width"):
            monte_carlo_svd(eq3_fixture(), 10, seed=0, bin_width=bin_width)

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
        huge = CorrelationMatrix(corr.row_labels, corr.col_labels, corr.values, sigmas)
        with pytest.raises(ValueError, match="non-finite"):
            monte_carlo_svd(huge, 100, seed=0)

    def test_deterministic(self):
        a = monte_carlo_svd(eq3_fixture(), 200, seed=9)
        b = monte_carlo_svd(eq3_fixture(), 200, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)

    @pytest.mark.parametrize(
        "corr",
        [
            eq3_fixture(),
            correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05),
            correlation_matrix(random_density_matrix((1, 2), seed=3)).with_uniform_sigmas(0.05),
        ],
        ids=["rtrunc_eq3", "initial-dqc1", "random-1+2"],
    )
    def test_gram_matches_svd_of_the_same_draws(self, corr):
        gram = monte_carlo_svd(corr, 10000, seed=1).samples
        ref = np.linalg.svd(stacked_draws(corr, 10000, 1), compute_uv=False)
        top = ref[:, :1]
        # squared singular values are the Gram eigenvalues, accurate to ~10 eps
        # x the largest; values under the resolution read 0
        assert np.all(np.abs(gram**2 - ref**2) <= 2 * (GRAM_RESOLUTION * top) ** 2)
        # sqrt turns that into eps x |R|^2 / (2 sv): 1e-12 absolute from 1e-3 x the largest
        resolved = ref >= 1e-3 * top
        assert np.abs(gram - ref)[resolved].max() <= 1e-12

    def test_below_resolution_reads_zero(self):
        # rank one with noise 1e-12: the three small values are under the resolution
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(1e-12)
        dist = monte_carlo_svd(corr, 100, seed=0)
        assert np.all(dist.samples[:, 0] > 1.0)
        assert np.all(dist.samples[:, 1:] == 0.0)

    def test_column_noise_independent_of_position(self):
        # each column keeps its own draw, so reordering the columns only
        # reorders the Gram sum
        corr = eq3_fixture()
        reordered = extract_columns(corr, corr.col_labels[::-1])
        a = monte_carlo_svd(corr, 500, seed=6).samples
        b = monte_carlo_svd(reordered, 500, seed=6).samples
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_b", [1, 2, 3])
    def test_column_keys_disjoint_from_measurement_keys(self, n_b):
        # the benchmark and the CLI may pass one integer to --seed and
        # --measure-seed: the witness draws [seed, crc32(col)], nmr draws
        # [seed, crc32(row + col)]
        rows, cols = pauli_labels(1), pauli_labels(n_b)
        witness_keys = {zlib.crc32(c.encode()) for c in cols}
        measure_keys = {zlib.crc32((r + c).encode()) for r in rows for c in cols}
        assert len(witness_keys) == len(cols)
        assert witness_keys.isdisjoint(measure_keys)


class TestRankCheckQuantiles:
    """The rank check decomposes only the samples that can reach the low
    quantile; its quantiles must equal a full decomposition bit for bit."""

    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.99, 1.0])
    @pytest.mark.parametrize("n_samples", [1, 2, 7, 100, 10000])
    @pytest.mark.parametrize(
        "corr",
        [
            with_exact_columns(
                correlation_matrix(random_density_matrix((1, 2), seed=3)).with_uniform_sigmas(0.05)
            ),
            extract_columns(
                correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(1e-12),
                pauli_labels(3)[:12],
            ),
            extract_columns(
                correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(1e-6),
                pauli_labels(3)[:12],
            ),
            floor_rises_matrix(),
            eq3_fixture(),
        ],
        ids=["exact-and-zero-columns", "sigma-1e-12", "sigma-1e-6", "floor-rises", "rtrunc_eq3"],
    )
    def test_equals_full_decomposition(self, corr, n_samples, confidence):
        q = 1.0 - confidence
        fold = wit._GramFold(len(corr.row_labels), n_samples, seed=2)
        for j, label in enumerate(corr.col_labels):
            fold.add(label, corr.values[:, j], corr.sigmas[:, j])
            got, decomposed = fold.quantiles(q)
            if fold.noisy:
                gram = outer_product_gram(corr, n_samples, 2, j + 1)
                want = full_quantiles(gram, fold.n_singular_values, q)
                assert 0 < decomposed <= n_samples
            else:
                want = np.linalg.svd(corr.values[:, : j + 1], compute_uv=False)
                assert decomposed == 0
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "corr",
        [
            *(
                correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(sigma)
                for sigma in (1e-12, 1e-6, 0.05)
            ),
            floor_rises_matrix(),
        ],
        ids=["sigma-1e-12", "sigma-1e-6", "sigma-0.05", "floor-rises"],
    )
    def test_bounds_never_exceed_the_current_values(self, corr):
        # sigma-1e-12: a column moves lambda_max by less than its rounding, so a
        # stored lambda_max can exceed the next computed one by an ulp.
        # floor-rises: small values resolved at one check read 0 at the next
        fold = wit._GramFold(len(corr.row_labels), 1000, seed=5)
        for j, label in enumerate(corr.col_labels):
            fold.add(label, corr.values[:, j], corr.sigmas[:, j])
            current = fold.distribution(0.005).samples.T
            assert np.all(fold._lower_bounds() <= current)
            fold.quantiles(0.01)

    @pytest.mark.parametrize("q", [0.0, 1e-5, 0.01, 0.5, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 10000])
    def test_quantile_of_lowest_is_numpy_quantile(self, n, q):
        # ties (values rounded to 0.1) and the subset of columns the check reads
        rng = np.random.default_rng(n)
        full = np.vstack([np.abs(rng.standard_normal((3, n))), np.round(rng.random(n), 1)])
        want = np.quantile(full, q, axis=1)
        low = np.argsort(full, axis=1, kind="stable")[:, : min(math.floor(q * (n - 1)) + 2, n)]
        subset = full[:, rng.permutation(np.unique(low))]
        for lowest in (full, subset):
            assert wit._quantile_of_lowest(lowest, q, n).tobytes() == want.tobytes()
        got = SingularValueDistribution(full.T, 0.005).quantile(q)
        assert got.tobytes() == want.tobytes()


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
        # the rank rule: singular values whose low quantile exceeds tau
        samples = np.tile([1.0, 0.3, 0.01], (100, 1))
        low = SingularValueDistribution(samples, 0.005).quantile(0.01)
        np.testing.assert_array_equal(low, [1.0, 0.3, 0.01])
        assert int((low > 0.05).sum()) == 2

    @pytest.mark.parametrize("q", [1.5, -0.1, float("nan")])
    def test_quantile_outside_unit_interval_refused(self, q):
        dist = SingularValueDistribution(np.ones((10, 2)), 0.005)
        with pytest.raises(ValueError, match="quantile"):
            dist.quantile(q)


class TestColumnCombinationScan:
    @pytest.mark.parametrize("bin_width", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_bad_bin_width(self, bin_width):
        with pytest.raises(ValueError, match="bin_width"):
            column_combination_scan(eq3_fixture(), 10, 10, seed=0, bin_width=bin_width)

    @pytest.mark.parametrize("n_combos, resamples", [(0, 10), (10, 0), (-1, 10)])
    def test_rejects_empty_scan(self, n_combos, resamples):
        with pytest.raises(ValueError, match="at least 1"):
            column_combination_scan(eq3_fixture(), n_combos, resamples, seed=0)

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

    @pytest.mark.parametrize(
        "corr",
        [
            correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05),
            correlation_matrix(named_state("final-dqc1")).with_uniform_sigmas(0.05),
            eq3_fixture(),
            correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.0),
        ],
        ids=["initial-dqc1", "final-dqc1", "rtrunc_eq3", "zero-sigma"],
    )
    def test_matches_batched_svd_of_the_same_draws(self, corr):
        got = column_combination_scan(corr, 300, 10, seed=2).samples
        ref = svd_combination_scan(corr, 300, 10, seed=2)
        top = ref[:, :1] * np.ones_like(ref)
        resolved = ref > GRAM_RESOLUTION * top
        # eigvalsh of the Gram matrix is accurate to ~eps x the largest value
        # squared, so a singular value is good to ~1e-12 of the largest
        assert np.all(np.abs(got - ref)[resolved] <= 1e-10 * top[resolved])
        assert np.all(got[~resolved] == 0.0)


class TestPolicy:
    def test_z_sector_first_for_three_qubits(self):
        order = z_sector_first_order(pauli_labels(3))
        assert set(order[:4]) == {"III", "IZI", "IIZ", "IZZ"}
        assert order[4:8] == ("ZII", "ZIZ", "ZZI", "ZZZ")
        assert sorted(order) == sorted(pauli_labels(3))


@pytest.fixture
def fetched(monkeypatch):
    """The labels of the columns folded into the Monte Carlo, in call order."""
    labels = []
    real = wit._GramFold.add

    def counted(self, label, values, sigmas):
        labels.append(label)
        return real(self, label, values, sigmas)

    monkeypatch.setattr(wit._GramFold, "add", counted)
    return labels


class TestWitnessProcedure:
    @pytest.mark.parametrize("name", ["bell", "initial-dqc1"])
    def test_matrix_without_sigmas_runs_as_its_zero_sigma_twin(self, name):
        corr = correlation_matrix(named_state(name))
        assert corr.sigmas is None
        bare = witness_procedure(corr, n_samples=50, seed=2)
        twin = witness_procedure(corr.with_uniform_sigmas(0.0), n_samples=50, seed=2)
        assert bare.columns_used == twin.columns_used
        assert bare.trajectory == twin.trajectory
        np.testing.assert_array_equal(bare.distribution.samples, twin.distribution.samples)

    @pytest.mark.parametrize(
        "corr",
        [eq3_fixture(), correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)],
        ids=["witnessed", "full-tomography"],
    )
    def test_fetches_exactly_the_columns_used_once_each_in_order(self, corr, fetched):
        verdict = witness_procedure(corr, n_samples=100, seed=1)
        assert tuple(fetched) == verdict.columns_used
        assert tuple(fetched) == z_sector_first_order(corr.col_labels)[: len(fetched)]
        assert len(set(fetched)) == len(fetched)

    def test_eq3_fixture_witnessed_with_four_columns(self):
        verdict = witness_procedure(eq3_fixture(), seed=1)
        assert verdict.outcome == OUTCOME_WITNESSED
        assert verdict.rank_lower_bound == 3
        assert len(verdict.columns_used) == 4
        assert verdict.tau == pytest.approx(0.2, abs=1e-12)

    def test_each_check_equals_monte_carlo_svd_of_its_columns(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        verdict = witness_procedure(corr, n_samples=300, seed=4)
        used = verdict.columns_used
        assert len(verdict.trajectory) == len(used) - 4 + 1
        for k, check in enumerate(verdict.trajectory, start=4):
            sub = extract_columns(corr, used[:k])
            dist = monte_carlo_svd(sub, 300, 4)
            assert check.column == used[k - 1]
            assert check.tau == default_tau(sub.sigmas)
            np.testing.assert_array_equal(check.quantiles_low, dist.quantile(1 - 0.99))
            assert check.rank == int((dist.quantile(1 - 0.99) > check.tau).sum())
        last = monte_carlo_svd(extract_columns(corr, used), 300, 4)
        np.testing.assert_array_equal(verdict.distribution.samples, last.samples)

    def test_builds_histograms_for_the_returned_distribution_only(self, monkeypatch, tmp_path):
        calls = []
        real = wit._histogram

        def counted(samples, bin_width):
            calls.append(samples.size)
            return real(samples, bin_width)

        monkeypatch.setattr(wit, "_histogram", counted)
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        verdict = witness_procedure(corr, n_samples=300, seed=1)
        assert len(verdict.columns_used) == 64
        assert calls == []
        write_histogram_csvs(verdict.distribution, tmp_path / "h")
        write_histogram_csvs(verdict.distribution, tmp_path / "h")
        assert calls == [300] * 4

    @pytest.mark.parametrize("confidence", [1.5, 0.0, -0.1, float("nan")])
    def test_rejects_confidence_outside_unit_interval(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            witness_procedure(eq3_fixture(), confidence=confidence)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_tau_not_positive_and_finite(self, tau):
        # tau 0 or -1 used to witness discord in this zero-discord state
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        with pytest.raises(ValueError, match="tau"):
            witness_procedure(corr, tau=tau, n_samples=100)

    @pytest.mark.parametrize("bin_width", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_bad_bin_width_before_fetching(self, bin_width, fetched):
        with pytest.raises(ValueError, match="bin_width"):
            witness_procedure(eq3_fixture(), bin_width=bin_width)
        assert fetched == []

    def test_rank_checks_decompose_a_minority_of_samples(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        verdict = witness_procedure(corr, n_samples=10000, seed=1)
        decomposed = [check.decomposed for check in verdict.trajectory]
        assert len(decomposed) == 61
        assert all(0 < d <= 10000 for d in decomposed)
        assert sum(decomposed) <= 0.4 * 61 * 10000

    def test_initial_state_inconclusive_after_full_tomography(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        verdict = witness_procedure(corr, n_samples=2000, seed=1)
        assert verdict.outcome == OUTCOME_INCONCLUSIVE
        assert verdict.rank_lower_bound == 1
        assert len(verdict.columns_used) == 64

    def test_exact_bell_witnessed_rank_four(self):
        corr = correlation_matrix(named_state("bell")).with_uniform_sigmas(0.0)
        verdict = witness_procedure(corr, seed=0)
        assert verdict.outcome == OUTCOME_WITNESSED
        assert verdict.rank_lower_bound == 4

    def test_soundness_on_classical_quantum_states(self):
        for seed in range(25):
            rho = random_classical_quantum_state(2, seed)
            corr = correlation_matrix(rho).with_uniform_sigmas(0.0)
            verdict = witness_procedure(corr, n_samples=100, seed=seed)
            assert verdict.outcome == OUTCOME_INCONCLUSIVE

    @pytest.mark.parametrize("confidence", [0.99, 0.5])
    @pytest.mark.parametrize("sigma", [1e-12, 1e-9, 1e-6])
    def test_soundness_at_tiny_sigmas(self, sigma, confidence):
        # sqrt(eig(R R^T)) has no precision left near zero: rounding alone
        # would lift the rank-2 null directions above tau = 8 sigma
        for seed in range(25):
            rho = random_classical_quantum_state(2, seed)
            corr = correlation_matrix(rho).with_uniform_sigmas(sigma)
            verdict = witness_procedure(
                corr, n_samples=100, seed=seed, confidence=confidence
            )
            assert verdict.outcome == OUTCOME_INCONCLUSIVE, (seed, verdict.rank_lower_bound)

    def test_deterministic_distributions(self):
        a = witness_procedure(eq3_fixture(), seed=3)
        b = witness_procedure(eq3_fixture(), seed=3)
        np.testing.assert_array_equal(a.distribution.samples, b.distribution.samples)

    @pytest.mark.parametrize("sigma", [0.05, 100.0, 1000.0])
    def test_bin_bound_never_exceeds_the_final_samples(self, sigma):
        # the early bin refusal rests on sqrt(tr(G) / rows) at any check being
        # at most the largest singular value of the final samples
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(sigma)
        fold = wit._GramFold(len(corr.row_labels), 200, seed=7)
        bounds = []
        for j, label in enumerate(corr.col_labels):
            fold.add(label, corr.values[:, j], corr.sigmas[:, j])
            bounds.append(np.sqrt(fold.trace().max() / len(corr.row_labels)))
        top = np.sqrt(fold._eigenvalues(slice(None))[:, 0].max())
        assert max(bounds) == bounds[-1] <= top

    def test_noise_just_within_the_bins_runs(self):
        # the last samples need 9.7e5 of the 10^6 bins: no early refusal
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(430.0)
        verdict = witness_procedure(corr, n_samples=200, seed=7)
        top_bins = verdict.distribution.samples.max() / 0.005
        assert 0.95 * wit.MAX_HISTOGRAM_BINS < top_bins < wit.MAX_HISTOGRAM_BINS

    def test_bins_refused_at_the_first_check_that_needs_them(self, fetched):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(1000.0)
        with pytest.raises(wit.HistogramBinsError, match="histogram bins"):
            witness_procedure(corr, n_samples=100, seed=0)
        assert len(fetched) < 64  # refused before the last column


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


def calls_by_scope(path: Path) -> list[tuple[str, str]]:
    """(enclosing class.function, called expression) of every call in a module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                found.append((scope, ast.unparse(child.func)))
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_one_monte_carlo_engine_and_one_quantile_rule():
    # the procedure and the scan both fold through _GramFold, whose exact
    # matrix is the one SVD; every quantile is _quantile_of_lowest's
    src = Path(wit.__file__).parent
    witness_calls = calls_by_scope(src / "witness.py")
    assert [scope for scope, f in witness_calls if f.endswith("svd")] == ["_GramFold._exact_sv"]
    assert not [f for scope, f in witness_calls if scope == "column_combination_scan"
                and "linalg" in f]
    offenders = [
        (path.name, f) for path in src.rglob("*.py") for _, f in calls_by_scope(path)
        if f.endswith(("np.quantile", "n_distinguishable"))
    ]
    assert offenders == []
