import ast
import functools
import json
import tempfile
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
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
    load_ensemble,
    measured_correlation_matrix,
    named_state,
    output_state,
    pauli_labels,
    pauli_realize,
    witness_procedure,
    write_histogram_csvs,
    z_sector_first_order,
)
from qdiscord import witness as wit
from qdiscord.linalg import MAX_QUBITS, PAULI_1Q
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
    overflowing_trace_matrix,
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
    return CorrelationMatrix(corr.row_labels, corr.col_labels, values, corr.sigmas * kappa)


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


def floored_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """Descending eigvalsh of a Gram stack, those under the resolution 0."""
    lam = np.linalg.eigvalsh(gram)[:, ::-1]
    lam[lam < GRAM_RESOLUTION**2 * lam[:, :1]] = 0.0
    return lam


def full_quantiles(gram: np.ndarray, n_sv: int, q: float) -> np.ndarray:
    """np.quantile of the floored singular values from a full eigvalsh of a
    Gram stack: the rank check without bounds."""
    return np.quantile(np.sqrt(floored_eigenvalues(gram)[:, :n_sv]), q, axis=0)


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


def repeated_eigenvalues_matrix() -> CorrelationMatrix:
    """Three orthonormal rows of four columns, so the full Gram matrix is the
    identity (one eigenvalue three times) after non-diagonal partial sums,
    with noise of 1e-9 that splits it by about that much."""
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    return CorrelationMatrix(("X", "Y", "Z"), pauli_labels(1), q[:3], np.full((3, 4), 1e-9))


def degenerate_trailing_matrix(lengths: tuple[float, float, float]) -> CorrelationMatrix:
    """The identity's 1 alone in the I row, and X, Y and Z rows of
    ``lengths`` along orthonormal directions of four more columns, with noise
    of 1e-12: the block that the certificate's 3 x 3 solution reads has the
    eigenvalues lengths^2, so equal lengths put its cubic at a double or
    triple root, split only by the noise (the arccos edge, |r| near 1)."""
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    values = np.zeros((4, 5))
    values[0, 0] = 1.0
    values[1:, 1:] = np.array(lengths)[:, None] * q[:3]
    sigmas = np.full(values.shape, 1e-12)
    sigmas[0, 0] = 0.0
    return CorrelationMatrix(("I", "X", "Y", "Z"), pauli_labels(2)[:5], values, sigmas)


def rank_deficient_matrix(scale: float) -> CorrelationMatrix:
    """I and Z rows of ``scale`` in one column, exact, and noise of
    0.05 ``scale`` on the X row alone: every Gram matrix has rank at most 2,
    so lambda_3 and lambda_4 are 0 up to rounding, a double root at 0. The
    identity column is left out, so ``scale`` reaches tr(G) near 1e-200."""
    values = np.zeros((4, 12))
    values[[0, 3], 0] = scale
    sigmas = np.zeros((4, 12))
    sigmas[1] = 0.05 * scale
    return CorrelationMatrix(("I", "X", "Y", "Z"), pauli_labels(2)[1:13], values, sigmas)


def equal_top_matrix() -> CorrelationMatrix:
    """I and X rows exact and orthonormal (1 at II and at IX), and noise of
    0.05 on the Y and Z rows past those two columns: lambda_1 = lambda_2 = 1
    exactly, so no direction dominates and no sample gets a certificate."""
    values = np.zeros((4, 12))
    values[0, 0] = values[1, 1] = 1.0
    sigmas = np.zeros((4, 12))
    sigmas[2:, 2:] = 0.05
    return CorrelationMatrix(("I", "X", "Y", "Z"), pauli_labels(2)[:12], values, sigmas)


def tiny_matrix(scale: float) -> CorrelationMatrix:
    """The four rows of final-dqc1 over the 12 columns after III, times
    ``scale``, with sigmas of a tenth of it: below about 1e-77 the squares of
    the Gram entries underflow."""
    corr = correlation_matrix(named_state("final-dqc1"))
    values = corr.values[:, 1:13] * scale
    return CorrelationMatrix(
        corr.row_labels, corr.col_labels[1:13], values, np.full(values.shape, scale / 10)
    )


def row_subset(corr: CorrelationMatrix, rows: str) -> CorrelationMatrix:
    """The rows ``rows`` (labels, in order) of a matrix."""
    keep = [corr.row_labels.index(r) for r in rows]
    return CorrelationMatrix(tuple(rows), corr.col_labels, corr.values[keep], corr.sigmas[keep])


def tied_matrix() -> CorrelationMatrix:
    """initial-dqc1's first 12 columns with noise of 0.05 on the X row alone:
    the I, Y and Z rows are the same in every sample, so lambda_3 and
    lambda_4 read 0 in every sample, ties at both order statistics."""
    corr = extract_columns(correlation_matrix(named_state("initial-dqc1")), pauli_labels(3)[:12])
    sigmas = np.zeros(corr.values.shape)
    sigmas[1] = 0.05
    return CorrelationMatrix(corr.row_labels, corr.col_labels, corr.values, sigmas)


def csv_histogram(path: Path, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin centers, whole counts (relative occurrence x n x bin) and
    cumulative fractions of a histogram CSV of ``n`` samples."""
    centers, rel, cum = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    counts = rel * n * wit.HISTOGRAM_BIN
    whole = np.round(counts)
    np.testing.assert_allclose(counts, whole, rtol=0, atol=1e-3)
    return centers, whole.astype(int), cum


RANK_CHECK_MATRICES = {
    "exact-and-zero-columns": with_exact_columns(
        correlation_matrix(random_density_matrix(3, seed=3)).with_uniform_sigmas(0.05)
    ),
    "sigma-1e-12": extract_columns(
        correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(1e-12),
        pauli_labels(3)[:12],
    ),
    "sigma-1e-6": extract_columns(
        correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(1e-6),
        pauli_labels(3)[:12],
    ),
    "floor-rises": floor_rises_matrix(),
    "rtrunc_eq3": eq3_fixture(),
    "tied": tied_matrix(),
}


class TestCorrelationMatrix:
    def test_maximally_mixed_rank_one(self):
        rho = DensityMatrix(np.eye(4) / 4)
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
        corr = correlation_matrix(random_density_matrix(3, seed=3))
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
        "build",
        [
            lambda: CorrelationMatrix(("I", "X"), ("I", "Z"), np.eye(2), np.diag([0.0, -0.1])),
            lambda: eq3_fixture().with_uniform_sigmas(-0.1),
        ],
        ids=["constructor", "with_uniform_sigmas"],
    )
    def test_rejects_negative_sigmas(self, build):
        with pytest.raises(ValueError, match="^sigmas? must be non-negative$"):
            build()

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

    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 5])
    def test_round_trip_reconstruction(self, n_qubits):
        for seed in range(10):
            rho = random_density_matrix(n_qubits, seed=seed)
            corr = correlation_matrix(rho)
            back = reconstruct_state(corr)
            assert np.linalg.norm(back - rho.entries) < 1e-10

    def test_product_state_at_the_qubit_cap(self):
        # oracle: the correlation matrix of a product of (I + r.sigma)/2 is the
        # Kronecker product of the factors' Pauli coefficients (1, x, y, z)
        rng = np.random.default_rng(8)
        r = rng.uniform(-0.5, 0.5, (MAX_QUBITS, 3))
        factors = [(PAULI_1Q["I"] + sum(c * PAULI_1Q[s] for c, s in zip(v, "XYZ"))) / 2 for v in r]
        corr = correlation_matrix(DensityMatrix(functools.reduce(np.kron, factors)))
        coeffs = np.hstack([np.ones((MAX_QUBITS, 1)), r])
        want = np.outer(coeffs[0], functools.reduce(np.kron, coeffs[1:]))
        assert corr.values.shape == (4, 4 ** (MAX_QUBITS - 1))
        np.testing.assert_allclose(corr.values, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("change, message", [
        ({}, "matrix carries no sigmas; Monte Carlo rank bounds need per-element "
             "uncertainties (use zero sigmas for exact columns)"),
        ({"rows": ["I", "Q", "Y", "Z"]}, "row label 'Q' is not a Pauli string over IXYZ"),
    ], ids=["no-sigmas", "bad-label-first"])
    @pytest.mark.parametrize("sigmas", [{}, {"sigmas": None}], ids=["missing", "null"])
    def test_document_without_sigmas_refused(self, change, message, sigmas):
        document = {k: v for k, v in matrix_document(eq3_fixture()).items() if k != "sigmas"}
        document.update(change, **sigmas)
        with pytest.raises(ValueError) as err:
            CorrelationMatrix.from_dict(document)
        assert str(err.value) == message

    def test_json_round_trip(self):
        corr = eq3_fixture()
        loaded = CorrelationMatrix.from_dict(json.loads(json.dumps(matrix_document(corr))))
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

    def test_scalar_folded_normal(self):
        corr = CorrelationMatrix(("X",), ("X",), np.array([[1.0]]), np.array([[0.1]]))
        dist = monte_carlo_svd(corr, 20000, seed=5)
        # mu/sigma = 10: folding is negligible, so mean ~ 1 and spread ~ 0.1
        assert dist.samples.mean() == pytest.approx(1.0, abs=0.005)
        assert dist.samples.std() == pytest.approx(0.1, abs=0.01)

    def test_eq3_distribution_shape(self):
        dist = monte_carlo_svd(eq3_fixture(), 10000, seed=1)
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
            correlation_matrix(random_density_matrix(3, seed=3)).with_uniform_sigmas(0.05),
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
    @pytest.mark.parametrize("n_samples", [1, 2, 3, 7, 100, 10000])
    @pytest.mark.parametrize(
        "corr", RANK_CHECK_MATRICES.values(), ids=RANK_CHECK_MATRICES.keys()
    )
    def test_equals_full_decomposition(self, corr, n_samples, confidence):
        # confidence 1.0 reads the order statistics 0 and 1, and <= 0.5 bounds
        # every sample in the first batch; 1 to 3 samples make i = j or put
        # both at the ends; "tied" ties every sample at 0 in two values
        q = 1.0 - confidence
        fold = wit._GramFold(len(corr.row_labels), n_samples, seed=2)
        for j, label in enumerate(corr.col_labels):
            fold.add(label, corr.values[:, j], corr.sigmas[:, j])
            got, decomposed = fold.quantiles(q)
            gram = outer_product_gram(corr, n_samples, 2, j + 1)
            want = full_quantiles(gram, fold.n_singular_values, q)
            assert 0 < decomposed <= n_samples
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
            current = fold._eigenvalues(slice(None)).T
            assert np.all(fold._lower_bounds() <= current)
            fold.quantiles(0.01)

    def test_benchmark_op_equals_full_decomposition_at_every_check(self):
        # the witness-tomography op: a measured initial-dqc1 ensemble at
        # alpha 1e-3, seed 7, 10,000 samples, 61 checks to full tomography
        rho = load_ensemble({"alpha": 1e-3, "pps": "initial-dqc1"})
        corr = measured_correlation_matrix(rho, 0.05, 7)
        corr = extract_columns(corr, z_sector_first_order(corr.col_labels))
        q, n = 1.0 - 0.99, 10000
        fold = wit._GramFold(len(corr.row_labels), n, seed=7)
        gram = np.zeros((n, 4, 4))
        checks = 0
        for j, label in enumerate(corr.col_labels):
            fold.add(label, corr.values[:, j], corr.sigmas[:, j])
            gram += outer_product_gram(extract_columns(corr, [label]), n, 7, 1)
            if j + 1 < wit.INITIAL_BLOCK:
                continue
            got, decomposed = fold.quantiles(q)
            want = full_quantiles(gram, fold.n_singular_values, q)
            assert got.tobytes() == want.tobytes(), label
            assert 0 < decomposed <= n
            checks += 1
        assert checks == 61

    @pytest.mark.parametrize("n", [1, 2, 100, 127])
    def test_every_batch_is_certified(self, n, monkeypatch):
        # however few the samples (100 is the CLI warm-up's --samples), every
        # batch a check bounds goes through the certificate in full (an empty
        # one in no block), and the quantiles stay those of a full decomposition
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        corr = extract_columns(corr, z_sector_first_order(corr.col_labels))
        batches, blocks = [], []
        intervals, certificate = wit._GramFold._intervals, wit._GramFold._certificate

        def counted_intervals(self, idx):
            batches.append(idx.size)
            return intervals(self, idx)

        def counted_certificate(self, packed):
            blocks.append(packed.shape[1])
            return certificate(self, packed)

        monkeypatch.setattr(wit._GramFold, "_intervals", counted_intervals)
        monkeypatch.setattr(wit._GramFold, "_certificate", counted_certificate)
        q = 1.0 - 0.99
        fold = wit._GramFold(len(corr.row_labels), n, seed=0)
        for j, label in enumerate(corr.col_labels):
            fold.add(label, corr.values[:, j], corr.sigmas[:, j])
            if j + 1 < wit.INITIAL_BLOCK:
                continue
            batches.clear()
            blocks.clear()
            got, _ = fold.quantiles(q)
            want = full_quantiles(outer_product_gram(corr, n, 0, j + 1), fold.n_singular_values, q)
            assert got.tobytes() == want.tobytes(), label
            assert batches[0] and blocks == [b for b in batches if b], label

    @pytest.mark.parametrize("rows", ["IXYZ", "XYZ"])
    def test_empty_batch_has_empty_intervals(self, rows):
        corr = row_subset(correlation_matrix(named_state("final-dqc1")).with_uniform_sigmas(0.05), rows)
        fold = wit._GramFold(len(rows), 10, seed=0)
        fold.add(corr.col_labels[0], corr.values[:, 0], corr.sigmas[:, 0])
        lo, hi = fold._intervals(np.array([], dtype=int))
        assert lo.shape == hi.shape == (len(rows), 0)

    @pytest.mark.parametrize(
        "corr, bare_from",
        [
            *((corr, None) for corr in RANK_CHECK_MATRICES.values()),
            (correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(1e-12), None),
            (degenerate_trailing_matrix((0.5, 0.5, 0.5)), None),
            (degenerate_trailing_matrix((0.5, 0.5, 0.3)), None),
            (degenerate_trailing_matrix((0.5, 0.3, 0.3)), None),
            (rank_deficient_matrix(1.0), None),
            (rank_deficient_matrix(1e-100), None),
            (tiny_matrix(1e-78), None),
            (tiny_matrix(1e-100), None),
            (rank_deficient_matrix(1e-153), None),
            (rank_deficient_matrix(1e-160), 0),
            (equal_top_matrix(), 1),
            (repeated_eigenvalues_matrix(), 0),
            *(
                (row_subset(correlation_matrix(named_state("final-dqc1")).with_uniform_sigmas(0.05),
                            rows), 0)
                for rows in ("I", "IZ", "XYZ")
            ),
        ],
        ids=[
            *RANK_CHECK_MATRICES.keys(), "full-sigma-1e-12", "triple", "double-top",
            "double-bottom", "rank-deficient", "rank-deficient-tiny", "tiny-1e-78", "tiny-1e-100",
            "trace-2e-306", "subnormal-trace", "equal-top",
            "repeated", "1-row", "2-rows", "3-rows",
        ],
    )
    def test_intervals_hold_the_floored_eigenvalues(self, corr, bare_from, monkeypatch):
        # nearly every sample of a 4-row input with a dominant direction gets a
        # certificate (tiny-1e-78's noise-only Gram matrices lose at most 6%),
        # down to tr(G) near the smallest normal float; from column
        # ``bare_from`` on (lambda_1 = lambda_2 once II and IX are in, a
        # subnormal tr(G), or fewer rows than 4) none does: a sample then has
        # [0, inf], and a rank check that hands it to the certificate
        # decomposes it
        bare, decomposed = [], []
        intervals, decompose = wit._GramFold._intervals, wit._GramFold._decompose

        def counted_intervals(self, idx):
            lo, hi = intervals(self, idx)
            bare.extend(idx[np.isinf(hi).any(axis=0)].tolist())
            return lo, hi

        def counted_decompose(self, idx):
            decomposed.extend(idx.tolist())
            return decompose(self, idx)

        monkeypatch.setattr(wit._GramFold, "_intervals", counted_intervals)
        monkeypatch.setattr(wit._GramFold, "_decompose", counted_decompose)
        n, q = 200, 0.01
        fold = wit._GramFold(len(corr.row_labels), n, seed=2)
        for j, label in enumerate(corr.col_labels):
            fold.add(label, corr.values[:, j], corr.sigmas[:, j])
            gram = outer_product_gram(corr, n, 2, j + 1)
            lam = floored_eigenvalues(gram).T
            lo, hi = intervals(fold, np.arange(n))
            assert np.all(lo <= lam) and np.all(lam <= hi), label
            assert np.all(lo >= 0) and not np.isnan(hi).any()
            if bare_from is None:
                assert np.isinf(hi).any(axis=0).mean() <= 0.1, label
            elif j >= bare_from:
                assert np.isinf(hi).all() and not lo.any(), label
            bare.clear()
            decomposed.clear()
            got, _ = fold.quantiles(q)
            assert got.tobytes() == full_quantiles(gram, fold.n_singular_values, q).tobytes()
            assert set(bare) <= set(decomposed), label

    def test_huge_gram_intervals_hold_the_floored_eigenvalues(self):
        # sigma 1e150 puts the Gram entries near 1e300, whose squares overflow:
        # the certificate works on G over a power of 2 near tr(G), so it still
        # bounds the samples of noise-only Gram matrices with a dominant
        # direction (at least 90% here), and every interval holds its floored
        # eigenvalues
        corr = extract_columns(
            correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(1e150),
            pauli_labels(3)[:12],
        )
        n, q = 1000, 0.01
        fold = wit._GramFold(len(corr.row_labels), n, seed=2)
        for j, label in enumerate(corr.col_labels):
            fold.add(label, corr.values[:, j], corr.sigmas[:, j])
            if j + 1 < wit.INITIAL_BLOCK:
                continue
            gram = outer_product_gram(corr, n, 2, j + 1)
            lam = floored_eigenvalues(gram).T
            lo, hi = fold._intervals(np.arange(n))
            assert np.isinf(hi).any(axis=0).mean() <= 0.1, label
            assert np.all(lo <= lam) and np.all(lam <= hi), label
            got, _ = fold.quantiles(q)
            want = full_quantiles(gram, fold.n_singular_values, q)
            assert got.tobytes() == want.tobytes(), label

    def test_non_finite_intervals_are_decomposed(self, monkeypatch):
        # every Gram entry of this input is finite, but tr(G) overflows in about
        # half the samples: they get no certificate ([0, inf]), so every check
        # that hands them to it decomposes them, and their stored bounds read
        # 0, so every check does; the quantiles stay those of a full
        # decomposition
        corr = overflowing_trace_matrix()
        n, q = 1000, 0.01
        decomposed = []
        intervals, decompose = wit._GramFold._intervals, wit._GramFold._decompose

        def counted_decompose(self, idx):
            decomposed.extend(idx.tolist())
            return decompose(self, idx)

        monkeypatch.setattr(wit._GramFold, "_decompose", counted_decompose)
        fold = wit._GramFold(len(corr.row_labels), n, seed=2)
        overflowing = 0
        for j, label in enumerate(corr.col_labels):
            fold.add(label, corr.values[:, j], corr.sigmas[:, j])
            decomposed.clear()
            got, count = fold.quantiles(q)
            with np.errstate(over="ignore"):  # tr(G) of the overflowing samples
                trace = fold.packed[fold.tril[0] == fold.tril[1]].sum(axis=0)
            overflow = np.flatnonzero(~np.isfinite(trace))
            assert set(overflow) <= set(decomposed)
            assert count == len(decomposed)
            want = full_quantiles(outer_product_gram(corr, n, 2, j + 1), fold.n_singular_values, q)
            assert got.tobytes() == want.tobytes()
            lo, hi = intervals(fold, overflow)
            assert np.isinf(hi).all() and not lo.any()
            overflowing += overflow.size
        assert overflowing > 0

    @pytest.mark.parametrize("q", [0.0, 1e-5, 0.01, 0.5, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 10000])
    def test_quantile_of_lowest_is_numpy_quantile(self, n, q):
        # ties: the last row's values are rounded to 0.1
        rng = np.random.default_rng(n)
        full = np.vstack([np.abs(rng.standard_normal((3, n))), np.round(rng.random(n), 1)])
        want = np.quantile(full, q, axis=1)
        assert wit._quantile(full, q).tobytes() == want.tobytes()
        got = SingularValueDistribution(full.T).quantile(q)
        assert got.tobytes() == want.tobytes()


class TestClosedFormEigenvalues:
    """The certificate's 3 x 3 solution against eigvalsh."""

    @staticmethod
    def stacks():
        rng = np.random.default_rng(1)
        m = 5000
        a = rng.standard_normal((m, 3, 3))
        yield "random", a + a.transpose(0, 2, 1)
        for spectrum in ([1, 1, 1], [1, 1, 0.5], [1, 0.5, 0.5], [1, 0, 0], [5, 5, 5 + 1e-9],
                         [1, 1, 1 - 1e-13], [1e-8, 0, 0]):
            q, _ = np.linalg.qr(rng.standard_normal((m, 3, 3)))
            g = (q * np.array(spectrum, dtype=float)) @ q.transpose(0, 2, 1)
            yield f"spectrum-{spectrum}", (g + g.transpose(0, 2, 1)) / 2
        yield "scalar", np.broadcast_to(0.7 * np.eye(3), (m, 3, 3)).copy()
        yield "zero", np.zeros((m, 3, 3))

    @pytest.mark.parametrize("scale", [1.0, 2.0**-300, 2.0**300])
    def test_matches_eigvalsh_within_its_bound(self, scale):
        # each eigenvalue is within the returned arccos bound plus
        # 8 eps (|q| + p) of eigvalsh's (at most 2.6 eps seen), descending,
        # on random stacks and at single, double and triple roots
        rows, cols = np.tril_indices(3)
        for name, stack in self.stacks():
            stack = stack * scale
            want = np.linalg.eigvalsh(stack)[:, ::-1].T
            got, err = wit._eigvalsh3(stack[:, rows, cols].T)
            q = np.trace(stack, axis1=1, axis2=2) / 3
            p = np.sqrt(((stack - q[:, None, None] * np.eye(3)) ** 2).sum(axis=(1, 2)) / 6)
            tol = err + 8 * np.finfo(float).eps * (np.abs(q) + p)
            assert np.all(np.abs(got - want) <= tol), name
            assert np.all(err <= 1e-6 * (np.abs(q) + p)), name


class TestSingularValueDistribution:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_histogram_invariants(self, seed):
        # each written histogram counts every sample once, and its cumulative
        # column rises to 1
        rng = np.random.default_rng(seed)
        samples = np.sort(np.abs(rng.standard_normal((200, 3))), axis=1)[:, ::-1]
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_histogram_csvs(SingularValueDistribution(samples), Path(tmp) / "h")
            assert len(paths) == 3
            for path in paths:
                _, counts, cum = csv_histogram(path, 200)
                assert counts.sum() == 200
                assert np.all(np.diff(cum) >= 0)
                assert cum[-1] == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_samples(self, bad):
        samples = np.ones((10, 2))
        samples[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SingularValueDistribution(samples)

    @pytest.mark.parametrize("shape", [(10,), (0, 2), (2, 2, 2)], ids=["1-d", "empty", "3-d"])
    def test_rejects_samples_not_a_non_empty_matrix(self, shape):
        with pytest.raises(ValueError, match=r"^samples must be \(n_samples, n_singular_values\)$"):
            SingularValueDistribution(np.ones(shape))

    def test_rejects_negative_samples(self):
        # a histogram from 0 up would miss them and integrate to less than 1
        samples = np.ones((10, 2))
        samples[[2, 5], 1] = [-1.0, -0.5]
        with pytest.raises(ValueError, match=r"2 singular-value samples are negative \(smallest -1\)"):
            SingularValueDistribution(samples)

    def test_rejects_bin_count_over_cap(self, tmp_path):
        # 5000 / 0.005 asks for 10^6 bins; refused before any allocation
        dist = SingularValueDistribution(np.full((10, 2), 5000.0))
        with pytest.raises(
            wit.HistogramBinsError,
            match=r"^singular values up to 5000 need more than 1000000 histogram bins of 0\.005$",
        ):
            write_histogram_csvs(dist, tmp_path / "h")
        assert list(tmp_path.iterdir()) == []

    def test_distinguishable_count(self):
        # the rank rule: singular values whose low quantile exceeds tau
        samples = np.tile([1.0, 0.3, 0.01], (100, 1))
        low = SingularValueDistribution(samples).quantile(0.01)
        np.testing.assert_array_equal(low, [1.0, 0.3, 0.01])
        assert int((low > 0.05).sum()) == 2

    @pytest.mark.parametrize("q", [1.5, -0.1, float("nan")])
    def test_quantile_outside_unit_interval_refused(self, q):
        dist = SingularValueDistribution(np.ones((10, 2)))
        with pytest.raises(ValueError, match="quantile"):
            dist.quantile(q)


class TestColumnCombinationScan:
    @pytest.mark.parametrize("n_combos", [0, -1])
    def test_rejects_empty_scan(self, n_combos):
        with pytest.raises(ValueError, match="at least 1"):
            column_combination_scan(eq3_fixture(), n_combos, seed=0)

    def test_pool_size(self):
        # the paper's pool: 1000 combinations x SCAN_RESAMPLES = 10,000 samples
        assert wit.SCAN_RESAMPLES == 10
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        dist = column_combination_scan(corr, 100, seed=0)
        assert dist.samples.shape == (100 * wit.SCAN_RESAMPLES, 4)

    def test_rank_one_zero_sigma(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.0)
        dist = column_combination_scan(corr, 50, seed=0)
        assert np.all(dist.samples[:, 0] > 0.9)
        assert np.all(dist.samples[:, 1:] < 1e-12)

    def test_initial_state_paper_scale(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        dist = column_combination_scan(corr, 1000, seed=0)
        q01 = dist.quantile(0.01)
        assert q01[0] > 1.0  # one clear nonzero singular value (sqrt(2) central)
        assert np.all(q01[1:] < 0.2)  # three others close to zero

    def test_rejects_too_few_columns(self):
        corr = extract_columns(correlation_matrix(named_state("final-dqc1")), ("III", "IZI"))
        with pytest.raises(ValueError, match="4 columns"):
            column_combination_scan(corr.with_uniform_sigmas(0.05), 10, seed=0)

    def test_exact_matrix_scans_as_its_zero_sigma_twin(self):
        corr = correlation_matrix(named_state("final-dqc1"))
        bare = column_combination_scan(corr, 30, seed=4)
        twin = column_combination_scan(corr.with_uniform_sigmas(0.0), 30, seed=4)
        np.testing.assert_array_equal(bare.samples, twin.samples)

    def test_deterministic(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        a = column_combination_scan(corr, 20, seed=4)
        b = column_combination_scan(corr, 20, seed=4)
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
        got = column_combination_scan(corr, 300, seed=2).samples
        ref = svd_combination_scan(corr, 300, seed=2)
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

    def counted(self, label, values, sigmas, drawn=None):
        labels.append(label)
        return real(self, label, values, sigmas, drawn)

    monkeypatch.setattr(wit._GramFold, "add", counted)
    return labels


@pytest.fixture
def drawn(monkeypatch):
    """The label of every noise block drawn, in draw order, with whether the
    draw ran on a thread other than the test's (the look-ahead helper)."""
    draws = []
    real = wit._draw_noise
    caller = threading.get_ident()

    def counted(seed, label, out):
        draws.append((label, threading.get_ident() != caller))
        return real(seed, label, out)

    monkeypatch.setattr(wit, "_draw_noise", counted)
    return draws


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started, by name."""
    names = []
    real = threading.Thread.start

    def counted(self):
        names.append(self.name)
        return real(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return names


class TestWitnessProcedure:
    @pytest.mark.parametrize("name", ["bell", "initial-dqc1"])
    def test_matrix_without_sigmas_runs_as_its_zero_sigma_twin(self, name):
        corr = correlation_matrix(named_state(name))
        np.testing.assert_array_equal(corr.sigmas, np.zeros(corr.values.shape))
        assert not corr.sigmas.flags.writeable
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
        assert verdict.trajectory[-1].tau == pytest.approx(0.2, abs=1e-12)

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

    @pytest.mark.parametrize("n_b", [3, 5])
    def test_columns_stored_out_of_order_run_as_their_ordered_twin(self, n_b):
        # the procedure permutes a matrix's columns once into acquisition
        # order; stored reversed, with per-entry sigmas so that tau depends on
        # which columns came first, it runs exactly as its reordered twin
        corr = correlation_matrix(random_classical_quantum_state(n_b, n_b))
        scale = np.random.default_rng(n_b).uniform(0.2, 2.0, corr.values.shape)
        sigmas = corr.with_uniform_sigmas(0.05).sigmas * scale
        stored = CorrelationMatrix(
            corr.row_labels, corr.col_labels[::-1], corr.values[:, ::-1], sigmas[:, ::-1]
        )
        order = z_sector_first_order(stored.col_labels)
        assert order != stored.col_labels
        twin = extract_columns(stored, order)
        got = witness_procedure(stored, n_samples=100, seed=2)
        want = witness_procedure(twin, n_samples=100, seed=2)
        assert got.columns_used == want.columns_used
        assert len(got.trajectory) == len(got.columns_used) - wit.INITIAL_BLOCK + 1 > 1
        assert got.trajectory == want.trajectory
        assert got.distribution.samples.tobytes() == want.distribution.samples.tobytes()
        for k, check in enumerate(got.trajectory, start=wit.INITIAL_BLOCK):
            assert check.tau == default_tau(twin.sigmas[:, :k])

    def test_builds_histograms_for_the_returned_distribution_only(self, monkeypatch, tmp_path):
        calls = []
        real = np.histogram

        def counted(samples, **kwargs):
            calls.append(samples.size)
            return real(samples, **kwargs)

        monkeypatch.setattr(np, "histogram", counted)
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        verdict = witness_procedure(corr, n_samples=300, seed=1)
        assert len(verdict.columns_used) == 64
        assert calls == []
        write_histogram_csvs(verdict.distribution, tmp_path / "h")
        assert calls == [300] * 4
        write_histogram_csvs(verdict.distribution, tmp_path / "h")
        assert calls == [300] * 8

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_rejects_fewer_than_one_sample(self, n_samples):
        with pytest.raises(ValueError, match="^n_samples must be at least 1$"):
            witness_procedure(eq3_fixture(), n_samples=n_samples)

    def test_exact_full_tomography_restacks_no_columns(self, monkeypatch):
        # the procedure permutes the matrix once into acquisition order, and
        # an exact check takes the SVD of the first k of those columns
        calls = []
        column_stack = np.column_stack

        def spy(*args, **kwargs):
            calls.append(args)
            return column_stack(*args, **kwargs)

        monkeypatch.setattr(np, "column_stack", spy)
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.0)
        verdict = witness_procedure(corr, n_samples=100, seed=0)
        assert calls == []
        assert len(verdict.columns_used) == 64
        ordered = extract_columns(corr, verdict.columns_used).values
        for k, check in enumerate(verdict.trajectory, start=wit.INITIAL_BLOCK):
            want = np.linalg.svd(ordered[:, :k], compute_uv=False)
            assert check.quantiles_low == tuple(want.tolist())
            assert check.decomposed == 0

    def test_checks_read_the_svd_until_the_first_noisy_column(self):
        # the 8 I/Z-sector columns are exact, so the checks after 4 to 8
        # columns read the SVD of the ordered columns with no sample
        # decomposed; from the first noisy column on, each check is the
        # Gram fold's, equal to a full decomposition of every sample
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        corr = extract_columns(corr, z_sector_first_order(corr.col_labels))
        order, sigmas = corr.col_labels, np.array(corr.sigmas)
        sigmas[:, :8] = 0.0
        corr = CorrelationMatrix(corr.row_labels, order, corr.values, sigmas)
        n, q = 1000, 1.0 - wit.CONFIDENCE
        verdict = witness_procedure(corr, n_samples=n, seed=3)
        assert verdict.outcome == OUTCOME_INCONCLUSIVE
        assert verdict.columns_used == order and len(order) == 64
        gram = outer_product_gram(corr, n, 3, wit.INITIAL_BLOCK - 1)
        for k, check in enumerate(verdict.trajectory, start=wit.INITIAL_BLOCK):
            gram += outer_product_gram(extract_columns(corr, [order[k - 1]]), n, 3, 1)
            if k <= 8:
                want = np.linalg.svd(corr.values[:, :k], compute_uv=False)
                assert check.decomposed == 0, k
            else:
                want = full_quantiles(gram, 4, q)
                assert 0 < check.decomposed <= n, k
            assert np.array(check.quantiles_low).tobytes() == want.tobytes(), k

    def test_rank_checks_decompose_a_minority_of_samples(self):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05)
        verdict = witness_procedure(corr, n_samples=10000, seed=1)
        decomposed = [check.decomposed for check in verdict.trajectory]
        assert len(decomposed) == 61
        assert all(0 < d <= 10000 for d in decomposed)
        assert sum(decomposed) <= 0.001 * 61 * 10000  # 497 with numpy 2.4.6

    @pytest.mark.parametrize("sigma", [1e-6, 1e-4, 0.05])
    def test_rank_checks_at_confidence_0_9_decompose_few_samples(self, sigma, monkeypatch):
        # q = 0.1 puts a tenth of the samples below each order statistic; at
        # sigma 1e-6 the three small values sit near the resolution floor
        monkeypatch.setattr(wit, "CONFIDENCE", 0.9)
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(sigma)
        verdict = witness_procedure(corr, n_samples=3000, seed=4)
        decomposed = sum(check.decomposed for check in verdict.trajectory)
        assert decomposed <= 0.05 * len(verdict.trajectory) * 3000  # 2.8% at sigma 1e-6

    def test_lazy_rank_checks_decomposition_count_is_pinned(self):
        # one op of the witness-tomography benchmark at alpha 1e-3 and seed 7:
        # 518 Gram matrices over its 61 checks with numpy 2.4.6 and OpenBLAS
        # 0.3.31; the cap leaves 62, more than one per check, for
        # another BLAS's or numpy's rounding, and added eigen work fails it
        rho = load_ensemble({"alpha": 1e-3, "pps": "initial-dqc1"})
        verdict = witness_procedure(measured_correlation_matrix(rho, 0.05, 7), seed=7)
        assert len(verdict.trajectory) == 61
        assert sum(check.decomposed for check in verdict.trajectory) <= 580

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
    def test_soundness_at_tiny_sigmas(self, sigma, confidence, monkeypatch):
        # sqrt(eig(R R^T)) has no precision left near zero: rounding alone
        # would lift the rank-2 null directions above tau = 8 sigma
        monkeypatch.setattr(wit, "CONFIDENCE", confidence)
        for seed in range(25):
            rho = random_classical_quantum_state(2, seed)
            corr = correlation_matrix(rho).with_uniform_sigmas(sigma)
            verdict = witness_procedure(corr, n_samples=100, seed=seed)
            assert verdict.outcome == OUTCOME_INCONCLUSIVE, (seed, verdict.rank_lower_bound)

    def test_deterministic_distributions(self):
        a = witness_procedure(eq3_fixture(), seed=3)
        b = witness_procedure(eq3_fixture(), seed=3)
        np.testing.assert_array_equal(a.distribution.samples, b.distribution.samples)

    def test_noise_just_within_the_bins_runs(self):
        # the last samples need 9.7e5 of the 10^6 bins of 0.005
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(430.0)
        verdict = witness_procedure(corr, n_samples=200, seed=7)
        top_bins = verdict.distribution.samples.max() / 0.005
        assert 0.95 * wit.MAX_HISTOGRAM_BINS < top_bins < wit.MAX_HISTOGRAM_BINS

    def test_noise_beyond_the_bins_still_gives_a_verdict(self, fetched):
        # the rank checks read quantiles, never histograms: no bin width can
        # stop the procedure, however wide the noise
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(1000.0)
        verdict = witness_procedure(corr, n_samples=100, seed=0)
        assert verdict.outcome == OUTCOME_INCONCLUSIVE
        assert tuple(fetched) == verdict.columns_used == z_sector_first_order(corr.col_labels)
        assert verdict.distribution.samples.max() / 0.005 >= wit.MAX_HISTOGRAM_BINS

    def test_bins_refused_at_the_first_check_that_needs_them(self, monkeypatch, tmp_path):
        # the first check that needs the bins is the writer's, before it bins anything
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(1000.0)
        verdict = witness_procedure(corr, n_samples=100, seed=0)
        calls = []
        monkeypatch.setattr(np, "histogram", lambda *a, **k: calls.append(a))
        with pytest.raises(wit.HistogramBinsError, match="histogram bins"):
            write_histogram_csvs(verdict.distribution, tmp_path / "h")
        assert calls == []


def huge_sigma_eq3() -> CorrelationMatrix:
    corr = eq3_fixture()
    return CorrelationMatrix(
        corr.row_labels, corr.col_labels, corr.values, np.where(corr.sigmas > 0, 1e308, 0.0)
    )


class TestLookAhead:
    """witness_procedure draws the next column's noise on one helper thread
    while the current check runs; the samples are those of inline draws."""

    @pytest.mark.parametrize(
        "corr, columns",
        [
            (correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(0.05), 64),
            (eq3_fixture(), 4),
            (huge_sigma_eq3(), None),
        ],
        ids=["full-tomography", "eq3-witnessed", "overflow-refused"],
    )
    def test_the_helper_is_joined_on_every_exit(self, corr, columns, drawn, thread_starts):
        before = threading.active_count()
        if columns is None:
            with pytest.raises(ValueError, match="non-finite"):
                witness_procedure(corr, n_samples=100, seed=1)
        else:
            verdict = witness_procedure(corr, n_samples=100, seed=1)
            assert len(verdict.columns_used) == columns
            assert verdict.witnessed == (columns == 4)
        assert threading.active_count() == before
        assert len(thread_starts) == 1  # one helper for the whole call
        # the first column is drawn inline, every later one on the helper
        assert [ahead for _, ahead in drawn] == [False] + [True] * (len(drawn) - 1)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: witness_procedure(
                correlation_matrix(named_state("initial-dqc1")), n_samples=100, seed=1
            ),
            lambda: column_combination_scan(eq3_fixture(), 20, seed=1),
        ],
        ids=["exact-matrix", "combination-scan"],
    )
    def test_an_exact_matrix_and_a_scan_start_no_helper(self, run, drawn, thread_starts):
        before = threading.active_count()
        run()
        assert thread_starts == []
        assert threading.active_count() == before
        assert not any(ahead for _, ahead in drawn)

    def test_a_witnessed_run_draws_at_most_one_column_beyond_those_used(self, drawn):
        corr = correlation_matrix(named_state("final-dqc1")).with_uniform_sigmas(0.05)
        verdict = witness_procedure(corr, n_samples=300, seed=1)
        assert verdict.witnessed and len(verdict.columns_used) == 4
        order = z_sector_first_order(corr.col_labels)
        labels = tuple(label for label, _ in drawn)
        assert labels == order[: len(verdict.columns_used) + 1]  # the one draw no check reads

    def test_look_ahead_and_inline_draws_give_identical_runs(self, monkeypatch, drawn):
        # the witness-tomography op: a measured initial-dqc1 ensemble at
        # alpha 1e-3, seed 7, 10,000 samples, 61 checks to full tomography
        rho = load_ensemble({"alpha": 1e-3, "pps": "initial-dqc1"})
        corr = measured_correlation_matrix(rho, 0.05, 7)
        ahead = witness_procedure(corr, n_samples=10000, seed=7)
        assert sum(on_helper for _, on_helper in drawn) == 63
        del drawn[:]
        # no look-ahead: the helper draws nothing, and every add gets drawn=None
        monkeypatch.setattr(ThreadPoolExecutor, "submit", lambda self, fn, *args: None)
        inline = witness_procedure(corr, n_samples=10000, seed=7)
        assert len(drawn) == 64 and not any(on_helper for _, on_helper in drawn)
        assert len(ahead.trajectory) == 61
        assert ahead.trajectory == inline.trajectory
        assert ahead.distribution.samples.tobytes() == inline.distribution.samples.tobytes()


class TestScaleInvariance:
    def test_exact_matrices_full_kappa_range(self):
        for seed in range(50):
            corr = correlation_matrix(random_density_matrix(3, seed=seed))
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
        dist = monte_carlo_svd(eq3_fixture(), 500, seed=2)
        paths = write_histogram_csvs(dist, tmp_path / "hist")
        assert paths == wit.histogram_csv_paths(tmp_path / "hist")
        for path in paths:
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "bin_center,relative_occurrence,cumulative"
            body = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
            assert body.shape[1] == 3
            # fixed-point 6 decimals
            assert all(len(cell.split(".")[1]) == 6 for cell in lines[1].split(","))
            assert body[:, 1].sum() * wit.HISTOGRAM_BIN == pytest.approx(1.0, abs=2e-3)
            assert abs(body[-1, 2] - 1.0) < 1e-6

    def test_bins_refused_before_any_file_is_written(self, tmp_path):
        corr = correlation_matrix(named_state("initial-dqc1")).with_uniform_sigmas(1000.0)
        verdict = witness_procedure(corr, n_samples=100, seed=0)
        with pytest.raises(
            wit.HistogramBinsError, match=r"need more than 1000000 histogram bins of 0\.005$"
        ):
            write_histogram_csvs(verdict.distribution, tmp_path / "h")
        assert list(tmp_path.iterdir()) == []

    # 3 x 0.005 / 0.005 is 3: a largest sample there opens a 4th row. 29 x
    # 0.005 / 0.005 rounds to 28.999999999999996: a largest sample there, or
    # one ulp below, closes the 29th row, and one ulp above opens a 30th
    @pytest.mark.parametrize(
        "top_m, top_ulps, rows", [(3, 0, 4), (29, -1, 29), (29, 0, 29), (29, 1, 30)]
    )
    def test_samples_at_bin_edges_fall_in_the_rows_that_hold_them(
        self, tmp_path, top_m, top_ulps, rows
    ):
        b = wit.HISTOGRAM_BIN

        def nudged(x, ulps):
            return x if ulps == 0 else float(np.nextafter(x, ulps * np.inf))

        # (sample, row): row r holds [r, r + 1) x bin, the last row closed
        cases = [(0.0, 0)]
        for m in (1, 2):
            cases += [(nudged(m * b, -1), m - 1), (m * b, m), (nudged(m * b, 1), m)]
        cases.append((nudged(top_m * b, top_ulps), rows - 1))
        samples, want_rows = np.array(cases).T
        (path,) = write_histogram_csvs(SingularValueDistribution(samples[:, None]), tmp_path / "h")
        centers, counts, cum = csv_histogram(path, samples.size)
        np.testing.assert_allclose(centers, (np.arange(rows) + 0.5) * b, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(counts, np.bincount(want_rows.astype(int), minlength=rows))
        assert counts.sum() == samples.size
        np.testing.assert_allclose(cum, np.cumsum(counts) / samples.size, rtol=0, atol=1e-6)

    def test_an_all_zero_distribution_fills_the_first_bin(self, tmp_path):
        paths = write_histogram_csvs(SingularValueDistribution(np.zeros((50, 4))), tmp_path / "z")
        assert len(paths) == 4
        for path in paths:
            assert path.read_text() == (
                "bin_center,relative_occurrence,cumulative\n0.002500,200.000000,1.000000\n"
            )


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
    # the procedure and the scan both fold through _GramFold; the one SVD is
    # the procedure's, of its exact columns; every quantile is _quantile's
    src = Path(wit.__file__).parent
    witness_calls = calls_by_scope(src / "witness.py")
    assert [scope for scope, f in witness_calls if f.endswith("svd")] == ["witness_procedure"]
    # one draw function, run inline or on the look-ahead helper
    assert [scope for scope, f in witness_calls if f.endswith("standard_normal")] == ["_draw_noise"]
    assert not [f for scope, f in witness_calls if scope == "column_combination_scan"
                and "linalg" in f]
    offenders = [
        (path.name, f) for path in src.rglob("*.py") for _, f in calls_by_scope(path)
        if f.endswith(("np.quantile", "n_distinguishable"))
    ]
    assert offenders == []


def test_the_csv_writer_is_the_one_histogram_builder():
    src = Path(wit.__file__).parent
    callers = [
        (path.name, scope) for path in src.rglob("*.py") for scope, f in calls_by_scope(path)
        if f.endswith("histogram")
    ]
    assert callers == [("witness.py", "write_histogram_csvs")]
