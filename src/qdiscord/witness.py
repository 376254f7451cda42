"""State-independent non-zero-discord witness via the correlation-matrix rank.

A bipartite state expands as rho = 2^-N sum_nm r_nm A_n (+) B_m over Pauli
string bases; discord D(A:B) is non-zero whenever rank(r_nm) exceeds dim(A).
The witness reads the columns of one validated matrix one at a time,
lower-bounds the rank by counting singular values statistically
distinguishable from zero under Gaussian measurement uncertainty, and stops
as soon as the bound exceeds dim(A) or full tomography is exhausted.

Monte Carlo samples come from one engine, :class:`_GramFold`, which folds
each column into per-sample rows x rows Gram matrices. A rank check needs only
the low quantile of each singular value, and a column only raises the
eigenvalues, so a check eigendecomposes just the samples whose last
eigenvalues could still reach that quantile; the returned distribution
decomposes them all.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .linalg import PAULI_1Q, DensityMatrix, PauliLabel, pauli_labels, pauli_realize

TAU_FLOOR = 1e-7
IDENTITY_VALUE_TOL = 1e-9
HISTOGRAM_NORM_TOL = 1e-6
MAX_HISTOGRAM_BINS = 10**6
# Columns acquired before the first rank check: the experiment's I/Z block.
INITIAL_BLOCK = 4
# Singular values below this fraction of a sample's largest are reported as 0:
# eigvalsh of R R^T is accurate to about 10 eps x its largest eigenvalue, so
# sqrt(eig) of anything smaller is rounding, not signal (0.1% error at the floor).
GRAM_RESOLUTION = 1e-6
NON_FINITE_SAMPLES = (
    "singular-value samples are non-finite (NaN or inf), "
    "as from sigmas so large that the noise overflows float64"
)

OUTCOME_WITNESSED = "DiscordWitnessed"
OUTCOME_INCONCLUSIVE = "Inconclusive"


@lru_cache(maxsize=16)
def _pauli_stack(n_qubits: int) -> np.ndarray:
    labels = pauli_labels(n_qubits)
    return np.stack([pauli_realize(lab) for lab in labels])


def _is_identity_label(label: PauliLabel) -> bool:
    return set(label) == {"I"}


@dataclass(frozen=True)
class CorrelationMatrix:
    """Expansion coefficients r_nm = Tr(rho (A_n (+) B_m)) with optional
    per-element Gaussian uncertainties."""

    row_labels: tuple[PauliLabel, ...]
    col_labels: tuple[PauliLabel, ...]
    values: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        rows = tuple(str(r) for r in self.row_labels)
        cols = tuple(str(c) for c in self.col_labels)
        for side, labels in (("row", rows), ("column", cols)):
            if not labels or len({len(lab) for lab in labels}) != 1:
                raise ValueError(f"{side} labels {labels} must be non-empty and of one length")
            bad = [lab for lab in labels if not lab or set(lab) - PAULI_1Q.keys()]
            if bad:
                raise ValueError(f"{side} label {bad[0]!r} is not a Pauli string over IXYZ")
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate {side} labels in {labels}")
        values = np.array(self.values, dtype=float)
        if values.shape != (len(rows), len(cols)):
            raise ValueError(f"values shape {values.shape} != {len(rows)}x{len(cols)}")
        if not np.isfinite(values).all():
            raise ValueError("correlation values have non-finite (NaN or inf) entries")
        sigmas = self.sigmas
        if sigmas is not None:
            sigmas = np.array(sigmas, dtype=float)
            if sigmas.shape != values.shape:
                raise ValueError("sigmas shape does not match values")
            if not np.isfinite(sigmas).all():
                raise ValueError("sigmas have non-finite (NaN or inf) entries")
            if sigmas.min() < 0:
                raise ValueError("sigmas must be non-negative")
        idx = self._identity_index(rows, cols)
        if idx is not None:
            i, j = idx
            if abs(values[i, j] - 1.0) > IDENTITY_VALUE_TOL:
                raise ValueError(f"identity entry {values[i, j]} must equal 1 (trace)")
            values[i, j] = 1.0
            if sigmas is not None and sigmas[i, j] != 0.0:
                raise ValueError("identity entry carries no uncertainty")
        values.setflags(write=False)
        if sigmas is not None:
            sigmas.setflags(write=False)
        object.__setattr__(self, "row_labels", rows)
        object.__setattr__(self, "col_labels", cols)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sigmas", sigmas)

    @staticmethod
    def _identity_index(rows, cols) -> tuple[int, int] | None:
        ri = [i for i, r in enumerate(rows) if _is_identity_label(r)]
        ci = [j for j, c in enumerate(cols) if _is_identity_label(c)]
        return (ri[0], ci[0]) if ri and ci else None

    def with_uniform_sigmas(self, sigma: float) -> "CorrelationMatrix":
        """Annotate every entry with the same uncertainty (identity entry 0)."""
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        sigmas = np.full(self.values.shape, float(sigma))
        idx = self._identity_index(self.row_labels, self.col_labels)
        if idx is not None:
            sigmas[idx] = 0.0
        return CorrelationMatrix(self.row_labels, self.col_labels, self.values, sigmas)

    @classmethod
    def from_dict(cls, data: dict) -> "CorrelationMatrix":
        try:
            return cls(
                row_labels=tuple(data["rows"]),
                col_labels=tuple(data["cols"]),
                values=np.asarray(data["values"], dtype=float),
                sigmas=None if data.get("sigmas") is None else np.asarray(data["sigmas"], dtype=float),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed correlation-matrix spec: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "CorrelationMatrix":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def correlation_matrix(rho: DensityMatrix) -> CorrelationMatrix:
    """Full Pauli correlation matrix of a bipartite state (exact, no sigmas).

    Row labels run over the A-side Pauli strings, columns over the B side;
    the reconstruction 2^-N sum r_nm A_n (+) B_m recovers the state.
    """
    da, db = rho.bipartite_dims
    na, nb = rho.qubit_partition
    r4 = rho.entries.reshape(da, db, da, db)
    a_stack, b_stack = _pauli_stack(na), _pauli_stack(nb)
    contracted = np.einsum("ibjc,rji->rbc", r4, a_stack, optimize=True)
    values = np.einsum("rbc,scb->rs", contracted, b_stack, optimize=True).real
    return CorrelationMatrix(tuple(pauli_labels(na)), tuple(pauli_labels(nb)), values)


def default_tau(sigmas: np.ndarray | None, n_cols: int | None = None) -> float:
    """Noise-scale singular-value threshold: 2 x median nonzero sigma x sqrt(columns).

    Falls back to a small floor for noiseless (all-zero sigma) matrices.
    """
    if sigmas is None:
        return TAU_FLOOR
    sigmas = np.asarray(sigmas)
    nz = sigmas[sigmas > 0]
    if nz.size == 0:
        return TAU_FLOOR
    cols = sigmas.shape[1] if n_cols is None else int(n_cols)
    return 2.0 * float(_quantile_of_lowest(nz[None], 0.5, nz.size)[0]) * math.sqrt(cols)


@dataclass(frozen=True)
class Histogram:
    """Relative-occurrence histogram: count / (n_samples x bin_width) per bin."""

    bin_centers: np.ndarray
    relative_occurrence: np.ndarray
    cumulative: np.ndarray


def _histogram(samples: np.ndarray, bin_width: float) -> Histogram:
    n = samples.size
    top = float(samples.max())
    n_bins = int(math.floor(top / bin_width)) + 1
    edges = np.arange(n_bins + 1) * bin_width
    counts, _ = np.histogram(samples, bins=edges)
    rel = counts / (n * bin_width)
    cum = np.cumsum(counts) / n
    centers = (edges[:-1] + edges[1:]) / 2
    return Histogram(centers, rel, cum)


class HistogramBinsError(ValueError):
    """A histogram would need more than ``MAX_HISTOGRAM_BINS`` bins."""


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence <= 1.0:
        raise ValueError(f"confidence {confidence} outside (0, 1]")


def _check_tau(tau: float) -> None:
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau {tau} must be positive and finite")


def _check_bin_width(bin_width: float) -> None:
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin_width {bin_width} must be positive and finite")


@dataclass(frozen=True)
class SingularValueDistribution:
    """Monte Carlo singular-value samples plus per-value histograms.

    ``samples[i, j]`` is the j-th largest singular value of the i-th
    perturbed matrix; histograms follow the count/(n x bin_width)
    normalization with cumulative fractions alongside, and are built on
    first access.
    """

    samples: np.ndarray
    bin_width: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise ValueError("samples must be (n_samples, n_singular_values)")
        if not np.isfinite(samples).all():
            raise ValueError(NON_FINITE_SAMPLES)
        _check_bin_width(self.bin_width)
        if float(samples.max(initial=0.0)) / self.bin_width >= MAX_HISTOGRAM_BINS:
            raise HistogramBinsError(
                f"bin_width {self.bin_width} needs more than {MAX_HISTOGRAM_BINS} histogram bins"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @cached_property
    def histograms(self) -> tuple[Histogram, ...]:
        hists = tuple(
            _histogram(self.samples[:, j], self.bin_width) for j in range(self.n_singular_values)
        )
        for h in hists:
            norm = h.relative_occurrence.sum() * self.bin_width
            if abs(norm - 1.0) > HISTOGRAM_NORM_TOL:
                raise AssertionError(f"histogram integrates to {norm}, not 1")
            if np.any(np.diff(h.cumulative) < 0) or abs(h.cumulative[-1] - 1.0) > 1e-9:
                raise AssertionError("cumulative distribution malformed")
        return hists

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_singular_values(self) -> int:
        return self.samples.shape[1]

    def quantile(self, q: float) -> np.ndarray:
        """Per-singular-value empirical quantile (numpy's linear rule)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        return _quantile_of_lowest(self.samples.T, q, self.n_samples)

    def medians(self) -> np.ndarray:
        return self.quantile(0.5)


class _GramFold:
    """Monte Carlo samples of a correlation matrix that grows one column at a time.

    Column ``label`` is perturbed by one (n_samples, rows) standard-normal
    block from ``default_rng([seed, crc32(label)])`` times its sigmas (zero
    sigma pins the element), and each sample's column c is folded into that
    sample's Gram matrix as G += c c^T; the singular values of the k columns
    folded so far are the square roots of G's top min(rows, k) eigenvalues.
    Sample i is therefore one hypothetical experiment at every step. A matrix
    of shared columns whose sigmas are all zero so far keeps its exact SVD.

    Only G's lower triangle, the part eigvalsh reads, is kept: packed as one
    (n_samples,) row per entry, so a column costs rows (rows + 1) / 2
    products per sample, and a sample's matrix is unpacked only when it is
    decomposed. :meth:`quantiles` decomposes only the samples that can reach
    the low quantile (see there); :meth:`distribution` decomposes every
    sample.
    """

    def __init__(self, n_rows: int, n_samples: int, seed: int):
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        self.n_rows = n_rows
        self.n_samples = n_samples
        self.seed = seed
        self.tril = np.tril_indices(n_rows)
        self.diagonal = np.flatnonzero(self.tril[0] == self.tril[1])
        self.packed = np.zeros((self.tril[0].size, n_samples))
        # each sample's floored eigenvalues (descending) when last decomposed
        self.last_eig = np.zeros((n_rows, n_samples))
        self.values: list[np.ndarray] = []
        self.noisy = False

    def add(self, label: PauliLabel, values: np.ndarray, sigmas: np.ndarray) -> None:
        """Fold one column: ``values`` and ``sigmas`` are (rows,), shared by
        every sample, or (rows, n_samples), one column per sample."""
        values, sigmas = (np.reshape(a, (self.n_rows, -1)) for a in (values, sigmas))
        self.values.append(values)
        self.noisy |= values.shape[1] > 1
        # overflow from huge sigmas is refused, with a message, at the next check
        with np.errstate(over="ignore", invalid="ignore"):
            if np.any(sigmas > 0):
                self.noisy = True
                rng = np.random.default_rng([self.seed, zlib.crc32(label.encode())])
                z = rng.standard_normal((self.n_samples, self.n_rows))
                col = np.multiply(z.T, sigmas, out=np.empty((self.n_rows, self.n_samples)))
                col += values
            else:
                col = values
            for k, (i, j) in enumerate(zip(*self.tril)):
                self.packed[k] += col[i] * col[j]

    @property
    def n_singular_values(self) -> int:
        return min(self.n_rows, len(self.values))

    def trace(self) -> np.ndarray:
        """tr(G) of every sample."""
        return self.packed[self.diagonal].sum(axis=0)

    def _exact_sv(self) -> np.ndarray:
        return np.linalg.svd(np.column_stack(self.values), compute_uv=False)

    def _check_finite(self) -> None:
        if not np.isfinite(self.packed).all():
            raise ValueError(NON_FINITE_SAMPLES)

    def _eigenvalues(self, idx) -> np.ndarray:
        """Descending eigenvalues of the Gram matrices of samples ``idx``,
        those under the resolution 0."""
        packed = self.packed[:, idx]
        gram = np.zeros((packed.shape[1], self.n_rows, self.n_rows))
        gram[:, self.tril[0], self.tril[1]] = packed.T
        lam = np.linalg.eigvalsh(gram)[:, ::-1]
        lam[lam < GRAM_RESOLUTION**2 * lam[:, :1]] = 0.0  # and negative rounding
        return lam

    def distribution(self, bin_width: float) -> SingularValueDistribution:
        """Singular values of every sample of the columns folded so far."""
        if not self.noisy:
            samples = np.tile(self._exact_sv(), (self.n_samples, 1))
            return SingularValueDistribution(samples, bin_width)
        self._check_finite()
        lam = self._eigenvalues(slice(None))[:, : self.n_singular_values]
        return SingularValueDistribution(np.sqrt(lam), bin_width)

    def _decompose(self, idx: np.ndarray) -> np.ndarray:
        """Decompose samples ``idx``, keep their eigenvalues as bounds, and
        return their singular values as an (n_sv, len(idx)) array."""
        lam = self._eigenvalues(idx).T
        self.last_eig[:, idx] = lam
        return np.sqrt(lam[: self.n_singular_values])

    def _lower_bounds(self) -> np.ndarray:
        """(n_sv, n_samples) lower bounds on the current singular values."""
        trace = self.trace()
        bound = self.last_eig[: self.n_singular_values]
        bound = bound - (64 + len(self.values)) * np.finfo(float).eps * trace
        bound[bound < GRAM_RESOLUTION**2 * trace] = 0.0
        return np.sqrt(bound)

    def quantiles(self, q: float) -> tuple[np.ndarray, int]:
        """The q-quantile of each singular value over the samples, equal to
        ``distribution(...).quantile(q)``, and the number of samples decomposed.

        G only gains c c^T, so by Weyl's inequalities every eigenvalue of a
        sample is at least its value when last decomposed. That value, less a
        rounding margin of (64 + columns) eps tr(G) (eigvalsh's error and one
        eps tr(G) per Gram addition since), is a lower bound; it is kept only
        while it clears the resolution floor at tr(G) >= lambda_max, else the
        bound is 0. The quantile reads only the order statistics at floor(h)
        and floor(h) + 1, h = q (n - 1), so only the ``need`` smallest values
        of each singular value must be exact. The samples holding the 2 x
        ``need`` smallest bounds are decomposed first; the need-th smallest of
        their exact values is at or above the true one, so after decomposing
        every sample bounded at or below it, no bound is below the need-th
        smallest value, and the decomposed samples alone give the quantile.
        """
        if not self.noisy:
            return self._exact_sv(), 0
        self._check_finite()
        n = self.n_samples
        need = min(math.ceil(q * (n - 1)) + 2, n)  # one more covers rounding in h
        sv = self._lower_bounds()  # (n_sv, n): exact where decomposed, else a bound
        # twice `need` lowest bounds bring the need-th exact value near the true one
        lowest = min(2 * need, n) - 1
        kth = np.partition(sv, lowest, axis=1)[:, lowest, None]
        first = np.flatnonzero((sv <= kth).any(axis=0))
        sv[:, first] = self._decompose(first)
        if first.size == n:  # as at confidence <= 0.5: nothing is left to bound
            return _quantile_of_lowest(sv, q, n), n
        top = np.partition(sv[:, first], need - 1, axis=1)[:, need - 1, None]
        more = (sv <= top).any(axis=0)
        more[first] = False
        rest = np.flatnonzero(more)
        more[first] = True  # every decomposed sample
        sv[:, rest] = self._decompose(rest)
        return _quantile_of_lowest(sv[:, more], q, n), first.size + rest.size


def _quantile_of_lowest(lowest: np.ndarray, q: float, n: int) -> np.ndarray:
    """``np.quantile(full, q, axis=1)`` of an (rows, n) array, bit for bit,
    from the columns ``lowest`` of it that hold each row's floor(h) + 2
    smallest values (or all n), h = q (n - 1): numpy's linear rule reads only
    the order statistics a and b at floor(h) and floor(h) + 1."""
    h = (n - 1) * q
    i, j = min(math.floor(h), n - 1), min(math.floor(h) + 1, n - 1)
    a, b = np.partition(lowest, (i, j), axis=1)[:, [i, j]].T
    t = h - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def column_combination_scan(
    corr: CorrelationMatrix,
    n_combos: int,
    resamples_per_combo: int,
    seed: int,
    bin_width: float = 0.005,
) -> SingularValueDistribution:
    """Pooled singular-value distribution over random 4-column submatrices.

    Each combination keeps the identity column, draws three others at random,
    and is perturbed ``resamples_per_combo`` times; all singular values pool
    into a single distribution (e.g. 1000 x 10 = 10,000 samples), folded by
    :class:`_GramFold` with column slot k labelled ``f"combination slot {k}"``.
    """
    _check_bin_width(bin_width)
    if n_combos < 1 or resamples_per_combo < 1:
        raise ValueError(
            f"n_combos {n_combos} and resamples_per_combo {resamples_per_combo} must be at least 1"
        )
    if corr.sigmas is None:
        raise ValueError("correlation matrix carries no sigmas; Monte Carlo needs them")
    n_cols = len(corr.col_labels)
    if n_cols < 4:
        raise ValueError("need at least 4 columns to scan combinations")
    identity = [j for j, c in enumerate(corr.col_labels) if _is_identity_label(c)]
    if not identity:
        raise ValueError("no identity column present")
    # allocated first, so a run too large to hold fails before drawing its picks
    fold = _GramFold(len(corr.row_labels), n_combos * resamples_per_combo, seed)
    rng = np.random.default_rng(seed)
    others = np.array([j for j in range(n_cols) if j != identity[0]])
    picks = np.stack([
        np.concatenate(([identity[0]], rng.choice(others, size=3, replace=False)))
        for _ in range(n_combos)
    ])
    picks = np.repeat(picks, resamples_per_combo, axis=0)  # (n_samples, 4)
    for k, slot in enumerate(picks.T):
        fold.add(f"combination slot {k}", corr.values[:, slot], corr.sigmas[:, slot])
    return fold.distribution(bin_width)


def z_sector_first_order(col_labels: Sequence[PauliLabel]) -> tuple[PauliLabel, ...]:
    """Acquisition order: I/Z-only columns first, then the remaining labels.

    For a three-qubit B side the first four columns are the identity and the
    single/double Z strings, reproducing the experiment's starting set.
    """
    z_sector = [c for c in col_labels if set(c) <= {"I", "Z"}]
    return tuple(z_sector + [c for c in col_labels if c not in z_sector])


@dataclass(frozen=True)
class RankCheck:
    """One rank check of the procedure: the column just acquired, the
    threshold, the rank bound, each singular value's (1 - confidence)
    quantile, and how many samples were eigendecomposed to get it (0 for an
    exact matrix, whose one SVD serves every sample)."""

    column: PauliLabel
    tau: float
    rank: int
    quantiles_low: tuple[float, ...]
    decomposed: int


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of the iterative rank procedure.

    ``trajectory`` holds every rank check in order, and ``distribution`` the
    last one's samples; the threshold, rank bound and outcome are those of the
    last check (the default tau rescales as the submatrix grows).
    """

    columns_used: tuple[PauliLabel, ...]
    confidence: float
    dim_a: int
    distribution: SingularValueDistribution = field(repr=False)
    trajectory: tuple[RankCheck, ...] = field(repr=False)

    @property
    def rank_lower_bound(self) -> int:
        return self.trajectory[-1].rank

    @property
    def tau(self) -> float:
        return self.trajectory[-1].tau

    @property
    def witnessed(self) -> bool:
        return self.rank_lower_bound > self.dim_a

    @property
    def outcome(self) -> str:
        return OUTCOME_WITNESSED if self.witnessed else OUTCOME_INCONCLUSIVE


def witness_procedure(
    corr: CorrelationMatrix,
    tau: float | None = None,
    confidence: float = 0.99,
    n_samples: int = 10000,
    seed: int = 0,
    bin_width: float = 0.005,
) -> WitnessVerdict:
    """Iterative column acquisition until rank(R) > dim(A) or exhaustion.

    Acquires the columns of ``corr``, each once, in
    :func:`z_sector_first_order`: ``INITIAL_BLOCK`` of them before the first
    rank check, then one at a time; dim(A) is 2 to the row-label length, and
    a matrix without sigmas runs as its zero-sigma twin.
    After each acquisition a Monte Carlo rank bound is computed on the
    submatrix measured so far: a singular value counts as nonzero when its
    empirical (1 - confidence) quantile exceeds tau
    (default: noise-scaled :func:`default_tau` of the current submatrix; a
    given tau must be positive and finite). The check on the first k columns
    reads the quantiles over every Monte Carlo sample of those columns, and
    the verdict's distribution holds every sample of all columns used.
    Exhausting all columns without exceeding dim(A) is the Inconclusive
    verdict, not an error. :class:`HistogramBinsError` is raised at the first
    rank check whose samples already need more than ``MAX_HISTOGRAM_BINS``
    bins of ``bin_width``.
    """
    _check_confidence(confidence)
    _check_bin_width(bin_width)
    if tau is not None:
        _check_tau(tau)
    dim_a = 2 ** len(corr.row_labels[0])
    order = z_sector_first_order(corr.col_labels)
    index = [corr.col_labels.index(label) for label in order]
    sigmas = np.zeros(corr.values.shape) if corr.sigmas is None else corr.sigmas

    fold = _GramFold(len(corr.row_labels), n_samples, seed)
    trajectory: list[RankCheck] = []
    first_check = min(INITIAL_BLOCK, len(order))

    for k, (label, j) in enumerate(zip(order, index), start=1):
        fold.add(label, corr.values[:, j], sigmas[:, j])
        if k < first_check:
            continue
        tau_step = default_tau(sigmas[:, index[:k]]) if tau is None else tau
        low, decomposed = fold.quantiles(1.0 - confidence)
        # lambda_max(G) >= tr(G) / rows, and G only grows (Weyl), so the
        # verdict's histograms will need at least this many bins; the 1e-6
        # slack is far above the rounding of tr(G) and of eigvalsh
        top = math.sqrt(float(fold.trace().max()) / fold.n_rows) * (1 - 1e-6)
        if top / bin_width >= MAX_HISTOGRAM_BINS:
            raise HistogramBinsError(
                f"bin_width {bin_width} needs more than {MAX_HISTOGRAM_BINS} histogram bins: "
                f"the largest singular-value sample is at least {top:.4g} after {k} columns"
            )
        rank = int((low > tau_step).sum())
        trajectory.append(RankCheck(label, tau_step, rank, tuple(low.tolist()), decomposed))
        if rank > dim_a:
            break
    return WitnessVerdict(
        order[:k], confidence, dim_a, fold.distribution(bin_width), tuple(trajectory)
    )


def write_histogram_csvs(dist: SingularValueDistribution, prefix: str | Path) -> list[Path]:
    """Write one CSV per singular value: bin_center,relative_occurrence,cumulative
    rows at fixed-point 6 decimals. Returns the paths written."""
    paths = []
    for i, h in enumerate(dist.histograms, start=1):
        path = Path(f"{prefix}_sv{i}.csv")
        rows = zip(h.bin_centers, h.relative_occurrence, h.cumulative)
        body = "".join(f"{c:.6f},{r:.6f},{cu:.6f}\n" for c, r, cu in rows)
        path.write_text("bin_center,relative_occurrence,cumulative\n" + body)
        paths.append(path)
    return paths
