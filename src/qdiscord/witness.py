"""State-independent non-zero-discord witness via the correlation-matrix rank.

A bipartite state expands as rho = 2^-N sum_nm r_nm A_n (+) B_m over Pauli
string bases; discord D(A:B) is non-zero whenever rank(r_nm) exceeds dim(A).
The witness measures columns of the correlation matrix one at a time,
lower-bounds the rank by counting singular values statistically
distinguishable from zero under Gaussian measurement uncertainty, and stops
as soon as the bound exceeds dim(A) or full tomography is exhausted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .linalg import PAULI_1Q, DensityMatrix, PauliLabel, pauli_labels, pauli_realize

TAU_FLOOR = 1e-7
IDENTITY_VALUE_TOL = 1e-9
HISTOGRAM_NORM_TOL = 1e-6
MAX_HISTOGRAM_BINS = 10**6

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

    rows: tuple[PauliLabel, ...]
    cols: tuple[PauliLabel, ...]
    values: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        rows = tuple(str(r) for r in self.rows)
        cols = tuple(str(c) for c in self.cols)
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
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sigmas", sigmas)

    @staticmethod
    def _identity_index(rows, cols) -> tuple[int, int] | None:
        ri = [i for i, r in enumerate(rows) if _is_identity_label(r)]
        ci = [j for j, c in enumerate(cols) if _is_identity_label(c)]
        if ri and ci:
            return ri[0], ci[0]
        return None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def column(self, label: PauliLabel) -> tuple[np.ndarray, np.ndarray | None]:
        try:
            j = self.cols.index(label)
        except ValueError:
            raise ValueError(f"unknown column label {label!r}") from None
        sig = None if self.sigmas is None else self.sigmas[:, j]
        return self.values[:, j], sig

    def as_source(self) -> "ColumnSource":
        return ColumnSource(self.rows, self.cols, self.column)

    def with_uniform_sigmas(self, sigma: float) -> "CorrelationMatrix":
        """Annotate every entry with the same uncertainty (identity entry 0)."""
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        sigmas = np.full(self.values.shape, float(sigma))
        idx = self._identity_index(self.rows, self.cols)
        if idx is not None:
            sigmas[idx] = 0.0
        return CorrelationMatrix(self.rows, self.cols, self.values, sigmas)

    def to_dict(self) -> dict:
        out = {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "values": self.values.tolist(),
        }
        if self.sigmas is not None:
            out["sigmas"] = self.sigmas.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CorrelationMatrix":
        try:
            return cls(
                rows=tuple(data["rows"]),
                cols=tuple(data["cols"]),
                values=np.asarray(data["values"], dtype=float),
                sigmas=None if data.get("sigmas") is None else np.asarray(data["sigmas"], dtype=float),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed correlation-matrix spec: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "CorrelationMatrix":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def correlation_matrix(rho: DensityMatrix, dims: tuple[int, int] | None = None) -> CorrelationMatrix:
    """Full Pauli correlation matrix of a bipartite state (exact, no sigmas).

    Row labels run over the A-side Pauli strings, columns over the B side;
    the reconstruction 2^-N sum r_nm A_n (+) B_m recovers the state.
    """
    if dims is None:
        if len(rho.qubit_partition) != 2:
            raise ValueError("state has no bipartite split; pass dims explicitly")
        na, nb = rho.qubit_partition
    else:
        na, nb = (int(d).bit_length() - 1 for d in dims)
        if 2**na * 2**nb != rho.dim or 2**na != dims[0] or 2**nb != dims[1]:
            raise ValueError(f"dims {dims} do not match state dimension {rho.dim}")
    da, db = 2**na, 2**nb
    r4 = rho.entries.reshape(da, db, da, db)
    a_stack = _pauli_stack(na)
    b_stack = _pauli_stack(nb)
    contracted = np.einsum("ibjc,rji->rbc", r4, a_stack, optimize=True)
    values = np.einsum("rbc,scb->rs", contracted, b_stack, optimize=True).real
    return CorrelationMatrix(tuple(pauli_labels(na)), tuple(pauli_labels(nb)), values)


def reconstruct_state(corr: CorrelationMatrix) -> np.ndarray:
    """Pauli resummation 2^-N sum r_nm A_n (+) B_m of a full correlation matrix."""
    na = len(corr.rows[0])
    nb = len(corr.cols[0])
    if len(corr.rows) != 4**na or len(corr.cols) != 4**nb:
        raise ValueError("reconstruction needs the full Pauli bases on both sides")
    a_stack = np.stack([pauli_realize(lab) for lab in corr.rows])
    b_stack = np.stack([pauli_realize(lab) for lab in corr.cols])
    out = np.einsum("rs,rij,sbc->ibjc", corr.values, a_stack, b_stack, optimize=True)
    d = 2 ** (na + nb)
    return out.reshape(d, d) / d


def extract_columns(corr: CorrelationMatrix, labels: Sequence[PauliLabel]) -> CorrelationMatrix:
    """Truncated matrix keeping all rows and the selected columns (with sigmas)."""
    idx = []
    for lab in labels:
        try:
            idx.append(corr.cols.index(lab))
        except ValueError:
            raise ValueError(f"unknown column label {lab!r}") from None
    sig = None if corr.sigmas is None else corr.sigmas[:, idx]
    return CorrelationMatrix(corr.rows, tuple(labels), corr.values[:, idx], sig)


def rank_lower_bound(corr: CorrelationMatrix | np.ndarray, tau: float) -> int:
    """Number of singular values above tau; a lower bound on the rank."""
    values = corr.values if isinstance(corr, CorrelationMatrix) else np.asarray(corr)
    sv = np.linalg.svd(values, compute_uv=False)
    return int((sv > tau).sum())


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
    return 2.0 * float(np.median(nz)) * math.sqrt(cols)


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


@dataclass(frozen=True)
class SingularValueDistribution:
    """Monte Carlo singular-value samples plus per-value histograms.

    ``samples[i, j]`` is the j-th largest singular value of the i-th
    perturbed matrix; histograms follow the count/(n x bin_width)
    normalization with cumulative fractions alongside.
    """

    samples: np.ndarray
    bin_width: float
    histograms: tuple[Histogram, ...] = field(init=False, repr=False)

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise ValueError("samples must be (n_samples, n_singular_values)")
        if not np.isfinite(samples).all():
            raise ValueError(
                "singular-value samples are non-finite (NaN or inf), "
                "as from sigmas so large that the noise overflows float64"
            )
        if not (math.isfinite(self.bin_width) and self.bin_width > 0):
            raise ValueError(f"bin_width {self.bin_width} must be positive and finite")
        if float(samples.max(initial=0.0)) / self.bin_width >= MAX_HISTOGRAM_BINS:
            raise ValueError(
                f"bin_width {self.bin_width} needs more than {MAX_HISTOGRAM_BINS} histogram bins"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        hists = tuple(_histogram(samples[:, j], self.bin_width) for j in range(samples.shape[1]))
        for h in hists:
            norm = h.relative_occurrence.sum() * self.bin_width
            if abs(norm - 1.0) > HISTOGRAM_NORM_TOL:
                raise AssertionError(f"histogram integrates to {norm}, not 1")
            if np.any(np.diff(h.cumulative) < 0) or abs(h.cumulative[-1] - 1.0) > 1e-9:
                raise AssertionError("cumulative distribution malformed")
        object.__setattr__(self, "histograms", hists)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_singular_values(self) -> int:
        return self.samples.shape[1]

    def quantile(self, q: float) -> np.ndarray:
        """Per-singular-value empirical quantile."""
        return np.quantile(self.samples, q, axis=0)

    def n_distinguishable(self, tau: float, confidence: float = 0.99) -> int:
        """Singular values whose (1 - confidence) quantile exceeds tau."""
        return int((self.quantile(1.0 - confidence) > tau).sum())

    def medians(self) -> np.ndarray:
        return np.median(self.samples, axis=0)


def monte_carlo_svd(
    corr: CorrelationMatrix,
    n_samples: int,
    seed: int | Sequence[int],
    bin_width: float = 0.005,
) -> SingularValueDistribution:
    """Propagate per-element Gaussian uncertainty through the SVD.

    Every element is perturbed independently by its sigma (zero sigma pins
    the element); singular values of each sampled matrix are pooled into the
    distribution. ``seed`` is an integer or an integer sequence for
    ``numpy.random.default_rng``; :func:`witness_procedure` seeds step k of
    a run with ``[seed, k]``.
    """
    if corr.sigmas is None:
        raise ValueError("correlation matrix carries no sigmas; Monte Carlo needs them")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not np.any(corr.sigmas > 0):
        sv = np.linalg.svd(corr.values, compute_uv=False)
        samples = np.tile(sv, (n_samples, 1))
    else:
        rng = np.random.default_rng(seed)
        # overflow from huge sigmas is refused, with a message, by the distribution
        with np.errstate(over="ignore", invalid="ignore"):
            noise = rng.standard_normal((n_samples,) + corr.values.shape) * corr.sigmas
            samples = np.linalg.svd(corr.values + noise, compute_uv=False)
    return SingularValueDistribution(samples, bin_width)


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
    into a single distribution (e.g. 1000 x 10 = 10,000 samples).
    """
    if corr.sigmas is None:
        raise ValueError("correlation matrix carries no sigmas; Monte Carlo needs them")
    n_cols = len(corr.cols)
    if n_cols < 4:
        raise ValueError("need at least 4 columns to scan combinations")
    identity = [j for j, c in enumerate(corr.cols) if _is_identity_label(c)]
    if not identity:
        raise ValueError("no identity column present")
    rng = np.random.default_rng(seed)
    others = np.array([j for j in range(n_cols) if j != identity[0]])
    picks = np.stack([
        np.concatenate(([identity[0]], rng.choice(others, size=3, replace=False)))
        for _ in range(n_combos)
    ])
    sub_vals = corr.values[:, picks].transpose(1, 0, 2)  # (n_combos, rows, 4)
    sub_sigs = corr.sigmas[:, picks].transpose(1, 0, 2)
    noise = rng.standard_normal((n_combos, resamples_per_combo) + sub_vals.shape[1:])
    perturbed = sub_vals[:, None] + noise * sub_sigs[:, None]
    flat = perturbed.reshape((-1,) + sub_vals.shape[1:])
    samples = np.linalg.svd(flat, compute_uv=False)
    return SingularValueDistribution(samples, bin_width)


class ColumnSource:
    """On-demand access to correlation-matrix columns.

    Mirrors an experiment: each column may be fetched at most once. ``fetch``
    returns (values, sigmas) for a column label; sigmas may be None for exact
    sources.
    """

    def __init__(
        self,
        row_labels: Iterable[PauliLabel],
        col_labels: Iterable[PauliLabel],
        fetch: Callable[[PauliLabel], tuple[np.ndarray, np.ndarray | None]],
    ):
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self._fetch = fetch
        self._taken: set[str] = set()

    def fetch(self, label: PauliLabel) -> tuple[np.ndarray, np.ndarray | None]:
        if label not in self.col_labels:
            raise ValueError(f"unknown column label {label!r}")
        if label in self._taken:
            raise ValueError(f"column {label!r} already measured")
        self._taken.add(label)
        values, sigmas = self._fetch(label)
        return np.asarray(values, dtype=float), (
            None if sigmas is None else np.asarray(sigmas, dtype=float)
        )


@dataclass(frozen=True)
class ColumnPolicy:
    """Acquisition order and the size of the block measured before the first
    rank check."""

    order: tuple[PauliLabel, ...]
    initial_block: int = 4


def z_sector_first_policy(col_labels: Sequence[PauliLabel], initial_block: int = 4) -> ColumnPolicy:
    """Acquire I/Z-only columns first, then sweep the remaining labels.

    For a three-qubit B side the first four columns are the identity and the
    single/double Z strings, reproducing the experiment's starting set.
    """
    z_sector = [c for c in col_labels if set(c) <= {"I", "Z"}]
    rest = [c for c in col_labels if c not in z_sector]
    return ColumnPolicy(tuple(z_sector + rest), initial_block)


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of the iterative rank procedure.

    ``tau`` is the singular-value threshold applied at the last rank check
    (the auto policy rescales it as the submatrix grows).
    """

    outcome: str
    rank_lower_bound: int
    columns_used: tuple[PauliLabel, ...]
    confidence: float
    dim_a: int
    tau: float
    distribution: SingularValueDistribution = field(repr=False)

    def __post_init__(self):
        witnessed = self.rank_lower_bound > self.dim_a
        expected = OUTCOME_WITNESSED if witnessed else OUTCOME_INCONCLUSIVE
        if self.outcome != expected:
            raise ValueError(f"outcome {self.outcome!r} inconsistent with rank bound")

    @property
    def witnessed(self) -> bool:
        return self.outcome == OUTCOME_WITNESSED


def witness_procedure(
    source: ColumnSource,
    dim_a: int | None = None,
    policy: ColumnPolicy | None = None,
    tau: float | None = None,
    confidence: float = 0.99,
    n_samples: int = 10000,
    seed: int = 0,
    bin_width: float = 0.005,
) -> WitnessVerdict:
    """Iterative column acquisition until rank(R) > dim(A) or exhaustion.

    Acquires the policy's initial block, then one column at a time. After
    each acquisition a Monte Carlo rank bound is computed on the submatrix
    measured so far: a singular value counts as nonzero when its empirical
    (1 - confidence) quantile exceeds tau (default: noise-scaled
    :func:`default_tau` of the current submatrix). Exhausting all columns
    without exceeding dim(A) is the Inconclusive verdict, not an error.
    """
    if dim_a is None:
        dim_a = 2 ** len(source.row_labels[0])
    policy = policy or z_sector_first_policy(source.col_labels)
    order = [lab for lab in policy.order if lab in source.col_labels]
    missing = [lab for lab in source.col_labels if lab not in policy.order]
    order += missing
    if not order:
        raise ValueError("column source offers no columns")

    cols: list[np.ndarray] = []
    sigs: list[np.ndarray] = []
    used: list[PauliLabel] = []
    rank = 0
    dist = None
    tau_step = TAU_FLOOR
    first_check = min(policy.initial_block, len(order))

    for step, label in enumerate(order):
        values, sigmas = source.fetch(label)
        cols.append(values)
        sigs.append(np.zeros_like(values) if sigmas is None else sigmas)
        used.append(label)
        if len(used) < first_check:
            continue
        sub = CorrelationMatrix(
            source.row_labels, tuple(used), np.column_stack(cols), np.column_stack(sigs)
        )
        dist = monte_carlo_svd(sub, n_samples, [seed, step], bin_width)
        tau_step = default_tau(sub.sigmas) if tau is None else tau
        rank = dist.n_distinguishable(tau_step, confidence)
        if rank > dim_a:
            return WitnessVerdict(
                OUTCOME_WITNESSED, rank, tuple(used), confidence, dim_a, tau_step, dist
            )
    return WitnessVerdict(
        OUTCOME_INCONCLUSIVE, rank, tuple(used), confidence, dim_a, tau_step, dist
    )


def write_histogram_csvs(dist: SingularValueDistribution, prefix: str | Path) -> list[Path]:
    """Write one CSV per singular value: bin_center,relative_occurrence,cumulative
    rows at fixed-point 6 decimals. Returns the paths written."""
    paths = []
    for i, h in enumerate(dist.histograms, start=1):
        path = Path(f"{prefix}_sv{i}.csv")
        lines = ["bin_center,relative_occurrence,cumulative"]
        for c, r, cu in zip(h.bin_centers, h.relative_occurrence, h.cumulative):
            lines.append(f"{c:.6f},{r:.6f},{cu:.6f}")
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths
