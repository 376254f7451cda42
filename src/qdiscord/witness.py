"""State-independent non-zero-discord witness via the correlation-matrix rank.

A state of qubit A (the first qubit) and B (the rest) expands as
rho = 2^-N sum_nm r_nm A_n (+) B_m, A_n over the Pauli matrices I, X, Y, Z
and B_m over Pauli strings; discord D(A:B) is non-zero whenever rank(r_nm)
exceeds dim(A) = 2.
The witness reads the columns of one validated matrix one at a time,
lower-bounds the rank by counting singular values statistically
distinguishable from zero under Gaussian measurement uncertainty, and stops
as soon as the bound exceeds dim(A) or full tomography is exhausted.

Monte Carlo samples come from one engine, :class:`_GramFold`, which folds
each column into per-sample rows x rows Gram matrices. A rank check needs only
two order statistics of each singular value, so it places most samples by
eigenvalue intervals, a lower bound kept since an earlier check (a column
only raises the eigenvalues) or a closed-form Schur-complement certificate,
and eigendecomposes just the samples whose interval meets the range the two
order statistics can span; the returned distribution decomposes them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .linalg import PAULI_1Q, DensityMatrix, PauliLabel, bloch_blocks, keyed_rng, pauli_labels

if TYPE_CHECKING:
    from concurrent.futures import Future

# dim(A): A is one qubit
DIM_A = 2
TAU_FLOOR = 1e-7
IDENTITY_VALUE_TOL = 1e-9
MAX_HISTOGRAM_BINS = 10**6
# Bin width of the histogram CSVs; it draws the figure, and no verdict reads it.
HISTOGRAM_BIN = 0.005
# Perturbations of each column combination of a scan: the paper's 1000 x 10 pool.
SCAN_RESAMPLES = 10
# Columns acquired before the first rank check: the experiment's I/Z block.
INITIAL_BLOCK = 4
# A singular value counts as nonzero when its (1 - CONFIDENCE) quantile exceeds tau.
CONFIDENCE = 0.99
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


def _is_identity_label(label: PauliLabel) -> bool:
    return set(label) == {"I"}


@dataclass(frozen=True)
class CorrelationMatrix:
    """Expansion coefficients r_nm = Tr(rho (A_n (+) B_m)) with per-element
    Gaussian uncertainties; omitted sigmas are zeros, an exact matrix. A row
    label is one Pauli symbol, since A is one qubit; a column label is a
    Pauli string of B."""

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
        if len(rows[0]) != 1:
            raise ValueError(f"row label {rows[0]!r} is not one symbol: A is one qubit")
        values = np.array(self.values, dtype=float)
        if values.shape != (len(rows), len(cols)):
            raise ValueError(f"values shape {values.shape} != {len(rows)}x{len(cols)}")
        if not np.isfinite(values).all():
            raise ValueError("correlation values have non-finite (NaN or inf) entries")
        sigmas = np.zeros(values.shape) if self.sigmas is None else np.array(self.sigmas, dtype=float)
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
            if sigmas[i, j] != 0.0:
                raise ValueError("identity entry carries no uncertainty")
        values.setflags(write=False)
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
        """Read a document; one that states no sigmas is refused after every other check."""
        try:
            corr = cls(
                row_labels=tuple(data["rows"]),
                col_labels=tuple(data["cols"]),
                values=np.asarray(data["values"], dtype=float),
                sigmas=None if data.get("sigmas") is None else np.asarray(data["sigmas"], dtype=float),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed correlation-matrix spec: {exc}") from exc
        if data.get("sigmas") is None:
            raise ValueError(
                "matrix carries no sigmas; Monte Carlo rank bounds need per-element "
                "uncertainties (use zero sigmas for exact columns)"
            )
        return corr


def correlation_matrix(rho: DensityMatrix) -> CorrelationMatrix:
    """Full Pauli correlation matrix of a state (exact: zero sigmas).

    Rows run over I, X, Y and Z of qubit A, columns over the Pauli strings of
    B; the reconstruction 2^-N sum r_nm A_n (+) B_m recovers the state. Row n
    is r_nm = Tr(Gamma_n B_m), Gamma_I = rho_B, of the split that
    :func:`qdiscord.linalg.bloch_blocks` makes, with B expanded one qubit at a
    time, leftmost first: each step replaces every operator M by its partial
    traces Tr_1[(P (+) I) M], P in I, X, Y, Z. That is O(N 4^N) work in
    O(4^N) memory, up to ``MAX_QUBITS``.
    """
    nb = rho.n_qubits - 1
    rho_b, gammas = bloch_blocks(rho)
    paulis = np.stack([PAULI_1Q[s] for s in "IXYZ"])
    terms = np.concatenate([rho_b[None], gammas])
    for k in reversed(range(nb)):  # 2^k: the dimension of the qubits after the one expanded
        terms = np.einsum("aibjc,sji->asbc", terms.reshape(-1, 2, 2**k, 2, 2**k), paulis)
    return CorrelationMatrix(tuple(pauli_labels(1)), tuple(pauli_labels(nb)), terms.reshape(4, -1).real)


def default_tau(sigmas: np.ndarray, n_cols: int | None = None) -> float:
    """Noise-scale singular-value threshold: 2 x median nonzero sigma x sqrt(columns).

    Falls back to a small floor for noiseless (all-zero sigma) matrices.
    """
    nz = sigmas[sigmas > 0]
    if nz.size == 0:
        return TAU_FLOOR
    cols = sigmas.shape[1] if n_cols is None else int(n_cols)
    return 2.0 * float(_quantile(nz[None], 0.5)[0]) * math.sqrt(cols)


class HistogramBinsError(ValueError):
    """A histogram would need more than ``MAX_HISTOGRAM_BINS`` bins."""


def check_histogram_bins(top: float) -> None:
    """Refuse with :class:`HistogramBinsError` singular values up to ``top``
    that need ``MAX_HISTOGRAM_BINS`` bins of ``HISTOGRAM_BIN`` or more: the
    one rule, run by :func:`write_histogram_csvs` before it bins anything."""
    if top / HISTOGRAM_BIN >= MAX_HISTOGRAM_BINS:
        raise HistogramBinsError(
            f"singular values up to {top:.4g} need more than {MAX_HISTOGRAM_BINS} "
            f"histogram bins of {HISTOGRAM_BIN}"
        )


def histogram_csv_paths(prefix: str | Path, n: int = DIM_A**2) -> list[Path]:
    """``<prefix>_sv1.csv`` to ``_sv<n>.csv``, one per singular value; A's
    four Pauli rows give at most four."""
    return [Path(f"{prefix}_sv{k}.csv") for k in range(1, n + 1)]


@dataclass(frozen=True)
class SingularValueDistribution:
    """Monte Carlo singular-value samples: ``samples[i, j]`` is the j-th
    largest singular value of the i-th perturbed matrix. Finite and
    non-negative, so every sample lies in some bin of the histograms that
    :func:`write_histogram_csvs` writes."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise ValueError("samples must be (n_samples, n_singular_values)")
        if not np.isfinite(samples).all():
            raise ValueError(NON_FINITE_SAMPLES)
        negative = samples[samples < 0]
        if negative.size:
            raise ValueError(
                f"{negative.size} singular-value samples are negative (smallest {negative.min():.4g})"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def quantile(self, q: float) -> np.ndarray:
        """Per-singular-value empirical quantile (numpy's linear rule)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        return _quantile(self.samples.T, q)

    def medians(self) -> np.ndarray:
        return self.quantile(0.5)


# Packed lower triangles: _KEY4[i, j] is the packed row of a 4 x 4 Gram
# matrix's entries (i, j) and (j, i); _DIAG4 its diagonal, and _B_OF_4 and
# _H_OF_4 its first column below the diagonal (b) and its trailing 3 x 3 block
# (H), itself packed.
_TRIL3, _TRIL4 = np.tril_indices(3), np.tril_indices(4)
_KEY4 = np.zeros((4, 4), dtype=int)
_KEY4[_TRIL4] = _KEY4[_TRIL4[::-1]] = np.arange(10)
_DIAG4, _B_OF_4, _H_OF_4 = _KEY4.diagonal(), _KEY4[1:, 0], _KEY4[1:, 1:][_TRIL3]
# offsets of the trigonometric roots, in descending order of the eigenvalues
_ROOT_OFFSETS = np.array([0.0, 4 * math.pi / 3, 2 * math.pi / 3])[:, None]
# _eigvalsh3's error from the arccos, per unit of sqrt(p (p + |q|)): r =
# cos(3 phi) is good to delta = 64 eps (1 + |q| / p), and an error delta in r
# moves an eigenvalue by at most (2/3) p |arccos x - arccos y| <=
# (2/3) p sqrt(5 delta) on [-1, 1]
_ARCCOS_ERROR = (2 / 3) * math.sqrt(5 * 64 * np.finfo(float).eps)
# tr(G) below which a Gram matrix gets no certificate: under the smallest
# normal float its rounding margin and resolution floor lose their precision
_CERTIFIED_TRACE_MIN = np.finfo(float).tiny
# samples per certificate block: one certificate over a whole batch made the
# witness-tomography op about 10% slower (paired median ratio 1.10, 32 pairs)
_CERTIFICATE_BLOCK = 2048


def _draw_noise(seed: int, label: PauliLabel, out: np.ndarray) -> None:
    """Fill ``out``, an (n_samples, rows) array, with column ``label``'s
    standard normals from ``keyed_rng(seed, label)``."""
    keyed_rng(seed, label).standard_normal(out=out)


def _eigvalsh3(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of symmetric 3 x 3 matrices, from their packed lower
    triangles ``a`` (a00, a10, a11, a20, a21, a22; one row of m each): a (3, m)
    array, descending, and an (m,) bound on the error the arccos adds.

    The trigonometric solution of the characteristic cubic (O. K. Smith,
    CACM 4, 168, 1961): with q = tr(A) / 3, p^2 = ||A - qI||_F^2 / 6 and
    r = det((A - qI) / p) / 2 = cos(3 phi), the eigenvalues are
    q + 2p cos(phi + 2 pi k / 3). The matrix is divided by p before the
    determinant, and r is good to a few tens of eps plus the rounding of the
    shift q, eps |q| / p, at any scale. Near a double root (|r| near 1) the
    arccos turns that into about sqrt(eps p (p + |q|)): the returned bound,
    ``_ARCCOS_ERROR`` sqrt(p (p + |q|)), holds for every r. The other
    rounding is a few eps (|q| + p). p = 0 (a scalar matrix) reads r = 1 and
    gives every eigenvalue q. The entries should be scaled near 1, so that
    their squares neither overflow nor underflow.
    """
    q = (a[0] + a[2] + a[5]) / 3
    d = a[[0, 2, 5]] - q
    off = a[[1, 3, 4]]
    p = np.sqrt(((d * d).sum(axis=0) + 2 * (off * off).sum(axis=0)) / 6)
    with np.errstate(divide="ignore", invalid="ignore"):
        d /= p
        off /= p
        det = d[0] * d[1] * d[2] + 2 * off[0] * off[1] * off[2]
        det -= (d * (off * off)[::-1]).sum(axis=0)  # d_i times the other pair's a_jk^2
    r = np.fmax(np.fmin(det / 2, 1.0), -1.0)  # NaN (p = 0) reads 1
    lam = q + 2 * p * np.cos(np.arccos(r) / 3 + _ROOT_OFFSETS)
    return lam, _ARCCOS_ERROR * np.sqrt(p * (p + np.abs(q)))


class _GramFold:
    """Monte Carlo samples of a correlation matrix that grows one column at a time.

    Column ``label`` is perturbed by one (n_samples, rows) standard-normal
    block from ``keyed_rng(seed, label)`` (:func:`_draw_noise`) times its
    sigmas (zero sigma pins the element), and each sample's column c is
    folded into that sample's Gram matrix as G += c c^T; the singular values
    of the k columns folded so far are the square roots of G's top
    min(rows, k) eigenvalues. Sample i is therefore one hypothetical
    experiment at every step. Every block is written into the one
    (n_samples, rows) buffer ``noise``, by :meth:`add` or by a draw the
    caller ran ahead (see there).

    Only G's lower triangle, the part eigvalsh reads, is kept: packed as one
    (n_samples,) row per entry, so a column costs rows (rows + 1) / 2
    products per sample, and a sample's matrix is unpacked only when it is
    decomposed. :meth:`quantiles` decomposes only the samples whose value
    can be the quantile's (see there): every other sample is placed by an
    interval on its eigenvalues, from a closed-form certificate on its packed
    rows (:meth:`_intervals`, for a batch of any size) or from a lower bound
    kept since an earlier check, so the 61 checks of full tomography on a
    measured initial-dqc1 ensemble (alpha 1e-3, seed 7, 10,000 samples)
    decompose 518 Gram matrices; :meth:`distribution` decomposes every sample.
    """

    def __init__(self, n_rows: int, n_samples: int, seed: int):
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        self.n_rows = n_rows
        self.n_samples = n_samples
        self.seed = seed
        self.tril = np.tril_indices(n_rows)
        self.packed = np.zeros((self.tril[0].size, n_samples))
        # lower bounds on each sample's floored eigenvalues (descending): their
        # values when last decomposed, or the certificate's since
        self.last_eig = np.zeros((n_rows, n_samples))
        self.n_cols = 0
        self.noise = np.empty((n_samples, n_rows))

    def add(
        self, label: PauliLabel, values: np.ndarray, sigmas: np.ndarray, drawn: Future | None = None
    ) -> None:
        """Fold one column: ``values`` and ``sigmas`` are (rows,), shared by
        every sample, or (rows, n_samples), one column per sample. A column
        with noise reads its block from ``noise``: ``drawn`` is the future of
        the caller's draw of ``label``'s block into it (:func:`_draw_noise`,
        run ahead on another thread), and None draws it here. Both draw the
        same stream, so the samples do not depend on which."""
        values, sigmas = (np.reshape(a, (self.n_rows, -1)) for a in (values, sigmas))
        self.n_cols += 1
        # overflow from huge sigmas is refused, with a message, at the next check
        with np.errstate(over="ignore", invalid="ignore"):
            if np.any(sigmas > 0):
                if drawn is None:
                    _draw_noise(self.seed, label, self.noise)
                else:
                    drawn.result()
                col = np.multiply(self.noise.T, sigmas, out=np.empty((self.n_rows, self.n_samples)))
                col += values
            else:
                col = values
            for k, (i, j) in enumerate(zip(*self.tril)):
                self.packed[k] += col[i] * col[j]

    @property
    def n_singular_values(self) -> int:
        return min(self.n_rows, self.n_cols)

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

    def distribution(self) -> SingularValueDistribution:
        """Singular values of every sample of the columns folded so far."""
        self._check_finite()
        lam = self._eigenvalues(slice(None))[:, : self.n_singular_values]
        return SingularValueDistribution(np.sqrt(lam))

    def _decompose(self, idx: np.ndarray) -> np.ndarray:
        """Floored eigenvalues of samples ``idx`` as a (rows, len(idx)) array,
        kept as their bounds."""
        lam = self._eigenvalues(idx).T
        self.last_eig[:, idx] = lam
        return lam

    def _margin(self, trace: np.ndarray) -> np.ndarray:
        """Rounding margin on a bound: eigvalsh's error and one eps tr(G) per
        Gram addition, (64 + columns) eps tr(G)."""
        return (64 + self.n_cols) * np.finfo(float).eps * trace

    def _lower_bounds(self) -> np.ndarray:
        """(rows, n_samples) lower bounds on the current floored eigenvalues:
        the stored ones less the rounding margin, and 0 where that is under
        the resolution floor at tr(G) >= lambda_max (or tr(G) overflows)."""
        with np.errstate(over="ignore", invalid="ignore"):
            trace = self.packed[self.tril[0] == self.tril[1]].sum(axis=0)
            bound = self.last_eig - self._margin(trace)
            bound[~(bound >= GRAM_RESOLUTION**2 * trace)] = 0.0
        return bound

    def _intervals(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, len(idx)) intervals [lo, hi] on the floored eigenvalues of
        samples ``idx``, descending, from :meth:`_certificate` in blocks of
        ``_CERTIFICATE_BLOCK``, whatever the batch's size; a sample with no
        certificate, as every sample of fewer than 4 rows, has lo 0 and hi
        inf."""
        lo, hi = np.zeros((self.n_rows, idx.size)), np.full((self.n_rows, idx.size), np.inf)
        if self.n_rows == 4:
            for start in range(0, idx.size, _CERTIFICATE_BLOCK):
                block = slice(start, start + _CERTIFICATE_BLOCK)
                lo[:, block], hi[:, block] = self._certificate(self.packed[:, idx[block]])
        return lo, hi

    def _certificate(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Intervals [lo, hi] on the floored eigenvalues of 4 x 4 Gram
        matrices from their packed rows (10, m): lo 0 and hi inf where there
        is no certificate.

        One Householder reflection P maps G (G e_k) onto e_0, e_k the axis
        of G's largest diagonal entry, so P G P = [[g, b^T], [b, H]] with b
        small when G has a dominant direction. For lambda < g the Schur
        complement S(lambda) = H - b b^T / (g - lambda) falls with lambda,
        and by Haynsworth's inertia G has 1 + #{k: mu_k(S(lambda)) > lambda}
        eigenvalues above lambda. With u = mu_1(S(0)) widened, that count at
        lambda = u is 1, so u bounds lambda_2; if u < g, lambda_{k+1} =
        mu_k(S(lambda_{k+1})) lies in [mu_k(S(u)), mu_k(S(0))], and
        mu_k(S(u)) >= mu_k(S(0)) - |b|^2 u / (g (g - u)) by Weyl. S(0)'s
        eigenvalues come from :func:`_eigvalsh3`, widened by its arccos bound
        and by the rounding margin of :meth:`_lower_bounds`; lambda_1 =
        tr(G) - (lambda_2 + lambda_3 + lambda_4) takes its bounds from
        theirs, whose three margins also cover the trace's rounding.

        A value whose upper bound is under the resolution of lambda_1's lower
        bound is floored, so its interval is [0, 0]; a lower bound under the
        resolution of lambda_1's upper bound is 0. The work is done on G over
        a power of 2 near tr(G), which is exact and bounds every |g_ij| by 2.
        There is no certificate where u >= g (as when lambda_1 = lambda_2)
        or where tr(G) is not finite or is under ``_CERTIFIED_TRACE_MIN``.
        """
        floor = GRAM_RESOLUTION**2
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            trace = packed[_DIAG4].sum(axis=0)
            _, e = np.frexp(trace)  # tr(G) = f 2^e, 1/2 <= f < 1
            a = np.ldexp(packed, 1 - e)
            t = np.ldexp(trace, 1 - e)
            gram = a[_KEY4]
            start = gram[:, a[_DIAG4].argmax(axis=0), np.arange(a.shape[1])]  # G e_k
            w = np.einsum("ijm,jm->im", gram, start)  # G (G e_k), then the reflector
            w[0] += np.copysign(np.sqrt((w * w).sum(axis=0)), w[0])
            beta = 2 / (w * w).sum(axis=0)
            y = np.einsum("ijm,jm->im", gram, w)
            z = beta * (y - (beta / 2) * (w * y).sum(axis=0) * w)
            rot = a - (w[_TRIL4[0]] * z[_TRIL4[1]] + z[_TRIL4[0]] * w[_TRIL4[1]])  # P G P
            g, b, h = rot[0], rot[_B_OF_4], rot[_H_OF_4]
            bb = b[_TRIL3[0]] * b[_TRIL3[1]]
            margin = self._margin(t)
            mu, err = _eigvalsh3(h - bb / g)
            up = mu + (err + margin)
            gap = g - up[0]
            width = (bb[0] + bb[2] + bb[5]) * up[0] / (g * gap)
            down = mu - (err + margin * (1 + width / t) + width)
            lo = np.concatenate([(t - up.sum(axis=0))[None], down])
            hi = np.concatenate([(t - down.sum(axis=0))[None], up])
            np.maximum(lo, 0.0, out=lo)
            np.maximum(hi, 0.0, out=hi)
            lo[1:][lo[1:] < floor * hi[0]] = 0.0
            hi[1:][hi[1:] < floor * lo[0]] = 0.0
            ok = (gap > 0) & (trace >= _CERTIFIED_TRACE_MIN) & np.isfinite(hi).all(axis=0)
            return np.where(ok, np.ldexp(lo, e - 1), 0.0), np.where(ok, np.ldexp(hi, e - 1), np.inf)

    def _bound(self, idx: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Intervals [lo, hi] of samples ``idx``: their stored lower bounds
        ``bounds[:, idx]`` narrowed by a fresh certificate, and kept. The
        samples it cannot bound are decomposed, their interval their value;
        also returns how many."""
        lo, hi = self._intervals(idx)
        np.maximum(lo, bounds[:, idx], out=lo)
        self.last_eig[:, idx] = lo
        bare = np.flatnonzero(np.isinf(hi).any(axis=0))
        if bare.size:
            lo[:, bare] = hi[:, bare] = self._decompose(idx[bare])
        return lo, hi, bare.size

    def quantiles(self, q: float) -> tuple[np.ndarray, int]:
        """The q-quantile of each singular value over the samples, equal to
        ``distribution().quantile(q)``, and the number of samples decomposed.

        The quantile reads only the order statistics i = floor(h) and
        j = i + 1, h = q (n - 1), of each value. Every sample has the lower
        bound :meth:`_lower_bounds` keeps (G only gains c c^T, so by Weyl no
        eigenvalue falls). The samples with the 2 (j + 1) lowest bounds of
        some value get an interval (:meth:`_bound`); the (j + 1)-th smallest
        of their upper bounds, U, is at or above the j-th order statistic, so
        every other sample bounded at or below U for some value gets one too,
        and the rest lie above both order statistics. Then, for each value,
        with A the i-th smallest lower bound and B the j-th smallest upper
        bound of the samples with intervals (A <= the i-th and B >= the j-th
        order statistic), the c samples whose upper bound is below A precede
        both order statistics and those whose lower bound is above B follow
        them. Only the samples whose interval meets [A, B] and is not a point
        are decomposed, and the order statistics are the (i - c)-th and
        (j - c)-th of the values in [A, B], so the quantile is exactly a full
        decomposition's.
        """
        self._check_finite()
        n, k = self.n_samples, self.n_singular_values
        h, i, j = _order_indices(q, n)
        bounds = self._lower_bounds()
        low = min(2 * j + 2, n) - 1
        first = (bounds[:k] <= np.partition(bounds[:k], low, axis=1)[:, low, None]).any(axis=0)
        idx = np.flatnonzero(first)
        lo, hi, decomposed = self._bound(idx, bounds)
        top = np.partition(hi[:k], j, axis=1)[:, j, None]
        more = np.flatnonzero(~first & (bounds[:k] <= top).any(axis=0))
        lo_more, hi_more, bare = self._bound(more, bounds)
        idx = np.concatenate([idx, more])
        lo, hi = np.hstack([lo, lo_more])[:k], np.hstack([hi, hi_more])[:k]
        below = hi < np.partition(lo, i, axis=1)[:, i, None]
        reach = ~below & ~(lo > np.partition(hi, j, axis=1)[:, j, None])
        undecided = np.flatnonzero((reach & (lo < hi)).any(axis=0))
        lo[:, undecided] = self._decompose(idx[undecided])[:k]  # lo now holds each reaching value
        stats = [
            np.partition(lo[s, reach[s]], (i - c, j - c))[[i - c, j - c]]
            for s, c in enumerate(below.sum(axis=1))
        ]
        a, b = np.sqrt(stats).T
        return _lerp(a, b, h - i), decomposed + bare + undecided.size


def _order_indices(q: float, n: int) -> tuple[float, int, int]:
    """h = q (n - 1) and the order statistics floor(h) and floor(h) + 1
    (capped at n - 1) that numpy's linear quantile rule reads."""
    h = (n - 1) * q
    return h, min(math.floor(h), n - 1), min(math.floor(h) + 1, n - 1)


def _lerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """numpy's linear quantile interpolation between order statistics a and b."""
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _quantile(rows: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(rows, q, axis=1)``, bit for bit, from the order
    statistics at floor(h) and floor(h) + 1, h = q (n - 1), that numpy's
    linear rule reads (np.quantile itself would import numpy.ma)."""
    h, i, j = _order_indices(q, rows.shape[1])
    a, b = np.partition(rows, (i, j), axis=1)[:, [i, j]].T
    return _lerp(a, b, h - i)


def column_combination_scan(
    corr: CorrelationMatrix, n_combos: int, seed: int
) -> SingularValueDistribution:
    """Pooled singular-value distribution over random 4-column submatrices.

    Each combination keeps the identity column, draws three others at random,
    and is perturbed ``SCAN_RESAMPLES`` times; all singular values pool into
    a single distribution (1000 combinations give the paper's 10,000
    samples), folded by :class:`_GramFold` with column slot k labelled
    ``f"combination slot {k}"``.
    """
    if n_combos < 1:
        raise ValueError(f"n_combos {n_combos} must be at least 1")
    n_cols = len(corr.col_labels)
    if n_cols < 4:
        raise ValueError("need at least 4 columns to scan combinations")
    identity = [j for j, c in enumerate(corr.col_labels) if _is_identity_label(c)]
    if not identity:
        raise ValueError("no identity column present")
    # allocated first, so a run too large to hold fails before drawing its picks
    fold = _GramFold(len(corr.row_labels), n_combos * SCAN_RESAMPLES, seed)
    rng = np.random.default_rng(seed)
    others = np.array([j for j in range(n_cols) if j != identity[0]])
    picks = np.stack([
        np.concatenate(([identity[0]], rng.choice(others, size=3, replace=False)))
        for _ in range(n_combos)
    ])
    picks = np.repeat(picks, SCAN_RESAMPLES, axis=0)  # (n_samples, 4)
    for k, slot in enumerate(picks.T):
        fold.add(f"combination slot {k}", corr.values[:, slot], corr.sigmas[:, slot])
    return fold.distribution()


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
    threshold, the rank bound, each singular value's (1 - ``CONFIDENCE``)
    quantile, and how many samples were eigendecomposed to get it: those
    whose eigenvalue interval could hold an order statistic the quantile
    reads, and those the certificate could not bound, in a batch of any size
    (fewer than 4 rows, no dominant direction, a trace not finite or
    subnormal); 0 while every column so far is exact, as the procedure's
    one SVD of those columns serves every sample."""

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
    last check (tau rescales as the submatrix grows).
    """

    columns_used: tuple[PauliLabel, ...]
    distribution: SingularValueDistribution = field(repr=False)
    trajectory: tuple[RankCheck, ...] = field(repr=False)

    @property
    def rank_lower_bound(self) -> int:
        return self.trajectory[-1].rank

    @property
    def witnessed(self) -> bool:
        return self.rank_lower_bound > DIM_A

    @property
    def outcome(self) -> str:
        return OUTCOME_WITNESSED if self.witnessed else OUTCOME_INCONCLUSIVE


def witness_procedure(
    corr: CorrelationMatrix, n_samples: int = 10000, seed: int = 0
) -> WitnessVerdict:
    """Iterative column acquisition until rank(R) > dim(A) or exhaustion.

    Acquires the columns of ``corr``, each once, in
    :func:`z_sector_first_order`: ``INITIAL_BLOCK`` of them before the first
    rank check, then one at a time; dim(A) is 2, as every row label is one
    symbol of qubit A, and zero-sigma entries are exact in every sample.
    After each acquisition a Monte Carlo rank bound is computed on the
    submatrix measured so far: a singular value counts as nonzero when its
    empirical (1 - ``CONFIDENCE``) quantile exceeds the noise-scaled
    :func:`default_tau` of that submatrix. The check on the first k columns
    reads the quantiles over every Monte Carlo sample of those columns, and
    the verdict's distribution holds every sample of all columns used.
    Exhausting all columns without exceeding dim(A) is the Inconclusive
    verdict, not an error.

    While every column so far has zero sigmas, each sample is the exact
    matrix, so a check reads the SVD of the ordered columns, with
    ``decomposed`` 0, and an all-exact verdict tiles it as its distribution.

    Once a column is folded, the next one's noise, if it has any, is drawn
    into the fold's noise buffer on one helper thread while this column's
    check runs, and its future goes to that column's :meth:`_GramFold.add`:
    the same stream, so the result is bit for bit that of inline draws. It
    costs, on a witnessed return, one draw no check reads. The helper starts
    with the first such draw, so an exact matrix starts none, and it is
    joined on every exit, a raise included.
    """
    # imported here, not with the module: its ~10 ms import serves this function alone
    from concurrent.futures import ThreadPoolExecutor

    order = z_sector_first_order(corr.col_labels)
    where = {label: j for j, label in enumerate(corr.col_labels)}
    index = [where[label] for label in order]
    values, sigmas = corr.values[:, index], corr.sigmas[:, index]  # columns in order
    noisy = (sigmas > 0).any(axis=0)
    n_exact = int(np.append(noisy, True).argmax())  # leading columns with zero sigmas
    fold = _GramFold(len(corr.row_labels), n_samples, seed)
    trajectory: list[RankCheck] = []
    first_check = min(INITIAL_BLOCK, len(order))
    drawn = None  # the future of the next column's look-ahead draw

    with ThreadPoolExecutor(max_workers=1) as helper:
        for k, label in enumerate(order, start=1):
            fold.add(label, values[:, k - 1], sigmas[:, k - 1], drawn)
            ahead = k < len(order) and noisy[k]
            drawn = helper.submit(_draw_noise, seed, order[k], fold.noise) if ahead else None
            if k < first_check:
                continue
            tau = default_tau(sigmas[:, :k])
            if k <= n_exact:
                low, decomposed = np.linalg.svd(values[:, :k], compute_uv=False), 0
            else:
                low, decomposed = fold.quantiles(1.0 - CONFIDENCE)
            rank = int((low > tau).sum())
            trajectory.append(RankCheck(label, tau, rank, tuple(low.tolist()), decomposed))
            if rank > DIM_A:
                break
        if k <= n_exact:
            dist = SingularValueDistribution(np.tile(low, (n_samples, 1)))
        else:
            dist = fold.distribution()
        return WitnessVerdict(order[:k], dist, tuple(trajectory))


def write_histogram_csvs(dist: SingularValueDistribution, prefix: str | Path) -> list[Path]:
    """Write one histogram CSV per singular value at :func:`histogram_csv_paths`:
    bin_center,relative_occurrence,cumulative rows at fixed-point 6 decimals.
    Row k is the bin [k, k + 1) x ``HISTOGRAM_BIN``, the last row closed and
    the one that holds the value's largest sample; relative occurrence is
    count / (n_samples x ``HISTOGRAM_BIN``), and cumulative the fraction of
    samples up to the bin's upper edge.

    :func:`check_histogram_bins` refuses first, and every histogram is built
    and checked to count each sample once before the first file is written,
    so a refused run writes nothing. Returns the paths written."""
    n = dist.n_samples
    check_histogram_bins(float(dist.samples.max(initial=0.0)))
    hists = []
    for samples in dist.samples.T:
        edges = np.arange(math.floor(samples.max() / HISTOGRAM_BIN) + 2) * HISTOGRAM_BIN
        counts, _ = np.histogram(samples, bins=edges)
        if counts.sum() != n:
            raise AssertionError(f"histogram counts {counts.sum()} of {n} samples")
        hists.append((edges, counts))
    paths = histogram_csv_paths(prefix, len(hists))
    for path, (edges, counts) in zip(paths, hists):
        rows = zip((edges[:-1] + edges[1:]) / 2, counts / (n * HISTOGRAM_BIN), np.cumsum(counts) / n)
        body = "".join(f"{c:.6f},{r:.6f},{cu:.6f}\n" for c, r, cu in rows)
        path.write_text("bin_center,relative_occurrence,cumulative\n" + body)
    return paths
