"""Exact quantum discord and the projective-invariance zero-discord test.

Discord here is the gap between the two mutual-information formulations,
D(A:B) = H(rho_A) - H(rho) + min over rank-1 projective measurements on the
qubit A of the average conditional entropy of B; all entropies are in bits.

Everything works from one decomposition of the state, rho_B and
Gamma_i = Tr_A[(sigma_i (+) I) rho]: measuring A along the Bloch vector n
leaves the unnormalised conditional B operators (rho_B +- n.Gamma)/2. For an
arbitrary state :func:`discord` minimizes the conditional entropy of these
blocks with a deterministic coarse grid over the Bloch sphere followed by a
Nelder-Mead polish. The zero-discord test needs no search: with
G_ij = Re Tr(Gamma_i Gamma_j),

    ||rho - Pi_n(rho)||_F^2 = ||rho||_F^2 - (||rho_B||_F^2 + n.G.n)/2,

so the closest dephased state lies along the top eigenvector of G (compare
the geometric discord of Dakic, Vedral & Brukner, PRL 105, 190502).

Circuit outputs (I + eps(|0><1| (+) U^dag + |1><0| (+) U)) / 2d have a closed
form in the eigenphases lambda_k of U (Datta, Shaji & Caves, PRL 100, 050502).
Write g(x) = 1 - h2((1 + x)/2) for the binary entropy h2, tau = mean_k
e^{i lambda_k} and c_k(phi) = cos(lambda_k - phi). Measuring A along the
Bloch direction (theta, phi) leaves conditional B blocks with eigenvalues
(1 +- eps sin(theta) c_k)/2d, so

    D = g(eps) - g(eps |tau|) + min_phi [g(eps mean_k c_k) - mean_k g(eps c_k)].

The minimum lies at theta = pi/2: here Gamma_z = 0, so a direction off the
equator acts like an equatorial one with a shorter Bloch vector, which is a
coarse-grained measurement, and coarse-graining cannot lower the conditional
entropy. The bracket has period pi in phi, so :func:`dqc1_discord` searches
the half circle only, at O(d) per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from . import dqc1
from .linalg import DensityMatrix, PAULI_1Q, entropy_from_eigenvalues

NULL_OUTCOME_P = 1e-14
DEFAULT_ZERO_DISCORD_TOL = 1e-7
EXTRAPOLATION_EPSILONS = (1e-2, 3e-3, 1e-3)
DEGENERATE_DISCORD = 1e-12
# Largest relative gap between the quadratic extrapolation and the discord
# evaluated directly at the target polarization.
EXTRAPOLATION_RTOL = 1e-3


class ScalingFitError(RuntimeError):
    """The small-polarization quadratic-scaling assumption failed."""


@dataclass(frozen=True)
class MinimizerOptions:
    """Grid-then-refine settings for the measurement-basis search."""

    grid: int = 64
    angle_tol: float = 1e-8
    max_iter: int = 400

    def __post_init__(self):
        if self.grid < 1:
            raise ValueError(f"grid {self.grid} must be at least 1")


def _canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    theta = theta % (2 * np.pi)
    if theta > np.pi:
        theta = 2 * np.pi - theta
        phi = phi + np.pi
    return float(theta), float(phi % (2 * np.pi))


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective measurement on a qubit, parameterized by the Bloch
    direction (theta, phi); projectors are (I ± n.sigma)/2."""

    theta: float
    phi: float

    def __post_init__(self):
        th, ph = _canonical_angles(self.theta, self.phi)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", ph)

    @property
    def bloch_vector(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.array([st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)])

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.bloch_vector
        ns = n[0] * PAULI_1Q["X"] + n[1] * PAULI_1Q["Y"] + n[2] * PAULI_1Q["Z"]
        eye = np.eye(2)
        return (eye + ns) / 2, (eye - ns) / 2


@dataclass(frozen=True)
class DiscordResult:
    discord: float
    argmin_basis: MeasurementBasis
    mutual_information: float
    classical_correlations: float
    conditional_term: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        gap = self.mutual_information - self.classical_correlations
        if self.discord < -1e-9 or abs(self.discord - max(gap, 0.0)) > 1e-9:
            raise ValueError("inconsistent discord decomposition")


class ZeroDiscordResult(NamedTuple):
    is_zero: bool
    basis: MeasurementBasis
    distance: float


def _split_dims(rho: DensityMatrix, dims: tuple[int, int] | None) -> tuple[int, int]:
    if dims is None:
        if len(rho.qubit_partition) != 2:
            raise ValueError("state has no bipartite split; pass dims explicitly")
        da, db = rho.subsystem_dims
    else:
        da, db = int(dims[0]), int(dims[1])
    if da * db != rho.dim:
        raise ValueError(f"dims {da}x{db} do not match state dimension {rho.dim}")
    return da, db


def _bloch_blocks(rho: DensityMatrix, dims: tuple[int, int] | None) -> tuple[np.ndarray, np.ndarray]:
    """rho_B and the (3, dB, dB) stack Gamma_i = Tr_A[(sigma_i (+) I) rho].

    Measuring the qubit A along the Bloch vector n leaves the unnormalised
    conditional B operators (rho_B +- n.Gamma)/2, whose traces are the
    outcome probabilities.
    """
    da, db = _split_dims(rho, dims)
    if da != 2:
        raise ValueError("measurements on A require a 2-dimensional A side")
    r = rho.entries.reshape(2, db, 2, db)
    r00, r01, r10, r11 = r[0, :, 0], r[0, :, 1], r[1, :, 0], r[1, :, 1]
    return r00 + r11, np.stack([r01 + r10, 1j * (r01 - r10), r00 - r11])


def _avg_conditional_entropy(rho_b: np.ndarray, gammas: np.ndarray, thetas, phis) -> np.ndarray:
    """sum_k p_k H(rho_{B|k}) in bits for each measurement direction."""
    t = np.atleast_1d(np.asarray(thetas, dtype=float)).ravel()
    p = np.atleast_1d(np.asarray(phis, dtype=float)).ravel()
    n = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
    n_gamma = np.einsum("gi,ibc->gbc", n, gammas)
    blocks = np.stack([rho_b + n_gamma, rho_b - n_gamma], axis=1) / 2
    w = np.linalg.eigvalsh(blocks)  # (G, 2, dB); sums to p_k per outcome
    pk = np.clip(w.sum(axis=-1), 0.0, None)
    w = np.clip(w, 0.0, None)
    # p_k H(rho_{B|k}) = -sum_i w log2 w + p_k log2 p_k; null outcomes
    # (p_k below NULL_OUTCOME_P) contribute 0 through the 0 log 0 limit.
    wl = np.where(w > 0, w * np.log2(np.where(w > 0, w, 1.0)), 0.0).sum(axis=-1)
    pl = np.where(pk > NULL_OUTCOME_P, pk * np.log2(np.where(pk > 0, pk, 1.0)), 0.0)
    return (-wl + pl).sum(axis=1)


def _qubit_a_dims(rho: DensityMatrix) -> tuple[int, int] | None:
    """The recorded split of a bipartite state, else first qubit against the rest."""
    return None if len(rho.qubit_partition) == 2 else (2, rho.dim // 2)


def conditional_state(
    rho: DensityMatrix, basis: MeasurementBasis, k: int
) -> tuple[float, DensityMatrix | None]:
    """Outcome probability and post-measurement B state for outcome k.

    System A is the first qubit; outcome 0 projects onto +n, outcome 1 onto
    -n. Outcomes with probability below ``NULL_OUTCOME_P`` are flagged null
    by returning ``None``; their entropy contribution is zero.
    """
    if k not in (0, 1):
        raise ValueError("outcome index must be 0 or 1")
    rho_b, gammas = _bloch_blocks(rho, _qubit_a_dims(rho))
    block = (rho_b + (1 - 2 * k) * np.einsum("i,ibc->bc", basis.bloch_vector, gammas)) / 2
    p = float(np.trace(block).real)
    if p < NULL_OUTCOME_P:
        return p, None
    block = (block + block.conj().T) / 2
    return p, DensityMatrix(block / p, (rho.n_qubits - 1,))


def mutual_information(rho: DensityMatrix, dims: tuple[int, int] | None = None) -> float:
    """I(A:B) = H(A) + H(B) - H(A,B) in bits."""
    da, db = _split_dims(rho, dims)
    r4 = rho.entries.reshape(da, db, da, db)
    rho_a = np.einsum("ibjb->ij", r4)
    rho_b = np.einsum("ibic->bc", r4)
    ha = entropy_from_eigenvalues(np.linalg.eigvalsh(rho_a))
    hb = entropy_from_eigenvalues(np.linalg.eigvalsh(rho_b))
    hab = entropy_from_eigenvalues(np.linalg.eigvalsh(rho.entries))
    return ha + hb - hab


def discord(
    rho: DensityMatrix,
    dims: tuple[int, int] | None = None,
    opts: MinimizerOptions | None = None,
) -> DiscordResult:
    """Quantum discord D(A:B) with A the first qubit.

    The conditional term is minimized over all rank-1 projective measurements
    on A: a deterministic (theta, phi) grid of ``opts.grid`` points per angle,
    then a Nelder-Mead polish of the best cell to ``opts.angle_tol``. The
    reported discord is clipped at zero.
    """
    opts = opts or MinimizerOptions()
    rho_b, gammas = _bloch_blocks(rho, dims)
    g = opts.grid
    tt, pp = np.meshgrid(
        np.linspace(0.0, np.pi, g), np.linspace(0.0, 2 * np.pi, g, endpoint=False), indexing="ij"
    )
    vals = _avg_conditional_entropy(rho_b, gammas, tt.ravel(), pp.ravel())
    i0 = int(np.argmin(vals))
    x0 = np.array([tt.ravel()[i0], pp.ravel()[i0]])
    h = np.pi / g
    res = minimize(
        lambda x: float(_avg_conditional_entropy(rho_b, gammas, x[0], x[1])[0]),
        x0,
        method="Nelder-Mead",
        options=dict(
            xatol=opts.angle_tol,
            fatol=1e-15,
            maxiter=opts.max_iter,
            initial_simplex=np.array([x0, x0 + [h, 0.0], x0 + [0.0, h]]),
        ),
    )
    if res.fun <= vals[i0]:
        cond, basis = float(res.fun), MeasurementBasis(res.x[0], res.x[1])
    else:
        cond, basis = float(vals[i0]), MeasurementBasis(x0[0], x0[1])
    mi = mutual_information(rho, dims)
    cc = entropy_from_eigenvalues(np.linalg.eigvalsh(rho_b)) - cond
    return DiscordResult(
        discord=max(mi - cc, 0.0),
        argmin_basis=basis,
        mutual_information=mi,
        classical_correlations=cc,
        conditional_term=cond,
        diagnostics={"grid": g, "grid_min": float(vals[i0]), "refine_nfev": int(res.nfev)},
    )


def _bias_information(x) -> np.ndarray:
    """g(x) = 1 - h2((1 + x)/2) in bits for |x| <= 1.

    Written as (2x atanh x + log1p(-x^2)) / (2 ln 2), which keeps full
    relative precision at the |x| ~ 1e-5 of NMR polarizations where the
    entropy form cancels to nothing; |x| = 1 is the pure limit 1.
    """
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    xs = np.where(inside, x, 0.0)
    g = (2 * xs * np.arctanh(xs) + np.log1p(-xs * xs)) / (2 * math.log(2))
    return np.where(inside, g, 1.0)


def dqc1_discord(
    eigphases: np.ndarray, eps: float, opts: MinimizerOptions | None = None
) -> DiscordResult:
    """Discord of the circuit output for bias ``eps`` and a unitary with the
    given eigenphases, from the closed form in the module docstring.

    The phi search scans ``opts.grid`` points on [0, pi), then runs a bounded
    scalar polish over the two cells around the best point to
    ``opts.angle_tol`` in at most ``opts.max_iter`` iterations. The argmin
    basis lies on the equator (theta = pi/2).
    """
    opts = opts or MinimizerOptions()
    lam = np.asarray(eigphases, dtype=float).ravel()
    log_d = math.log2(lam.size)

    def excess(phis):
        # conditional entropy minus log2 d for equatorial measurements at phis
        c = np.cos(lam - np.asarray(phis, dtype=float)[..., None])
        return _bias_information(eps * c.mean(axis=-1)) - _bias_information(eps * c).mean(axis=-1)

    h = np.pi / opts.grid
    phis = np.arange(opts.grid) * h
    vals = excess(phis)
    i0 = int(np.argmin(vals))
    res = minimize_scalar(
        lambda p: float(excess(p)),
        bounds=(phis[i0] - h, phis[i0] + h),
        method="bounded",
        options=dict(xatol=opts.angle_tol, maxiter=opts.max_iter),
    )
    if res.fun <= vals[i0]:
        best, phi = float(res.fun), float(res.x)
    else:
        best, phi = float(vals[i0]), float(phis[i0])
    tau = abs(np.exp(1j * lam).mean())
    mi = float(_bias_information(eps) - _bias_information(eps * tau))
    return DiscordResult(
        discord=max(mi + best, 0.0),
        argmin_basis=MeasurementBasis(np.pi / 2, phi),
        mutual_information=mi,
        classical_correlations=-best,
        conditional_term=log_d + best,
        diagnostics={
            "grid": opts.grid,
            "grid_min": log_d + float(vals[i0]),
            "refine_nfev": int(res.nfev),
        },
    )


def projective_average(rho: DensityMatrix, basis: MeasurementBasis) -> DensityMatrix:
    """sum_k (E_k (+) I) rho (E_k (+) I): dephasing of A in the given basis."""
    da, db = _split_dims(rho, _qubit_a_dims(rho))
    if da != 2:
        raise ValueError("projective average acts on a single-qubit A side")
    out = np.zeros_like(rho.entries)
    eye = np.eye(db)
    for e in basis.projectors():
        ei = np.kron(e, eye)
        out = out + ei @ rho.entries @ ei
    out = (out + out.conj().T) / 2
    return DensityMatrix(out, rho.qubit_partition)


def is_zero_discord(
    rho: DensityMatrix,
    tol: float = DEFAULT_ZERO_DISCORD_TOL,
    dims: tuple[int, int] | None = None,
) -> ZeroDiscordResult:
    """Projective-invariance test: zero discord iff some measurement basis on
    A leaves the state unchanged under projective averaging.

    The smallest Frobenius distance ||rho - Pi_n(rho)||_F over bases and the
    basis that attains it come in closed form from the top eigenpair of
    G_ij = Re Tr(Gamma_i Gamma_j) (module docstring); the state is zero
    discord when that distance falls below ``tol``.
    """
    rho_b, gammas = _bloch_blocks(rho, dims)
    w, v = np.linalg.eigh(np.einsum("ibc,jcb->ij", gammas, gammas).real)
    kept = (np.linalg.norm(rho_b) ** 2 + w[-1]) / 2
    dist = math.sqrt(max(np.linalg.norm(rho.entries) ** 2 - kept, 0.0))
    n = v[:, -1]
    basis = MeasurementBasis(math.acos(min(max(n[2], -1.0), 1.0)), math.atan2(n[1], n[0]))
    return ZeroDiscordResult(dist < tol, basis, dist)


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit log D = exponent * log eps + log coefficient, with the
    discord evaluated directly at the target polarization alpha."""

    exponent: float
    coefficient: float
    epsilons: tuple[float, ...]
    discords: tuple[float, ...]
    alpha: float
    direct: float

    @property
    def value(self) -> float:
        """Extrapolated discord coefficient * alpha^2."""
        return self.coefficient * self.alpha**2


def fit_polarization_scaling(
    unitary: np.ndarray,
    opts: MinimizerOptions | None = None,
    fit_epsilons: tuple[float, ...] = EXTRAPOLATION_EPSILONS,
    alpha: float = 1.4e-5,
) -> ScalingFit:
    """Fit the quadratic small-bias scaling of the circuit-output discord and
    check it against the discord evaluated directly at ``alpha``.

    Evaluates D(eps) with :func:`dqc1_discord` at moderate biases and fits
    log D = p log eps + log c; ``alpha`` must lie in (0, 1]. All-zero
    discords (e.g. U = I) degenerate to coefficient 0. :class:`ScalingFitError`
    is raised when the fitted exponent has |p - 2| >= 0.02, or when
    c * alpha^2 differs from D(alpha) by more than ``EXTRAPOLATION_RTOL``
    relative (``DEGENERATE_DISCORD`` absolute for a degenerate fit).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1]")
    instances = [dqc1.Dqc1Instance(eps, unitary) for eps in (*fit_epsilons, alpha)]
    eigphases = instances[0].eigphases
    *ds, direct = (dqc1_discord(eigphases, inst.epsilon, opts).discord for inst in instances)
    discords = tuple(ds)
    arr = np.asarray(ds)
    if arr.max() < DEGENERATE_DISCORD:
        slope, coefficient = 2.0, 0.0
    else:
        if arr.min() <= 0.0:
            raise ScalingFitError(f"discord values {arr} straddle zero; cannot fit scaling")
        slope, intercept = np.polyfit(np.log(fit_epsilons), np.log(arr), 1)
        if abs(slope - 2.0) >= 0.02:
            raise ScalingFitError(
                f"fitted scaling exponent {slope:.4f} outside [1.98, 2.02]; "
                "quadratic extrapolation is invalid, attempt direct computation"
            )
        coefficient = math.exp(intercept)
    fit = ScalingFit(float(slope), coefficient, tuple(fit_epsilons), discords, float(alpha), direct)
    tol = EXTRAPOLATION_RTOL * direct if coefficient else DEGENERATE_DISCORD
    if abs(fit.value - direct) > tol:
        raise ScalingFitError(
            f"extrapolated discord {fit.value:.6e} and direct value {direct:.6e} at "
            f"alpha={alpha:g} differ by more than {tol:.1e}"
        )
    return fit


def discord_at_small_polarization(
    unitary: np.ndarray,
    alpha_target: float,
    opts: MinimizerOptions | None = None,
    fit_epsilons: tuple[float, ...] = EXTRAPOLATION_EPSILONS,
) -> float:
    """Discord of the circuit output at an NMR-scale polarization:
    c * alpha_target^2 from the quadratic fit, verified against the direct
    evaluation at alpha_target."""
    if not 0.0 < alpha_target < 1e-4:
        raise ValueError("extrapolation is for alpha below 1e-4; evaluate directly instead")
    return fit_polarization_scaling(
        unitary, opts=opts, fit_epsilons=fit_epsilons, alpha=alpha_target
    ).value


def haar_discord_survey(
    n_seeds: int,
    dim: int = 32,
    alpha: float = 1.4e-5,
    start_seed: int = 0,
    opts: MinimizerOptions | None = None,
) -> np.ndarray:
    """Extrapolated discord for Haar-random unitaries, one value per seed.

    The default dimension 32 is large enough that the fixed-size ensemble
    mean sits within a few percent of the large-system asymptote
    alpha^2 / (4 ln 2); at dimension 8 the finite-size trace corrections
    depress the mean by roughly 18%.
    """
    out = np.empty(n_seeds)
    for i in range(n_seeds):
        u = dqc1.haar_random_unitary(dim, start_seed + i)
        out[i] = discord_at_small_polarization(u, alpha, opts=opts)
    return out
