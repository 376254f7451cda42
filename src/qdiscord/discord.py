"""Exact quantum discord and the projective-invariance zero-discord test.

Discord here is the gap between the two mutual-information formulations,
D(A:B) = H(rho_A) - H(rho) + min over rank-1 projective measurements on the
qubit A of the average conditional entropy of B; all entropies are in bits.
A is the state's first qubit and B the other qubits (:class:`DensityMatrix`).

Everything works from one decomposition of the state, rho_B and
Gamma_i = Tr_A[(sigma_i (+) I) rho] of :func:`qdiscord.linalg.bloch_blocks`:
measuring A along the Bloch vector n leaves the unnormalised conditional B
operators (rho_B +- n.Gamma)/2. For an arbitrary state :func:`discord`
minimizes the conditional entropy of these blocks with a deterministic grid
over the Bloch hemisphere (n and -n are the same measurement) followed by a
BFGS polish on the closed-form gradient. The zero-discord test needs no
search: with G_ij = Re Tr(Gamma_i Gamma_j),

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
the half circle only, at O(d) per evaluation. Since g'(x) = atanh(x) / ln 2,
its phi-derivatives are closed forms as well, and a safeguarded Newton
search on them polishes the grid minimum. Both engines run on numpy alone.

At NMR polarizations no search is needed. g(x) = x^2 / (2 ln 2) + O(x^4),
so the bracket is -eps^2 Var_k c_k(phi) / (2 ln 2) + O(eps^4). With
tau_m = mean_k e^{i m lambda_k} (tau = tau_1),

    Var_k c_k(phi) = (1 - |tau_1|^2 + Re[(tau_2 - tau_1^2) e^{-2i phi}]) / 2,

largest at phi* = arg(tau_2 - tau_1^2) / 2 (mod pi), and

    D(eps) = c2 eps^2 + O(eps^4),  c2 = (1 - |tau_1|^2 - |tau_2 - tau_1^2|) / (4 ln 2).

:func:`fit_polarization_scaling` returns c2 alpha^2 and checks it against
the discord evaluated at alpha. For Haar-random U, E|tau_1|^2 = E|Tr U|^2 / d^2
= 1/d^2 and Tr U^2 is nearly complex Gaussian with E|Tr U^2|^2 = 2, so
E|tau_2 - tau_1^2| is about sqrt(pi/2) / d: both vanish as d grows, and c2
tends to 1 / (4 ln 2), the alpha^2 / (4 ln 2) asymptote of the ensemble mean.

That check needs no eigenphases either. With a_n = 1 / (2n (2n - 1) ln 2),
g(x) = sum_n a_n x^(2n) for |x| < 1. Write b_n = a_n eps^(2n) and
tau_1 = r e^{i theta_1}, so that m(phi) = mean_k c_k = r cos(phi - theta_1) and

    D(eps) = min_phi sum_n b_n [1 - r^(2n) + m(phi)^(2n) - mean_k c_k^(2n)].

Both even powers of a cosine expand in the same harmonics: with
w_nj = C(2n, n-j) / 4^n, cos^(2n) x = w_n0 + 2 sum_{j=1..n} w_nj cos(2jx). So

    D(eps) = sum_n b_n (1 - r^(2n)) (1 - w_n0) + min_phi sum_j Re(d_j e^{-2ij phi}),
    d_j = 2 [(sum_n b_n w_nj r^(2n)) e^{2ij theta_1} - (sum_n b_n w_nj) tau_2j],

a trigonometric polynomial in phi that reads U only through Tr U and the
traces of U^2, U^4, ... Each bracket [...] lies in [-1, 2], so the terms
past n = N add at most 2 eps^(2N+2) / ((2N+2)(2N+1) ln 2 (1 - eps^2)).
The fit sums the fewest terms N that keep this bound within
2^-53 DEGENERATE_DISCORD eps^2, below the rounding of any c2 it does not
count as 0: N = 3 at alpha = 1.4e-5, 10 at 0.05 and 64 at about 0.6445.
The series is the fit's only route: past ``MAX_SERIES_TERMS`` (64) terms,
and at alpha = 1 where the series never converges, the fit is refused. The
quadratic scaling it checks is long gone there: the Jones, quarter-turn
and Haar (d = 2 to 64) unitaries tried already fail the checks at
alpha = 0.1, and the zero-discord family (c2 = 0) needs no extrapolation.
"""

from __future__ import annotations

import cmath
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np

from . import dqc1
from .linalg import DensityMatrix, bloch_blocks, entropy_from_eigenvalues

NULL_OUTCOME_P = 1e-14
DEFAULT_ZERO_DISCORD_TOL = 1e-6
DEGENERATE_DISCORD = 1e-12
# Largest relative gap between the quadratic extrapolation and the discord
# evaluated directly at the target polarization.
EXTRAPOLATION_RTOL = 1e-3
# Search grid of both engines: 4 * GRID Fibonacci points on the Bloch hemisphere
# for the dense search, GRID phi points on [0, pi) for the eigenphase engine.
# Each polish runs to ANGLE_TOL in at most MAX_ITER steps.
GRID = 64
ANGLE_TOL = 1e-8
MAX_ITER = 400
# Most Taylor terms of g the small-polarization fit sums (module docstring).
MAX_SERIES_TERMS = 64
# The experiment's 13C polarization: the fit's default alpha and the survey's.
NMR_POLARIZATION = 1.4e-5


class ScalingFitError(RuntimeError):
    """The small-polarization quadratic scaling failed, or alpha is past the series limit."""


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective measurement on a qubit, parameterized by the Bloch
    direction (theta, phi); projectors are (I ± n.sigma)/2."""

    theta: float
    phi: float

    def __post_init__(self):
        theta, phi = self.theta % (2 * np.pi), self.phi
        if theta > np.pi:  # the same direction, with theta in [0, pi]
            theta, phi = 2 * np.pi - theta, phi + np.pi
        object.__setattr__(self, "theta", float(theta))
        object.__setattr__(self, "phi", float(phi % (2 * np.pi)))


@dataclass(frozen=True)
class DiscordResult:
    argmin_basis: MeasurementBasis
    mutual_information: float
    classical_correlations: float
    conditional_term: float
    diagnostics: dict

    @property
    def discord(self) -> float:
        """Mutual information less classical correlations, clipped at zero."""
        return max(self.mutual_information - self.classical_correlations, 0.0)


class ZeroDiscordResult(NamedTuple):
    """The closest dephased state's ``basis`` and Frobenius ``distance``, and
    the ``scale`` sqrt(tr G / 2) = ||rho - I/2 (+) rho_B||_F it is judged
    against, the part of rho a measurement on A can change."""

    basis: MeasurementBasis
    distance: float
    scale: float

    @property
    def is_zero(self) -> bool:
        """Whether ``distance`` is at most ``DEFAULT_ZERO_DISCORD_TOL * scale``
        (:func:`is_zero_discord`); a state with G = 0, as I/d, is zero discord."""
        return self.distance <= DEFAULT_ZERO_DISCORD_TOL * self.scale


def _measurement_basis(n: np.ndarray) -> MeasurementBasis:
    """The measurement along the unit Bloch vector n."""
    return MeasurementBasis(math.acos(min(max(n[2], -1.0), 1.0)), math.atan2(n[1], n[0]))


def _avg_conditional_entropy(rho_b: np.ndarray, gammas: np.ndarray, n: np.ndarray, grad=False):
    """sum_k p_k H(rho_{B|k}) in bits for each unit Bloch vector of the (G, 3)
    stack ``n``; with ``grad`` also its (G, 3) gradient in n.

    With B+- = (rho_B +- n.Gamma)/2, p+- = Tr B+- and t_i = Tr Gamma_i the
    1/ln 2 terms cancel: df/dn_i = sum_+- +-[-Tr(Gamma_i log2 B+-) + t_i log2 p+-]/2.
    """
    n_gamma = np.einsum("gi,ibc->gbc", n, gammas)
    blocks = np.stack([rho_b + n_gamma, rho_b - n_gamma], axis=1) / 2
    w, v = np.linalg.eigh(blocks) if grad else (np.linalg.eigvalsh(blocks), None)
    pk = np.clip(w.sum(axis=-1), 0.0, None)  # w: (G, 2, dB), summing to p_k per outcome
    w = np.clip(w, 0.0, None)
    # p_k H(rho_{B|k}) = -sum_i w log2 w + p_k log2 p_k; zero eigenvalues and
    # null outcomes (p_k below NULL_OUTCOME_P) contribute 0, the 0 log 0 limit.
    log_w = np.log2(np.where(w > 0, w, 1.0))
    log_p = np.where(pk > NULL_OUTCOME_P, np.log2(np.where(pk > 0, pk, 1.0)), 0.0)
    f = (-(w * log_w).sum(axis=-1) + pk * log_p).sum(axis=1)
    if not grad:
        return f
    tr_g_log = np.einsum("gsbk,ibc,gsck,gsk->gsi", v.conj(), gammas, v, log_w).real
    d = (-tr_g_log + np.trace(gammas, axis1=1, axis2=2).real * log_p[..., None]) / 2
    return f, d[:, 0] - d[:, 1]


def _sphere_polish(rho_b: np.ndarray, gammas: np.ndarray, n0: np.ndarray, f0: float):
    """BFGS search for a conditional entropy below f0, its value at the unit
    Bloch vector n0, in the chart n(x) = normalize(n0 + x.E), E an orthonormal
    basis of the tangent plane at n0. The first trial step is one grid
    spacing, sqrt(2 pi / (4 GRID)), long; Armijo backtracking keeps every step
    downhill, so the search never ends above f0. It has converged when a step
    falls to ``ANGLE_TOL`` within ``MAX_ITER`` steps. Returns the lowest
    point, its value, the objective evaluations and whether it converged.
    """

    def chart(x):
        m = n0 + x @ e
        r = np.linalg.norm(m)
        n = m / r
        f, g = (a[0] for a in _avg_conditional_entropy(rho_b, gammas, n[None], grad=True))
        return n, f, (e @ g - (e @ n) * (n @ g)) / r

    e = np.linalg.svd(n0[None])[2][1:]  # rows orthogonal to n0
    x, nfev, f = np.zeros(2), 1, f0
    n, _, g = chart(x)
    h = np.eye(2) * math.sqrt(math.pi / (2 * GRID)) / (np.linalg.norm(g) or 1.0)
    for _ in range(MAX_ITER):
        p, a = -h @ g, 1.0
        while np.linalg.norm(a * p) > ANGLE_TOL:
            nt, ft, gt = chart(x + a * p)
            nfev += 1
            if ft <= f + 1e-4 * a * (g @ p):
                break
            a /= 2
        else:
            return n, f, nfev, True
        s, y = a * p, gt - g
        if s @ y > 0:
            hy, sy = h @ y, s @ y
            h = h + ((sy + y @ hy) * np.outer(s, s) / sy - np.outer(hy, s) - np.outer(s, hy)) / sy
        x, n, f, g = x + s, nt, ft, gt
    return n, f, nfev, False


def mutual_information(rho: DensityMatrix) -> float:
    """I(A:B) = H(A) + H(B) - H(A,B) in bits."""
    db = rho.dim // 2
    rho_a = np.einsum("ibjb->ij", rho.entries.reshape(2, db, 2, db))
    rho_b, _ = bloch_blocks(rho)
    ha = entropy_from_eigenvalues(np.linalg.eigvalsh(rho_a))
    hb = entropy_from_eigenvalues(np.linalg.eigvalsh(rho_b))
    hab = entropy_from_eigenvalues(np.linalg.eigvalsh(rho.entries))
    return ha + hb - hab


def discord(rho: DensityMatrix) -> DiscordResult:
    """Quantum discord D(A:B) of the state's first qubit A and the rest B.

    The conditional term is minimized over all rank-1 projective measurements
    on A: n and -n are one measurement, so a grid of ``4 * GRID`` Fibonacci
    points on the upper Bloch hemisphere (Gonzalez, Math. Geosci. 42, 49
    (2010)), then a BFGS polish of the best one (:func:`_sphere_polish`).
    ``diagnostics`` holds the grid minimum, the polish's objective
    evaluations (``refine_nfev``), ``converged`` (a polish step fell to
    ``ANGLE_TOL`` within ``MAX_ITER`` steps) and ``polish_gain`` (grid minimum
    less the conditional term).
    """
    rho_b, gammas = bloch_blocks(rho)
    k = np.arange(4 * GRID) + 0.5
    z, phi = 1 - k / (4 * GRID), k * np.pi * (3 - math.sqrt(5))
    grid = np.stack([np.sqrt(1 - z * z) * np.cos(phi), np.sqrt(1 - z * z) * np.sin(phi), z], -1)
    vals = _avg_conditional_entropy(rho_b, gammas, grid)
    i0 = int(np.argmin(vals))
    n, cond, nfev, converged = _sphere_polish(rho_b, gammas, grid[i0], vals[i0])
    cc = entropy_from_eigenvalues(np.linalg.eigvalsh(rho_b)) - cond
    basis, mi = _measurement_basis(n), mutual_information(rho)
    return _search_result(basis, mi, cc, float(cond), float(vals[i0]), nfev, converged)


def _search_result(basis, mi, cc, cond, grid_min, nfev, converged) -> DiscordResult:
    """The :class:`DiscordResult` of a grid search polished from ``grid_min``
    to the conditional term ``cond``, with both engines' ``diagnostics``."""
    return DiscordResult(basis, mi, cc, cond, {
        "grid": GRID, "grid_min": grid_min, "refine_nfev": nfev, "converged": converged,
        "polish_gain": grid_min - cond,
    })


def _bias_information(x, at=None, pure=True) -> np.ndarray:
    """g(x) = 1 - h2((1 + x)/2) in bits for |x| <= 1.

    Written as (2x atanh x + log1p(-x^2)) / (2 ln 2), which keeps full
    relative precision at the |x| ~ 1e-5 of NMR polarizations where the
    entropy form cancels to nothing. ``at`` may supply atanh(x). With
    ``pure`` an |x| = 1 entry is the pure limit 1; without it, which the
    bracket passes at eps < 1, where no |x| is 1, the mask and the silenced
    atanh(+-1) warnings are skipped.
    """
    with np.errstate(divide="ignore", invalid="ignore") if pure else nullcontext():
        at = np.arctanh(x) if at is None else at
        g = (2 * x * at + np.log1p(-x * x)) / (2 * math.log(2))
        return np.where(np.abs(x) < 1.0, g, 1.0) if pure else g


def _bracket_point(lam: np.ndarray, eps: float, phi):
    """The bracket f(phi) = g(eps m) - mean_k g(eps c_k) of the module
    docstring (the conditional entropy, less log2 d, of the equatorial
    measurement at phi), f'(phi) and f''(phi), the derivatives in units of
    eps / ln 2, at ``phi`` or at each angle of an array ``phi``, from one cos,
    sin and atanh of the eigenphases. With s_k = sin(lambda_k - phi),
    S = mean_k s_k and g'(x) = atanh(x) / ln 2,

        f'  ~ atanh(eps m) S - mean_k atanh(eps c_k) s_k,
        f'' ~ eps S^2 / (1 - eps^2 m^2) - m atanh(eps m)
              - eps mean_k s_k^2 / (1 - eps^2 c_k^2) + mean_k c_k atanh(eps c_k).

    Only at eps = 1 can a block be pure (|eps c_k| = 1): atanh(x) s is then
    its limit 0, so f' stays finite, and f'' is infinite or NaN. So only at
    eps = 1 are those limits masked and atanh(1)'s warnings silenced.
    """
    pure = eps == 1
    with np.errstate(divide="ignore", invalid="ignore") if pure else nullcontext():
        n = lam.size
        arg = lam - np.asarray(phi, dtype=float)[..., None]
        c, s = np.cos(arg), np.sin(arg)
        m, sm = c.sum(axis=-1) / n, s.sum(axis=-1) / n
        x, xm = eps * c, eps * m
        at, at_m = np.arctanh(x), np.arctanh(xm)
        t, t_m = at * s, at_m * sm
        if pure:
            t, t_m = np.where(np.isfinite(t), t, 0.0), np.where(np.isfinite(t_m), t_m, 0.0)
        # 1 - eps^2 c^2 = (1 - eps^2) + eps^2 s^2 keeps its precision as |eps c| -> 1
        d2 = eps * sm * sm / (1 - xm**2) - m * at_m
        d2 = d2 - eps * (s * s / ((1 - eps * eps) + (eps * s) ** 2)).sum(axis=-1) / n
        d2 = d2 + (c * at).sum(axis=-1) / n
        return _bracket_value(x, xm, pure, at, at_m), t_m - t.sum(axis=-1) / n, d2


def _bracket_value(x: np.ndarray, xm, pure=True, at=None, at_m=None):
    """The bracket f = g(eps m) - mean_k g(eps c_k) of :func:`_bracket_point`
    from x = eps c_k (k on the last axis) and xm = eps m; ``pure`` as
    :func:`_bias_information` takes it, and ``at`` and ``at_m`` may supply
    their atanh. The phi grid reads this value alone."""
    return (
        _bias_information(xm, at_m, pure)
        - _bias_information(x, at, pure).sum(axis=-1) / x.shape[-1]
    )


def _newton_polish(point, vals: np.ndarray) -> tuple[float, float, int, bool]:
    """Safeguarded Newton search for a minimum of a bracket f of period pi,
    given its values ``vals`` on the grid phi_i = i pi / len(vals); ``point(phi)``
    returns f(phi), f'(phi) and f''(phi), the derivatives in any one unit.

    The search starts at the grid minimum x, between its grid neighbours lo
    and hi. x is always the lowest point seen and neither end lies below it,
    so a local minimum no higher than the start stays inside [lo, hi]. Each step
    moves to the side of x where the bracket falls (the sign of f'): by the
    Newton step -f'/f'' if f'' is positive and finite and the step either
    stays on that side or moves by at most ``ANGLE_TOL``, else to that side's
    midpoint. One ``point`` call gives a trial point's value and derivatives;
    a trial within ``ANGLE_TOL`` of x ends the search at the lower of the
    two, a lower point becomes x, a higher one the end on its side. Returns
    the angle, its value, the step count, and whether a step fell to
    ``ANGLE_TOL`` within ``MAX_ITER``.
    """
    h = np.pi / vals.size
    i0 = int(np.argmin(vals))
    x, fx = i0 * h, float(vals[i0])
    lo, hi = x - h, x + h
    _, d1, d2 = map(float, point(x))
    for step in range(1, MAX_ITER + 1):
        if d1 == 0:
            return x, fx, step, True
        far = hi if d1 < 0 else lo
        u = x - d1 / d2 if 0 < d2 < math.inf else math.nan
        if not (abs(u - x) <= ANGLE_TOL or (u - x) * (far - u) > 0):
            u = (x + far) / 2  # no Newton step, or it leaves the side
        fu, e1, e2 = map(float, point(u))
        if abs(u - x) <= ANGLE_TOL:
            return (u, fu, step, True) if fu <= fx else (x, fx, step, True)
        if fu <= fx:
            lo, hi = (x, hi) if u > x else (lo, x)
            x, fx, d1, d2 = u, fu, e1, e2
        elif u > x:
            hi = u
        else:
            lo = u
    return x, fx, MAX_ITER, False


def dqc1_discord(eigphases: np.ndarray, eps: float) -> DiscordResult:
    """Discord of the circuit output for bias ``eps`` and a unitary with the
    given eigenphases, from the closed form in the module docstring.

    The phi search scans ``GRID`` points on [0, pi), then polishes the
    best one with a safeguarded Newton search on the analytic phi-derivatives
    of the bracket, inside the two cells around it, to ``ANGLE_TOL`` in at
    most ``MAX_ITER`` steps; the polish never ends above the grid minimum.
    ``diagnostics`` holds the grid minimum, the Newton step count
    (``refine_nfev``), ``converged`` and ``polish_gain`` (grid minimum less
    the conditional term). ``converged`` means the search met ``ANGLE_TOL``
    inside its two cells, not that the minimum is global: on a 1- to 3-point
    grid a cell can hold several local minima (Haar d = 32 seed 3, eps = 1,
    a 1-point grid ends at 0.5616 bits, not at 0.5436 near phi = 1.36). The
    argmin basis lies on the equator (theta = pi/2).
    """
    lam = np.asarray(eigphases, dtype=float).ravel()
    log_d = math.log2(lam.size)
    point = partial(_bracket_point, lam, eps)
    c = np.cos(lam - (np.arange(GRID) * (np.pi / GRID))[:, None])
    vals = _bracket_value(eps * c, eps * (c.sum(axis=-1) / lam.size), eps == 1)
    phi, best, steps, converged = _newton_polish(point, vals)
    tau = abs(np.exp(1j * lam).mean())
    mi = float(_bias_information(eps) - _bias_information(eps * tau))
    grid_min = log_d + float(vals.min())
    return _search_result(
        MeasurementBasis(np.pi / 2, phi), mi, -best, log_d + best, grid_min, steps, converged
    )


def is_zero_discord(rho: DensityMatrix) -> ZeroDiscordResult:
    """Projective-invariance test: zero discord iff some measurement basis on
    A leaves the state unchanged under projective averaging.

    The smallest Frobenius distance ||rho - Pi_n(rho)||_F over bases and the
    basis that attains it come in closed form from the top eigenpair of
    G_ij = Re Tr(Gamma_i Gamma_j) (module docstring). Since
    ||rho||_F^2 = (||rho_B||_F^2 + tr G) / 2, the squared distance is
    (tr G - lambda_max(G)) / 2: G alone, with the identity part of rho, which
    dephasing keeps, never subtracted. The state is zero discord when that
    distance is at most ``DEFAULT_ZERO_DISCORD_TOL`` (1e-6) times the
    ``scale`` sqrt(tr G / 2): the rule is relative, so an embedded state
    gets one verdict at every polarization alpha down to the embedding's
    rounding floor near alpha = 1e-9 (:mod:`qdiscord.nmr`).
    """
    _, gammas = bloch_blocks(rho)
    g = np.einsum("ibc,jcb->ij", gammas, gammas).real
    w, v = np.linalg.eigh(g)
    trace = np.trace(g)
    dist = math.sqrt(max((trace - w[-1]) / 2, 0.0))
    return ZeroDiscordResult(_measurement_basis(v[:, -1]), dist, math.sqrt(max(trace / 2, 0.0)))


def _series_terms(eps: float) -> int:
    """Fewest Taylor terms N of g whose remainder bound
    2 eps^(2N+2) / ((2N+2)(2N+1) ln 2 (1 - eps^2)) is at most
    2^-53 DEGENERATE_DISCORD eps^2 (module docstring). When no N up to
    ``MAX_SERIES_TERMS`` is (eps above about 0.6445), :class:`ScalingFitError`."""
    x = eps * eps
    tol = 2.0**-53 * DEGENERATE_DISCORD * math.log(2) * (1 - x) / 2
    for n in range(1, MAX_SERIES_TERMS + 1):
        if x**n <= tol * (2 * n + 2) * (2 * n + 1):
            return n
    raise ScalingFitError(
        f"alpha {eps:g} is past the {MAX_SERIES_TERMS}-term series limit (alpha above "
        "about 0.6445): the small-polarization fit does not extrapolate there"
    )


def _even_power_traces(u: np.ndarray, n: int) -> list[complex]:
    """[tau_2, tau_4, ..., tau_2n], tau_m = Tr(U^m) / d, from ceil(n/2) matrix
    products: with V = U^2 and h = ceil(n/2), Tr V^(h+j) = sum(V^h * (V^j)^T)."""
    h = (n + 1) // 2
    powers = [u @ u]
    for _ in range(h - 1):
        powers.append(powers[-1] @ powers[0])
    top, d = powers[-1], u.shape[0]
    return [complex(v.trace()) / d for v in powers] + [
        complex((top * v.T).sum()) / d for v in powers[: n - h]
    ]


class _SeriesTable(NamedTuple):
    """The parts of the series bracket that depend on neither eps nor U, for
    k = 1..N: ``powers`` 2k, ``denominators`` 2k (2k - 1) ln 2, ``outer``
    1 - w_k0, ``weights`` the columns j = 1..N of w_kj = C(2k, k - j) / 4^k,
    each from k = j (w_kj = 0 below), and ``harmonics`` the read-only
    (GRID, N) matrix exp(-2ij phi_g) on the grid phi_g = g pi / GRID."""

    powers: tuple[float, ...]
    denominators: tuple[float, ...]
    outer: tuple[float, ...]
    weights: tuple[tuple[float, ...], ...]
    harmonics: np.ndarray


@lru_cache(maxsize=None)
def _series_table(n: int) -> _SeriesTable:
    """The :class:`_SeriesTable` of ``n`` terms on the ``GRID``-point phi
    scan, built once per n (a changed ``GRID`` needs ``cache_clear()``)."""
    k = range(1, n + 1)
    harmonics = np.exp(-2j * np.outer(np.arange(GRID) * (np.pi / GRID), k))
    harmonics.setflags(write=False)
    return _SeriesTable(
        powers=tuple(2.0 * i for i in k),
        denominators=tuple(2 * i * (2 * i - 1) * math.log(2) for i in k),
        outer=tuple(1 - math.comb(2 * i, i) / 4**i for i in k),
        weights=tuple(tuple(math.comb(2 * i, i - j) / 4**i for i in range(j, n + 1)) for j in k),
        harmonics=harmonics,
    )


def _series_discord(tau1: complex, even: Sequence[complex], eps: float) -> float:
    """Discord of the circuit output at bias ``eps`` from the Taylor series
    of g (module docstring), given tau_1 and ``even`` = [tau_2, tau_4, ...]
    with at least :func:`_series_terms` (eps) entries.

    The bracket is the trigonometric polynomial sum_j Re(d_j e^{-2ij phi})
    of the module docstring. What it needs beyond eps and U, the weights
    w_kj, the denominators of a_k and the grid's harmonics, comes from
    :func:`_series_table`, built once per N; the N coefficients
    d_j are summed in plain Python. Its minimum is found as in
    :func:`dqc1_discord`: a ``GRID`` scan of [0, pi), then
    :func:`_newton_polish` on its exact phi-derivatives, evaluated in plain
    Python.
    """
    table = _series_table(_series_terms(eps))
    r, two_theta = abs(tau1), 2 * cmath.phase(tau1)
    b = [eps**p / den for p, den in zip(table.powers, table.denominators)]
    r2n = [r**p for p in table.powers]
    const = sum(bn * ((1 - rn) * on) for bn, rn, on in zip(b, r2n, table.outer))
    br = [bn * rn for bn, rn in zip(b, r2n)]
    d = [
        2 * (sum(map(mul, br[j - 1:], w)) * cmath.exp(two_theta * j * 1j)
             - sum(map(mul, b[j - 1:], w)) * even[j - 1])
        for j, w in enumerate(table.weights, 1)
    ]
    vals = (table.harmonics @ np.array(d)).real

    def point(phi):
        e, t = cmath.exp(-2j * phi), 1.0
        f, f1, f2 = 0.0, 0.0, 0.0
        for j, dj in enumerate(d, 1):
            t *= e
            z = dj * t
            f, f1, f2 = f + z.real, f1 + 2 * j * z.imag, f2 - 4 * j * j * z.real
        return f, f1, f2

    _, best, _, _ = _newton_polish(point, vals)
    return max(const + best, 0.0)


@dataclass(frozen=True)
class ScalingFit:
    """Small-polarization discord c2 * alpha^2 from the closed form in
    tau_1 and tau_2, with the checks made on it: ``exponent`` is the
    measured log2(D(alpha) / D(alpha/2)) and ``direct`` the discord
    evaluated at alpha, both from the Taylor series of g in at most
    ``MAX_SERIES_TERMS`` terms (module docstring). A degenerate (zero)
    coefficient reports exponent 2 unmeasured."""

    exponent: float
    coefficient: float
    alpha: float
    direct: float

    @property
    def value(self) -> float:
        """Extrapolated discord coefficient * alpha^2."""
        return self.coefficient * self.alpha**2


def fit_polarization_scaling(unitary: np.ndarray, alpha: float = NMR_POLARIZATION) -> ScalingFit:
    """Quadratic small-bias discord c2 * alpha^2 of the circuit output,
    checked against the discord evaluated directly at ``alpha``.

    c2 comes from tau_1 = Tr U / d and tau_2 = Tr U^2 / d (module docstring);
    ``alpha`` must lie in (0, 1]. D(alpha) and D(alpha/2) come from the
    Taylor series of g, which needs Tr U^2, Tr U^4, ..., Tr U^2N for the N
    of :func:`_series_terms` at alpha (at alpha = 1.4e-5, N = 3: two matrix
    products and no eigendecomposition); the series tables that depend on
    neither alpha nor U are built once per (N, ``GRID``) and shared by every
    call (:func:`_series_table`). Past ``MAX_SERIES_TERMS`` terms (alpha above
    about 0.6445, and alpha = 1) :class:`ScalingFitError` is raised before
    any matrix product: the fit has no other route. A c2 at or below
    ``DEGENERATE_DISCORD`` counts as 0 (e.g. U = I or a Pauli product), and
    D(alpha) must then lie within ``DEGENERATE_DISCORD`` of 0. Otherwise
    ``ValueError`` is raised when D(alpha) or D(alpha/2) falls below the
    smallest normal double (for the Jones unitary, alpha below about
    5e-154), and :class:`ScalingFitError` when the measured exponent
    log2(D(alpha) / D(alpha/2)) has |p - 2| >= 0.02, or when c2 * alpha^2
    differs from D(alpha) by more than ``EXTRAPOLATION_RTOL`` relative.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1]")
    inst = dqc1.Dqc1Instance(alpha, unitary)
    u, eps = inst.unitary, inst.epsilon
    even = _even_power_traces(u, _series_terms(eps))
    tau1 = complex(np.trace(u)) / u.shape[0]
    c2 = (1.0 - abs(tau1) ** 2 - abs(even[0] - tau1**2)) / (4 * math.log(2))
    degenerate = c2 <= DEGENERATE_DISCORD
    coefficient = 0.0 if degenerate else float(c2)
    direct = _series_discord(tau1, even, eps)
    if degenerate:
        exponent, tol = 2.0, DEGENERATE_DISCORD
    else:
        half = _series_discord(tau1, even, eps / 2)
        tiny = np.finfo(float).tiny
        if min(direct, half) < tiny:
            raise ValueError(
                f"alpha {alpha:g} is too small: D(alpha) = {direct:.3e} and "
                f"D(alpha/2) = {half:.3e} underflow the double-precision range "
                f"(smallest normal {tiny:.3e})"
            )
        exponent = math.log2(direct / half)
        if not abs(exponent - 2.0) < 0.02:
            raise ScalingFitError(
                f"measured scaling exponent log2(D(alpha)/D(alpha/2)) = {exponent:.4f} "
                f"outside [1.98, 2.02] at alpha={alpha:g}; quadratic extrapolation is "
                "invalid, attempt direct computation"
            )
        tol = EXTRAPOLATION_RTOL * direct
    fit = ScalingFit(exponent, coefficient, eps, direct)
    if abs(fit.value - direct) > tol:
        raise ScalingFitError(
            f"extrapolated discord {fit.value:.6e} and direct value {direct:.6e} at "
            f"alpha={alpha:g} differ by more than {tol:.1e}"
        )
    return fit


def haar_discord_prediction(dim: int = 32, alpha: float = NMR_POLARIZATION) -> float:
    """Haar mean of :func:`haar_discord_survey`'s values to leading order in
    1/d: (1 - 1/d^2 - sqrt(pi/2)/d) alpha^2 / (4 ln 2), 6.78543e-11 at d = 32.

    E|tau_1|^2 = 1/d^2, and Tr U^2 is close to a complex normal with
    E|Tr U^2|^2 = 2 (Diaconis and Shahshahani, J. Appl. Probab. 31A, 49,
    1994), so E|tau_2 - tau_1^2| is about sqrt(pi/2)/d. 20,000-seed surveys
    lie within 1.2 standard errors of it at d = 8 to 32, but it is 1.0% high
    at d = 4 (4.4 standard errors), so a survey below d = 8 is not held to
    it. At d = 2 the discord is identically 0: |tau_1|^2 + |tau_2 - tau_1^2|
    = 1 for every 2 x 2 unitary.
    """
    return (1 - 1 / dim**2 - math.sqrt(math.pi / 2) / dim) * alpha**2 / (4 * math.log(2))


def haar_discord_survey(
    n_seeds: int, dim: int = 32, alpha: float = NMR_POLARIZATION, start_seed: int = 0
) -> np.ndarray:
    """Extrapolated discord for Haar-random unitaries, one value per seed
    from ``start_seed`` on; the CLI runs it at ``NMR_POLARIZATION`` from 0.

    Each value is :func:`fit_polarization_scaling` at ``alpha``, with its
    exponent and direct-value checks: c2 alpha^2, c2 a function of U alone,
    so ``alpha`` rescales every value alike. c2 falls short of the large-system
    asymptote 1 / (4 ln 2) by |tau_1|^2 + |tau_2 - tau_1^2|, whose Haar mean
    is about sqrt(pi/2) / d (module docstring): the dimension-32 mean sits
    about 4% below alpha^2 / (4 ln 2), and the dimension-8 mean about 18%;
    :func:`haar_discord_prediction` is the mean to leading order in 1/d.
    ``n_seeds`` must be at least 1 and ``start_seed`` non-negative.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds {n_seeds} must be at least 1")
    if start_seed < 0:
        raise ValueError(f"start_seed {start_seed} must be non-negative")
    out = np.empty(n_seeds)
    for i in range(n_seeds):
        u = dqc1.haar_random_unitary(dim, start_seed + i)
        out[i] = fit_polarization_scaling(u, alpha=alpha).value
    return out
