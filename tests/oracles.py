"""Brute-force references the library's closed forms are checked against."""

import zlib

import numpy as np

from qdiscord import CorrelationMatrix, DensityMatrix, MeasurementBasis, pauli_realize
from qdiscord.discord import ANGLE_TOL, MAX_ITER, NULL_OUTCOME_P
from qdiscord.linalg import PAULI_1Q
from qdiscord.witness import SCAN_RESAMPLES


def bloch_vector(basis: MeasurementBasis) -> np.ndarray:
    """The unit Bloch direction n of the basis angles (theta, phi)."""
    st = np.sin(basis.theta)
    return np.array([st * np.cos(basis.phi), st * np.sin(basis.phi), np.cos(basis.theta)])


def projectors(basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """The rank-1 projectors (I +- n.sigma)/2 of a qubit measurement."""
    n = bloch_vector(basis)
    ns = n[0] * PAULI_1Q["X"] + n[1] * PAULI_1Q["Y"] + n[2] * PAULI_1Q["Z"]
    eye = np.eye(2)
    return (eye + ns) / 2, (eye - ns) / 2


def projective_average(rho: DensityMatrix, basis: MeasurementBasis) -> DensityMatrix:
    """sum_k (E_k (+) I) rho (E_k (+) I): dephasing of the qubit A in the given
    basis, with the projectors built as explicit matrices."""
    db = rho.dim // 2
    out = np.zeros_like(rho.entries)
    eye = np.eye(db)
    for e in projectors(basis):
        ei = np.kron(e, eye)
        out = out + ei @ rho.entries @ ei
    out = (out + out.conj().T) / 2
    return DensityMatrix(out)


def _entropy_bits(m: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


def _theta_phi_conditional_entropy(rho: DensityMatrix, thetas, phis) -> np.ndarray:
    """sum_k p_k H(rho_{B|k}) in bits for each Bloch direction (theta, phi),
    with the conditional blocks Tr_A[(E_k (+) I) rho] of the explicit
    projectors E_k = (I +- n.sigma)/2."""
    db = rho.dim // 2
    t = np.atleast_1d(np.asarray(thetas, dtype=float)).ravel()
    p = np.atleast_1d(np.asarray(phis, dtype=float)).ravel()
    n = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
    ns = np.einsum("gi,iab->gab", n, np.stack([PAULI_1Q[s] for s in "XYZ"]))
    proj = np.stack([np.eye(2) + ns, np.eye(2) - ns], axis=1) / 2
    blocks = np.einsum("gsac,ciaj->gsij", proj, rho.entries.reshape(2, db, 2, db))
    w = np.linalg.eigvalsh(blocks)  # (G, 2, dB); sums to p_k per outcome
    pk = np.clip(w.sum(axis=-1), 0.0, None)
    w = np.clip(w, 0.0, None)
    # p_k H(rho_{B|k}) = -sum_i w log2 w + p_k log2 p_k; null outcomes
    # (p_k below NULL_OUTCOME_P) contribute 0 through the 0 log 0 limit.
    wl = np.where(w > 0, w * np.log2(np.where(w > 0, w, 1.0)), 0.0).sum(axis=-1)
    pl = np.where(pk > NULL_OUTCOME_P, pk * np.log2(np.where(pk > 0, pk, 1.0)), 0.0)
    return (-wl + pl).sum(axis=1)


def nelder_mead_discord(rho: DensityMatrix, grid: int = 64) -> dict:
    """The dense discord search that ``discord`` replaced: a (theta, phi) grid
    of ``grid`` points per angle over the whole sphere, then a Nelder-Mead
    polish of the best cell to ``ANGLE_TOL``. Returns the conditional term,
    the discord, the mutual information and the classical correlations, each
    entropy from this module's own partial traces."""
    from scipy.optimize import minimize

    tt, pp = np.meshgrid(
        np.linspace(0.0, np.pi, grid),
        np.linspace(0.0, 2 * np.pi, grid, endpoint=False),
        indexing="ij",
    )
    vals = _theta_phi_conditional_entropy(rho, tt.ravel(), pp.ravel())
    i0 = int(np.argmin(vals))
    x0 = np.array([tt.ravel()[i0], pp.ravel()[i0]])
    h = np.pi / grid
    res = minimize(
        lambda x: float(_theta_phi_conditional_entropy(rho, x[0], x[1])[0]),
        x0,
        method="Nelder-Mead",
        options=dict(
            xatol=ANGLE_TOL,
            fatol=1e-15,
            maxiter=MAX_ITER,
            initial_simplex=np.array([x0, x0 + [h, 0.0], x0 + [0.0, h]]),
        ),
    )
    cond = min(float(res.fun), float(vals[i0]))
    db = rho.dim // 2
    r4 = rho.entries.reshape(2, db, 2, db)
    h_b = _entropy_bits(np.einsum("ibic->bc", r4))
    mi = _entropy_bits(np.einsum("ibjb->ij", r4)) + h_b - _entropy_bits(rho.entries)
    cc = h_b - cond
    return dict(
        conditional_term=cond,
        discord=max(mi - cc, 0.0),
        mutual_information=mi,
        classical_correlations=cc,
    )


def partial_transpose(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Partial transpose of a bipartite operator over subsystem A (the PPT
    test: a state whose partial transpose has a negative eigenvalue is
    entangled)."""
    da, db = dims
    return np.asarray(m).reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)


def bias_information(x) -> np.ndarray:
    """g(x) = 1 - h2((1 + x)/2) in bits. Below |x| = 1/2 it is the Taylor
    series sum_n x^(2n) / (2n (2n - 1) ln 2) to 30 terms by Horner's rule, a
    sum of positive terms that keeps full relative precision at the
    |x| ~ 1e-5 of NMR polarizations (the first term left out is below 2^-60
    of the sum). From 1/2 up it is ((1 + x) ln(1 + x) + (1 - x) ln(1 - x)) /
    (2 ln 2) with 0 ln 0 = 0, whose two terms no longer cancel there."""
    from scipy.special import xlog1py

    x = np.asarray(x, dtype=float)
    y = np.minimum(x * x, 0.25)
    s = np.zeros_like(y)
    for n in range(30, 0, -1):
        s = 1 / (2 * n * (2 * n - 1)) + y * s
    closed = (xlog1py(1 + x, x) + xlog1py(1 - x, -x)) / (2 * np.log(2))
    return np.where(np.abs(x) < 0.5, y * s / np.log(2), closed)


def dqc1_bracket(eigphases: np.ndarray, eps: float, phis) -> np.ndarray:
    """g(eps mean_k c_k) - mean_k g(eps c_k) with c_k = cos(lambda_k - phi),
    at each angle of ``phis``: the phi-dependent part of the circuit-output
    conditional entropy (the ``discord`` module docstring)."""
    c = np.cos(np.subtract.outer(np.atleast_1d(np.asarray(phis, dtype=float)), eigphases))
    return bias_information(eps * np.mean(c, axis=1)) - np.mean(bias_information(eps * c), axis=1)


def bounded_brent_dqc1_discord(eigphases: np.ndarray, eps: float, grid: int = 64) -> float:
    """``dqc1_discord``'s value with its phi polish done by scipy's bounded
    Brent search over the two grid cells around the grid minimum, to
    ``ANGLE_TOL`` in at most ``MAX_ITER`` iterations. The bracket and g are
    this module's own, so the oracle shares no arithmetic with the engine."""
    from scipy.optimize import minimize_scalar

    lam = np.asarray(eigphases, dtype=float).ravel()
    h = np.pi / grid
    phis = np.arange(grid) * h
    vals = dqc1_bracket(lam, eps, phis)
    i0 = int(np.argmin(vals))
    res = minimize_scalar(
        lambda p: float(dqc1_bracket(lam, eps, p)[0]),
        bounds=(phis[i0] - h, phis[i0] + h),
        method="bounded",
        options=dict(xatol=ANGLE_TOL, maxiter=MAX_ITER),
    )
    best = min(float(res.fun), float(vals[i0]))
    tau = abs(np.exp(1j * lam).mean())
    mi = float(bias_information(eps) - bias_information(eps * tau))
    return max(mi + best, 0.0)


def reconstruct_state(corr: CorrelationMatrix) -> np.ndarray:
    """Pauli resummation 2^-N sum r_nm A_n (+) B_m of a full correlation
    matrix, the inverse of ``correlation_matrix``."""
    nb = len(corr.col_labels[0])  # a row label is one symbol, of qubit A
    if len(corr.row_labels) != 4 or len(corr.col_labels) != 4**nb:
        raise ValueError("reconstruction needs the full Pauli bases on both sides")
    a_stack = np.stack([pauli_realize(lab) for lab in corr.row_labels])
    b_stack = np.stack([pauli_realize(lab) for lab in corr.col_labels])
    out = np.einsum("rs,rij,sbc->ibjc", corr.values, a_stack, b_stack, optimize=True)
    d = 2 ** (1 + nb)
    return out.reshape(d, d) / d


def rank_lower_bound(corr: CorrelationMatrix | np.ndarray, tau: float) -> int:
    """Number of exact singular values above tau; a lower bound on the rank."""
    values = corr.values if isinstance(corr, CorrelationMatrix) else np.asarray(corr)
    sv = np.linalg.svd(values, compute_uv=False)
    return int((sv > tau).sum())


def svd_combination_scan(corr: CorrelationMatrix, n_combos: int, seed: int) -> np.ndarray:
    """``column_combination_scan``'s samples from one batched SVD of the
    perturbed 4-column submatrices: the same combinations from
    ``default_rng(seed)``, and slot k's noise from the stream keyed by
    ``f"combination slot {k}"``, but no Gram matrices."""
    rng = np.random.default_rng(seed)
    identity = next(j for j, c in enumerate(corr.col_labels) if set(c) == {"I"})
    others = np.array([j for j in range(len(corr.col_labels)) if j != identity])
    picks = np.stack([
        np.concatenate(([identity], rng.choice(others, size=3, replace=False)))
        for _ in range(n_combos)
    ])
    picks = np.repeat(picks, SCAN_RESAMPLES, axis=0)  # (n_samples, 4)
    noise = np.stack([
        np.random.default_rng([seed, zlib.crc32(f"combination slot {k}".encode())])
        .standard_normal((len(picks), len(corr.row_labels)))
        for k in range(4)
    ], axis=-1)
    values = corr.values[:, picks].transpose(1, 0, 2)  # (n_samples, rows, 4)
    sigmas = corr.sigmas[:, picks].transpose(1, 0, 2)
    return np.linalg.svd(values + noise * sigmas, compute_uv=False)
