"""Test helpers: random states, the Boltzmann bias, column selection, the
JSON form of a correlation matrix and the full Monte Carlo distribution of
one."""

from typing import Sequence

import numpy as np
import pytest

from qdiscord import (
    CorrelationMatrix,
    DensityMatrix,
    PauliLabel,
    SingularValueDistribution,
    embed,
    haar_random_unitary,
    is_zero_discord,
)
from qdiscord.witness import _check_bin_width, _GramFold

# CODATA 2018 (exact in the 2019 SI): hbar = h/2pi with h = 6.62607015e-34 J s,
# k_B = 1.380649e-23 J/K.
HBAR = 1.054571817e-34
K_B = 1.380649e-23


def boltzmann_polarization(gamma: float, b0: float, temperature: float) -> float:
    """Thermal ground-state bias hbar gamma B0 / (2 k_B T).

    gamma is the gyromagnetic ratio in rad s^-1 T^-1, b0 the static field in
    tesla, temperature in kelvin.
    """
    if gamma <= 0 or temperature <= 0 or b0 < 0:
        raise ValueError("gamma and temperature must be positive, b0 non-negative")
    return HBAR * gamma * b0 / (2 * K_B * temperature)


def verdict_polarization_invariance(pps: DensityMatrix, alphas: list[float]) -> bool:
    """True iff the zero-discord verdict of the embedded state agrees with
    that of the pseudopure part across every listed polarization."""
    reference = is_zero_discord(pps).is_zero
    return all(is_zero_discord(embed(pps, a)).is_zero == reference for a in alphas)


def random_density_matrix(qubit_partition: Sequence[int], seed: int) -> DensityMatrix:
    """Ginibre-induced random state: G G† normalized, G complex Gaussian."""
    part = tuple(int(k) for k in qubit_partition)
    dim = 2 ** sum(part)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho, part)


def extract_columns(corr: CorrelationMatrix, labels: Sequence[PauliLabel]) -> CorrelationMatrix:
    """Truncated matrix keeping all rows and the selected columns (with sigmas)."""
    unknown = [lab for lab in labels if lab not in corr.col_labels]
    if unknown:
        raise ValueError(f"unknown column label {unknown[0]!r}")
    idx = [corr.col_labels.index(lab) for lab in labels]
    sig = None if corr.sigmas is None else corr.sigmas[:, idx]
    return CorrelationMatrix(corr.row_labels, tuple(labels), corr.values[:, idx], sig)


def matrix_document(corr: CorrelationMatrix) -> dict:
    """The JSON object ``CorrelationMatrix.load`` reads back as ``corr``."""
    out = {
        "rows": list(corr.row_labels),
        "cols": list(corr.col_labels),
        "values": corr.values.tolist(),
    }
    if corr.sigmas is not None:
        out["sigmas"] = corr.sigmas.tolist()
    return out


def monte_carlo_svd(
    corr: CorrelationMatrix, n_samples: int, seed: int, bin_width: float = 0.005
) -> SingularValueDistribution:
    """Singular values of every Monte Carlo sample of all of ``corr``'s
    columns, folded in their given order: the distribution
    ``witness_procedure`` checks after acquiring the same columns, since each
    column's noise is keyed by ``seed`` and its label."""
    _check_bin_width(bin_width)
    if corr.sigmas is None:
        raise ValueError("correlation matrix carries no sigmas; Monte Carlo needs them")
    fold = _GramFold(len(corr.row_labels), n_samples, seed)
    for j, label in enumerate(corr.col_labels):
        fold.add(label, corr.values[:, j], corr.sigmas[:, j])
    return fold.distribution(bin_width)


def random_classical_quantum_state(n_b_qubits: int, seed: int) -> DensityMatrix:
    """rho = sum_k q_k |k><k|_A (+) sigma_k with {|k>} a random orthonormal
    A basis: zero discord by construction."""
    rng = np.random.default_rng(seed)
    ua = haar_random_unitary(2, seed)
    q = rng.dirichlet([2.0, 2.0])
    db = 2**n_b_qubits
    rho = np.zeros((2 * db, 2 * db), dtype=complex)
    for k in range(2):
        vec = ua[:, k]
        proj = np.outer(vec, vec.conj())
        sigma = random_density_matrix((n_b_qubits,), seed=10_000 + 7 * seed + k).entries
        rho += q[k] * np.kron(proj, sigma)
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho, (1, n_b_qubits))


def random_product_state(n_b_qubits: int, seed: int) -> DensityMatrix:
    a = random_density_matrix((1,), seed=seed).entries
    b = random_density_matrix((n_b_qubits,), seed=seed + 500_000).entries
    return DensityMatrix(np.kron(a, b), (1, n_b_qubits))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
