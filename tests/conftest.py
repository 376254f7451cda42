"""Test helpers: random states, the Boltzmann bias, column selection, the
JSON form of a correlation matrix, one whose Gram trace overflows, and the
full Monte Carlo distribution of one."""

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
    pauli_labels,
)
from qdiscord.witness import _GramFold

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


def random_state(n_qubits: int, seed: int) -> np.ndarray:
    """Ginibre-induced random state: G G† normalized, G complex Gaussian."""
    dim = 2**n_qubits
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2


def random_density_matrix(n_qubits: int, seed: int) -> DensityMatrix:
    """:func:`random_state` as a :class:`DensityMatrix`: qubit A and n - 1 qubits B."""
    return DensityMatrix(random_state(n_qubits, seed))


def extract_columns(corr: CorrelationMatrix, labels: Sequence[PauliLabel]) -> CorrelationMatrix:
    """Truncated matrix keeping all rows and the selected columns (with sigmas)."""
    unknown = [lab for lab in labels if lab not in corr.col_labels]
    if unknown:
        raise ValueError(f"unknown column label {unknown[0]!r}")
    idx = [corr.col_labels.index(lab) for lab in labels]
    return CorrelationMatrix(corr.row_labels, tuple(labels), corr.values[:, idx], corr.sigmas[:, idx])


def matrix_document(corr: CorrelationMatrix) -> dict:
    """The JSON object ``CorrelationMatrix.from_dict`` reads back as ``corr``."""
    return {
        "rows": list(corr.row_labels),
        "cols": list(corr.col_labels),
        "values": corr.values.tolist(),
        "sigmas": corr.sigmas.tolist(),
    }


def overflowing_trace_matrix() -> CorrelationMatrix:
    """Four rows, each with one entry of sqrt(max float / 4) in its own column
    of the first four, then four columns of zeros, and noise of 1e-3 that much
    on every entry: each Gram entry stays finite, but once the four large
    entries are in, tr(G) overflows in about half the samples."""
    big = np.sqrt(np.finfo(float).max / 4)
    values = np.hstack([np.eye(4) * big, np.zeros((4, 4))])
    return CorrelationMatrix(
        ("I", "X", "Y", "Z"), pauli_labels(2)[1:9], values, np.full((4, 8), 1e-3 * big)
    )


def monte_carlo_svd(corr: CorrelationMatrix, n_samples: int, seed: int) -> SingularValueDistribution:
    """Singular values of every Monte Carlo sample of all of ``corr``'s
    columns, folded in their given order: the distribution
    ``witness_procedure`` checks after acquiring the same columns, since each
    column's noise is keyed by ``seed`` and its label."""
    fold = _GramFold(len(corr.row_labels), n_samples, seed)
    for j, label in enumerate(corr.col_labels):
        fold.add(label, corr.values[:, j], corr.sigmas[:, j])
    return fold.distribution()


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
        sigma = random_state(n_b_qubits, seed=10_000 + 7 * seed + k)
        rho += q[k] * np.kron(proj, sigma)
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho)


def random_product_state(n_b_qubits: int, seed: int) -> DensityMatrix:
    a = random_state(1, seed=seed)
    b = random_state(n_b_qubits, seed=seed + 500_000)
    return DensityMatrix(np.kron(a, b))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
