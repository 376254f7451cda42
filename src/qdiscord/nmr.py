"""NMR ensemble model: pseudopure embedding and a noisy expectation-value
measurement emulator.

The physical ensemble state is (1 - alpha) I/2^N + alpha rho_pps where
rho_pps is the unit-trace pseudopure part. Projective dephasing leaves the
identity component untouched, so the distance to the closest dephased state
and its scale sqrt(tr G / 2) are both alpha times those of rho_pps, and the
zero-discord verdict, their ratio against 1e-6
(:func:`qdiscord.discord.is_zero_discord`), does not depend on alpha. Its
floor is the embedding's rounding, about 2^-52 / alpha of rho_pps: below
alpha of about 1e-9 classical states read discordant (ratio up to 2.8e-6 at
alpha = 1e-10). The dense discord value fails sooner: 0.0 at alpha = 1e-8 on
final-dqc1, where c2 alpha^2 = 2.75e-17. The tests check rather than assume
the invariance.
"""

from __future__ import annotations

import numbers

import numpy as np

from .linalg import DensityMatrix, PauliLabel, complex_from_parts, keyed_rng, pauli_realize
from .states import named_state
from .witness import CorrelationMatrix, correlation_matrix

def embed(pps: DensityMatrix, alpha: float) -> DensityMatrix:
    """(1 - alpha) I/2^N + alpha pps, the physical ensemble state."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1]")
    dim = pps.dim
    mixed = (1.0 - alpha) * np.eye(dim) / dim + alpha * pps.entries
    return DensityMatrix(mixed)


def _measurement_noise(observable: PauliLabel, sigma: float, seed: int) -> float:
    """Gaussian noise of width sigma from a stream keyed by (seed, observable),
    so a reading does not depend on the order in which readings are taken."""
    return sigma * keyed_rng(seed, observable).standard_normal()


def simulate_measurement(
    rho: DensityMatrix, observable: PauliLabel, sigma: float, seed: int
) -> tuple[float, float]:
    """Tr(rho P) plus Gaussian noise of width sigma; echoes sigma back.

    The noise stream is derived from (seed, observable) so repeated calls
    are deterministic and independent of evaluation order.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if len(observable) != rho.n_qubits:
        raise ValueError(
            f"observable {observable!r} does not match {rho.n_qubits} qubits"
        )
    value = float(np.einsum("ij,ji->", rho.entries, pauli_realize(observable)).real)
    if sigma > 0:
        value += _measurement_noise(observable, sigma, seed)
    return value, sigma


def measured_correlation_matrix(rho: DensityMatrix, sigma: float, seed: int):
    """Correlation matrix as a synthetic experiment would report it.

    The sigmas are :meth:`CorrelationMatrix.with_uniform_sigmas` of the
    exact :func:`correlation_matrix` (``sigma``, the identity entry 0), and
    every entry Tr(rho A_n (+) B_m) whose sigma is above 0 gets the noise
    :func:`simulate_measurement` would add to that observable. With sigma 0
    the values are exact but still annotated with zero uncertainties.
    """
    exact = correlation_matrix(rho).with_uniform_sigmas(sigma)
    rows, cols = exact.row_labels, exact.col_labels
    values = np.array(exact.values)
    for i, j in zip(*np.nonzero(exact.sigmas > 0)):
        values[i, j] += _measurement_noise(rows[i] + cols[j], sigma, seed)
    return CorrelationMatrix(rows, cols, values, exact.sigmas)


def load_ensemble(data: dict) -> DensityMatrix:
    """The physical state :func:`embed` (pps, alpha) of a parsed ensemble
    document {"alpha": a, "pps": <name or {"re", "im"}>}; a pps name is one of
    the package's named fixtures, an inline pps has no key but "re" and "im"
    (its first qubit is A, the rest B), and alpha is a number, not a bool."""
    try:
        alpha = data["alpha"]
        if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
            raise TypeError(f"alpha {alpha!r} is not a number")
        alpha = float(alpha)
        pps_spec = data["pps"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed ensemble spec: {exc}") from exc
    if isinstance(pps_spec, str):
        pps = named_state(pps_spec)
    else:
        try:
            entries = complex_from_parts(pps_spec, "density matrix")
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed pps spec: {exc}") from exc
        extra = sorted(set(pps_spec) - {"re", "im"})
        if extra:
            raise ValueError(
                f"malformed pps spec: key {extra[0]!r} is not read; an inline pps is "
                '{"re", "im"} alone, with qubit A its first qubit'
            )
        pps = DensityMatrix(entries)
    return embed(pps, alpha)
