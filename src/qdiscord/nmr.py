"""NMR ensemble model: Boltzmann polarization, pseudopure embedding, and a
noisy expectation-value measurement emulator.

The physical ensemble state is (1 - alpha) I/2^N + alpha rho_pps where
rho_pps is the unit-trace pseudopure part. Whether the state has zero discord
does not depend on alpha, because projective dephasing leaves the identity
component untouched; :func:`verdict_polarization_invariance` checks rather
than assumes this.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .discord import is_zero_discord
from .linalg import DensityMatrix, PauliLabel, pauli_realize

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


def embed(pps: DensityMatrix, alpha: float) -> DensityMatrix:
    """(1 - alpha) I/2^N + alpha pps, the physical ensemble state."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1]")
    dim = pps.dim
    mixed = (1.0 - alpha) * np.eye(dim) / dim + alpha * pps.entries
    return DensityMatrix(mixed, pps.qubit_partition)


@dataclass(frozen=True)
class NmrEnsemble:
    """Polarization plus the pseudopure part it dilutes."""

    alpha: float
    pps: DensityMatrix

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside (0, 1]")

    @property
    def n_qubits(self) -> int:
        return self.pps.n_qubits

    def physical_state(self) -> DensityMatrix:
        return embed(self.pps, self.alpha)


def verdict_polarization_invariance(pps: DensityMatrix, alphas: list[float], tol: float = 1e-7) -> bool:
    """True iff the zero-discord verdict of the embedded state agrees with
    that of the pseudopure part across every listed polarization."""
    reference = is_zero_discord(pps, tol=tol).is_zero
    return all(is_zero_discord(embed(pps, a), tol=tol).is_zero == reference for a in alphas)


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
        rng = np.random.default_rng([seed, zlib.crc32(observable.encode())])
        value += sigma * rng.standard_normal()
    return value, sigma


def measured_correlation_matrix(
    rho: DensityMatrix, sigma: float, seed: int, dims: tuple[int, int] | None = None
):
    """Correlation matrix as a synthetic experiment would report it.

    Every non-identity entry is read out through :func:`simulate_measurement`
    with uncertainty ``sigma`` (the identity entry stays exactly 1 with sigma
    0); with sigma 0 the values are exact but still annotated with zero
    uncertainties.
    """
    from .witness import CorrelationMatrix, correlation_matrix

    exact = correlation_matrix(rho, dims)
    values = np.array(exact.values)
    sigmas = np.full(values.shape, float(sigma))
    for i, row in enumerate(exact.rows):
        for j, col in enumerate(exact.cols):
            if set(row + col) == {"I"}:
                sigmas[i, j] = 0.0
                continue
            if sigma > 0:
                values[i, j], _ = simulate_measurement(rho, row + col, sigma, seed)
    return CorrelationMatrix(exact.rows, exact.cols, values, sigmas)


def load_ensemble(data: dict | str | Path, named_states=None) -> NmrEnsemble:
    """Parse {"alpha": a, "pps": <name or {"re", "im"[, "qubit_partition"]}>}.

    ``named_states`` maps fixture names to states; it defaults to the named
    fixtures shipped with the package.
    """
    if not isinstance(data, dict):
        with open(data) as fh:
            data = json.load(fh)
    try:
        alpha = float(data["alpha"])
        pps_spec = data["pps"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed ensemble spec: {exc}") from exc
    if isinstance(pps_spec, str):
        if named_states is None:
            from .states import named_state as named_states
        pps = named_states(pps_spec)
    else:
        try:
            entries = np.asarray(pps_spec["re"], dtype=float) + 1j * np.asarray(
                pps_spec["im"], dtype=float
            )
            part = pps_spec.get("qubit_partition")
            if part is None:
                n = entries.shape[0].bit_length() - 1
                part = (1, n - 1) if n > 1 else (1,)
            pps = DensityMatrix(entries, tuple(part))
        except (KeyError, TypeError, IndexError, OverflowError) as exc:
            raise ValueError(f"malformed pps spec: {exc}") from exc
    return NmrEnsemble(alpha, pps)
