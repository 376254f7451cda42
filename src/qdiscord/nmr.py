"""NMR ensemble model: pseudopure embedding and a noisy expectation-value
measurement emulator.

The physical ensemble state is (1 - alpha) I/2^N + alpha rho_pps where
rho_pps is the unit-trace pseudopure part. Whether the state has zero discord
does not depend on alpha, because projective dephasing leaves the identity
component untouched; the tests check rather than assume this.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from .linalg import DensityMatrix, PauliLabel, complex_from_parts, pauli_realize
from .states import named_state
from .witness import CorrelationMatrix, correlation_matrix

def embed(pps: DensityMatrix, alpha: float) -> DensityMatrix:
    """(1 - alpha) I/2^N + alpha pps, the physical ensemble state."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1]")
    dim = pps.dim
    mixed = (1.0 - alpha) * np.eye(dim) / dim + alpha * pps.entries
    return DensityMatrix(mixed, pps.qubit_partition)


def _measurement_noise(observable: PauliLabel, sigma: float, seed: int) -> float:
    """Gaussian noise of width sigma from a stream keyed by (seed, observable),
    so a reading does not depend on the order in which readings are taken."""
    rng = np.random.default_rng([seed, zlib.crc32(observable.encode())])
    return sigma * rng.standard_normal()


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


def load_ensemble(data: dict | str | Path) -> DensityMatrix:
    """The physical state :func:`embed` (pps, alpha) of an ensemble spec
    {"alpha": a, "pps": <name or {"re", "im"[, "qubit_partition"]}>};
    a pps name is one of the package's named fixtures."""
    if not isinstance(data, dict):
        with open(data) as fh:
            data = json.load(fh)
    try:
        alpha = float(data["alpha"])
        pps_spec = data["pps"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed ensemble spec: {exc}") from exc
    if isinstance(pps_spec, str):
        pps = named_state(pps_spec)
    else:
        try:
            entries = complex_from_parts(pps_spec, "density matrix")
            part = pps_spec.get("qubit_partition")
            if part is None:
                n = entries.shape[0].bit_length() - 1
                part = (1, n - 1) if n > 1 else (1,)
            pps = DensityMatrix(entries, tuple(part))
        except (KeyError, TypeError, IndexError, OverflowError) as exc:
            raise ValueError(f"malformed pps spec: {exc}") from exc
    return embed(pps, alpha)
