"""Exact construction and simulation of the one-qubit-polarized trace-estimation circuit.

The register is one top qubit with ground-state bias epsilon followed by n
maximally mixed qubits. A Hadamard on the top qubit and a controlled-U (firing
on top-qubit state |1>) leave <X(+)I..I> + i <Y(+)I..I> equal to
epsilon * Tr(U) / 2^n.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_QUBITS, DensityMatrix, PAULI_1Q, bloch_blocks, complex_from_parts, tensor

UNITARITY_TOL = 1e-10
# the circuit adds one clean qubit to the log2(d) mixed ones
MAX_HAAR_DIM = 2 ** (MAX_QUBITS - 1)


@dataclass(frozen=True)
class Dqc1Instance:
    """Top-qubit bias epsilon plus the target unitary on the mixed register."""

    epsilon: float
    unitary: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon {self.epsilon} outside [0, 1]")
        u = np.array(self.unitary, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("unitary must be square")
        if not np.isfinite(u).all():
            raise ValueError("unitary has non-finite (NaN or inf) entries")
        d = u.shape[0]
        n = d.bit_length() - 1
        if d < 2:
            raise ValueError(f"unitary dimension {d} leaves no mixed qubit: need at least 2")
        if 2**n != d:
            raise ValueError(f"unitary dimension {d} is not a power of 2")
        if 1 + n > MAX_QUBITS:
            raise ValueError(f"1 + {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
        dev = np.abs(u.conj().T @ u - np.eye(d)).max()
        if dev > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: max |U†U - I| = {dev:.3e}")
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def n(self) -> int:
        """Number of maximally mixed qubits."""
        return self.unitary.shape[0].bit_length() - 1


def hadamard() -> np.ndarray:
    return (PAULI_1Q["X"] + PAULI_1Q["Z"]) / np.sqrt(2)


def controlled(u: np.ndarray) -> np.ndarray:
    """|0><0| (+) I + |1><1| (+) U, control on the top (most significant) qubit."""
    d = u.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = np.eye(d)
    out[d:, d:] = u
    return out


def input_state(inst: Dqc1Instance) -> DensityMatrix:
    """((I + eps Z)/2) (+) I/2^n."""
    top = (PAULI_1Q["I"] + inst.epsilon * PAULI_1Q["Z"]) / 2
    db = inst.unitary.shape[0]
    return DensityMatrix(tensor(top, np.eye(db) / db))


def output_state(inst: Dqc1Instance) -> DensityMatrix:
    """State after Hadamard on the top qubit followed by controlled-U,
    computed by conjugating the input with the circuit; it equals
    (I(+)I + eps(|0><1|(+)U† + |1><0|(+)U)) / 2^(n+1)."""
    db = inst.unitary.shape[0]
    circuit = controlled(inst.unitary) @ tensor(hadamard(), np.eye(db))
    rho = circuit @ input_state(inst).entries @ circuit.conj().T
    return DensityMatrix(rho)


def trace_estimate(inst: Dqc1Instance) -> complex:
    """<X(+)I..I> + i <Y(+)I..I> on the output state, Tr Gamma_x + i Tr Gamma_y
    of :func:`qdiscord.linalg.bloch_blocks`; equals eps Tr(U)/2^n."""
    _, gammas = bloch_blocks(output_state(inst))
    re, im = np.trace(gammas[:2], axis1=1, axis2=2).real
    return complex(re, im)


def jones_unitary() -> np.ndarray:
    """diag(a, a, b, 1, a, b, 1, 1) with a = -(e^{-i3pi/5})^4, b = (e^{-i3pi/5})^8."""
    w = np.exp(-3j * np.pi / 5)
    a = -(w**4)
    b = w**8
    return np.diag([a, a, b, 1, a, b, 1, 1]).astype(complex)


def haar_random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix with the
    R-diagonal phases fixed (Mezzadri construction)."""
    if not 1 <= d <= MAX_HAAR_DIM:
        raise ValueError(f"dimension {d} outside [1, {MAX_HAAR_DIM}]")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def unitary_from_dict(data: dict) -> np.ndarray:
    """Parse {"dim": d, "re": [[...]], "im": [[...]]}, d an integer: a float,
    string or bool is refused, not truncated or read as 1."""
    try:
        d = data["dim"]
        if isinstance(d, bool) or not isinstance(d, numbers.Integral):
            raise ValueError(f"malformed unitary spec: dim {d!r} is not an integer")
        u = complex_from_parts(data, "unitary")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed unitary spec: {exc}") from exc
    if u.shape != (d, d):
        raise ValueError(f"re/im shape {u.shape} does not match dim {d}")
    return u
