"""Exact construction and simulation of the one-qubit-polarized trace-estimation circuit.

The register is one top qubit with ground-state bias epsilon followed by n
maximally mixed qubits. A Hadamard on the top qubit and a controlled-U (firing
on top-qubit state |1>) leave <X(+)I..I> + i <Y(+)I..I> equal to
epsilon * Tr(U) / 2^n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import MAX_QUBITS, DensityMatrix, PAULI_1Q, complex_from_parts, pauli_realize, tensor

UNITARITY_TOL = 1e-10
MAX_HAAR_DIM = 256


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
        if d < 2 or 2**n != d:
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

    @property
    def eigphases(self) -> np.ndarray:
        """Eigenphases of U in (-pi, pi], the input of the discord closed form."""
        return np.angle(np.linalg.eigvals(self.unitary))


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
    return DensityMatrix(tensor(top, np.eye(db) / db), (1, inst.n))


def output_state(inst: Dqc1Instance) -> DensityMatrix:
    """State after Hadamard on the top qubit followed by controlled-U,
    computed by conjugating the input with the circuit; it equals
    (I(+)I + eps(|0><1|(+)U† + |1><0|(+)U)) / 2^(n+1)."""
    db = inst.unitary.shape[0]
    circuit = controlled(inst.unitary) @ tensor(hadamard(), np.eye(db))
    rho = circuit @ input_state(inst).entries @ circuit.conj().T
    return DensityMatrix(rho, (1, inst.n))


def trace_estimate(inst: Dqc1Instance) -> complex:
    """<X(+)I..I> + i <Y(+)I..I> on the output state; equals eps Tr(U)/2^n."""
    rho = output_state(inst).entries
    n = inst.n
    x = pauli_realize("X" + "I" * n)
    y = pauli_realize("Y" + "I" * n)
    re = np.einsum("ij,ji->", rho, x).real
    im = np.einsum("ij,ji->", rho, y).real
    return complex(re + 1j * im)


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
        raise ValueError(f"dimension must be in [1, {MAX_HAAR_DIM}]")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def unitary_from_dict(data: dict) -> np.ndarray:
    """Parse {"dim": d, "re": [[...]], "im": [[...]]}."""
    try:
        d = int(data["dim"])
        u = complex_from_parts(data, "unitary")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed unitary spec: {exc}") from exc
    if u.shape != (d, d):
        raise ValueError(f"re/im shape {u.shape} does not match dim {d}")
    return u


def load_unitary_json(path: str | Path) -> np.ndarray:
    with open(path) as fh:
        return unitary_from_dict(json.load(fh))
