"""Dense complex linear algebra and quantum-state primitives.

Everything operates on plain numpy arrays; :class:`DensityMatrix` is a thin
validated wrapper used at module boundaries. Qubit ordering convention: the
leftmost symbol of a Pauli label is the most significant tensor factor (the
top qubit of the circuit diagrams).
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
MAX_QUBITS = 8

# string over {I, X, Y, Z}, one symbol per qubit, leftmost = most significant
PauliLabel = str

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on n >= 2 qubits,
    split into the two subsystems that discord and the correlation matrix
    read: qubit A, the first (most significant) qubit, and B, the other n - 1.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("density matrix must be a square 2-d array")
        if not np.isfinite(entries).all():
            raise ValueError("density matrix has non-finite (NaN or inf) entries")
        dim = entries.shape[0]
        n = dim.bit_length() - 1
        if 2**n != dim:
            raise ValueError(f"dimension {dim} is not a power of 2")
        if n < 2:
            held = "no qubit" if n == 0 else "one qubit"
            raise ValueError(f"dimension {dim} holds {held}, and an A|B state needs at least two")
        dev = np.abs(entries - entries.conj().T).max()
        if dev > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max deviation {dev:.3e}")
        tr = complex(np.trace(entries))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1")
        wmin = float(np.linalg.eigvalsh(entries)[0])
        if wmin < -PSD_TOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {wmin:.3e}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1


def bloch_blocks(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """rho_B and the (3, dB, dB) stack Gamma_i = Tr_A[(sigma_i (+) I) rho]:
    the one place a state is split into qubit A and the rest B.

    Measuring the qubit A along the Bloch vector n leaves the unnormalised
    conditional B operators (rho_B +- n.Gamma)/2, whose traces are the
    outcome probabilities; Tr(Gamma_i B) = Tr(rho sigma_i (+) B).
    """
    db = rho.dim // 2
    r = rho.entries.reshape(2, db, 2, db)
    r00, r01, r10, r11 = r[0, :, 0], r[0, :, 1], r[1, :, 0], r[1, :, 1]
    return r00 + r11, np.stack([r01 + r10, 1j * (r01 - r10), r00 - r11])


def complex_from_parts(spec: dict, what: str) -> np.ndarray:
    """re + 1j im of a JSON {"re", "im"} pair, formed only once both parts are
    finite arrays of one shape (``what`` names the matrix in the refusal)."""
    re, im = (np.asarray(spec[part], dtype=float) for part in ("re", "im"))
    if re.shape != im.shape:
        raise ValueError(f"re/im shapes {re.shape}/{im.shape} differ")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError(f"{what} has non-finite (NaN or inf) entries")
    return re + 1j * im


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a), np.asarray(b))


def entropy_from_eigenvalues(w: np.ndarray) -> float:
    """Shannon entropy in bits of an eigenvalue distribution, 0·log 0 := 0.

    Eigenvalues in [-1e-10, 0) are clipped to 0; anything more negative is
    rejected as a genuinely invalid state rather than numerical noise.
    """
    w = np.asarray(w, dtype=float)
    if w.size and w.min() < -PSD_TOL:
        raise ValueError(f"negative eigenvalue {w.min():.3e} beyond PSD tolerance")
    w = np.clip(w, 0.0, 1.0)
    nz = w[w > 0]
    return float(-(nz * np.log2(nz)).sum())


def pauli_realize(label: PauliLabel) -> np.ndarray:
    """Matrix form of a Pauli string, leftmost symbol most significant, as a
    new array on each call."""
    if not label:
        raise ValueError("empty Pauli label")
    if len(label) > MAX_QUBITS:
        raise ValueError(f"label {label!r} exceeds the {MAX_QUBITS}-qubit cap")
    for ch in label:
        if ch not in PAULI_1Q:
            raise ValueError(f"illegal Pauli symbol {ch!r} in {label!r}")
    m = np.array([[1.0 + 0j]])
    for ch in label:
        m = np.kron(m, PAULI_1Q[ch])
    return m


def pauli_labels(n_qubits: int) -> list[PauliLabel]:
    """All 4^n Pauli strings on n qubits in product order (I < X < Y < Z)."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n_qubits)]


def keyed_rng(seed: int, label: PauliLabel) -> np.random.Generator:
    """``default_rng([seed, crc32(label)])``: the one stream of ``label``
    under ``seed``, so a draw does not depend on the order of the others."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])
