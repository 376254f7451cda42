"""Dense complex linear algebra and quantum-state primitives.

Everything operates on plain numpy arrays; :class:`DensityMatrix` is a thin
validated wrapper used at module boundaries. Qubit ordering convention: the
leftmost symbol of a Pauli label is the most significant tensor factor (the
top qubit of the circuit diagrams).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a qubit register.

    ``qubit_partition`` records how the register splits into subsystems
    (qubit counts per block); it defaults to one block per qubit.
    """

    entries: np.ndarray
    qubit_partition: tuple[int, ...] | None = None

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("density matrix must be a square 2-d array")
        if not np.isfinite(entries).all():
            raise ValueError("density matrix has non-finite (NaN or inf) entries")
        dim = entries.shape[0]
        n = dim.bit_length() - 1
        if dim < 2 or 2**n != dim:
            raise ValueError(f"dimension {dim} is not a power of 2")
        part = self.qubit_partition
        part = (1,) * n if part is None else tuple(int(k) for k in part)
        if any(k <= 0 for k in part) or sum(part) != n:
            raise ValueError(f"qubit partition {part} inconsistent with {n} qubits")
        dev = np.abs(entries - entries.conj().T).max()
        if dev > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max deviation {dev:.3e}")
        tr = complex(np.trace(entries))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1")
        wmin = float(np.linalg.eigvalsh(entries)[0])
        if wmin < -PSD_TOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {wmin:.3e}")
        object.__setattr__(self, "entries", _readonly(entries))
        object.__setattr__(self, "qubit_partition", part)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_qubits(self) -> int:
        return sum(self.qubit_partition)

    @property
    def subsystem_dims(self) -> tuple[int, ...]:
        return tuple(2**k for k in self.qubit_partition)

    @property
    def bipartite_dims(self) -> tuple[int, int]:
        """(d_A, d_B) of the A|B split that discord and the correlation
        matrix use; only a state with exactly two blocks has one."""
        if len(self.qubit_partition) != 2:
            raise ValueError("state has no bipartite split")
        da, db = self.subsystem_dims
        return da, db


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


@lru_cache(maxsize=4096)
def _pauli_realize_cached(label: str) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for ch in label:
        m = np.kron(m, PAULI_1Q[ch])
    return _readonly(m)


def pauli_realize(label: PauliLabel) -> np.ndarray:
    """Matrix form of a Pauli string, leftmost symbol most significant.

    Returns a cached read-only array; copy before mutating.
    """
    if not label:
        raise ValueError("empty Pauli label")
    if len(label) > MAX_QUBITS:
        raise ValueError(f"label {label!r} exceeds the {MAX_QUBITS}-qubit cap")
    for ch in label:
        if ch not in PAULI_1Q:
            raise ValueError(f"illegal Pauli symbol {ch!r} in {label!r}")
    return _pauli_realize_cached(label)


def pauli_labels(n_qubits: int) -> list[PauliLabel]:
    """All 4^n Pauli strings on n qubits in product order (I < X < Y < Z)."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n_qubits)]
