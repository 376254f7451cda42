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
from typing import Iterable

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


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace(rho: DensityMatrix, keep: int | Iterable[int]) -> DensityMatrix:
    """Trace out all subsystem blocks not listed in ``keep``.

    ``keep`` indexes blocks of ``rho.qubit_partition``; kept blocks stay in
    their original order.
    """
    keep_set = {keep} if isinstance(keep, int) else set(int(k) for k in keep)
    n_blocks = len(rho.qubit_partition)
    if not keep_set:
        raise ValueError("must keep at least one subsystem")
    bad = [k for k in keep_set if k < 0 or k >= n_blocks]
    if bad:
        raise ValueError(f"invalid subsystem index {bad[0]} (have {n_blocks} blocks)")
    dims = list(rho.subsystem_dims)
    t = rho.entries.reshape(dims + dims)
    for idx in sorted(set(range(n_blocks)) - keep_set, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    out_dim = int(np.prod(dims))
    part = tuple(rho.qubit_partition[k] for k in sorted(keep_set))
    return DensityMatrix(t.reshape(out_dim, out_dim), part)


def hermitian_eigenvalues(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, in descending order."""
    m = np.asarray(m, dtype=complex)
    dev = np.abs(m - m.conj().T).max()
    if dev > tol:
        raise ValueError(f"not Hermitian within {tol:.1e}: deviation {dev:.3e}")
    return np.linalg.eigvalsh(m)[::-1]


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


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """H(rho) = -Tr(rho log2 rho) in bits."""
    if isinstance(rho, DensityMatrix):
        entries = rho.entries
    else:
        entries = np.asarray(rho, dtype=complex)
        dev = np.abs(entries - entries.conj().T).max()
        if dev > 1e-10:
            raise ValueError(f"not Hermitian: deviation {dev:.3e}")
    return entropy_from_eigenvalues(np.linalg.eigvalsh(entries))


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in descending order; the count above a threshold is a
    rank lower bound."""
    return np.linalg.svd(np.asarray(m), compute_uv=False)


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


def partial_transpose(m: np.ndarray, dims: tuple[int, int], subsystem: int = 0) -> np.ndarray:
    """Partial transpose of a bipartite operator over one subsystem."""
    da, db = dims
    t = np.asarray(m).reshape(da, db, da, db)
    if subsystem == 0:
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == 1:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError("subsystem must be 0 or 1")
    return t.reshape(da * db, da * db)


def random_density_matrix(
    qubit_partition: Iterable[int], seed: int, rank: int | None = None
) -> DensityMatrix:
    """Ginibre-induced random state: G G† normalized, G complex Gaussian."""
    part = tuple(int(k) for k in qubit_partition)
    dim = 2 ** sum(part)
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho, part)
