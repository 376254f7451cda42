"""Named fixture states, the measured truncated-matrix fixture, and every
builtin name the command line accepts in place of a JSON document.

The two DQC1 fixtures are the pseudopure parts of the experiment: the initial
state |0><0| (+) I/8 and the circuit output for the Jones unitary at full
bias (all correlation-matrix entries are measured as a fraction of the
polarization, so the pseudopure states carry epsilon = 1).
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from . import dqc1
from .linalg import DensityMatrix, PAULI_1Q, tensor
from .witness import CorrelationMatrix


def bell_state() -> DensityMatrix:
    """|Phi+><Phi+| on two qubits."""
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix(np.outer(psi, psi.conj()))


def product_fixture() -> DensityMatrix:
    """A fixed two-qubit product state (zero discord by construction)."""
    rho_a = np.diag([0.8, 0.2]).astype(complex)
    rho_b = (PAULI_1Q["I"] + 0.4 * PAULI_1Q["X"]) / 2
    return DensityMatrix(tensor(rho_a, rho_b))


def initial_dqc1() -> DensityMatrix:
    """Pseudopure input of the four-qubit circuit: |0><0| (+) I/8."""
    return dqc1.input_state(dqc1.Dqc1Instance(1.0, dqc1.jones_unitary()))


def final_dqc1() -> DensityMatrix:
    """Pseudopure output of the four-qubit circuit with the Jones unitary."""
    return dqc1.output_state(dqc1.Dqc1Instance(1.0, dqc1.jones_unitary()))


def eq3_fixture() -> CorrelationMatrix:
    """The published truncated correlation matrix with its uncertainties."""
    ref = resources.files("qdiscord") / "fixtures" / "rtrunc_eq3.json"
    return CorrelationMatrix.from_dict(json.loads(ref.read_text()))


NAMED_STATES = {
    "bell": bell_state,
    "product-fixture": product_fixture,
    "initial-dqc1": initial_dqc1,
    "final-dqc1": final_dqc1,
}

# Builtin inputs by kind, each name mapped to its constructor; any other name
# is the path of a JSON document.
BUILTINS = {
    "unitary": {"jones": dqc1.jones_unitary, "identity8": lambda: np.eye(8, dtype=complex)},
    "matrix": {"rtrunc_eq3": eq3_fixture},
}


def named_state(name: str) -> DensityMatrix:
    try:
        return NAMED_STATES[name]()
    except KeyError:
        raise ValueError(
            f"unknown state {name!r}; known: {sorted(NAMED_STATES)}"
        ) from None
