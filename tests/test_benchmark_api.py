"""The benchmark's tracer wraps qdiscord functions by name, its witness
check parses the CSVs with the CLI's settings and models the rank check's
quantile, and its Haar op runs at the survey's polarization; each must still
hold."""

import ast
import importlib
from pathlib import Path

import pytest

from qdiscord import witness
from qdiscord.cli import SCOPED_FLAGS, build_parser
from qdiscord.discord import NMR_POLARIZATION

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def workloads_assignment(name: str) -> ast.expr:
    """The value expression of the module-level ``name = ...`` in the
    benchmark, read without importing it (it caps BLAS threads and expects
    its own sys.path)."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"no {name} assignment in {WORKLOADS}")


def workloads_calls(function: str) -> list[ast.Call]:
    """Every call to ``function`` (as written, e.g. ``np.quantile``) in the benchmark."""
    return [
        node for node in ast.walk(ast.parse(WORKLOADS.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == function
    ]


def traced_names() -> list[tuple[str, str]]:
    """(module, function) of every TRACED entry."""
    entries = workloads_assignment("TRACED").elts
    return [(entry.elts[0].value, entry.elts[1].value) for entry in entries]


def test_traced_functions_resolve():
    # Tracer.install raises AttributeError on every --trace 1 run when a name is
    # gone, so linalg.tensor, linalg.pauli_realize and nmr.simulate_measurement
    # stay in the package until the benchmark drops their traces
    names = traced_names()
    assert names
    missing = [
        f"{module}.{function}"
        for module, function in names
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []


def test_witness_check_reads_the_cli_settings():
    # the benchmark counts each CSV's samples as relative_occurrence x
    # N_SAMPLES x BIN and models the last check's statistics at SIGMA: another
    # --samples or --sigma default or bin width fails its check
    witness_args = build_parser().parse_args(["witness", "--state", "bell"])
    assert ast.literal_eval(workloads_assignment("BIN")) == witness.HISTOGRAM_BIN
    assert ast.literal_eval(workloads_assignment("N_SAMPLES")) == witness_args.samples
    sigma_default = next(row[3] for row in SCOPED_FLAGS["witness"] if row[0] == "sigma")
    assert ast.literal_eval(workloads_assignment("SIGMA")) == sigma_default
    # its model of the last check's low quantiles, and its Haar op's alpha
    (model_quantile,) = workloads_calls("np.quantile")
    q = ast.literal_eval(model_quantile.args[1])
    assert q == pytest.approx(1.0 - witness.CONFIDENCE, rel=1e-12, abs=0)
    assert ast.literal_eval(workloads_assignment("ALPHA")) == NMR_POLARIZATION
