"""The benchmark's tracer wraps qdiscord functions by name; each must exist."""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def traced_names() -> list[tuple[str, str]]:
    """(module, function) of every TRACED entry, read without importing the
    benchmark (which caps BLAS threads and expects its own sys.path)."""
    tree = ast.parse(WORKLOADS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no TRACED assignment in {WORKLOADS}")


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
