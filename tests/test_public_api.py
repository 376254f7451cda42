"""Every public name has a caller outside the tests, so helpers only tests use
stay in ``tests/`` instead of becoming public API."""

import ast
import importlib
from pathlib import Path

import qdiscord

ROOT = Path(__file__).resolve().parents[1]
# Public without a caller in src/, scripts/ or perfbench/.
NO_CALLER_YET = set()


def code_references() -> set[str]:
    """Names read, attributes accessed and string constants in the package
    (less ``__init__.py``), the scripts and the benchmark; definitions and
    docstrings do not count."""
    files = [
        path
        for folder in ("src", "scripts", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
        if path.name != "__init__.py"
    ]
    refs = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)  # the benchmark traces functions by name
    return refs


def test_every_public_name_has_a_caller_outside_the_tests():
    refs = code_references()
    assert {name for name in qdiscord.__all__ if name not in refs} == NO_CALLER_YET


def test_test_helpers_left_the_package():
    # rank_lower_bound would pass the test above: the CLI reads a verdict property of that name
    helpers = {
        "MinimizerOptions", "extract_columns", "reconstruct_state", "rank_lower_bound",
        "monte_carlo_svd", "boltzmann_polarization", "verdict_polarization_invariance",
        "random_density_matrix", "HBAR", "K_B",
    }
    for module in ("qdiscord", "qdiscord.linalg", "qdiscord.discord", "qdiscord.witness",
                   "qdiscord.nmr"):
        assert helpers.isdisjoint(dir(importlib.import_module(module))), module
