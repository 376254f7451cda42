"""Smoke runs of the figure scripts at small sizes."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_witness_figures_script(tmp_path):
    assert load_script("reproduce_witness_figures").run(tmp_path, 1) == 0
    expected = {
        f"{panel}{suffix}"
        for panel in ("final_state", "initial_state")
        for suffix in (".json", "_sv1.csv", "_sv2.csv", "_sv3.csv", "_sv4.csv")
    }
    assert {p.name for p in tmp_path.iterdir()} == expected
