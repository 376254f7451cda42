"""Each row of ``COMMANDS`` runs in-process in an empty directory, and every
file it writes must equal its copy in ``tests/golden/<row>/`` byte for byte.
``python tests/test_golden.py`` rewrites them and ``environment.json``. Other
numpy or BLAS builds may round LAPACK differently in the last bits, so the test
skips outside the recorded environment rather than compare with a tolerance."""

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qdiscord.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# ensemble documents every row finds beside it
DOCUMENTS = {"initial.json": {"alpha": 0.001, "pps": "initial-dqc1"},
             "bell.json": {"alpha": 1.4e-5, "pps": "bell"}}
COMMANDS = {
    # the paper's two witness panels: the measured truncated matrix (rank 3)
    # and the initial state's four-column scan (rank 1)
    "final_state": "witness --matrix rtrunc_eq3 --samples 10000 --seed 1 --out final_state.json",
    "initial_state": "witness --state initial-dqc1 --scan-combos 1000 --seed 1 "
    "--out initial_state.json",
    # the README's examples
    "simulate_jones": "simulate --unitary jones --epsilon 1",
    "discord_bell": "discord --state bell",
    "discord_jones_alpha": "discord --dqc1 jones --alpha 1.4e-5",
    "haar_survey": "haar-survey --seeds 500 --dim 32 --alpha 1.4e-5",
    # perfbench's witness-tomography op: the trajectory pins each check's decomposed count
    "witness_ensemble": "witness --ensemble initial.json --measure-seed 7 --seed 7",
    "discord_ensemble_bell": "discord --ensemble bell.json",
    "discord_jones_nmr_bias": "discord --dqc1 jones --epsilon 1.4e-5",
    "discord_jones_pure": "discord --dqc1 jones --epsilon 1",
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"]}


def run(row: str) -> dict[str, bytes]:
    """The files ``row`` writes in the current directory, empty before, by name."""
    for name, doc in DOCUMENTS.items():
        Path(name).write_text(json.dumps(doc))
    assert main(COMMANDS[row].split()) == 0, COMMANDS[row]
    return {p.name: p.read_bytes() for p in Path().iterdir() if p.name not in DOCUMENTS}


@pytest.mark.parametrize("row", COMMANDS)
def test_outputs_equal_the_golden_files(row, tmp_path, monkeypatch):
    recorded = json.loads((GOLDEN / "environment.json").read_text())
    if recorded != environment():
        pytest.skip(f"golden files written under {recorded}, this is {environment()}")
    monkeypatch.chdir(tmp_path)
    written, golden = run(row), {p.name: p.read_bytes() for p in (GOLDEN / row).iterdir()}
    assert sorted(n for n in {*written, *golden} if written.get(n) != golden.get(n)) == []


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for row in COMMANDS:
        (GOLDEN / row).mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for name, data in run(row).items():
                (GOLDEN / row / name).write_bytes(data)
    (GOLDEN / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n")
