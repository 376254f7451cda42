"""Each row of ``COMMANDS`` runs in-process in an empty directory and must
write the files in ``tests/golden/<row>/``. Under the numpy and BLAS versions,
numpy SIMD targets and OpenBLAS core that ``environment.json`` records, every
file must equal its copy byte for byte. Elsewhere LAPACK and numpy's SIMD
loops may round differently in the last bits, so each file is compared within
the tolerances below instead.
``python tests/test_golden.py`` rewrites the files and ``environment.json``."""

import ctypes
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qdiscord.cli import main
from qdiscord.discord import ANGLE_TOL
from qdiscord.witness import GRAM_RESOLUTION, HISTOGRAM_BIN

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
    "haar_survey": "haar-survey --seeds 500 --dim 32",
    # perfbench's witness-tomography op: the trajectory pins each check's decomposed count
    "witness_ensemble": "witness --ensemble initial.json --measure-seed 7 --seed 7",
    "discord_ensemble_bell": "discord --ensemble bell.json",
    "discord_jones_nmr_bias": "discord --dqc1 jones --epsilon 1.4e-5",
    "discord_jones_pure": "discord --dqc1 jones --epsilon 1",
}

# Outside the recorded environment, key order, strings, booleans, integers and
# every float whose key is not named below (the config's, tau, bin centres)
# must be equal. The exact engines' numbers are entropies in bits, traces of
# modulus at most 1 and fits of them: sums of O(1) terms, whose error is
# absolute (the dense engine's is at most 8 eps of the exact value), so two
# builds agree within 16 eps.
EPS = np.finfo(float).eps
EXACT = dict.fromkeys(
    ["discord", "mutual_information", "classical_correlations", "conditional_term", "grid_min",
     "polish_gain", "direct", "distance", "exponent", "coefficient", "mean", "stderr",
     "predicted", "re", "im"],
    16 * EPS,
)
# A search's argmin angle is pinned to the polish's stopping step.
ANGLES = dict.fromkeys(["theta", "phi"], ANGLE_TOL)
# A witness singular value is resolved to GRAM_RESOLUTION of its vector's
# largest (values under it read 0), the bound on both rounding and the floor.
SINGULAR_VALUES = {"quantiles_low", "medians"}
# Bell and Bell in white noise are isotropic: every measurement basis is a
# minimiser, so rounding picks the argmin, the zero-discord basis and the
# number of polish steps; those rows compare them as types only.
ISOTROPIC = {"discord_bell", "discord_ensemble_bell"}
ROUNDING_PICKS = {"theta", "phi", "refine_nfev"}


def openblas_core() -> str | None:
    """The core whose kernels OpenBLAS picked at run time (DYNAMIC_ARCH picks
    by CPU, or by OPENBLAS_CORETYPE), from the ``*get_corename*`` function of
    the OpenBLAS that numpy bundles in ``numpy.libs``; None where it bundles none."""
    for path in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*")):
        data = path.read_bytes()
        at = data.find(b"get_corename")
        if at >= 0:
            name = data[data.rfind(b"\0", 0, at) + 1 : data.find(b"\0", at)].decode()
            corename = getattr(ctypes.CDLL(str(path)), name)
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def environment() -> dict:
    """What the bytes depend on: the numpy and BLAS versions, the SIMD targets
    numpy dispatches to on this CPU and OpenBLAS's core."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"],
            "simd": config["SIMD Extensions"]["found"], "openblas_core": openblas_core()}


def run(row: str) -> dict[str, bytes]:
    """The files ``row`` writes in the current directory, empty before, by name."""
    for name, doc in DOCUMENTS.items():
        Path(name).write_text(json.dumps(doc))
    assert main(COMMANDS[row].split()) == 0, COMMANDS[row]
    return {p.name: p.read_bytes() for p in Path().iterdir() if p.name not in DOCUMENTS}


def tolerance(key: str, parent, free=()) -> float:
    """How far a JSON number under ``key`` in ``parent`` (its dict, or its
    list) may move. A check's ``decomposed`` may move by one sample per
    singular value it reads: rounding moves each value's order statistics by
    a few ulp, past at most one more sample."""
    if key in free:
        return math.inf
    if key == "decomposed":
        return len(parent["quantiles_low"])
    if key in SINGULAR_VALUES:
        return GRAM_RESOLUTION * max(parent)
    return {**EXACT, **ANGLES}.get(key, 0.0)


def json_mismatches(written, golden, free=()) -> list[str]:
    """Every place where parsed JSON ``written`` leaves ``golden``'s keys,
    types or tolerances; the keys in ``free`` compare as types only."""
    found = []

    def walk(w, g, key, parent, path):
        if type(w) is not type(g):
            found.append(f"{path}: {w!r} against {g!r}")
        elif isinstance(g, dict):
            if list(w) != list(g):
                found.append(f"{path}: keys {list(w)} against {list(g)}")
            for k in (k for k in g if k in w):
                walk(w[k], g[k], k, g, f"{path}.{k}")
        elif isinstance(g, list):
            if len(w) != len(g):
                found.append(f"{path}: {len(w)} entries against {len(g)}")
            for i, (a, b) in enumerate(zip(w, g)):
                walk(a, b, key, g, f"{path}[{i}]")
        elif w != g and not (
            isinstance(g, (int, float)) and abs(w - g) <= tolerance(key, parent, free)
        ):
            found.append(f"{path}: {w!r} against {g!r}")

    walk(written, golden, None, None, "")
    return found


def csv_mismatches(written: str, golden: str, n_samples: int | None = None) -> list[str]:
    """Every cell where CSV ``written`` leaves ``golden``: the header, the row
    count and integers equal, floats within their column's tolerance plus one
    unit of the last printed digit. A histogram of ``n_samples`` may move by
    one sample per bin: its relative occurrence by 1 / (n_samples x bin
    width), its cumulative fraction by 1 / n_samples."""
    per_bin = {} if n_samples is None else {"relative_occurrence": 1 / (n_samples * HISTOGRAM_BIN),
                                            "cumulative": 1 / n_samples}
    w_rows, g_rows = written.splitlines(), golden.splitlines()
    if w_rows[0] != g_rows[0] or len(w_rows) != len(g_rows):
        return [f"{w_rows[0]!r}, {len(w_rows)} rows against {g_rows[0]!r}, {len(g_rows)}"]
    found = []
    for r, (w_row, g_row) in enumerate(zip(w_rows[1:], g_rows[1:]), start=1):
        for key, w, g in zip(g_rows[0].split(","), w_row.split(","), g_row.split(",")):
            if w == g:
                continue
            if "." in g:  # a float, printed to ``unit``
                mantissa, _, exponent = g.partition("e")
                unit = 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))
                if abs(float(w) - float(g)) <= per_bin.get(key, EXACT.get(key, 0.0)) + unit:
                    continue
            found.append(f"row {r} {key}: {w} against {g}")
    return found


def mismatches(row: str, written: dict[str, bytes], golden: dict[str, bytes]) -> list[str]:
    """Every file of ``row`` that leaves its golden copy's tolerances, with where."""
    docs = {name: json.loads(data) for name, data in golden.items() if name.endswith(".json")}
    n_samples = next(
        (d["scan"]["n_samples"] if d["scan"] else d["config"]["samples"]
         for d in docs.values() if d["command"] == "witness"),
        None,
    )
    free = ROUNDING_PICKS if row in ISOTROPIC else ()
    found = [] if written.keys() == golden.keys() else [f"{sorted(written)} against {sorted(golden)}"]
    for name in sorted(golden.keys() & written.keys()):
        if name in docs:
            lines = json_mismatches(json.loads(written[name]), docs[name], free)
        else:
            lines = csv_mismatches(written[name].decode(), golden[name].decode(), n_samples)
        found += [f"{name} {line}" for line in lines]
    return found


RECORDED = json.loads((GOLDEN / "environment.json").read_text())
CURRENT = environment()


def test_the_recorded_environment_states_what_this_one_reads():
    # a key recorded under another name would send every runner to the tolerances
    assert list(RECORDED) == list(CURRENT)


@pytest.mark.parametrize("row", COMMANDS)
def test_outputs_equal_the_golden_files(row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    written, golden = run(row), {p.name: p.read_bytes() for p in (GOLDEN / row).iterdir()}
    if RECORDED == CURRENT:
        assert sorted(n for n in {*written, *golden} if written.get(n) != golden.get(n)) == []
    else:
        assert mismatches(row, written, golden) == []


def edit_json(path: str, change):
    """An edit of a golden JSON file: ``change`` applied at dotted ``path``."""
    *parents, last = [int(k) if k.lstrip("-").isdigit() else k for k in path.split(".")]

    def edit(data: bytes) -> bytes:
        doc = json.loads(data)
        node = doc
        for k in parents:
            node = node[k]
        node[last] = change(node[last])
        return json.dumps(doc).encode()

    return edit


def edit_csv(row: int, column: int, change):
    """An edit of a golden CSV file: ``change`` applied to one cell's float."""
    def edit(data: bytes) -> bytes:
        lines = [line.split(",") for line in data.decode().splitlines()]
        lines[row][column] = repr(change(float(lines[row][column])))
        return "".join(",".join(line) + "\n" for line in lines).encode()

    return edit


def move_samples(count: int):
    """An edit of a 10,000-sample histogram: ``count`` samples moved from the
    first bin holding them into the next."""
    def edit(data: bytes) -> bytes:
        lines = [line.split(",") for line in data.decode().splitlines()]
        k = next(i for i, line in enumerate(lines[1:], 1) if float(line[1]) * 50 >= count)
        for i, step in ((k, -count), (k + 1, count)):
            lines[i][1] = f"{float(lines[i][1]) + step / 50:.6f}"
        lines[k][2] = f"{float(lines[k][2]) - count / 10000:.6f}"
        return "".join(",".join(line) + "\n" for line in lines).encode()

    return edit



WITNESS, HISTOGRAM = "witness_ensemble/witness.json", "witness_ensemble/witness_sv1.csv"
PURE, BELL = "discord_jones_pure/discord.json", "discord_ensemble_bell/discord.json"


@pytest.mark.parametrize(
    "path, edit, passes",
    [
        (WITNESS, edit_json("verdict.trajectory.-1.quantiles_low.3", lambda v: v + 1e-12), True),
        (WITNESS, edit_json("verdict.quantiles_low.3", lambda v: v + 2e-6), False),
        (WITNESS, edit_json("verdict.trajectory.0.decomposed", lambda v: v + 4), True),
        (WITNESS, edit_json("verdict.trajectory.0.decomposed", lambda v: v - 5), False),
        (WITNESS, edit_json("verdict.trajectory.0.rank", lambda v: v + 1), False),
        (WITNESS, edit_json("verdict.trajectory.0.tau", lambda v: v * (1 + EPS)), False),
        (WITNESS, edit_json("verdict", lambda v: dict(reversed(v.items()))), False),
        (HISTOGRAM, move_samples(1), True),
        (HISTOGRAM, move_samples(2), False),
        (PURE, edit_json("discord", lambda v: v + 8 * EPS), True),
        (PURE, edit_json("discord", lambda v: v - 32 * EPS), False),
        (PURE, edit_json("argmin.phi", lambda v: v + 2e-8), False),
        (PURE, edit_json("diagnostics.refine_nfev", lambda v: v + 1), False),
        (BELL, edit_json("argmin.phi", lambda v: v + 1), True),
        (BELL, edit_json("diagnostics.refine_nfev", lambda v: v + 20), True),
        (BELL, edit_json("diagnostics.converged", lambda v: not v), False),
        ("haar_survey/haar_survey.csv", edit_csv(1, 1, lambda v: v * (1 + 1e-8)), True),
        ("haar_survey/haar_survey.csv", edit_csv(1, 1, lambda v: v * (1 + 1e-4)), False),
    ],
)
def test_tolerances_pass_rounding_and_fail_a_moved_value(path, edit, passes):
    # the comparison made outside the recorded environment, on golden files
    # moved by rounding's size and past their tolerance
    row, name = path.split("/")
    golden = {p.name: p.read_bytes() for p in (GOLDEN / row).iterdir()}
    found = mismatches(row, {**golden, name: edit(golden[name])}, golden)
    assert (found == []) == passes, found


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for row in COMMANDS:
        (GOLDEN / row).mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for name, data in run(row).items():
                (GOLDEN / row / name).write_bytes(data)
    (GOLDEN / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n")
