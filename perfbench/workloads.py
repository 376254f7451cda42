"""The benchmark's workloads: inputs made from a seed, one op, and its check.

Import this module only after ``src`` is on ``sys.path`` and the BLAS thread
cap is set. Ops call qdiscord through module attributes looked up at call
time, so the tracer's wrappers see them. ``qdiscord.discord`` on the package
is the function, so the module is taken from ``importlib``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

cli = importlib.import_module("qdiscord.cli")
dqc1 = importlib.import_module("qdiscord.dqc1")
disc = importlib.import_module("qdiscord.discord")
wit = importlib.import_module("qdiscord.witness")

ALPHA = 1.4e-5
HAAR_DIM = 32
# Large-system Haar mean of the extrapolated discord, alpha^2 / (4 ln 2).
HAAR_ASYMPTOTE = ALPHA**2 / (4 * math.log(2))
HAAR_TOL = 0.25
SEED_RANGE = 2**31
# The witness CLI's defaults: measurement noise, Monte Carlo samples, bin width.
SIGMA = 0.05
N_SAMPLES = 10000
BIN = 0.005
# Reported singular-value statistics must lie within this share of the model's.
STAT_TOL = 0.2
MODEL_SAMPLES = 2000

# An op returns a value; its check returns (failure reason or None, counts).
Check = Callable[[object, object], tuple[str | None, dict]]


@dataclass(frozen=True)
class Workload:
    name: str
    # Seconds per op on 2 cores at the commit that defined the benchmark;
    # fixes the op count of a run from --seconds, so the work does not
    # depend on the machine.
    nominal_op_s: float
    make_inputs: Callable[[np.random.Generator, int, Path], list]
    warm_up: Callable[[Path], None]
    run_op: Callable[[object], object]
    check: Check


# haar-extrapolate ---------------------------------------------------------


def _haar_inputs(rng, n, work):
    return [int(s) for s in rng.integers(0, SEED_RANGE, n)]


def _haar_warm_up(work):
    disc.fit_polarization_scaling(dqc1.jones_unitary())


def _haar_op(start_seed):
    return float(disc.haar_discord_survey(1, dim=HAAR_DIM, alpha=ALPHA, start_seed=start_seed)[0])


def _haar_check(start_seed, value):
    ratio = value / HAAR_ASYMPTOTE
    if not abs(ratio - 1.0) <= HAAR_TOL:
        return f"Haar seed {start_seed}: discord / asymptote = {ratio:.4f}", {}
    return None, {}


# witness-tomography -------------------------------------------------------


@dataclass(frozen=True)
class WitnessInput:
    alpha: float
    ensemble: Path
    seed: int
    out: Path


def _witness_inputs(rng, n, work):
    inputs = []
    for i in range(n):
        alpha = float(10.0 ** rng.uniform(-5.0, 0.0))
        seed = int(rng.integers(0, SEED_RANGE))
        ensemble = work / f"ensemble{i}.json"
        ensemble.write_text(json.dumps({"alpha": alpha, "pps": "initial-dqc1"}))
        inputs.append(WitnessInput(alpha, ensemble, seed, work / f"witness{i}.json"))
    return inputs


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _witness_warm_up(work):
    argv = ["witness", "--state", "initial-dqc1", "--samples", "100", "--out", str(work / "warm.json")]
    if _run_cli(argv) != 0:
        raise RuntimeError("witness warm-up failed")


def _witness_op(inp):
    return _run_cli([
        "witness", "--ensemble", str(inp.ensemble),
        "--measure-seed", str(inp.seed), "--seed", str(inp.seed), "--out", str(inp.out),
    ])


def _model_statistics(alpha, seed):
    """Medians and 1% quantiles of the singular values the last Monte Carlo
    step should report, from a model independent of qdiscord.

    The state's exact 4x64 correlation matrix has 1 at (I, III) and alpha at
    (Z, III). Every other entry carries two independent SIGMA noises: the
    simulated measurement and the Monte Carlo draw.
    """
    rng = np.random.default_rng(seed)
    exact = np.zeros((4, 64))
    exact[0, 0], exact[3, 0] = 1.0, alpha
    scale = np.full((4, 64), SIGMA)
    scale[0, 0] = 0.0
    shape = (MODEL_SAMPLES, 4, 64)
    noise = (rng.standard_normal(shape) + rng.standard_normal(shape)) * scale
    sv = np.linalg.svd(exact + noise, compute_uv=False)
    return np.median(sv, axis=0), np.quantile(sv, 0.01, axis=0)


def _csv_problems(path, median):
    """Problems of one histogram CSV of N_SAMPLES samples, and its bin counts."""
    centers, rel, cum = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    counts = rel * N_SAMPLES * BIN
    whole = np.round(counts)
    problems = []
    if not np.allclose(centers, (np.arange(len(centers)) + 0.5) * BIN, rtol=0, atol=1e-6):
        problems.append(f"{path.name}: bins not contiguous from 0")
    if not np.allclose(counts, whole, rtol=0, atol=1e-3) or whole.sum() != N_SAMPLES:
        problems.append(f"{path.name}: occurrences do not count {N_SAMPLES} samples")
    if not np.allclose(cum * N_SAMPLES, np.cumsum(whole), rtol=0, atol=1e-2):
        problems.append(f"{path.name}: cumulative column disagrees with occurrences")
    b = int(median // BIN)
    if not (b < len(cum) and (cum[b - 1] if b else 0.0) <= 0.5 <= cum[b]):
        problems.append(f"{path.name}: reported median {median:.4f} not in the median bin")
    return problems, whole.astype(int)


def _witness_check(inp, code):
    if code != 0:
        return f"witness seed {inp.seed}: exit code {code}", {}
    payload = json.loads(inp.out.read_text())
    verdict = payload["verdict"]
    csvs = [Path(p) for p in payload["csv_files"]]
    written = [inp.out] + [p for p in csvs if p.exists()]
    counts = {"cli.bytes_written": sum(p.stat().st_size for p in written)}
    problems = []
    if payload["outcome"] != "Inconclusive":
        problems.append(f"outcome {payload['outcome']}")
    if payload["rank_lower_bound"] != 1:
        problems.append(f"rank {payload['rank_lower_bound']}")
    if len(verdict["columns_used"]) != 64:
        problems.append(f"{len(verdict['columns_used'])} columns used")
    if len(csvs) != 4 or len(written) != 5:
        problems.append(f"{len(written) - 1} CSVs written of {len(csvs)} listed, expected 4")
    medians = np.array(verdict["medians"])
    lows = np.array(verdict["quantiles_low"])
    model_medians, model_lows = _model_statistics(inp.alpha, inp.seed)
    for label, got, want in (("medians", medians, model_medians), ("1% quantiles", lows, model_lows)):
        if got.shape != want.shape or np.any(np.abs(got / want - 1) > STAT_TOL):
            problems.append(f"{label} {np.round(got, 4)}, model {np.round(want, 4)}")
    if not problems:
        bins = []
        for path, median in zip(csvs, medians):
            csv_problems, csv_bins = _csv_problems(path, median)
            problems += csv_problems
            bins.append(csv_bins)
        if not problems and math.gcd(*np.concatenate(bins).tolist()) != 1:
            problems.append(f"histogram counts share a factor; fewer than {N_SAMPLES} samples")
    for p in written:
        p.unlink()
    if problems:
        return f"witness seed {inp.seed}: " + ", ".join(problems), counts
    return None, counts


WORKLOADS = {
    w.name: w
    for w in (
        Workload("haar-extrapolate", 2.7, _haar_inputs, _haar_warm_up, _haar_op, _haar_check),
        Workload(
            "witness-tomography", 6.6, _witness_inputs, _witness_warm_up, _witness_op,
            _witness_check,
        ),
    )
}


# tracing ------------------------------------------------------------------


def _observe_discord(counts: Counter, result, args, kwargs):
    diag = result.diagnostics
    counts["discord.objective_evals"] += diag["grid"] ** 2 + diag["refine_nfev"]
    counts["discord.polish_improved"] += result.conditional_term < diag["grid_min"]


def _observe_witness(counts: Counter, verdict, args, kwargs):
    """Monte Carlo work of one witness_procedure call, computed from the
    columns used, the sample count and the row count.

    A step checks the rank of the k columns measured so far, from the
    initial block of 4 up to the last column used; it draws an
    (n_samples, rows, k) float64 noise array and decomposes n_samples
    matrices.
    """
    n_samples = verdict.distribution.n_samples
    rows = len(args[0].row_labels)
    used = len(verdict.columns_used)
    first = min(4, used)
    steps = used - first + 1
    counts["witness.mc_steps"] += steps
    counts["witness.mc_matrices"] += steps * n_samples
    counts["witness.noise_bytes_computed"] += n_samples * rows * (first + used) * steps // 2 * 8


# (module, function, observer): each function is wrapped at every binding site.
TRACED = (
    ("qdiscord.cli", "main", None),
    ("qdiscord.dqc1", "haar_random_unitary", None),
    ("qdiscord.dqc1", "output_state", None),
    ("qdiscord.discord", "haar_discord_survey", None),
    ("qdiscord.discord", "fit_polarization_scaling", None),
    ("qdiscord.discord", "discord", _observe_discord),
    ("qdiscord.witness", "witness_procedure", _observe_witness),
    ("qdiscord.witness", "correlation_matrix", None),
    ("qdiscord.witness", "write_histogram_csvs", None),
    ("qdiscord.nmr", "load_ensemble", None),
    ("qdiscord.nmr", "measured_correlation_matrix", None),
    ("qdiscord.nmr", "simulate_measurement", None),
    ("qdiscord.linalg", "tensor", None),
    ("qdiscord.linalg", "pauli_realize", None),
)
