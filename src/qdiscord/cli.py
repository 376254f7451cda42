"""Command-line front end: simulate, discord, witness, haar-survey.

Results go to JSON/CSV files named from --out with a one-line summary on
stdout. Every JSON states each resolved flag, seeds included, only under its
``config`` key; its other keys hold results, each stated once.
witness derives tau from the sigmas and reads its quantile level, bin width and
resamples per --scan-combos combination from ``witness.CONFIDENCE``,
``HISTOGRAM_BIN`` and ``SCAN_RESAMPLES``; haar-survey runs at
``discord.NMR_POLARIZATION`` from seed 0.
Exit codes: 0 completed (an Inconclusive witness is a result, not a failure),
2 input error, including a run too large to allocate or to histogram, 3
numerical-assumption failure such as a scaling-fit exponent out of range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import dqc1, nmr, states, witness as wit
from .discord import (
    NMR_POLARIZATION,
    ScalingFitError,
    discord,
    dqc1_discord,
    fit_polarization_scaling,
    haar_discord_prediction,
    haar_discord_survey,
    is_zero_discord,
)
from .linalg import DensityMatrix
from .witness import (
    CorrelationMatrix,
    column_combination_scan,
    correlation_matrix,
    default_tau,
    witness_procedure,
    write_histogram_csvs,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _resolve(spec: str, what: str, parse):
    """The builtin ``what`` named ``spec`` in ``states.BUILTINS``, else ``parse``
    of the JSON document at that path: the one reader of a user's document."""
    builtins = states.BUILTINS.get(what, {})
    if spec in builtins:
        return builtins[spec]()
    if not Path(spec).exists():
        raise ValueError(f"unknown {what} {spec!r}: not a builtin and no such file")
    with open(spec) as fh:
        return parse(json.load(fh))


def _resolve_state(args) -> DensityMatrix:
    if args.state is not None:
        return states.named_state(args.state)
    # read off the module on each call, where perfbench's tracer wraps it
    return _resolve(args.ensemble, "ensemble", nmr.load_ensemble)


def _write_json(args, payload: dict) -> Path:
    """Write ``payload`` to ``--out`` with every resolved flag as its ``config``."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    record = {"command": args.command, **payload, "config": config}
    path = Path(args.out)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def cmd_simulate(args) -> int:
    u = _resolve(args.unitary, "unitary", dqc1.unitary_from_dict)
    inst = dqc1.Dqc1Instance(args.epsilon, u)
    estimate = dqc1.trace_estimate(inst)
    exact = complex(np.trace(u)) / u.shape[0]
    payload = {
        "re": estimate.real,
        "im": estimate.imag,
        "exact_trace": {"re": exact.real, "im": exact.imag},
        "n": inst.n,
    }
    path = _write_json(args, payload)
    print(
        f"trace estimate: {estimate.real:+.6f} {estimate.imag:+.6f}i "
        f"(eps*Tr(U)/2^n, n={inst.n}) -> {path}"
    )
    return EXIT_OK


def cmd_discord(args) -> int:
    if args.alpha is not None:
        u = _resolve(args.dqc1, "unitary", dqc1.unitary_from_dict)
        fit = fit_polarization_scaling(u, alpha=args.alpha)
        payload = {
            "discord": fit.value,
            "direct": fit.direct,
            "scaling": {"exponent": fit.exponent, "coefficient": fit.coefficient},
        }
        path = _write_json(args, payload)
        print(
            f"extrapolated discord at alpha={args.alpha:g}: {fit.value:.4e} bits "
            f"(direct {fit.direct:.4e}, exponent {fit.exponent:.4f}) -> {path}"
        )
        return EXIT_OK
    zero_payload = {}
    if args.dqc1 is not None:
        u = _resolve(args.dqc1, "unitary", dqc1.unitary_from_dict)
        inst = dqc1.Dqc1Instance(args.epsilon, u)
        result = dqc1_discord(np.angle(np.linalg.eigvals(inst.unitary)), inst.epsilon)
    else:
        rho = _resolve_state(args)
        result = discord(rho)
        zero = is_zero_discord(rho)
        zero_payload["zero_discord"] = {
            "is_zero": zero.is_zero,
            "distance": zero.distance,
            "theta": zero.basis.theta,
            "phi": zero.basis.phi,
        }
    payload = {
        "discord": result.discord,
        "mutual_information": result.mutual_information,
        "classical_correlations": result.classical_correlations,
        "conditional_term": result.conditional_term,
        "argmin": {"theta": result.argmin_basis.theta, "phi": result.argmin_basis.phi},
        "diagnostics": result.diagnostics,
        **zero_payload,
    }
    path = _write_json(args, payload)
    print(f"discord: {result.discord:.6e} bits (I={result.mutual_information:.6f}) -> {path}")
    return EXIT_OK


def _witness_input(args) -> CorrelationMatrix:
    if args.matrix is not None:
        return _resolve(args.matrix, "matrix", CorrelationMatrix.from_dict)
    rho = _resolve_state(args)
    if args.measure_seed is not None:
        return nmr.measured_correlation_matrix(rho, args.sigma, args.measure_seed)
    return correlation_matrix(rho).with_uniform_sigmas(args.sigma)


def cmd_witness(args) -> int:
    corr = _witness_input(args)
    scan = scan_payload = None
    try:
        # largest singular value of the unperturbed matrix: noiseless samples all reach it
        wit.check_histogram_bins(float(np.linalg.norm(corr.values, 2)))
        if args.scan_combos is not None:
            # before the rank checks: a matrix the scan cannot sample is refused at once
            scan = column_combination_scan(corr, args.scan_combos, args.seed)
            scan_tau = default_tau(corr.sigmas, n_cols=4)
            low = scan.quantile(1 - wit.CONFIDENCE)
            scan_payload = {
                "rank_lower_bound": int((low > scan_tau).sum()),
                "tau": scan_tau,
                "n_samples": scan.n_samples,
                "quantiles_low": low.tolist(),
                "medians": scan.medians().tolist(),
            }
        verdict = witness_procedure(corr, n_samples=args.samples, seed=args.seed)
        csv_dist = verdict.distribution if scan is None else scan
        csv_paths = write_histogram_csvs(csv_dist, Path(args.out).with_suffix(""))
    except wit.HistogramBinsError as exc:
        # a matrix document carries its own sigmas, and --sigma is refused with it
        knob = "the --matrix document's values or sigmas" if args.matrix else "--sigma"
        raise ValueError(f"too many histogram bins; lower {knob} ({exc})") from None
    payload = {
        "outcome": verdict.outcome,
        "rank_lower_bound": verdict.rank_lower_bound,
        "verdict": {
            "columns_used": list(verdict.columns_used),
            # the last check's, also in trajectory: the benchmark's witness check reads it here
            "quantiles_low": list(verdict.trajectory[-1].quantiles_low),
            "medians": verdict.distribution.medians().tolist(),
            "trajectory": [asdict(check) for check in verdict.trajectory],
        },
        "scan": scan_payload,
        "csv_files": [str(p) for p in csv_paths],
    }
    path = _write_json(args, payload)
    print(
        f"{verdict.outcome}: rank lower bound {verdict.rank_lower_bound} "
        f"(dim A = {wit.DIM_A}) -> {path}"
    )
    return EXIT_OK


def cmd_haar_survey(args) -> int:
    values = haar_discord_survey(args.seeds, dim=args.dim)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    csv_path = Path(args.out).with_suffix(".csv")
    lines = ["seed,discord"] + [f"{i},{v:.8e}" for i, v in enumerate(values)]
    csv_path.write_text("\n".join(lines) + "\n")
    predicted = haar_discord_prediction(args.dim)
    payload = {"mean": mean, "stderr": stderr, "predicted": predicted, "values_csv": str(csv_path)}
    path = _write_json(args, payload)
    print(
        f"haar survey: mean discord {mean:.4e} +- {stderr:.1e} bits (predicted {predicted:.4e}) "
        f"over {args.seeds} seeds at alpha={NMR_POLARIZATION:g} -> {path}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiscord",
        description="Simulate the one-clean-qubit trace-estimation circuit, compute "
        "quantum discord, and run the correlation-matrix rank witness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="trace-estimation readout of the circuit")
    p.add_argument("--unitary", required=True, help="jones | identity8 | JSON file")
    p.add_argument("--epsilon", type=float, default=1.0, help="top-qubit bias")
    p.add_argument("--out", default="simulate.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("discord", help="exact discord or small-polarization extrapolation")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--state", help="named state: " + ", ".join(sorted(states.NAMED_STATES)))
    src.add_argument("--dqc1", help="circuit output for this unitary (jones | identity8 | file)")
    src.add_argument("--ensemble", help="ensemble JSON {alpha, pps}")
    p.add_argument("--epsilon", type=float, default=None,
                   help="bias for --dqc1 without --alpha (default 1)")
    p.add_argument("--alpha", type=float,
                   help="polarization for --dqc1: extrapolate by quadratic scaling")
    p.add_argument("--out", default="discord.json")
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("witness", help="iterative correlation-matrix rank witness")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="correlation-matrix JSON file or 'rtrunc_eq3'")
    src.add_argument("--state", help="named state: " + ", ".join(sorted(states.NAMED_STATES)))
    src.add_argument("--ensemble", help="ensemble JSON {alpha, pps}")
    p.add_argument("--sigma", type=float, default=None,
                   help="per-element uncertainty attached to the columns of --state or "
                   "--ensemble (default 0.05)")
    p.add_argument("--measure-seed", type=int, default=None,
                   help="also sample measurement noise into the values of --state or --ensemble")
    p.add_argument("--samples", type=int, default=10000, help="Monte Carlo samples per check")
    p.add_argument("--scan-combos", type=int, default=None,
                   help="pool random 4-column combinations (always keeping the identity column)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="witness.json")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("haar-survey", help="extrapolated discord over Haar-random unitaries")
    p.add_argument("--seeds", type=int, default=500, help="number of Haar samples")
    p.add_argument("--dim", type=int, default=32, help="unitary dimension")
    p.add_argument("--out", default="haar_survey.json")
    p.set_defaults(func=cmd_haar_survey)

    return parser


# Flags that act only in some modes of their subcommand: (dest, those modes,
# whether the args are in them, the default there). Outside its modes a flag
# is refused rather than ignored.
SCOPED_FLAGS = {
    "discord": (
        ("alpha", "--dqc1", lambda a: a.dqc1 is not None, None),
        ("epsilon", "--dqc1 without --alpha",
         lambda a: a.dqc1 is not None and a.alpha is None, 1.0),
    ),
    "witness": (
        ("sigma", "--state or --ensemble", lambda a: a.matrix is None, 0.05),
        ("measure_seed", "--state or --ensemble", lambda a: a.matrix is None, None),
    ),
}

# Numeric flags' ranges, checked in this order after the scoped flags and output
# paths: (dest, in-range test, refusal). The library checks --dim.
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
FLAG_RANGES = {
    "witness": (
        # the Monte Carlo folds squared noisy entries into Gram matrices
        ("sigma", lambda v: v >= 0 and math.isfinite(v * v),
         "must be non-negative with a finite square"),
        ("seed", *_NON_NEGATIVE), ("measure_seed", *_NON_NEGATIVE),
        ("samples", *_AT_LEAST_1), ("scan_combos", *_AT_LEAST_1),
    ),
    "haar-survey": (("seeds", *_AT_LEAST_1),),
}


def _check_flags(args) -> None:
    """Before any work: refuse a flag given outside its modes and resolve its
    default inside them; refuse an empty ``--out``, one in a missing
    directory, and an existing directory at ``--out`` or at a file named from
    it (witness's ``histogram_csv_paths`` of the ``--out`` stem; haar-survey's
    ``--out`` with a .csv suffix, which may not be ``--out`` itself); last
    refuse a numeric flag outside its range in ``FLAG_RANGES``."""
    for dest, modes, applies, default in SCOPED_FLAGS.get(args.command, ()):
        value = getattr(args, dest)
        if not applies(args):
            if value is not None:  # 0 is a given value
                raise ValueError(f"--{dest.replace('_', '-')} only applies to {modes}")
        elif value is None:
            setattr(args, dest, default)
    out = args.out
    if out == "":
        raise ValueError("--out must name a file")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"--out {out}: directory {os.path.dirname(out)} does not exist")
    if os.path.isdir(out):
        raise ValueError(f"--out {out} is a directory, not a file")
    if args.command == "haar-survey" and Path(out).suffix == ".csv":
        raise ValueError(f"--out {out} is also its values CSV; give --out another suffix")
    stem = Path(out).with_suffix("")
    named = {"witness": wit.histogram_csv_paths(stem), "haar-survey": [f"{stem}.csv"]}
    for path in named.get(args.command, ()):
        if os.path.isdir(path):
            raise ValueError(f"--out {out} writes {path}, which is a directory")
    for dest, in_range, refusal in FLAG_RANGES.get(args.command, ()):
        value = getattr(args, dest)
        if value is not None and not in_range(value):
            raise ValueError(f"--{dest.replace('_', '-')} {value} {refusal}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except ScalingFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())
