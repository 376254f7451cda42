"""Command-line front end: simulate, discord, witness, haar-survey.

Results go to JSON/CSV files (paths in the config) with a one-line summary on
stdout; every JSON embeds the resolved run configuration, including seeds.
Exit codes: 0 completed (an Inconclusive witness is a result, not a failure),
2 input error, including a run too large to allocate, 3 numerical-assumption
failure such as a scaling-fit exponent out of range.
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
    ScalingFitError,
    discord,
    dqc1_discord,
    fit_polarization_scaling,
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


def _resolve_unitary(spec: str) -> np.ndarray:
    if spec == "jones":
        return dqc1.jones_unitary()
    if spec == "identity8":
        return np.eye(8, dtype=complex)
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"unknown unitary {spec!r}: not a builtin and no such file")
    return dqc1.load_unitary_json(path)


def _resolve_matrix(spec: str) -> CorrelationMatrix:
    if spec == states.EQ3_FIXTURE_NAME:
        return states.eq3_fixture()
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"unknown matrix {spec!r}: not a builtin and no such file")
    return CorrelationMatrix.load(path)


def _resolve_state(args) -> DensityMatrix:
    if args.state is not None:
        return states.named_state(args.state)
    return nmr.load_ensemble(args.ensemble)


def _write_json(args, payload: dict) -> Path:
    """Write ``payload`` to ``--out`` with every resolved flag as its ``config``."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    record = {"command": args.command, **payload, "config": config}
    path = Path(args.out)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def cmd_simulate(args) -> int:
    u = _resolve_unitary(args.unitary)
    inst = dqc1.Dqc1Instance(args.epsilon, u)
    estimate = dqc1.trace_estimate(inst)
    exact = complex(np.trace(u)) / u.shape[0]
    payload = {
        "re": estimate.real,
        "im": estimate.imag,
        "exact_trace": {"re": exact.real, "im": exact.imag},
        "epsilon": inst.epsilon,
        "n": inst.n,
    }
    path = _write_json(args, payload)
    print(
        f"trace estimate: {estimate.real:+.6f} {estimate.imag:+.6f}i "
        f"(eps*Tr(U)/2^n, n={inst.n}) -> {path}"
    )
    return EXIT_OK


def cmd_discord(args) -> int:
    if args.extrapolate:
        if args.alpha is None:
            raise ValueError("--extrapolate requires --alpha")
        fit = fit_polarization_scaling(_resolve_unitary(args.dqc1), alpha=args.alpha)
        payload = {
            "discord": fit.value,
            "direct": fit.direct,
            "alpha": args.alpha,
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
        inst = dqc1.Dqc1Instance(args.epsilon, _resolve_unitary(args.dqc1))
        result = dqc1_discord(inst.eigphases, inst.epsilon)
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
        corr = _resolve_matrix(args.matrix)
        if corr.sigmas is None:
            raise ValueError(
                "matrix carries no sigmas; Monte Carlo rank bounds need per-element "
                "uncertainties (use zero sigmas for exact columns)"
            )
        return corr
    rho = _resolve_state(args)
    if args.measure_seed is not None:
        return nmr.measured_correlation_matrix(rho, args.sigma, args.measure_seed)
    return correlation_matrix(rho).with_uniform_sigmas(args.sigma)


def cmd_witness(args) -> int:
    if not 0.0 < args.confidence <= 1.0:
        raise ValueError(f"--confidence {args.confidence} outside (0, 1]")
    for flag, value in (("--tau", args.tau), ("--bin", args.bin)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} {value} must be positive and finite")
    # the Monte Carlo folds squared noisy entries into Gram matrices
    sigma = args.sigma
    if sigma is not None and not (sigma >= 0 and math.isfinite(sigma * sigma)):
        raise ValueError(f"--sigma {sigma} must be non-negative with a finite square")
    for flag, value in (("--seed", args.seed), ("--measure-seed", args.measure_seed)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} {value} must be non-negative")
    for flag, value in (
        ("--samples", args.samples),
        ("--scan-combos", args.scan_combos),
        ("--resamples", args.resamples),
    ):
        if value is not None and value < 1:
            raise ValueError(f"{flag} {value} must be at least 1")
    corr = _witness_input(args)
    # largest singular value of the unperturbed matrix: noiseless samples all reach it
    top = float(np.linalg.norm(corr.values, 2))
    if top / args.bin >= wit.MAX_HISTOGRAM_BINS:
        raise ValueError(
            f"--bin {args.bin} needs more than {wit.MAX_HISTOGRAM_BINS} histogram bins "
            f"for singular values up to {top:.4g}"
        )
    try:
        verdict = witness_procedure(
            corr,
            tau=args.tau,
            confidence=args.confidence,
            n_samples=args.samples,
            seed=args.seed,
            bin_width=args.bin,
        )
    except wit.HistogramBinsError as exc:
        raise ValueError(
            f"--bin {args.bin} is too fine for the noise; use a coarser --bin "
            f"or a smaller --sigma ({exc})"
        ) from None
    scan_payload = None
    csv_dist = verdict.distribution
    rank = verdict.rank_lower_bound
    if args.scan_combos is not None:
        scan_dist = column_combination_scan(
            corr, args.scan_combos, args.resamples, args.seed, bin_width=args.bin
        )
        scan_tau = args.tau if args.tau is not None else default_tau(corr.sigmas, n_cols=4)
        low = scan_dist.quantile(1 - args.confidence)
        rank = int((low > scan_tau).sum())
        scan_payload = {
            "rank_lower_bound": rank,
            "tau": scan_tau,
            "n_samples": scan_dist.n_samples,
            "quantiles_low": low.tolist(),
            "medians": scan_dist.medians().tolist(),
        }
        csv_dist = scan_dist
    prefix = args.csv_prefix if args.csv_prefix is not None else Path(args.out).with_suffix("")
    csv_paths = write_histogram_csvs(csv_dist, prefix)
    payload = {
        "outcome": verdict.outcome,
        "rank_lower_bound": rank,
        "verdict": {
            "outcome": verdict.outcome,
            "rank_lower_bound": verdict.rank_lower_bound,
            "columns_used": list(verdict.columns_used),
            "confidence": verdict.confidence,
            "dim_a": verdict.dim_a,
            "tau": verdict.tau,
            "quantiles_low": list(verdict.trajectory[-1].quantiles_low),
            "medians": verdict.distribution.medians().tolist(),
            "trajectory": [asdict(check) for check in verdict.trajectory],
        },
        "scan": scan_payload,
        "csv_files": [str(p) for p in csv_paths],
    }
    path = _write_json(args, payload)
    print(f"{verdict.outcome}: rank lower bound {rank} (dim A = {verdict.dim_a}) -> {path}")
    return EXIT_OK


def cmd_haar_survey(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds {args.seeds} must be at least 1")
    if args.start_seed < 0:
        raise ValueError(f"--start-seed {args.start_seed} must be non-negative")
    values = haar_discord_survey(
        args.seeds, dim=args.dim, alpha=args.alpha, start_seed=args.start_seed
    )
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    csv_path = Path(args.csv)
    lines = ["seed,discord"] + [f"{args.start_seed + i},{v:.8e}" for i, v in enumerate(values)]
    csv_path.write_text("\n".join(lines) + "\n")
    payload = {
        "mean": mean,
        "stderr": stderr,
        "n_seeds": args.seeds,
        "alpha": args.alpha,
        "dim": args.dim,
        "values_csv": str(csv_path),
    }
    path = _write_json(args, payload)
    print(
        f"haar survey: mean discord {mean:.4e} +- {stderr:.1e} bits "
        f"over {args.seeds} seeds at alpha={args.alpha:g} -> {path}"
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
                   help="bias for --dqc1 without --extrapolate (default 1)")
    p.add_argument("--alpha", type=float, help="target polarization for --extrapolate")
    p.add_argument("--extrapolate", action="store_true", help="quadratic-scaling extrapolation")
    p.add_argument("--out", default="discord.json")
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("witness", help="iterative correlation-matrix rank witness")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help=f"correlation-matrix JSON file or '{states.EQ3_FIXTURE_NAME}'")
    src.add_argument("--state", help="named state: " + ", ".join(sorted(states.NAMED_STATES)))
    src.add_argument("--ensemble", help="ensemble JSON {alpha, pps}")
    p.add_argument("--sigma", type=float, default=None,
                   help="per-element uncertainty attached to the columns of --state or "
                   "--ensemble (default 0.05)")
    p.add_argument("--measure-seed", type=int, default=None,
                   help="also sample measurement noise into the values of --state or --ensemble")
    p.add_argument("--samples", type=int, default=10000, help="Monte Carlo samples per check")
    p.add_argument("--bin", type=float, default=0.005, help="histogram bin width")
    p.add_argument("--tau", type=float, default=None,
                   help="singular-value threshold (default: noise-scaled)")
    p.add_argument("--confidence", type=float, default=0.99,
                   help="per-singular-value quantile confidence")
    p.add_argument("--scan-combos", type=int, default=None,
                   help="pool random 4-column combinations (always keeping the identity column)")
    p.add_argument("--resamples", type=int, default=None,
                   help="noise resamples per combination of --scan-combos (default 10)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="witness.json")
    p.add_argument("--csv-prefix", default=None, help="histogram CSV prefix (default: out stem)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("haar-survey", help="extrapolated discord over Haar-random unitaries")
    p.add_argument("--seeds", type=int, default=500, help="number of Haar samples")
    p.add_argument("--dim", type=int, default=32, help="unitary dimension")
    p.add_argument("--alpha", type=float, default=1.4e-5)
    p.add_argument("--start-seed", type=int, default=0)
    p.add_argument("--out", default="haar_survey.json")
    p.add_argument("--csv", default="haar_survey.csv", help="per-seed values CSV")
    p.set_defaults(func=cmd_haar_survey)

    return parser


# Flags that act only in some modes of their subcommand: (dest, those modes,
# whether the args are in them, the default there). Outside its modes a flag
# is refused rather than ignored.
SCOPED_FLAGS = {
    "discord": (
        ("extrapolate", "--dqc1", lambda a: a.dqc1 is not None, None),
        ("alpha", "--extrapolate", lambda a: a.extrapolate, None),
        ("epsilon", "--dqc1 without --extrapolate",
         lambda a: a.dqc1 is not None and not a.extrapolate, 1.0),
    ),
    "witness": (
        ("sigma", "--state or --ensemble", lambda a: a.matrix is None, 0.05),
        ("measure_seed", "--state or --ensemble", lambda a: a.matrix is None, None),
        ("resamples", "--scan-combos", lambda a: a.scan_combos is not None, 10),
    ),
}


def _check_flags(args) -> None:
    """Before any work: refuse a flag given outside its modes, resolve its
    default inside them, and refuse an output path in a missing directory or
    an output file that is a directory (a CSV prefix is never opened itself)."""
    for dest, modes, applies, default in SCOPED_FLAGS.get(args.command, ()):
        value = getattr(args, dest)
        if not applies(args):
            if value is not None and value is not False:  # 0 is a given value
                raise ValueError(f"--{dest.replace('_', '-')} only applies to {modes}")
        elif value is None:
            setattr(args, dest, default)
    for dest in ("out", "csv", "csv_prefix"):
        path = getattr(args, dest, None)
        flag = "--" + dest.replace("_", "-")
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} {path}: directory {os.path.dirname(path)} does not exist")
        if dest != "csv_prefix" and path is not None and Path(path).is_dir():
            raise ValueError(f"{flag} {path} is a directory, not a file")


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
