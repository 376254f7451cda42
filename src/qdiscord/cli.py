"""Command-line front end: simulate, discord, witness, haar-survey.

Results go to JSON/CSV files (paths in the config) with a one-line summary on
stdout; every JSON embeds the resolved run configuration, including seeds.
Exit codes: 0 completed (an Inconclusive witness is a result, not a failure),
2 input error, 3 numerical-assumption failure such as a scaling-fit exponent
out of range.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dqc1, nmr, states, witness as wit
from .discord import (
    MinimizerOptions,
    ScalingFitError,
    discord,
    dqc1_discord,
    fit_polarization_scaling,
    haar_discord_survey,
)
from .linalg import DensityMatrix
from .witness import (
    CorrelationMatrix,
    column_combination_scan,
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
    return nmr.load_ensemble(args.ensemble).physical_state()


def _write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def cmd_simulate(args) -> int:
    u = _resolve_unitary(args.unitary)
    inst = dqc1.Dqc1Instance(args.epsilon, u)
    estimate = dqc1.trace_estimate(inst)
    exact = complex(np.trace(u)) / u.shape[0]
    payload = {
        "command": "simulate",
        "re": estimate.real,
        "im": estimate.imag,
        "exact_trace": {"re": exact.real, "im": exact.imag},
        "epsilon": inst.epsilon,
        "n": inst.n,
        "config": {"unitary": args.unitary, "epsilon": args.epsilon, "out": str(args.out)},
    }
    path = _write_json(args.out, payload)
    print(
        f"trace estimate: {estimate.real:+.6f} {estimate.imag:+.6f}i "
        f"(eps*Tr(U)/2^n, n={inst.n}) -> {path}"
    )
    return EXIT_OK


def cmd_discord(args) -> int:
    opts = MinimizerOptions(grid=args.grid)
    config = {
        "state": args.state,
        "dqc1": args.dqc1,
        "ensemble": args.ensemble,
        "epsilon": args.epsilon,
        "alpha": args.alpha,
        "extrapolate": args.extrapolate,
        "grid": args.grid,
        "out": str(args.out),
    }
    if args.extrapolate:
        if args.dqc1 is None:
            raise ValueError("--extrapolate requires --dqc1 UNITARY")
        if args.alpha is None:
            raise ValueError("--extrapolate requires --alpha")
        fit = fit_polarization_scaling(_resolve_unitary(args.dqc1), opts=opts, alpha=args.alpha)
        payload = {
            "command": "discord",
            "discord": fit.value,
            "direct": fit.direct,
            "alpha": args.alpha,
            "scaling": {
                "exponent": fit.exponent,
                "coefficient": fit.coefficient,
                "epsilons": list(fit.epsilons),
                "discords": list(fit.discords),
            },
            "config": config,
        }
        path = _write_json(args.out, payload)
        print(
            f"extrapolated discord at alpha={args.alpha:g}: {fit.value:.4e} bits "
            f"(direct {fit.direct:.4e}, exponent {fit.exponent:.4f}) -> {path}"
        )
        return EXIT_OK
    if args.alpha is not None:
        raise ValueError("--alpha only applies together with --extrapolate")
    if args.dqc1 is not None:
        inst = dqc1.Dqc1Instance(args.epsilon, _resolve_unitary(args.dqc1))
        result = dqc1_discord(inst.eigphases, inst.epsilon, opts)
    else:
        result = discord(_resolve_state(args), opts=opts)
    payload = {
        "command": "discord",
        "discord": result.discord,
        "mutual_information": result.mutual_information,
        "classical_correlations": result.classical_correlations,
        "conditional_term": result.conditional_term,
        "argmin": {"theta": result.argmin_basis.theta, "phi": result.argmin_basis.phi},
        "diagnostics": result.diagnostics,
        "config": config,
    }
    path = _write_json(args.out, payload)
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
    from .witness import correlation_matrix

    return correlation_matrix(rho).with_uniform_sigmas(args.sigma)


def cmd_witness(args) -> int:
    corr = _witness_input(args)
    config = {
        "matrix": args.matrix,
        "state": args.state,
        "ensemble": args.ensemble,
        "sigma": args.sigma if args.matrix is None else None,
        "measure_seed": args.measure_seed,
        "samples": args.samples,
        "bin": args.bin,
        "tau": args.tau,
        "confidence": args.confidence,
        "scan_combos": args.scan_combos,
        "resamples": args.resamples,
        "seed": args.seed,
        "out": str(args.out),
    }
    verdict = witness_procedure(
        corr.as_source(),
        tau=args.tau,
        confidence=args.confidence,
        n_samples=args.samples,
        seed=args.seed,
        bin_width=args.bin,
    )
    scan_payload = None
    csv_dist = verdict.distribution
    rank = verdict.rank_lower_bound
    if args.scan_combos is not None:
        scan_dist = column_combination_scan(
            corr, args.scan_combos, args.resamples, args.seed, bin_width=args.bin
        )
        scan_tau = args.tau if args.tau is not None else default_tau(corr.sigmas, n_cols=4)
        rank = scan_dist.n_distinguishable(scan_tau, args.confidence)
        scan_payload = {
            "rank_lower_bound": rank,
            "tau": scan_tau,
            "n_samples": scan_dist.n_samples,
            "quantiles_low": scan_dist.quantile(1 - args.confidence).tolist(),
            "medians": scan_dist.medians().tolist(),
        }
        csv_dist = scan_dist
    prefix = args.csv_prefix if args.csv_prefix is not None else Path(args.out).with_suffix("")
    csv_paths = write_histogram_csvs(csv_dist, prefix)
    payload = {
        "command": "witness",
        "outcome": verdict.outcome,
        "rank_lower_bound": rank,
        "verdict": {
            "outcome": verdict.outcome,
            "rank_lower_bound": verdict.rank_lower_bound,
            "columns_used": list(verdict.columns_used),
            "confidence": verdict.confidence,
            "dim_a": verdict.dim_a,
            "tau": verdict.tau,
            "quantiles_low": verdict.distribution.quantile(1 - args.confidence).tolist(),
            "medians": verdict.distribution.medians().tolist(),
        },
        "scan": scan_payload,
        "csv_files": [str(p) for p in csv_paths],
        "config": config,
    }
    path = _write_json(args.out, payload)
    print(f"{verdict.outcome}: rank lower bound {rank} (dim A = {verdict.dim_a}) -> {path}")
    return EXIT_OK


def cmd_haar_survey(args) -> int:
    opts = MinimizerOptions(grid=args.grid)
    values = haar_discord_survey(
        args.seeds, dim=args.dim, alpha=args.alpha, start_seed=args.start_seed, opts=opts
    )
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    csv_path = Path(args.csv)
    lines = ["seed,discord"]
    for i, v in enumerate(values):
        lines.append(f"{args.start_seed + i},{v:.8e}")
    csv_path.write_text("\n".join(lines) + "\n")
    payload = {
        "command": "haar-survey",
        "mean": mean,
        "stderr": stderr,
        "n_seeds": args.seeds,
        "alpha": args.alpha,
        "dim": args.dim,
        "values_csv": str(csv_path),
        "config": {
            "seeds": args.seeds,
            "dim": args.dim,
            "alpha": args.alpha,
            "start_seed": args.start_seed,
            "grid": args.grid,
            "out": str(args.out),
            "csv": str(args.csv),
        },
    }
    path = _write_json(args.out, payload)
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
    p.add_argument("--epsilon", type=float, default=1.0, help="bias for --dqc1 without --extrapolate")
    p.add_argument("--alpha", type=float, help="target polarization for --extrapolate")
    p.add_argument("--extrapolate", action="store_true", help="quadratic-scaling extrapolation")
    p.add_argument("--grid", type=int, default=64,
                   help="minimizer grid points per angle; with --dqc1, "
                   "phi points on the half circle")
    p.add_argument("--out", default="discord.json")
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("witness", help="iterative correlation-matrix rank witness")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help=f"correlation-matrix JSON file or '{states.EQ3_FIXTURE_NAME}'")
    src.add_argument("--state", help="named state: " + ", ".join(sorted(states.NAMED_STATES)))
    src.add_argument("--ensemble", help="ensemble JSON {alpha, pps}")
    p.add_argument("--sigma", type=float, default=0.05,
                   help="per-element uncertainty attached to simulated columns")
    p.add_argument("--measure-seed", type=int, default=None,
                   help="also sample measurement noise into the simulated values")
    p.add_argument("--samples", type=int, default=10000, help="Monte Carlo samples per check")
    p.add_argument("--bin", type=float, default=0.005, help="histogram bin width")
    p.add_argument("--tau", type=float, default=None,
                   help="singular-value threshold (default: noise-scaled)")
    p.add_argument("--confidence", type=float, default=0.99,
                   help="per-singular-value quantile confidence")
    p.add_argument("--scan-combos", type=int, default=None,
                   help="pool random 4-column combinations (always keeping the identity column)")
    p.add_argument("--resamples", type=int, default=10, help="noise resamples per combination")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="witness.json")
    p.add_argument("--csv-prefix", default=None, help="histogram CSV prefix (default: out stem)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("haar-survey", help="extrapolated discord over Haar-random unitaries")
    p.add_argument("--seeds", type=int, default=500, help="number of Haar samples")
    p.add_argument("--dim", type=int, default=32, help="unitary dimension")
    p.add_argument("--alpha", type=float, default=1.4e-5)
    p.add_argument("--start-seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=64, help="phi points on the half circle")
    p.add_argument("--out", default="haar_survey.json")
    p.add_argument("--csv", default="haar_survey.csv", help="per-seed values CSV")
    p.set_defaults(func=cmd_haar_survey)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScalingFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())
