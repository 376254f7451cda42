#!/usr/bin/env python3
"""Regenerate the witness figure data: singular-value distributions for the
measured truncated matrix and for the simulated initial state.

Writes verdict JSONs and per-singular-value histogram CSVs
(bin_center,relative_occurrence,cumulative) into results/witness/. The
initial-state panel pools 1000 random four-column combinations x 10 noise
resamples; the final-state panel propagates the published uncertainties
through 10,000 Monte Carlo samples at bin width 0.005.
"""

import argparse
import sys
from pathlib import Path

from qdiscord.cli import main as cli_main


def run(out_dir: Path, seed: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    final = cli_main([
        "witness",
        "--matrix", "rtrunc_eq3",
        "--samples", "10000",
        "--bin", "0.005",
        "--seed", str(seed),
        "--out", str(out_dir / "final_state.json"),
        "--csv-prefix", str(out_dir / "final_state"),
    ])
    initial = cli_main([
        "witness",
        "--state", "initial-dqc1",
        "--scan-combos", "1000",
        "--resamples", "10",
        "--bin", "0.005",
        "--seed", str(seed),
        "--out", str(out_dir / "initial_state.json"),
        "--csv-prefix", str(out_dir / "initial_state"),
    ])
    return max(final, initial)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results/witness"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.exit(run(args.out_dir, args.seed))
