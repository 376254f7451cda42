#!/usr/bin/env python3
"""Ensemble average of the extrapolated circuit-output discord over
Haar-random unitaries at NMR-scale polarization.

Runs the 500-seed survey by default, about a second with the Taylor
series of the discord in the traces of U's even powers (no
eigendecomposition). Per-seed values land in a CSV next to the summary JSON
under results/haar/.
"""

import argparse
import sys
from pathlib import Path

from qdiscord.cli import main as cli_main


def run(out_dir: Path, seeds: int, dim: int, alpha: float) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    return cli_main([
        "haar-survey",
        "--seeds", str(seeds),
        "--dim", str(dim),
        "--alpha", str(alpha),
        "--out", str(out_dir / "haar_survey.json"),
        "--csv", str(out_dir / "haar_survey.csv"),
    ])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results/haar"))
    parser.add_argument("--seeds", type=int, default=500)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--alpha", type=float, default=1.4e-5)
    args = parser.parse_args()
    sys.exit(run(args.out_dir, args.seeds, args.dim, args.alpha))
