"""qdiscord benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload haar-extrapolate --seed 1 --seconds 35 --trace 0

Run it from anywhere inside a source checkout; it imports qdiscord from the
checkout's ``src/`` and drives the library and ``qdiscord.cli.main`` in this
one process, with BLAS threads capped at the number of usable cores.

A run does a fixed number of ops, ``--seconds`` divided by the workload's
nominal op cost, so every machine and commit measures the same work. Every
op is checked. A fixed reference kernel is timed before the first op and
after each op, on the same thread; the end-to-end op times are reported in
units of the reference times next to each op (``ref``), which cancels most
of the host's drift in processor speed. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the library's public functions in spans and reports the per-layer
metrics. The last line of stdout is the result object; the line
before it is a report with the environment block, op count, tail percentile
and any failures, also written under ``.perfbench-out/`` with the spans.

Exit codes: 0 every op passed its check, 1 some op failed, 2 the benchmark
could not start (for example, no ``src/qdiscord`` in the checkout).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# Reference kernel size: repeats of (eigvalsh, SVD, loop) and loop length.
REF_REPEATS = 4
REF_LOOP = 250_000
# Tail percentile: the highest of these with at least TAIL_BEYOND ops above
# it. A run of fewer than 40 ops has no such percentile above the median, and
# the maximum of a few ops is set by machine noise, so it reports p75, in the
# report only: at 6-15 ops its run-to-run spread (0.06-0.14) is too wide for
# a bounded metric.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

END_TO_END = (
    ("wall_ref", "ref"),
    ("op_p50_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
LAYERS = ("cli", "dqc1", "discord", "witness", "nmr", "linalg")
CALLS = (
    "discord.discord", "witness.witness_procedure", "nmr.simulate_measurement",
    "dqc1.output_state", "cli.main",
)
SELF_TIMES = (
    "discord.discord", "discord.fit_polarization_scaling", "witness.witness_procedure",
    "witness.correlation_matrix", "witness.write_histogram_csvs",
    "nmr.measured_correlation_matrix", "dqc1.haar_random_unitary", "dqc1.output_state",
    "cli.main",
)
COUNTS = (
    ("discord.objective_evals", "count"),
    ("witness.mc_steps", "count"),
    ("witness.mc_matrices", "count"),
    ("witness.noise_bytes_computed", "B"),
    ("cli.bytes_written", "B"),
)
PER_LAYER = (
    tuple((f"{layer}.self_s", "s") for layer in LAYERS)
    + tuple((f"{name}.calls", "count") for name in CALLS)
    + tuple((f"{name}.self_s", "s") for name in SELF_TIMES)
    + COUNTS
    + (
        ("discord.polish_improved_frac", "ratio"),
        ("process.cpu_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    )
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    return n


# One cold set-up in a fresh interpreter: imports, inputs and warm-up, with
# no cache or first-call path already paid by an earlier set-up.
COLD_SETUP = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
from workloads import WORKLOADS
w = WORKLOADS[sys.argv[3]]
work = Path(sys.argv[6])
w.make_inputs(np.random.default_rng(int(sys.argv[4])), int(sys.argv[5]), work)
w.warm_up(work)
"""


def cold_setup(workload: str, seed: int, n_ops: int, work: Path) -> float:
    """Seconds of one set-up in a fresh interpreter, as a user's first command
    pays it; the BLAS cap is inherited through the environment."""
    work.mkdir()
    argv = [sys.executable, "-c", COLD_SETUP, str(SRC), str(Path(__file__).parent),
            workload, str(seed), str(n_ops), str(work)]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, n_ops: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": n_ops,
        "trace": args.trace,
    }


def make_reference():
    """The machine-speed reference: a fixed mix of the library's kind of work
    (batched small eigvalsh and SVD in LAPACK, an interpreter loop), about
    0.3 s on 2 cores. Returns a function that runs it once and gives its
    seconds. Its inputs are fixed, not drawn from the workload seed."""
    import numpy as np

    rng = np.random.default_rng(0)
    herm = rng.standard_normal((128, 64, 64))
    herm += herm.transpose(0, 2, 1)
    wide = rng.standard_normal((3000, 4, 32))

    def reference() -> float:
        t0 = time.perf_counter()
        for _ in range(REF_REPEATS):
            np.linalg.eigvalsh(herm)
            np.linalg.svd(wide, compute_uv=False)
            acc = 0
            for i in range(REF_LOOP):
                acc += i * i
        return time.perf_counter() - t0

    reference()  # first call pays page faults and LAPACK workspace
    return reference


def tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, ops beyond it) by the nearest-rank rule."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1], n - rank
    rank = math.ceil(0.75 * n)
    return 75.0, ordered[rank - 1], n - rank


def run_ops(workload, inputs, tracer, reference):
    """Run and check every op, timing the reference before the first op and
    after each op; returns op seconds, reference seconds, failures, counts."""
    times, refs, failures, counts = [], [reference()], [], Counter()
    for i, inp in enumerate(inputs):
        op_span = contextlib.nullcontext()
        if tracer is not None:
            tracer.op = i
            op_span = tracer.span("bench.op")
        t0 = time.perf_counter()
        try:
            with op_span:
                out = workload.run_op(inp)
        except Exception as exc:  # a failed op is counted, not fatal
            times.append(time.perf_counter() - t0)
            refs.append(reference())
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            continue
        times.append(time.perf_counter() - t0)
        refs.append(reference())
        try:
            reason, op_counts = workload.check(inp, out)
        except Exception as exc:  # a check that cannot read the output fails the op
            reason, op_counts = f"check raised {type(exc).__name__}: {exc}", {}
            traceback.print_exc(file=sys.stderr)
        counts.update(op_counts)
        if reason is not None:
            failures.append(f"op {i}: {reason}")
    return times, refs, failures, counts


def layer_metrics(tracer, counts: Counter, cpu: float) -> dict:
    from spans import per_span_cost

    by_name, by_layer, calls = tracer.summary()
    wall = sum(end - start for name, start, end, _, _ in tracer.spans if name == "bench.op")
    counts = counts + tracer.counts
    n_discord = calls["discord.discord"]
    values = {f"{layer}.self_s": by_layer.get(layer, 0.0) for layer in LAYERS}
    values.update({f"{name}.calls": calls[name] for name in CALLS})
    values.update({f"{name}.self_s": by_name.get(name, 0.0) for name in SELF_TIMES})
    values.update({name: counts[name] for name, _ in COUNTS})
    values["discord.polish_improved_frac"] = (
        counts["discord.polish_improved"] / n_discord if n_discord else 0.0
    )
    values["process.cpu_s"] = cpu
    values["trace.wall_s"] = wall
    values["trace.unattributed_frac"] = by_name.get("bench.op", 0.0) / wall
    # The tracer's own cost: span bookkeeping, calibrated on a no-op, plus
    # the counters' observers, timed as they run.
    overhead = per_span_cost() * len(tracer.spans) + tracer.observe_s
    values["trace.overhead_frac"] = overhead / wall
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdiscord" / "__init__.py").is_file():
        print(f"error: no qdiscord sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import qdiscord

    if Path(qdiscord.__file__).resolve().parent != (SRC / "qdiscord").resolve():
        print(f"error: imported qdiscord from {qdiscord.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    from spans import Tracer
    from workloads import TRACED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    n_ops = max(1, round(args.seconds / workload.nominal_op_s))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        try:
            setups = [cold_setup(args.workload, args.seed, n_ops, work / f"setup{k}")
                      for k in range(SETUP_REPEATS)]
            # The ops run in this process, after its own untimed set-up.
            inputs = workload.make_inputs(np.random.default_rng(args.seed), n_ops, work)
            workload.warm_up(work)
            reference = make_reference()
        except Exception:  # no op can run without set-up
            traceback.print_exc(file=sys.stderr)
            return 2

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            for module, attr, observe in TRACED:
                tracer.install(module, attr, observe)
        cpu0 = os.times()
        try:
            times, refs, failures, counts = run_ops(workload, inputs, tracer, reference)
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu1 = os.times()
        cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # An op's cost in reference units: its seconds over the mean of the
    # reference times just before and just after it. The machine's speed
    # flips between two states every few seconds, so one figure for the
    # whole run (the median of its references) lands on either state and
    # tracks it worse (see perfbench/README.md).
    rel = [t / ((r0 + r1) / 2) for t, r0, r1 in zip(times, refs, refs[1:])]
    if tracer is None:
        pct, tail_ref, beyond = tail(rel)
        values = {
            "wall_ref": sum(rel),
            "op_p50_ref": statistics.median(rel),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    else:
        values = layer_metrics(tracer, counts, cpu)
        units = dict(PER_LAYER)
    result = {
        "correct": not failures,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "environment": environment(args, n_ops, blas_threads),
        "op_count": len(times),
        "failed_ops_frac": len(failures) / len(times),
        "failures": failures,
        "setup_s_repeats": setups,
        "wall_s": sum(times),
        "op_p50_s": statistics.median(times),
        "op_s": times,
        "ref_s": refs,
        "op_ref": rel,
    }
    if tracer is None:
        report.update(op_tail_ref=tail_ref, op_tail_s=tail(times)[1], tail_percentile=pct,
                      tail_ops_beyond=beyond)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.as_records()))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
