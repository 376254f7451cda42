"""Self-test of the benchmark harness, one op per workload.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py with ``--seconds 1``
(one op) once untraced and twice traced with the same seed, and asserts that

- the last stdout line holds exactly correct, attempted, failed and metrics,
  the op passed its check, and every metric of BENCHMARK.json is printed with
  its unit (end-to-end untraced, per-layer traced);
- every count metric (unit ``count`` or ``B``) repeats exactly across the
  two traced runs.

It then runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must exit non-zero without printing a result. The layer
shares of each traced run are printed next to the predictions recorded in
perfbench/README.md; they inform and do not fail the test. Exit 0 when every
assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE_DIR = ROOT / ".perfbench-out" / "selftest-bare"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def check_result(result: dict, expected: list[dict], label: str) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0 and result.get("attempted") == 1):
        problems.append(f"{label}: checks did not all pass: {result}")
    printed = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    wanted = {m["name"]: m["unit"] for m in expected}
    if printed != wanted:
        missing = sorted(set(wanted) - set(printed))
        extra = sorted(set(printed) - set(wanted))
        units = sorted(n for n in set(wanted) & set(printed) if wanted[n] != printed[n])
        problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong units {units}")
    return problems


def shares(metrics: dict) -> str:
    wall = metrics["trace.wall_s"]["value"]
    return ", ".join(f"{layer} {metrics[f'{layer}.self_s']['value'] / wall:.1%}" for layer in LAYERS)


def bare_run_fails() -> list[str]:
    shutil.rmtree(BARE_DIR, ignore_errors=True)
    BARE_DIR.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", BARE_DIR)
        shutil.copytree(HERE, BARE_DIR / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("haar-extrapolate", 0, cwd=BARE_DIR)
    finally:
        shutil.rmtree(BARE_DIR, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or any(line.startswith('{"correct"') for line in lines):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        try:
            plain = result_of(run(w, 0))
            traced = [result_of(run(w, 1)) for _ in range(2)]
        except AssertionError as exc:
            problems.append(f"{w}: {exc}")
            continue
        problems += check_result(plain, bench["end_to_end"], f"{w} trace 0")
        for t in traced:
            problems += check_result(t, bench["per_layer"], f"{w} trace 1")
        first, second = (t["metrics"] for t in traced)
        for name, m in first.items():
            if m["unit"] in ("count", "B") and m["value"] != second.get(name, {}).get("value"):
                problems.append(f"{w}: count {name} {m['value']} then {second[name]['value']}")
        print(f"{w}: self-time shares {shares(first)}; "
              f"discord calls {first['discord.discord.calls']['value']}, "
              f"witness calls {first['witness.witness_procedure.calls']['value']}")
    problems += bare_run_fails()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
