"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import json
import os
import time

import numpy as np
import pytest

from qdiscord import (
    Dqc1Instance,
    correlation_matrix,
    default_tau,
    discord,
    haar_discord_prediction,
    haar_discord_survey,
    haar_random_unitary,
    is_zero_discord,
    measured_correlation_matrix,
    named_state,
    trace_estimate,
    witness_procedure,
)
from qdiscord.cli import main as cli_main
from qdiscord.witness import INITIAL_BLOCK, OUTCOME_WITNESSED

from .conftest import (
    boltzmann_polarization,
    random_classical_quantum_state,
    random_density_matrix,
    verdict_polarization_invariance,
)
from .oracles import reconstruct_state


def check(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_cli(tmp_path, *args) -> dict:
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = cli_main(list(args))
    finally:
        os.chdir(cwd)
    assert code == 0, f"CLI exited {code}"
    out_flag = args[args.index("--out") + 1] if "--out" in args else f"{args[0]}.json"
    return json.loads((tmp_path / out_flag).read_text())


def test_criterion_01_trace_identity():
    t0 = time.monotonic()
    worst = 0.0
    for n in (1, 2, 3):
        for seed in range(100):
            u = haar_random_unitary(2**n, seed=seed)
            exact_trace = np.trace(u) / 2**n
            for eps in (1.0, 0.5, 1.4e-5):
                dev = abs(trace_estimate(Dqc1Instance(eps, u)) - eps * exact_trace)
                worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    check(
        1,
        worst < 1e-10 and elapsed < 10.0,
        f"max |estimate - eps Tr(U)/2^n| = {worst:.2e} < 1e-10, runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_02_polarization():
    alpha = boltzmann_polarization(6.728e7, 16.4, 300.0)
    rel = abs(alpha - 1.4e-5) / 1.4e-5
    check(2, rel < 0.02, f"alpha = {alpha:.4e}, {100 * rel:.2f}% from 1.4e-5 (< 2%)")


def test_criterion_03_discord_endpoint(tmp_path):
    t0 = time.monotonic()
    out = run_cli(tmp_path, "discord", "--dqc1", "jones", "--alpha", "1.4e-5")
    elapsed = time.monotonic() - t0
    value = out["discord"]
    exponent = out["scaling"]["exponent"]
    rel = abs(value - 5.4e-11) / 5.4e-11
    ok = rel < 0.15 and 1.98 <= exponent <= 2.02 and elapsed < 300
    check(
        3,
        ok,
        f"extrapolated discord {value:.4e} ({100 * rel:.1f}% from 5.4e-11), "
        f"exponent {exponent:.4f} in [1.98, 2.02], runtime {elapsed:.0f}s < 300s",
    )


def test_criterion_04_haar_average():
    t0 = time.monotonic()
    values = haar_discord_survey(500, dim=32, alpha=1.4e-5)
    elapsed = time.monotonic() - t0
    mean = values.mean()
    rel = abs(mean - 7.1e-11) / 7.1e-11
    # the leading-order Haar mean, held to 4 standard errors (d >= 8)
    predicted = haar_discord_prediction(32, 1.4e-5)
    z = abs(mean - predicted) / (values.std(ddof=1) / np.sqrt(values.size))
    check(
        4,
        rel < 0.15 and z <= 4.0 and elapsed < 60.0,
        f"500-seed mean {mean:.4e} ({100 * rel:.1f}% from 7.1e-11, tol 15%; "
        f"{z:.1f} standard errors from the predicted {predicted:.4e}, tol 4), "
        f"runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_05_eq3_witness(tmp_path):
    out = run_cli(
        tmp_path, "witness", "--matrix", "rtrunc_eq3", "--samples", "10000", "--seed", "1"
    )
    verdict = out["verdict"]
    tau = verdict["trajectory"][-1]["tau"]
    q01_third = verdict["quantiles_low"][2]
    median_fourth = verdict["medians"][3]
    ok = (
        out["outcome"] == OUTCOME_WITNESSED
        and out["rank_lower_bound"] == 3
        and q01_third > tau
        and median_fourth < tau
    )
    check(
        5,
        ok,
        f"{out['outcome']} rank {out['rank_lower_bound']}, "
        f"sv3 1st-percentile {q01_third:.3f} > tau {tau:.2f}, "
        f"sv4 median {median_fourth:.3f} < tau",
    )


def test_criterion_06_initial_state(tmp_path):
    out = run_cli(
        tmp_path, "witness", "--state", "initial-dqc1", "--scan-combos", "1000", "--seed", "1"
    )
    # the top-level pair is the full tomography's; the paper's panel is the scan's
    ok = (
        out["outcome"] == "Inconclusive"
        and out["rank_lower_bound"] == 1
        and out["scan"]["rank_lower_bound"] == 1
    )
    check(
        6,
        ok,
        f"{out['outcome']} at tomography rank {out['rank_lower_bound']}, "
        f"scan rank {out['scan']['rank_lower_bound']} "
        f"(10,000 pooled samples, paper-scale sigmas)",
    )


def test_criterion_07_witness_soundness_and_completeness():
    false_positives = 0
    for seed in range(100):
        rho = random_classical_quantum_state(2, seed)
        corr = correlation_matrix(rho).with_uniform_sigmas(0.0)
        verdict = witness_procedure(corr, n_samples=100, seed=seed)
        if verdict.witnessed:
            false_positives += 1

    witnessed = 0
    found = 0
    seed = 0
    while found < 100:
        rho = random_density_matrix(3, seed=1000 + seed)
        seed += 1
        if discord(rho).discord <= 0.01:
            continue
        found += 1
        corr = correlation_matrix(rho).with_uniform_sigmas(0.0)
        verdict = witness_procedure(corr, n_samples=100, seed=seed)
        if verdict.witnessed:
            witnessed += 1
    ok = false_positives == 0 and witnessed >= 95
    check(
        7,
        ok,
        f"0 of 100 classical-quantum states witnessed ({false_positives} false positives); "
        f"{witnessed}/100 discordant states witnessed (need >= 95)",
    )


def noisy_classical_quantum_matrices(sigma):
    """The noisy arm's 75 classical-quantum states, 50 of 1+2 and 25 of 1+3
    qubits, measured at ``sigma``: ((B qubits, seed), matrix) pairs."""
    for n_b, count in ((2, 50), (3, 25)):
        for seed in range(count):
            rho = random_classical_quantum_state(n_b, seed)
            yield (n_b, seed), measured_correlation_matrix(rho, sigma, seed)


@pytest.mark.parametrize("sigma, detection_floor", [(0.01, 57), (0.05, 30)])
def test_criterion_07_witness_under_measurement_noise(sigma, detection_floor):
    # the procedure looks up to 61 times, each at 1 - confidence per singular
    # value, and its Monte Carlo perturbs values that already carry the noise
    witnessed_cq = [
        key for key, corr in noisy_classical_quantum_matrices(sigma)
        if witness_procedure(corr, n_samples=500, seed=key[1]).witnessed
    ]

    witnessed = 0
    found = 0
    seed = 0
    while found < 60:
        rho = random_density_matrix(3, seed=1000 + seed)
        seed += 1
        if discord(rho).discord <= 0.01:
            continue
        found += 1
        corr = measured_correlation_matrix(rho, sigma, seed)
        witnessed += witness_procedure(corr, n_samples=500, seed=seed).witnessed
    ok = witnessed_cq == [] and witnessed >= detection_floor
    check(
        7,
        ok,
        f"sigma {sigma}: {len(witnessed_cq)} of 75 classical-quantum states witnessed "
        f"(B qubits, seed: {witnessed_cq}); {witnessed}/60 discordant states witnessed "
        f"(need >= {detection_floor})",
    )


@pytest.mark.parametrize("sigma, pinned, earliest", [(0.01, 68, 11), (0.05, 65, 11)])
def test_criterion_07_fixed_tau_false_positives(sigma, pinned, earliest, monkeypatch):
    # tau held at its first-check value while the noise floor of the singular
    # values grows as sqrt(columns) and every column is one more look: these
    # false positives are why the default tau grows, not a fault
    looks = []
    for (_, seed), corr in noisy_classical_quantum_matrices(sigma):
        tau = default_tau(corr.sigmas, n_cols=INITIAL_BLOCK)
        monkeypatch.setattr("qdiscord.witness.default_tau", lambda sigmas: tau)
        verdict = witness_procedure(corr, n_samples=500, seed=seed)
        if verdict.witnessed:
            looks.append(len(verdict.columns_used))
    ok = len(looks) == pinned and min(looks, default=None) == earliest
    check(
        7,
        ok,
        f"sigma {sigma}, fixed tau: {len(looks)} of 75 classical-quantum states witnessed "
        f"(pinned {pinned}), earliest after {min(looks, default=None)} columns "
        f"(pinned {earliest})",
    )


def test_criterion_08_zero_discord_consistency():
    disagreements = 0
    for seed in range(200):
        rho = random_density_matrix(3, seed=seed)
        zero = is_zero_discord(rho).is_zero
        small = discord(rho).discord < 1e-6
        if zero != small:
            disagreements += 1
    check(8, disagreements == 0, f"{disagreements} disagreements over 200 random 2x4 states")


def test_criterion_09_polarization_invariance():
    alphas = [1e-3, 1e-2, 0.5]
    results = {
        name: verdict_polarization_invariance(named_state(name), alphas)
        for name in ("bell", "product-fixture", "initial-dqc1", "final-dqc1")
    }
    ok = all(results.values())
    check(9, ok, f"invariance across alpha {alphas}: {results}")


def test_criterion_10_reconstruction_round_trip():
    worst = 0.0
    for seed in range(50):
        rho = random_density_matrix(4, seed=seed)
        corr = correlation_matrix(rho)
        worst = max(worst, float(np.linalg.norm(reconstruct_state(corr) - rho.entries)))
    check(10, worst < 1e-10, f"max Frobenius reconstruction error {worst:.2e} < 1e-10")
