import argparse
import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdiscord.cli import build_parser, main
from qdiscord import (
    CorrelationMatrix,
    Dqc1Instance,
    discord,
    eq3_fixture,
    jones_unitary,
    output_state,
)

from .conftest import matrix_document


def run(tmp_path, *args) -> int:
    """Invoke the CLI from a scratch directory."""
    import os

    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(args))
    finally:
        os.chdir(old)


class TestSimulate:
    def test_jones_full_bias(self, tmp_path):
        assert run(tmp_path, "simulate", "--unitary", "jones", "--epsilon", "1") == 0
        out = json.loads((tmp_path / "simulate.json").read_text())
        assert out["re"] == pytest.approx(0.0569, abs=5e-5)
        assert out["im"] == pytest.approx(0.2097, abs=5e-5)
        assert out["n"] == 3
        assert out["config"]["epsilon"] == 1.0

    def test_identity_unitary(self, tmp_path):
        assert run(tmp_path, "simulate", "--unitary", "identity8", "--epsilon", "1") == 0
        out = json.loads((tmp_path / "simulate.json").read_text())
        assert out["re"] == pytest.approx(1.0, abs=1e-10)
        assert out["im"] == pytest.approx(0.0, abs=1e-10)

    def test_zero_bias(self, tmp_path):
        assert run(tmp_path, "simulate", "--unitary", "jones", "--epsilon", "0") == 0
        out = json.loads((tmp_path / "simulate.json").read_text())
        assert abs(out["re"]) < 1e-12 and abs(out["im"]) < 1e-12

    def test_malformed_unitary_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "re": [[1, 0]]}')
        assert run(tmp_path, "simulate", "--unitary", str(bad)) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_unitary_file_exits_2(self, tmp_path):
        assert run(tmp_path, "simulate", "--unitary", "nosuch.json") == 2

    @pytest.mark.parametrize(
        "command",
        [
            ("simulate", "--unitary"),
            ("discord", "--alpha", "1.4e-5", "--extrapolate", "--dqc1"),
            ("discord", "--dqc1"),
        ],
    )
    def test_non_finite_unitary_exits_2(self, tmp_path, capsys, command):
        bad = tmp_path / "nan.json"
        bad.write_text('{"dim": 2, "re": [[1, 0], [0, NaN]], "im": [[0, 0], [0, 0]]}')
        assert run(tmp_path, *command, str(bad)) == 2
        assert "non-finite" in capsys.readouterr().err


class TestDiscordCommand:
    def test_bell(self, tmp_path):
        assert run(tmp_path, "discord", "--state", "bell") == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert out["discord"] == pytest.approx(1.0, abs=1e-6)
        assert out["mutual_information"] == pytest.approx(2.0, abs=1e-9)
        assert "theta" in out["argmin"] and "diagnostics" in out

    @pytest.mark.parametrize(
        "source", [("--dqc1", "jones"), ("--state", "bell")], ids=["dqc1", "state"]
    )
    def test_diagnostics_schema(self, tmp_path, source):
        assert run(tmp_path, "discord", *source) == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        diag = out["diagnostics"]
        assert set(diag) == {"grid", "grid_min", "refine_nfev", "converged", "polish_gain"}
        assert diag["grid"] == 64 and "grid" not in out["config"]
        assert diag["converged"] is True
        assert diag["refine_nfev"] > 0
        assert diag["polish_gain"] == diag["grid_min"] - out["conditional_term"] >= 0
        # the closed-form zero-discord test rides along with the dense search only
        if source[0] == "--dqc1":
            assert "zero_discord" not in out
        else:
            zero = out["zero_discord"]
            assert set(zero) == {"is_zero", "distance", "theta", "phi"}
            assert zero["is_zero"] is False
            assert zero["distance"] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_product_fixture(self, tmp_path):
        assert run(tmp_path, "discord", "--state", "product-fixture") == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert out["discord"] < 1e-9

    def test_unknown_state_exits_2(self, tmp_path):
        assert run(tmp_path, "discord", "--state", "nope") == 2

    def test_alpha_without_extrapolate_exits_2(self, tmp_path):
        assert run(tmp_path, "discord", "--dqc1", "jones", "--alpha", "1e-5") == 2

    @pytest.mark.parametrize("alpha", ["2", "0"])
    def test_alpha_outside_unit_interval_exits_2(self, tmp_path, capsys, alpha):
        args = ("discord", "--dqc1", "jones", "--alpha", alpha, "--extrapolate")
        assert run(tmp_path, *args) == 2
        assert "alpha" in capsys.readouterr().err

    def test_dqc1_matches_dense_discord(self, tmp_path):
        # the eigenphase engine answers; the dense search on the state is the oracle
        assert run(tmp_path, "discord", "--dqc1", "jones", "--epsilon", "0.5") == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        dense = discord(output_state(Dqc1Instance(0.5, jones_unitary())))
        np.testing.assert_allclose(out["discord"], dense.discord, rtol=1e-9, atol=1e-13)
        assert out["argmin"]["theta"] == pytest.approx(np.pi / 2, abs=1e-15)

    def test_dqc1_epsilon_outside_unit_interval_exits_2(self, tmp_path, capsys):
        assert run(tmp_path, "discord", "--dqc1", "jones", "--epsilon", "1.5") == 2
        assert "epsilon" in capsys.readouterr().err

    def test_dqc1_epsilon_defaults_to_one(self, tmp_path):
        assert run(tmp_path, "discord", "--dqc1", "jones") == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert out["config"]["epsilon"] == 1.0
        dense = discord(output_state(Dqc1Instance(1.0, jones_unitary())))
        np.testing.assert_allclose(out["discord"], dense.discord, rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize(
        "source",
        [
            ("--state", "bell"),
            ("--ensemble", "ens.json"),
            ("--dqc1", "jones", "--alpha", "1.4e-5", "--extrapolate"),
        ],
        ids=["state", "ensemble", "extrapolate"],
    )
    def test_ignored_epsilon_exits_2(self, tmp_path, capsys, source):
        (tmp_path / "ens.json").write_text(json.dumps({"alpha": 0.5, "pps": "bell"}))
        assert run(tmp_path, "discord", *source, "--epsilon", "0.3") == 2
        assert "--epsilon" in capsys.readouterr().err
        assert not (tmp_path / "discord.json").exists()

    def test_scaling_failure_exits_3(self, tmp_path, monkeypatch):
        from qdiscord.discord import ScalingFitError

        def boom(*a, **k):
            raise ScalingFitError("exponent out of range")

        monkeypatch.setattr("qdiscord.cli.fit_polarization_scaling", boom)
        code = run(
            tmp_path, "discord", "--dqc1", "jones", "--alpha", "1.4e-5", "--extrapolate"
        )
        assert code == 3

    def test_underflowing_alpha_exits_2(self, tmp_path, capsys):
        # D(alpha) and D(alpha/2) fall below the smallest normal double
        args = ("discord", "--dqc1", "jones", "--alpha", "1e-170", "--extrapolate")
        assert run(tmp_path, *args) == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "underflow" in err
        assert not (tmp_path / "discord.json").exists()

    def test_tiny_alpha_in_double_range_runs(self, tmp_path):
        args = ("discord", "--dqc1", "jones", "--alpha", "1e-150", "--extrapolate")
        assert run(tmp_path, *args) == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert 1.98 <= out["scaling"]["exponent"] <= 2.02

    def test_extrapolate_reports_direct_value(self, tmp_path):
        args = ("discord", "--dqc1", "jones", "--alpha", "1.4e-5", "--extrapolate")
        assert run(tmp_path, *args) == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert out["direct"] == pytest.approx(out["discord"], rel=1e-9)
        assert set(out["scaling"]) == {"exponent", "coefficient"}
        assert 1.98 <= out["scaling"]["exponent"] <= 2.02

    def test_extrapolation_disagreeing_with_direct_value_exits_3(
        self, tmp_path, monkeypatch, capsys
    ):
        disc = importlib.import_module("qdiscord.discord")
        exact = disc.dqc1_discord

        def doubled_at_alpha(eigphases, eps):
            value = exact(eigphases, eps).discord
            return types.SimpleNamespace(discord=2 * value if eps < 1e-4 else value)

        monkeypatch.setattr(disc, "dqc1_discord", doubled_at_alpha)
        code = run(
            tmp_path, "discord", "--dqc1", "jones", "--alpha", "1.4e-5", "--extrapolate"
        )
        assert code == 3
        assert "direct value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [("discord", "--dqc1", "jones"), ("haar-survey", "--seeds", "1", "--dim", "8")],
        ids=["discord", "haar-survey"],
    )
    def test_grid_is_not_a_flag(self, tmp_path, capsys, command):
        # the search grid is the library constant GRID, not a setting
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *command, "--grid", "64")
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_ensemble_input(self, tmp_path):
        ens = tmp_path / "ens.json"
        ens.write_text(json.dumps({"alpha": 0.5, "pps": "bell"}))
        assert run(tmp_path, "discord", "--ensemble", str(ens)) == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert out["discord"] > 0.05
        assert out["zero_discord"]["is_zero"] is False


class TestWitnessCommand:
    def test_eq3_fixture_builtin(self, tmp_path):
        code = run(
            tmp_path, "witness", "--matrix", "rtrunc_eq3",
            "--samples", "10000", "--bin", "0.005", "--seed", "1",
        )
        assert code == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        assert out["outcome"] == "DiscordWitnessed"
        assert out["rank_lower_bound"] == 3
        assert out["verdict"]["columns_used"] == ["III", "IZI", "IIZ", "IZZ"]
        for i in (1, 2, 3, 4):
            assert (tmp_path / f"witness_sv{i}.csv").exists()

    def test_witness_run_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median imports numpy.ma on first use; the witness takes its
        # medians through the one quantile rule instead
        import qdiscord

        code = (
            "import sys\n"
            "from qdiscord.cli import main\n"
            "assert main(['witness', '--state', 'initial-dqc1', '--samples', '100']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(qdiscord.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.splitlines()[-1] == "False"

    def test_eq3_fixture_from_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_document(eq3_fixture())))
        assert run(tmp_path, "witness", "--matrix", str(path), "--seed", "1") == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        assert out["rank_lower_bound"] == 3

    def test_rank_one_zero_sigma_matrix_inconclusive(self, tmp_path):
        corr = CorrelationMatrix(
            ("I", "X", "Y", "Z"),
            ("II", "IZ"),
            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
            np.zeros((4, 2)),
        )
        path = tmp_path / "rank1.json"
        path.write_text(json.dumps(matrix_document(corr)))
        assert run(tmp_path, "witness", "--matrix", str(path)) == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        assert out["outcome"] == "Inconclusive"
        assert out["rank_lower_bound"] == 1

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"rows": ["I", "Q", "Y", "Z"]}, "Pauli"),
            ({"rows": [1, 2, 3, 4]}, "Pauli"),
            ({"rows": ["I", "XX", "Y", "Z"]}, "one length"),
            ({"cols": ["III", "IZI", "III", "IZZ"]}, "duplicate"),
            ({"sigmas": [[0.0] + [1e308] * 3] + [[1e308] * 4] * 3}, "non-finite"),
        ],
        ids=["symbol", "integer", "mixed-length", "duplicate", "overflow"],
    )
    def test_malformed_matrix_exits_2(self, tmp_path, capsys, change, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**matrix_document(eq3_fixture()), **change}))
        assert run(tmp_path, "witness", "--matrix", str(path), "--samples", "100") == 2
        assert message in capsys.readouterr().err

    def test_matrix_without_sigmas_exits_2(self, tmp_path):
        corr = CorrelationMatrix(
            ("I", "X"), ("I", "Z"), np.array([[1.0, 0.2], [0.1, 0.3]])
        )
        path = tmp_path / "nosig.json"
        path.write_text(json.dumps(matrix_document(corr)))
        assert run(tmp_path, "witness", "--matrix", str(path)) == 2

    def test_simulated_final_state_witnessed(self, tmp_path):
        code = run(tmp_path, "witness", "--state", "final-dqc1", "--seed", "2")
        assert code == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        assert out["outcome"] == "DiscordWitnessed"
        assert out["rank_lower_bound"] == 3

    def test_measured_final_state(self, tmp_path):
        code = run(
            tmp_path, "witness", "--state", "final-dqc1",
            "--measure-seed", "5", "--seed", "2",
        )
        assert code == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        assert out["outcome"] in ("DiscordWitnessed", "Inconclusive")

    def test_reproducible_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for d in (a, b):
            assert run(d, "witness", "--matrix", "rtrunc_eq3", "--seed", "7") == 0
        assert (a / "witness.json").read_bytes() == (b / "witness.json").read_bytes()
        for i in (1, 2, 3, 4):
            assert (a / f"witness_sv{i}.csv").read_bytes() == (
                b / f"witness_sv{i}.csv"
            ).read_bytes()

    def test_csv_reparse_normalization(self, tmp_path):
        assert run(tmp_path, "witness", "--matrix", "rtrunc_eq3", "--seed", "1") == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        bin_width = out["config"]["bin"]
        for csv_file in out["csv_files"]:
            lines = (tmp_path / csv_file).read_text().strip().splitlines()
            assert lines[0] == "bin_center,relative_occurrence,cumulative"
            body = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
            assert body[:, 1].sum() * bin_width == pytest.approx(1.0, abs=1e-3)
            assert np.all(np.diff(body[:, 2]) >= -1e-12)
            assert body[-1, 2] == pytest.approx(1.0, abs=1e-6)

    def test_trajectory_schema(self, tmp_path):
        args = ("witness", "--state", "initial-dqc1", "--samples", "200", "--seed", "1")
        assert run(tmp_path, *args) == 0
        verdict = json.loads((tmp_path / "witness.json").read_text())["verdict"]
        trajectory = verdict["trajectory"]
        assert len(trajectory) == len(verdict["columns_used"]) - 4 + 1 == 61
        for check, column in zip(trajectory, verdict["columns_used"][3:]):
            assert set(check) == {"column", "tau", "rank", "quantiles_low", "decomposed"}
            assert check["column"] == column
            assert len(check["quantiles_low"]) == 4
            assert 0 < check["decomposed"] <= 200
        last = trajectory[-1]
        assert last["rank"] == verdict["rank_lower_bound"]
        assert last["tau"] == verdict["tau"]
        assert last["quantiles_low"] == verdict["quantiles_low"]

    @pytest.mark.parametrize("confidence", ["1.5", "0", "-0.1", "nan"])
    def test_confidence_outside_unit_interval_exits_2(self, tmp_path, capsys, confidence):
        args = ("witness", "--matrix", "rtrunc_eq3", "--confidence", confidence)
        assert run(tmp_path, *args) == 2
        assert "--confidence" in capsys.readouterr().err
        assert not (tmp_path / "witness.json").exists()

    @pytest.mark.parametrize("tau", ["0", "-1", "nan", "inf"])
    def test_tau_not_positive_and_finite_exits_2(self, tmp_path, capsys, tau):
        # tau 0 or -1 used to witness discord in this zero-discord state
        args = ("witness", "--state", "initial-dqc1", "--samples", "100", "--tau", tau)
        assert run(tmp_path, *args) == 2
        assert "--tau" in capsys.readouterr().err
        assert not (tmp_path / "witness.json").exists()

    @pytest.mark.parametrize(
        "flag, value, extra, message",
        [
            ("--bin", "0", (), "--bin"),
            ("--bin", "nan", (), "--bin"),
            ("--samples", "0", (), "--samples"),
            ("--scan-combos", "0", (), "--scan-combos"),
            ("--resamples", "0", ("--scan-combos", "10"), "--resamples"),
        ],
        ids=["bin-0", "bin-nan", "samples-0", "scan-combos-0", "resamples-0"],
    )
    def test_bad_monte_carlo_setting_exits_2_before_fetching(
        self, tmp_path, capsys, monkeypatch, flag, value, extra, message
    ):
        from qdiscord import witness

        fetched = []
        real = witness._GramFold.add

        def counted(self, label, values, sigmas):
            fetched.append(label)
            return real(self, label, values, sigmas)

        monkeypatch.setattr(witness._GramFold, "add", counted)
        args = ("witness", "--matrix", "rtrunc_eq3", "--samples", "100", flag, value, *extra)
        assert run(tmp_path, *args) == 2
        assert message in capsys.readouterr().err
        assert fetched == []
        assert not (tmp_path / "witness.json").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--bin", "0"),
            ("--samples", "0"),
            ("--sigma", "-1"),
            ("--sigma", "nan"),
            ("--sigma", "inf"),
            ("--sigma", "1e308"),
        ],
        ids=["--bin", "--samples", "sigma--1", "sigma-nan", "sigma-inf", "sigma-1e308"],
    )
    def test_bad_monte_carlo_setting_exits_2_before_measuring(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        from qdiscord import nmr

        measured = []
        real = nmr.measured_correlation_matrix

        def counted(*a, **k):
            measured.append(a)
            return real(*a, **k)

        monkeypatch.setattr(nmr, "measured_correlation_matrix", counted)
        (tmp_path / "ens.json").write_text(json.dumps({"alpha": 0.5, "pps": "initial-dqc1"}))
        args = ("witness", "--ensemble", "ens.json", "--measure-seed", "3", flag, value)
        assert run(tmp_path, *args) == 2
        assert flag in capsys.readouterr().err
        assert measured == []
        assert not (tmp_path / "witness.json").exists()

    @pytest.mark.parametrize(
        "source", [("--state", "initial-dqc1"), ("--matrix", "rtrunc_eq3")], ids=["state", "matrix"]
    )
    def test_bin_too_fine_for_histogram_exits_2_before_the_procedure(
        self, tmp_path, capsys, monkeypatch, source
    ):
        calls = []
        monkeypatch.setattr("qdiscord.cli.witness_procedure", lambda *a, **k: calls.append(a))
        assert run(tmp_path, "witness", *source, "--bin", "1e-12") == 2
        err = capsys.readouterr().err
        assert "--bin" in err and "histogram bins" in err
        assert calls == []
        assert not (tmp_path / "witness.json").exists()

    def test_noise_too_wide_for_the_bins_exits_2_early(self, tmp_path, capsys, monkeypatch):
        # sigma 1000 puts the noisy singular values past 10^6 bins of 0.005
        from qdiscord import witness

        fetched = []
        real = witness._GramFold.add

        def counted(self, label, values, sigmas):
            fetched.append(label)
            return real(self, label, values, sigmas)

        monkeypatch.setattr(witness._GramFold, "add", counted)
        args = ("witness", "--state", "initial-dqc1", "--samples", "100", "--sigma", "1000")
        assert run(tmp_path, *args) == 2
        err = capsys.readouterr().err
        assert "--bin" in err and "--sigma" in err and "histogram bins" in err
        assert 4 <= len(fetched) < 64
        assert not (tmp_path / "witness.json").exists()

    def test_config_embedded(self, tmp_path):
        assert run(tmp_path, "witness", "--matrix", "rtrunc_eq3", "--seed", "3") == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        config = out["config"]
        assert config["seed"] == 3
        assert config["samples"] == 10000
        assert config["bin"] == 0.005
        assert config["confidence"] == 0.99
        assert config["resamples"] is None and config["measure_seed"] is None

    def test_resamples_default_with_scan_combos(self, tmp_path):
        args = ("witness", "--matrix", "rtrunc_eq3", "--samples", "100", "--scan-combos", "5")
        assert run(tmp_path, *args) == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        assert out["config"]["resamples"] == 10
        scan = out["scan"]
        assert scan["n_samples"] == 5 * 10
        # the scan rank counts the low quantiles the payload reports
        assert scan["rank_lower_bound"] == sum(q > scan["tau"] for q in scan["quantiles_low"])

    def test_measure_seed_with_matrix_exits_2(self, tmp_path, capsys):
        # a correlation-matrix file is already measured: no noise is sampled into it
        args = ("witness", "--matrix", "rtrunc_eq3", "--samples", "100", "--measure-seed", "5")
        assert run(tmp_path, *args) == 2
        assert "--measure-seed" in capsys.readouterr().err
        assert not (tmp_path / "witness.json").exists()

    def test_sigma_with_matrix_exits_2(self, tmp_path, capsys):
        # a correlation-matrix file carries its own sigmas
        args = ("witness", "--matrix", "rtrunc_eq3", "--samples", "50", "--sigma", "0.3")
        assert run(tmp_path, *args) == 2
        assert "--sigma only applies to --state or --ensemble" in capsys.readouterr().err
        assert not (tmp_path / "witness.json").exists()

    def test_sigma_defaults_with_state_only(self, tmp_path):
        assert run(tmp_path, "witness", "--state", "initial-dqc1", "--samples", "50") == 0
        assert json.loads((tmp_path / "witness.json").read_text())["config"]["sigma"] == 0.05
        assert run(tmp_path, "witness", "--matrix", "rtrunc_eq3", "--samples", "50") == 0
        assert json.loads((tmp_path / "witness.json").read_text())["config"]["sigma"] is None

    def test_resamples_without_scan_combos_exits_2(self, tmp_path, capsys):
        args = ("witness", "--matrix", "rtrunc_eq3", "--samples", "100", "--resamples", "3")
        assert run(tmp_path, *args) == 2
        assert "--resamples" in capsys.readouterr().err
        assert not (tmp_path / "witness.json").exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (("witness", "--matrix", "rtrunc_eq3", "--samples", "50", "--seed", "-1"), "--seed -1"),
        (("witness", "--state", "initial-dqc1", "--measure-seed", "-3"), "--measure-seed -3"),
        (("haar-survey", "--seeds", "1", "--dim", "8", "--start-seed", "-1"), "--start-seed -1"),
    ],
    ids=["seed", "measure-seed", "start-seed"],
)
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, monkeypatch, args, flag):
    calls = []
    for target in ("qdiscord.cli.witness_procedure", "qdiscord.cli.haar_discord_survey",
                   "qdiscord.nmr.measured_correlation_matrix"):
        monkeypatch.setattr(target, lambda *a, **k: calls.append(a))
    assert run(tmp_path, *args) == 2
    assert f"{flag} must be non-negative" in capsys.readouterr().err
    assert calls == []


def count_calls(monkeypatch, *targets) -> list:
    """Patch each dotted target to record its calls and then run as before."""
    calls = []
    for target in targets:
        module, name = target.rsplit(".", 1)
        real = getattr(importlib.import_module(module), name)

        def counted(*a, real=real, **k):
            calls.append(a)
            return real(*a, **k)

        monkeypatch.setattr(target, counted)
    return calls


@pytest.mark.parametrize(
    "args, flag",
    [
        (("simulate", "--unitary", "jones", "--out", "nodir/s.json"), "--out"),
        (("discord", "--dqc1", "jones", "--out", "nodir/d.json"), "--out"),
        (("witness", "--state", "initial-dqc1", "--out", "nodir/w.json"), "--out"),
        (("witness", "--state", "initial-dqc1", "--out", "nodir/w.json", "--csv-prefix", "ok"),
         "--out"),
        (("witness", "--state", "initial-dqc1", "--csv-prefix", "nodir/ok"), "--csv-prefix"),
        (("haar-survey", "--seeds", "5", "--out", "nodir/h.json"), "--out"),
        (("haar-survey", "--seeds", "5", "--csv", "nodir/h.csv"), "--csv"),
    ],
    ids=["simulate-out", "discord-out", "witness-out", "witness-out-with-prefix",
         "witness-csv-prefix", "haar-survey-out", "haar-survey-csv"],
)
def test_missing_output_directory_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, args, flag
):
    calls = count_calls(
        monkeypatch, "qdiscord.dqc1.trace_estimate", "qdiscord.cli.dqc1_discord",
        "qdiscord.cli.witness_procedure", "qdiscord.cli.haar_discord_survey",
    )
    assert run(tmp_path, *args) == 2
    assert f"{flag} nodir/" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, flag",
    [
        (("haar-survey", "--seeds", "1", "--dim", "8", "--out", "d"), "--out"),
        (("haar-survey", "--seeds", "1", "--dim", "8", "--csv", "d"), "--csv"),
        (("witness", "--state", "bell", "--samples", "100", "--out", "d"), "--out"),
        (("simulate", "--unitary", "jones", "--out", "."), "--out"),
    ],
    ids=["haar-survey-out", "haar-survey-csv", "witness-out", "simulate-out-cwd"],
)
def test_output_path_naming_a_directory_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, args, flag
):
    calls = count_calls(
        monkeypatch, "qdiscord.dqc1.trace_estimate", "qdiscord.cli.witness_procedure",
        "qdiscord.cli.haar_discord_survey",
    )
    (tmp_path / "d").mkdir()
    assert run(tmp_path, *args) == 2
    assert f"{flag} {args[-1]}" in capsys.readouterr().err
    assert calls == []
    assert [p.name for p in tmp_path.rglob("*")] == ["d"]


def run_module(tmp_path, *args) -> subprocess.CompletedProcess:
    """``python *args`` in a scratch directory with this package importable;
    the timeout fails a run that loops instead of refusing."""
    import qdiscord

    src = str(Path(qdiscord.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "args",
    [
        ("witness", "--state", "initial-dqc1", "--samples", str(10**16)),
        ("haar-survey", "--seeds", str(10**17)),
        ("witness", "--state", "initial-dqc1", "--samples", "100", "--scan-combos", str(10**16)),
    ],
    ids=["witness-samples", "haar-survey-seeds", "scan-combos"],
)
def test_run_too_large_to_allocate_exits_2(tmp_path, args):
    # every size is 10**16 or more: the arrays exceed any virtual address
    # space, so the refusal does not depend on the host's overcommit policy
    out = run_module(tmp_path, "-m", "qdiscord", *args)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: Unable to allocate")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, document, what",
    [
        (
            ("discord", "--ensemble"),
            {"alpha": 0.5, "pps": {"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, math.inf]]}},
            "density matrix",
        ),
        (
            ("simulate", "--unitary"),
            {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, math.inf]]},
            "unitary",
        ),
    ],
    ids=["ensemble", "unitary"],
)
def test_infinite_imaginary_part_is_refused_before_numpy_warns(tmp_path, command, document, what):
    # forming re + 1j im with an infinite im makes numpy warn; with warnings
    # as errors that warning would end the run with a traceback and exit 1
    (tmp_path / "in.json").write_text(json.dumps(document))
    out = run_module(tmp_path, "-W", "error::RuntimeWarning", "-m", "qdiscord", *command, "in.json")
    assert out.returncode == 2, out.stderr
    assert out.stderr == f"error: {what} has non-finite (NaN or inf) entries\n"
    assert not (tmp_path / f"{command[0]}.json").exists()


@pytest.mark.parametrize(
    "args, json_name, csv_stem",
    [
        (("--csv-prefix", "d"), "witness.json", "d"),
        (("--out", "d.json"), "d.json", "d"),
        (("--csv-prefix", "d/"), "witness.json", "d/"),
    ],
    ids=["csv-prefix", "out-stem", "csv-prefix-in-dir"],
)
def test_csv_prefix_naming_a_directory_writes_its_files(tmp_path, args, json_name, csv_stem):
    # a prefix is never opened itself: "d" writes d_sv1.csv beside the
    # directory d, and "d/" writes d/_sv1.csv inside it
    (tmp_path / "d").mkdir()
    assert run(tmp_path, "witness", "--state", "bell", "--samples", "100", *args) == 0
    assert (tmp_path / json_name).is_file()
    for i in range(1, 5):
        assert (tmp_path / f"{csv_stem}_sv{i}.csv").is_file()


def subparsers() -> dict[str, argparse.ArgumentParser]:
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


def optional_flags(parser: argparse.ArgumentParser) -> list[str]:
    """The flags a run may leave out, less the required source of its input."""
    sources = {a for group in parser._mutually_exclusive_groups for a in group._group_actions}
    return [
        a.option_strings[0] for a in parser._actions
        if a.option_strings and not a.required and a.dest != "help" and a not in sources
    ]


# Every source mode, kept small; each run adds --out o.json.
SOURCE_MODES = {
    "simulate": [("--unitary", "jones")],
    "discord": [
        ("--state", "bell"),
        ("--ensemble", "ens.json"),
        ("--dqc1", "jones"),
        ("--dqc1", "jones", "--extrapolate", "--alpha", "1.4e-5"),
    ],
    "witness": [
        ("--matrix", "rtrunc_eq3", "--samples", "50"),
        ("--state", "initial-dqc1", "--samples", "50"),
        ("--ensemble", "ens.json", "--samples", "50"),
        ("--state", "initial-dqc1", "--samples", "50", "--scan-combos", "5"),
    ],
    "haar-survey": [("--seeds", "1", "--dim", "8")],
}
# A valid value for each optional flag that differs from its default and from
# the value in any source mode; a switch that needs a companion flag gets it.
FLAG_VALUES = {
    "--epsilon": ("0.5",),
    "--alpha": ("2.8e-5",),
    "--extrapolate": ("--alpha", "2.8e-5"),
    "--sigma": ("0.02",),
    "--measure-seed": ("0",),  # 0 is a given value, not an absent one
    "--samples": ("60",),
    "--bin": ("0.01",),
    "--tau": ("0.5",),
    "--confidence": ("0.9",),
    "--scan-combos": ("3",),
    "--resamples": ("2",),
    "--seed": ("1",),
    "--seeds": ("2",),
    "--dim": ("4",),
    "--start-seed": ("3",),
    "--out": ("alt.json",),
    "--csv": ("alt.csv",),
    "--csv-prefix": ("alt",),
}
OUTPUT_FLAGS = {"--out", "--csv", "--csv-prefix"}


@pytest.mark.parametrize(
    "command, source",
    [(command, source) for command, modes in SOURCE_MODES.items() for source in modes],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_every_optional_flag_acts_or_is_refused(tmp_path, capsys, command, source):
    """Each flag changes the output outside ``config`` or exits 2 naming itself;
    an output-path flag must write its path."""

    def outputs(*extra):
        work = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        work.mkdir()
        (work / "ens.json").write_text(json.dumps({"alpha": 0.5, "pps": "initial-dqc1"}))
        code = run(work, command, *source, "--out", "o.json", *extra)
        written = {p.name: p.read_bytes() for p in work.iterdir() if p.name != "ens.json"}
        if "o.json" in written:
            payload = json.loads(written.pop("o.json"))
            del payload["config"]
            written["o.json"] = payload
        return code, capsys.readouterr().err, written

    code, err, base = outputs()
    assert code == 0, err
    unchecked = []
    for flag in optional_flags(subparsers()[command]):
        assert flag in FLAG_VALUES, f"{flag} has no test value"
        code, err, written = outputs(flag, *FLAG_VALUES[flag])
        if flag in OUTPUT_FLAGS:
            acts = code == 0 and any(name.startswith("alt") for name in written)
        else:
            acts = (code == 2 and flag in err) or (code == 0 and written != base)
        if not acts:
            unchecked.append((flag, code, err))
    assert unchecked == []


@pytest.mark.parametrize(
    "args, resolved",
    [
        (("simulate", "--unitary", "jones"), {"epsilon": 1.0}),
        (("discord", "--dqc1", "jones"), {"epsilon": 1.0, "alpha": None, "extrapolate": False}),
        (("discord", "--state", "bell"), {"epsilon": None}),
        (("witness", "--matrix", "rtrunc_eq3", "--samples", "50"),
         {"sigma": None, "measure_seed": None, "resamples": None, "csv_prefix": None}),
        (("witness", "--state", "initial-dqc1", "--samples", "50", "--scan-combos", "3"),
         {"sigma": 0.05, "resamples": 10}),
        (("haar-survey", "--seeds", "1", "--dim", "8"), {"seeds": 1, "csv": "haar_survey.csv"}),
    ],
    ids=["simulate", "discord-dqc1", "discord-state", "witness-matrix", "witness-scan",
         "haar-survey"],
)
def test_config_echoes_every_flag(tmp_path, args, resolved):
    assert run(tmp_path, *args, "--out", "o.json") == 0
    config = json.loads((tmp_path / "o.json").read_text())["config"]
    dests = [a.dest for a in subparsers()[args[0]]._actions if a.dest != "help"]
    assert list(config) == dests
    assert config["out"] == "o.json"
    assert {key: config[key] for key in resolved} == resolved


def test_every_scoped_flag_is_a_flag_of_its_subcommand():
    # a misspelt row would never refuse anything
    from qdiscord.cli import SCOPED_FLAGS

    parsers = subparsers()
    for command, rows in SCOPED_FLAGS.items():
        dests = {a.dest for a in parsers[command]._actions}
        assert {row[0] for row in rows} <= dests, command


class TestHaarSurveyCommand:
    def test_single_seed_deterministic(self, tmp_path):
        args = (
            "haar-survey", "--seeds", "1", "--dim", "8",
            "--alpha", "1.4e-5", "--start-seed", "11",
        )
        assert run(tmp_path, *args) == 0
        first = json.loads((tmp_path / "haar_survey.json").read_text())
        assert run(tmp_path, *args) == 0
        second = json.loads((tmp_path / "haar_survey.json").read_text())
        assert first["mean"] == second["mean"]
        csv_lines = (tmp_path / "haar_survey.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "seed,discord"
        assert csv_lines[1].startswith("11,")

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seeds_below_one_exits_2(self, tmp_path, capsys, seeds):
        assert run(tmp_path, "haar-survey", "--seeds", seeds, "--dim", "8") == 2
        assert "--seeds" in capsys.readouterr().err
        assert not (tmp_path / "haar_survey.json").exists()
        assert not (tmp_path / "haar_survey.csv").exists()

    def test_alpha_above_nmr_scale_runs(self, tmp_path):
        args = ("haar-survey", "--seeds", "1", "--dim", "8", "--alpha", "1e-3")
        assert run(tmp_path, *args) == 0
        out = json.loads((tmp_path / "haar_survey.json").read_text())
        assert out["mean"] == pytest.approx(1e-6 / (4 * np.log(2)), rel=0.3)

    def test_quadratic_alpha_scaling(self, tmp_path):
        means = {}
        for alpha in ("1.4e-5", "2.8e-5"):
            assert run(
                tmp_path, "haar-survey", "--seeds", "2", "--dim", "8",
                "--alpha", alpha, "--out", f"s{alpha}.json", "--csv", f"s{alpha}.csv",
            ) == 0
            means[alpha] = json.loads((tmp_path / f"s{alpha}.json").read_text())["mean"]
        ratio = means["2.8e-5"] / means["1.4e-5"]
        assert ratio == pytest.approx(4.0, rel=0.02)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
VALID_INPUTS = {
    "unitary": (
        lambda path: ["simulate", "--unitary", path],
        {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    ),
    "ensemble": (
        lambda path: ["discord", "--ensemble", path],
        {"alpha": 0.5, "pps": {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}},
    ),
    "partitioned-ensemble": (
        lambda path: ["discord", "--ensemble", path],
        {
            "alpha": 0.5,
            "pps": {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist(),
                    "qubit_partition": [1, 1]},
        },
    ),
    "matrix": (
        lambda path: ["witness", "--matrix", path, "--samples", "20"],
        matrix_document(eq3_fixture()),
    ),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestMalformedJsonFuzz:
    """Malformed input files end in exit 2 and an error line, never in an
    exception or a traceback."""

    @pytest.fixture(scope="class", autouse=True)
    def coarse_grid(self):
        # the fuzz exercises input handling, not the search: a 2-point grid keeps it fast
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(importlib.import_module("qdiscord.discord"), "GRID", 2)
            yield

    @staticmethod
    def run_quiet(fuzz_dir, kind, document: str) -> tuple[int, str]:
        command, _ = VALID_INPUTS[kind]
        path = fuzz_dir / "input.json"
        path.write_text(document)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command(str(path)), "--out", str(fuzz_dir / "out.json")])
        return code, err.getvalue()

    @pytest.mark.parametrize("kind", sorted(VALID_INPUTS))
    def test_valid_documents_pass(self, fuzz_dir, kind):
        assert self.run_quiet(fuzz_dir, kind, json.dumps(VALID_INPUTS[kind][1]))[0] == 0

    @pytest.mark.parametrize("kind", sorted(VALID_INPUTS))
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_mutated_documents(self, fuzz_dir, kind, data):
        document = json.loads(json.dumps(VALID_INPUTS[kind][1]))
        fields = sorted(document) + sorted(f"pps.{k}" for k in document.get("pps", ()))
        field = data.draw(st.sampled_from(fields))
        value = data.draw(JSON_VALUES)
        if field.startswith("pps."):
            document["pps"][field[4:]] = value
        else:
            document[field] = value
        code, err = self.run_quiet(fuzz_dir, kind, json.dumps(document))
        assert "Traceback" not in err
        assert code == 0 or (code == 2 and err.startswith("error: "))

    @pytest.mark.parametrize("kind", sorted(VALID_INPUTS))
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_malformed_documents_exit_2(self, fuzz_dir, kind, data):
        document = json.loads(json.dumps(VALID_INPUTS[kind][1]))
        malformed = data.draw(st.one_of(
            # a required field removed
            st.sampled_from(sorted(document)).map(
                lambda key: json.dumps({k: v for k, v in document.items() if k != key})
            ),
            # a document that is not an object, or not JSON at all
            JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(json.dumps),
            st.text(max_size=20).map(lambda t: t + "{"),
        ))
        code, err = self.run_quiet(fuzz_dir, kind, malformed)
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err


def test_no_src_module_uses_scipy():
    # numpy is the only runtime dependency; scipy serves the test oracles alone
    import ast

    import qdiscord

    offenders = []
    for path in Path(qdiscord.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found = any(alias.name.split(".")[0] == "scipy" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found = (node.module or "").split(".")[0] == "scipy"
            else:  # also catches importlib.import_module("scipy...") and the like
                found = isinstance(node, ast.Constant) and "scipy" in str(node.value)
            if found:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_one_raise_refuses_flags_outside_their_modes():
    # scope refusals come from SCOPED_FLAGS alone, never from a hand-written check
    import ast

    import qdiscord

    found = []
    for path in Path(qdiscord.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        in_raise = {id(n) for r in ast.walk(tree) if isinstance(r, ast.Raise) for n in ast.walk(r)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and "only applies to" in str(node.value):
                found.append((path.name, node.lineno, id(node) in in_raise))
    assert len(found) == 1 and found[0][2], found
