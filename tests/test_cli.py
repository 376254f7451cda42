import argparse
import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdiscord import witness as wit
from qdiscord.cli import FLAG_RANGES, build_parser, main
from qdiscord import (
    CorrelationMatrix,
    Dqc1Instance,
    discord,
    eq3_fixture,
    fit_polarization_scaling,
    jones_unitary,
    output_state,
)

from .conftest import matrix_document, overflowing_trace_matrix


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

    @pytest.mark.parametrize("dim, shown", [(8.9, "8.9"), ("8", "'8'")], ids=["float", "string"])
    def test_non_integer_dim_exits_2(self, tmp_path, capsys, dim, shown):
        bad = tmp_path / "dim.json"
        bad.write_text(json.dumps({"dim": dim, "re": np.eye(8).tolist(),
                                   "im": np.zeros((8, 8)).tolist()}))
        assert run(tmp_path, "simulate", "--unitary", str(bad)) == 2
        err = capsys.readouterr().err
        assert err == f"error: malformed unitary spec: dim {shown} is not an integer\n"
        assert not (tmp_path / "simulate.json").exists()

    def test_missing_unitary_file_exits_2(self, tmp_path):
        assert run(tmp_path, "simulate", "--unitary", "nosuch.json") == 2

    @pytest.mark.parametrize(
        "command",
        [
            ("simulate", "--unitary"),
            ("discord", "--alpha", "1.4e-5", "--dqc1"),
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

    @pytest.mark.parametrize("alpha", ["2", "0"])
    def test_alpha_outside_unit_interval_exits_2(self, tmp_path, capsys, alpha):
        args = ("discord", "--dqc1", "jones", "--alpha", alpha)
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
            ("--dqc1", "jones", "--alpha", "1.4e-5"),
        ],
        ids=["state", "ensemble", "extrapolate"],
    )
    def test_ignored_epsilon_exits_2(self, tmp_path, capsys, source):
        (tmp_path / "ens.json").write_text(json.dumps({"alpha": 0.5, "pps": "bell"}))
        assert run(tmp_path, "discord", *source, "--epsilon", "0.3") == 2
        err = capsys.readouterr().err
        assert err == "error: --epsilon only applies to --dqc1 without --alpha\n"
        assert not (tmp_path / "discord.json").exists()

    def test_scaling_failure_exits_3(self, tmp_path, monkeypatch):
        from qdiscord.discord import ScalingFitError

        def boom(*a, **k):
            raise ScalingFitError("exponent out of range")

        monkeypatch.setattr("qdiscord.cli.fit_polarization_scaling", boom)
        code = run(tmp_path, "discord", "--dqc1", "jones", "--alpha", "1.4e-5")
        assert code == 3

    @pytest.mark.parametrize(
        "command",
        [
            ("discord", "--dqc1", "identity8", "--alpha", "0.7"),
            ("discord", "--dqc1", "jones", "--alpha", "0.9"),
        ],
        ids=["identity8", "jones"],
    )
    def test_alpha_past_the_series_limit_exits_3(self, tmp_path, capsys, command):
        assert run(tmp_path, *command) == 3
        err = capsys.readouterr().err
        alpha = float(command[-1])
        assert err.startswith(f"error: alpha {alpha:g} is past the 64-term series limit")
        assert list(tmp_path.iterdir()) == []

    def test_underflowing_alpha_exits_2(self, tmp_path, capsys):
        # D(alpha) and D(alpha/2) fall below the smallest normal double
        args = ("discord", "--dqc1", "jones", "--alpha", "1e-170")
        assert run(tmp_path, *args) == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "underflow" in err
        assert not (tmp_path / "discord.json").exists()

    def test_tiny_alpha_in_double_range_runs(self, tmp_path):
        args = ("discord", "--dqc1", "jones", "--alpha", "1e-150")
        assert run(tmp_path, *args) == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert 1.98 <= out["scaling"]["exponent"] <= 2.02

    def test_extrapolate_reports_direct_value(self, tmp_path):
        args = ("discord", "--dqc1", "jones", "--alpha", "1.4e-5")
        assert run(tmp_path, *args) == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert out["direct"] == pytest.approx(out["discord"], rel=1e-9)
        assert set(out["scaling"]) == {"exponent", "coefficient"}
        assert 1.98 <= out["scaling"]["exponent"] <= 2.02

    @pytest.mark.parametrize("alpha", ["1.4e-5", "0.05"])
    def test_alpha_writes_the_scaling_fit(self, tmp_path, alpha):
        # --alpha alone selects the extrapolation; 0.05 sums 10 series terms
        assert run(tmp_path, "discord", "--dqc1", "jones", "--alpha", alpha) == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        fit = fit_polarization_scaling(jones_unitary(), alpha=float(alpha))
        assert (out["discord"], out["direct"]) == (fit.value, fit.direct)
        assert out["scaling"] == {"exponent": fit.exponent, "coefficient": fit.coefficient}
        assert "extrapolate" not in out["config"]

    def test_extrapolate_is_not_a_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "discord", "--dqc1", "jones", "--extrapolate", "--alpha", "1.4e-5")
        assert exc.value.code == 2
        assert "unrecognized arguments: --extrapolate" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_extrapolation_disagreeing_with_direct_value_exits_3(
        self, tmp_path, monkeypatch, capsys
    ):
        # at this alpha the fit takes D(alpha) and D(alpha/2) from the series
        disc = importlib.import_module("qdiscord.discord")
        exact = disc._series_discord

        def doubled_at_alpha(tau1, even, eps):
            value = exact(tau1, even, eps)
            return 2 * value if eps < 1e-4 else value

        monkeypatch.setattr(disc, "_series_discord", doubled_at_alpha)
        code = run(tmp_path, "discord", "--dqc1", "jones", "--alpha", "1.4e-5")
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

    @pytest.mark.parametrize(
        "document, message",
        [
            (None, "unknown ensemble 'ens.json': not a builtin and no such file"),
            (
                {"alpha": 0.5, "pps": {"re": (np.eye(8) / 8).tolist(),
                                       "im": np.zeros((8, 8)).tolist(),
                                       "qubit_partition": [1, 1, 1]}},
                "malformed pps spec: key 'qubit_partition' is not read; an inline pps is "
                '{"re", "im"} alone, with qubit A its first qubit',
            ),
            (
                {"alpha": 0.5, "pps": {"re": (np.eye(4) / 4).tolist(),
                                       "im": np.zeros((4, 4)).tolist(),
                                       "qubit_partition": [1.9, 1.2]}},
                "malformed pps spec: key 'qubit_partition' is not read; an inline pps is "
                '{"re", "im"} alone, with qubit A its first qubit',
            ),
            ({"alpha": True, "pps": "bell"}, "malformed ensemble spec: alpha True is not a number"),
            (
                {"alpha": 0.5, "pps": {"re": [[1]], "im": [[0]]}},
                "dimension 1 holds no qubit, and an A|B state needs at least two",
            ),
            (
                {"alpha": 0.5, "pps": {"re": (np.eye(2) / 2).tolist(), "im": np.zeros((2, 2)).tolist()}},
                "dimension 2 holds one qubit, and an A|B state needs at least two",
            ),
        ],
        ids=["missing", "three-block", "non-integer", "bool-alpha", "one-by-one", "one-qubit"],
    )
    @pytest.mark.parametrize("command", ["discord", "witness"])
    def test_ensemble_refused_when_loaded(self, tmp_path, capsys, command, document, message):
        if document is not None:
            (tmp_path / "ens.json").write_text(json.dumps(document))
        assert run(tmp_path, command, "--ensemble", "ens.json") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / f"{command}.json").exists()

    def test_ensemble_input(self, tmp_path):
        ens = tmp_path / "ens.json"
        ens.write_text(json.dumps({"alpha": 0.5, "pps": "bell"}))
        assert run(tmp_path, "discord", "--ensemble", str(ens)) == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert out["discord"] > 0.05
        assert out["zero_discord"]["is_zero"] is False

    def test_ensemble_verdict_at_nmr_polarization(self, tmp_path):
        # the distance reads only 1.6e-9 here, but it is 0.652 of its scale
        # sqrt(tr G / 2), as at every alpha
        ens = tmp_path / "ens.json"
        ens.write_text(json.dumps({"alpha": 1e-8, "pps": "final-dqc1"}))
        assert run(tmp_path, "discord", "--ensemble", str(ens)) == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert out["zero_discord"]["is_zero"] is False


class TestWitnessCommand:
    def test_eq3_fixture_builtin(self, tmp_path):
        code = run(
            tmp_path, "witness", "--matrix", "rtrunc_eq3", "--samples", "10000", "--seed", "1"
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

    def test_overflowing_gram_trace_runs_without_warning(self, tmp_path, capsys, monkeypatch):
        # every Gram entry is finite but tr(G) overflows in about half the
        # samples: their bounds read 0 and they are decomposed, silently; bins
        # of 1e150 hold these singular values
        monkeypatch.setattr(wit, "HISTOGRAM_BIN", 1e150)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(matrix_document(overflowing_trace_matrix())))
        code = run(tmp_path, "witness", "--matrix", str(path), "--samples", "1000")
        assert (code, capsys.readouterr().err) == (0, "")

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
            ({"rows": ["II", "XI", "YI", "ZI"]}, "error: row label 'II' is not one symbol: A is one qubit\n"),
        ],
        ids=["symbol", "integer", "mixed-length", "duplicate", "overflow", "two-symbol"],
    )
    def test_malformed_matrix_exits_2(self, tmp_path, capsys, change, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**matrix_document(eq3_fixture()), **change}))
        assert run(tmp_path, "witness", "--matrix", str(path), "--samples", "100") == 2
        assert message in capsys.readouterr().err

    def test_matrix_without_sigmas_exits_2(self, tmp_path, capsys):
        corr = CorrelationMatrix(
            ("I", "X"), ("I", "Z"), np.array([[1.0, 0.2], [0.1, 0.3]])
        )
        document = matrix_document(corr)
        del document["sigmas"]
        path = tmp_path / "nosig.json"
        path.write_text(json.dumps(document))
        assert run(tmp_path, "witness", "--matrix", str(path)) == 2
        assert "matrix carries no sigmas" in capsys.readouterr().err

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
        bin_width = wit.HISTOGRAM_BIN
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
        out = json.loads((tmp_path / "witness.json").read_text())
        verdict = out["verdict"]
        trajectory = verdict["trajectory"]
        assert len(trajectory) == len(verdict["columns_used"]) - 4 + 1 == 61
        for check, column in zip(trajectory, verdict["columns_used"][3:]):
            assert set(check) == {"column", "tau", "rank", "quantiles_low", "decomposed"}
            assert check["column"] == column
            assert len(check["quantiles_low"]) == 4
            assert 0 < check["decomposed"] <= 200
        last = trajectory[-1]
        assert last["rank"] == out["rank_lower_bound"]
        # tau of all 64 columns at the uniform --sigma
        assert last["tau"] == wit.default_tau(np.full((4, 64), 0.05))
        assert last["quantiles_low"] == verdict["quantiles_low"]

    @pytest.mark.parametrize(
        "flag, value",
        [("--samples", "0"), ("--scan-combos", "0")],
        ids=["samples-0", "scan-combos-0"],
    )
    def test_bad_monte_carlo_setting_exits_2_before_fetching(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        from qdiscord import witness

        fetched = []
        real = witness._GramFold.add

        def counted(self, label, values, sigmas, drawn=None):
            fetched.append(label)
            return real(self, label, values, sigmas, drawn)

        monkeypatch.setattr(witness._GramFold, "add", counted)
        args = ("witness", "--matrix", "rtrunc_eq3", "--samples", "100", flag, value)
        assert run(tmp_path, *args) == 2
        assert flag in capsys.readouterr().err
        assert fetched == []
        assert not (tmp_path / "witness.json").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--samples", "0"),
            ("--sigma", "-1"),
            ("--sigma", "nan"),
            ("--sigma", "inf"),
            ("--sigma", "1e308"),
        ],
        ids=["--samples", "sigma--1", "sigma-nan", "sigma-inf", "sigma-1e308"],
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

    def test_bin_too_fine_for_histogram_exits_2_before_the_procedure(
        self, tmp_path, capsys, monkeypatch
    ):
        # the exact matrix's top singular value, 5000, already needs 10^6 bins of 0.005
        calls = []
        monkeypatch.setattr("qdiscord.cli.witness_procedure", lambda *a, **k: calls.append(a))
        values = np.zeros((4, 2))
        values[3, 1] = 5000.0
        corr = CorrelationMatrix(("I", "X", "Y", "Z"), ("IZ", "ZZ"), values, np.zeros((4, 2)))
        (tmp_path / "big.json").write_text(json.dumps(matrix_document(corr)))
        assert run(tmp_path, "witness", "--matrix", "big.json") == 2
        assert capsys.readouterr().err == (
            "error: too many histogram bins; lower the --matrix document's values or sigmas "
            "(singular values up to 5000 need more than 1000000 histogram bins of 0.005)\n"
        )
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["big.json"]

    def test_noise_too_wide_for_the_bins_exits_2_early(self, tmp_path, capsys):
        # sigma 1000 puts the procedure's singular values past 10^6 bins of
        # 0.005, and sigma 2000 the scan's: refused before any file is written
        for extra in (("--sigma", "1000"), ("--sigma", "2000", "--scan-combos", "5")):
            args = ("witness", "--state", "initial-dqc1", "--samples", "100", *extra)
            assert run(tmp_path, *args) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                "error: too many histogram bins; lower --sigma (singular values up to "
            )
            assert err.endswith(" need more than 1000000 histogram bins of 0.005)\n")
            assert list(tmp_path.iterdir()) == []

    def test_noise_of_a_matrix_document_names_its_sigmas(self, tmp_path, capsys):
        # --sigma is refused with --matrix, so the advice names the document's sigmas
        corr = eq3_fixture()
        document = {**matrix_document(corr), "sigmas": (corr.sigmas * 40_000).tolist()}
        (tmp_path / "big.json").write_text(json.dumps(document))
        assert run(tmp_path, "witness", "--matrix", "big.json", "--samples", "100") == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: too many histogram bins; lower the --matrix document's values or sigmas "
            "(singular values up to "
        )
        assert err.endswith(" need more than 1000000 histogram bins of 0.005)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["big.json"]

    def test_only_the_written_histograms_must_fit_the_bins(self, tmp_path):
        # at sigma 650 the procedure's samples need 1.4e6 bins of 0.005, but
        # only the scan's, at 5.9e5, are written
        args = ("witness", "--state", "initial-dqc1", "--samples", "100", "--sigma", "650",
                "--scan-combos", "5")
        assert run(tmp_path, *args) == 0
        csvs = [f"witness_sv{i}.csv" for i in range(1, 5)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["witness.json", *csvs]

    def test_config_embedded(self, tmp_path):
        assert run(tmp_path, "witness", "--matrix", "rtrunc_eq3", "--seed", "3") == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        config = out["config"]
        assert config["seed"] == 3
        assert config["samples"] == 10000
        assert config["measure_seed"] is None

    def test_scan_pools_10_resamples_per_combination(self, tmp_path):
        args = ("witness", "--matrix", "rtrunc_eq3", "--samples", "100", "--scan-combos", "5")
        assert run(tmp_path, *args) == 0
        scan = json.loads((tmp_path / "witness.json").read_text())["scan"]
        assert scan["n_samples"] == 5 * 10
        # the scan rank counts the low quantiles the payload reports
        assert scan["rank_lower_bound"] == sum(q > scan["tau"] for q in scan["quantiles_low"])

    @pytest.mark.parametrize(
        "cols, message",
        [(["IXI", "IZI", "IIZ", "IZZ"], "no identity column present"),  # III relabelled
         (["III", "IZI", "IIZ"], "need at least 4 columns to scan combinations")],
        ids=["no-identity-column", "three-columns"],
    )
    def test_scan_refuses_a_matrix_it_cannot_sample_before_any_rank_check(
        self, tmp_path, capsys, monkeypatch, cols, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a rank check ran before the scan's refusal")

        monkeypatch.setattr("qdiscord.cli.witness_procedure", refuse)
        document = matrix_document(eq3_fixture())
        n = len(cols)
        document.update(cols=cols, values=[row[:n] for row in document["values"]],
                        sigmas=[row[:n] for row in document["sigmas"]])
        (tmp_path / "m.json").write_text(json.dumps(document))
        args = ("witness", "--matrix", "m.json", "--samples", "2000", "--scan-combos", "10")
        assert run(tmp_path, *args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_top_level_result_is_the_verdict_with_scan_combos(self, tmp_path, capsys):
        # the scan's own rank, 1 here, stays in "scan"
        args = ("witness", "--state", "final-dqc1", "--samples", "100", "--scan-combos", "20")
        assert run(tmp_path, *args) == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        assert (out["outcome"], out["rank_lower_bound"]) == ("DiscordWitnessed", 3)
        assert out["scan"]["rank_lower_bound"] == 1
        assert capsys.readouterr().out == (
            "DiscordWitnessed: rank lower bound 3 (dim A = 2) -> witness.json\n"
        )

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


@pytest.mark.parametrize(
    "args, flag",
    [
        (("witness", "--matrix", "rtrunc_eq3", "--samples", "50", "--seed", "-1"), "--seed -1"),
        (("witness", "--state", "initial-dqc1", "--measure-seed", "-3"), "--measure-seed -3"),
    ],
    ids=["seed", "measure-seed"],
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
        (("haar-survey", "--seeds", "5", "--out", "nodir/h.json"), "--out"),
    ],
    ids=["simulate-out", "discord-out", "witness-out", "haar-survey-out"],
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
    "args",
    [
        ("simulate", "--unitary", "jones"),
        ("haar-survey", "--seeds", "1", "--dim", "8"),
        ("witness", "--state", "bell", "--samples", "100"),
    ],
    ids=["out", "haar-survey-out", "witness-out"],
)
def test_empty_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch, args):
    calls = count_calls(
        monkeypatch, "qdiscord.dqc1.trace_estimate", "qdiscord.cli.witness_procedure",
        "qdiscord.cli.haar_discord_survey",
    )
    assert run(tmp_path, *args, "--out", "") == 2
    assert capsys.readouterr().err == "error: --out must name a file\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, flag",
    [
        (("haar-survey", "--seeds", "1", "--dim", "8", "--out", "d"), "--out"),
        (("witness", "--state", "bell", "--samples", "100", "--out", "d"), "--out"),
        (("simulate", "--unitary", "jones", "--out", "."), "--out"),
    ],
    ids=["haar-survey-out", "witness-out", "simulate-out-cwd"],
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
    "args, derived",
    [
        (("witness", "--state", "bell", "--samples", "100"), "wd_sv2.csv"),
        (("haar-survey", "--seeds", "1", "--dim", "8"), "wd.csv"),
    ],
    ids=["witness-csv", "haar-survey-csv"],
)
def test_derived_path_naming_a_directory_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, args, derived
):
    # refused before the Monte Carlo, not after it with the first CSVs written
    def refused(*a, **k):
        raise AssertionError("ran past the output-path check")

    monkeypatch.setattr("qdiscord.cli.witness_procedure", refused)
    monkeypatch.setattr("qdiscord.cli.haar_discord_survey", refused)
    (tmp_path / derived).mkdir()
    assert run(tmp_path, *args, "--out", "wd.json") == 2
    assert capsys.readouterr().err == (
        f"error: --out wd.json writes {derived}, which is a directory\n"
    )
    assert [p.name for p in tmp_path.rglob("*")] == [derived]


@pytest.mark.parametrize(
    "out, stem",
    [("sub/w.json", "sub/w"), ("w", "w"), ("w_sv1.csv", "w_sv1")],
    ids=["in-subdirectory", "no-suffix", "out-named-like-a-csv"],
)
def test_witness_csv_names_follow_out(tmp_path, out, stem):
    # the CSVs are <--out without suffix>_sv<k>.csv; a directory at that stem
    # (sub/w) is never opened itself
    (tmp_path / "sub/w").mkdir(parents=True)
    assert run(tmp_path, "witness", "--state", "bell", "--samples", "100", "--out", out) == 0
    csvs = [f"{stem}_sv{k}.csv" for k in range(1, 5)]
    assert json.loads((tmp_path / out).read_text())["csv_files"] == csvs
    files = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert files == sorted([out, *csvs])


@pytest.mark.parametrize(
    "command, flag, value",
    [(("witness", "--state", "bell"), "--csv-prefix", "alt"),
     (("haar-survey", "--seeds", "1", "--dim", "8"), "--csv", "alt"),
     (("witness", "--state", "bell"), "--tau", "0.5"),
     (("witness", "--state", "bell"), "--bin", "0.01"),
     (("witness", "--state", "bell", "--scan-combos", "5"), "--resamples", "2"),
     (("witness", "--state", "bell"), "--confidence", "0.9"),
     (("haar-survey", "--seeds", "1", "--dim", "8"), "--alpha", "1e-3"),
     (("haar-survey", "--seeds", "1", "--dim", "8"), "--start-seed", "3")],
    ids=["witness-csv-prefix", "haar-survey-csv", "witness-tau", "witness-bin",
         "witness-resamples", "witness-confidence", "haar-survey-alpha",
         "haar-survey-start-seed"],
)
def test_csv_path_is_not_a_flag(tmp_path, capsys, command, flag, value):
    # every file a command writes is named from --out; witness derives tau
    # from the sigmas, bins at HISTOGRAM_BIN, pools 10 resamples per combination
    # and reads the quantile at CONFIDENCE; haar-survey runs at NMR_POLARIZATION
    # from seed 0
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *command, flag, value)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
        ("--dqc1", "jones", "--alpha", "1.4e-5"),
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
    "--sigma": ("0.02",),
    "--measure-seed": ("0",),  # 0 is a given value, not an absent one
    "--samples": ("60",),
    "--scan-combos": ("3",),
    "--seed": ("1",),
    "--seeds": ("2",),
    "--dim": ("4",),
    "--out": ("alt.json",),
}
OUTPUT_FLAGS = {"--out"}


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


# Each row's keys between "command" and "config".
DISCORD_KEYS = ["discord", "mutual_information", "classical_correlations", "conditional_term",
                "argmin", "diagnostics"]
WITNESS_KEYS = ["outcome", "rank_lower_bound", "verdict", "scan", "csv_files"]


@pytest.mark.parametrize(
    "args, resolved, keys",
    [
        (("simulate", "--unitary", "jones"), {"epsilon": 1.0}, ["re", "im", "exact_trace", "n"]),
        (("discord", "--dqc1", "jones"), {"epsilon": 1.0, "alpha": None}, DISCORD_KEYS),
        (("discord", "--dqc1", "jones", "--alpha", "1.4e-5"), {"epsilon": None, "alpha": 1.4e-5},
         ["discord", "direct", "scaling"]),
        (("discord", "--state", "bell"), {"epsilon": None}, DISCORD_KEYS + ["zero_discord"]),
        (("witness", "--matrix", "rtrunc_eq3", "--samples", "50"),
         {"sigma": None, "measure_seed": None}, WITNESS_KEYS),
        (("witness", "--state", "initial-dqc1", "--samples", "50", "--scan-combos", "3"),
         {"sigma": 0.05, "scan_combos": 3}, WITNESS_KEYS),
        (("haar-survey", "--seeds", "1", "--dim", "8"), {"seeds": 1},
         ["mean", "stderr", "predicted", "values_csv"]),
    ],
    ids=["simulate", "discord-dqc1", "discord-alpha", "discord-state", "witness-matrix",
         "witness-scan", "haar-survey"],
)
def test_config_echoes_every_flag(tmp_path, args, resolved, keys):
    """Flags are stated under ``config`` alone, and each result once: the key
    lists pin every payload's schema where the golden files skip."""
    assert run(tmp_path, *args, "--out", "o.json") == 0
    out = json.loads((tmp_path / "o.json").read_text())
    config = out["config"]
    dests = [a.dest for a in subparsers()[args[0]]._actions if a.dest != "help"]
    assert list(config) == dests
    assert config["out"] == "o.json"
    assert {key: config[key] for key in resolved} == resolved
    assert list(out) == ["command", *keys, "config"]
    if args[0] == "witness":
        # outcome, rank and tau are read from the top level and the last
        # trajectory check
        assert list(out["verdict"]) == ["columns_used", "quantiles_low", "medians", "trajectory"]


def test_every_scoped_flag_is_a_flag_of_its_subcommand():
    # a misspelt row would never refuse anything
    from qdiscord.cli import SCOPED_FLAGS

    parsers = subparsers()
    for command, rows in SCOPED_FLAGS.items():
        dests = {a.dest for a in parsers[command]._actions}
        assert {row[0] for row in rows} <= dests, command


# One out-of-range value per FLAG_RANGES entry, run in the source mode that
# puts every scoped witness flag in scope.
OUT_OF_RANGE = {
    "sigma": "1e308", "seed": "-1",
    "measure_seed": "-3", "samples": "0", "scan_combos": "0",
    "seeds": "0",
}
RANGE_SOURCES = {
    "witness": ("--ensemble", "ens.json", "--measure-seed", "3", "--scan-combos", "5",
                "--samples", "50"),
    "haar-survey": ("--seeds", "1", "--dim", "8"),
}
# Numeric flags the library refuses itself, for API callers as well.
LIBRARY_CHECKED = {"dim"}


@pytest.mark.parametrize(
    "command, dest, in_range, refusal",
    [(command, *row) for command, rows in FLAG_RANGES.items() for row in rows],
    ids=[f"{command}-{row[0]}" for command, rows in FLAG_RANGES.items() for row in rows],
)
def test_out_of_range_flag_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, dest, in_range, refusal
):
    calls = count_calls(
        monkeypatch, "qdiscord.nmr.measured_correlation_matrix",
        "qdiscord.cli.witness_procedure", "qdiscord.cli.haar_discord_survey",
    )
    (tmp_path / "ens.json").write_text(json.dumps({"alpha": 0.5, "pps": "initial-dqc1"}))
    flag, value = "--" + dest.replace("_", "-"), OUT_OF_RANGE[dest]
    parsed = next(a.type for a in subparsers()[command]._actions if a.dest == dest)(value)
    assert not in_range(parsed)
    assert run(tmp_path, command, *RANGE_SOURCES[command], flag, value) == 2
    assert capsys.readouterr().err == f"error: {flag} {parsed} {refusal}\n"
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["ens.json"]


@pytest.mark.parametrize("command", sorted(RANGE_SOURCES))
def test_every_numeric_flag_has_a_range_or_a_library_check(command):
    # a numeric flag in neither would reach the library unchecked, and a
    # misspelt row would never refuse anything
    numeric = {a.dest for a in subparsers()[command]._actions if a.type in (int, float)}
    assert numeric - LIBRARY_CHECKED == {row[0] for row in FLAG_RANGES[command]}


class TestHaarSurveyCommand:
    @pytest.mark.parametrize("dim, message", [
        ("1", "unitary dimension 1 leaves no mixed qubit"),
        ("3", "unitary dimension 3 is not a power of 2"),
        ("256", "dimension 256 outside [1, 128]"),
    ])
    def test_dimension_the_circuit_cannot_hold_exits_2(self, tmp_path, capsys, dim, message):
        assert run(tmp_path, "haar-survey", "--seeds", "1", "--dim", dim) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "haar_survey.json").exists()

    def test_single_seed_deterministic(self, tmp_path):
        args = ("haar-survey", "--seeds", "1", "--dim", "8")
        assert run(tmp_path, *args) == 0
        first = json.loads((tmp_path / "haar_survey.json").read_text())
        assert run(tmp_path, *args) == 0
        second = json.loads((tmp_path / "haar_survey.json").read_text())
        assert first["mean"] == second["mean"]
        csv_lines = (tmp_path / "haar_survey.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "seed,discord"
        assert csv_lines[1].startswith("0,")

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seeds_below_one_exits_2(self, tmp_path, capsys, seeds):
        assert run(tmp_path, "haar-survey", "--seeds", seeds, "--dim", "8") == 2
        assert "--seeds" in capsys.readouterr().err
        assert not (tmp_path / "haar_survey.json").exists()
        assert not (tmp_path / "haar_survey.csv").exists()

    def test_csv_defaults_to_beside_out(self, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        args = ("haar-survey", "--seeds", "2", "--dim", "8", "--out", "sub/h.json")
        assert run(tmp_path, *args) == 0
        assert json.loads((tmp_path / "sub/h.json").read_text())["values_csv"] == "sub/h.csv"
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["h.csv", "h.json"]
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]
        # a derived path that is a directory is refused before any work
        (tmp_path / "sub/d.csv").mkdir()
        assert run(tmp_path, *args[:-1], "sub/d.json") == 2
        assert "--out sub/d.json writes sub/d.csv, which is a directory" in capsys.readouterr().err
        assert not (tmp_path / "sub/d.json").exists()

    @pytest.mark.parametrize("paths", [("--out", "h.csv")])
    def test_csv_that_is_out_exits_2(self, tmp_path, capsys, paths):
        # the JSON would overwrite the CSV it names in values_csv
        assert run(tmp_path, "haar-survey", "--seeds", "1", "--dim", "8", *paths) == 2
        assert capsys.readouterr().err == (
            "error: --out h.csv is also its values CSV; give --out another suffix\n"
        )
        assert list(tmp_path.iterdir()) == []


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
