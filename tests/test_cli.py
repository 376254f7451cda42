import contextlib
import importlib
import io
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdiscord.cli import main
from qdiscord import (
    CorrelationMatrix,
    Dqc1Instance,
    discord,
    eq3_fixture,
    jones_unitary,
    output_state,
)


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

    def test_scaling_failure_exits_3(self, tmp_path, monkeypatch):
        from qdiscord.discord import ScalingFitError

        def boom(*a, **k):
            raise ScalingFitError("exponent out of range")

        monkeypatch.setattr("qdiscord.cli.fit_polarization_scaling", boom)
        code = run(
            tmp_path, "discord", "--dqc1", "jones", "--alpha", "1.4e-5", "--extrapolate"
        )
        assert code == 3

    def test_extrapolate_reports_direct_value(self, tmp_path):
        args = ("discord", "--dqc1", "jones", "--alpha", "1.4e-5", "--extrapolate")
        assert run(tmp_path, *args) == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert out["direct"] == pytest.approx(out["discord"], rel=1e-3)

    def test_extrapolation_disagreeing_with_direct_value_exits_3(
        self, tmp_path, monkeypatch, capsys
    ):
        disc = importlib.import_module("qdiscord.discord")
        exact = disc.dqc1_discord

        def doubled_at_alpha(eigphases, eps, opts=None):
            value = exact(eigphases, eps, opts).discord
            return types.SimpleNamespace(discord=2 * value if eps < 1e-4 else value)

        monkeypatch.setattr(disc, "dqc1_discord", doubled_at_alpha)
        code = run(
            tmp_path, "discord", "--dqc1", "jones", "--alpha", "1.4e-5", "--extrapolate"
        )
        assert code == 3
        assert "direct value" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [(), ("--alpha", "1.4e-5", "--extrapolate")])
    def test_empty_grid_exits_2(self, tmp_path, extra):
        assert run(tmp_path, "discord", "--dqc1", "jones", "--grid", "0", *extra) == 2

    def test_ensemble_input(self, tmp_path):
        ens = tmp_path / "ens.json"
        ens.write_text(json.dumps({"alpha": 0.5, "pps": "bell"}))
        assert run(tmp_path, "discord", "--ensemble", str(ens)) == 0
        out = json.loads((tmp_path / "discord.json").read_text())
        assert out["discord"] > 0.05


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

    def test_eq3_fixture_from_file(self, tmp_path):
        path = tmp_path / "m.json"
        eq3_fixture().save(path)
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
        corr.save(path)
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
        path.write_text(json.dumps({**eq3_fixture().to_dict(), **change}))
        assert run(tmp_path, "witness", "--matrix", str(path), "--samples", "100") == 2
        assert message in capsys.readouterr().err

    def test_matrix_without_sigmas_exits_2(self, tmp_path):
        corr = CorrelationMatrix(
            ("I", "X"), ("I", "Z"), np.array([[1.0, 0.2], [0.1, 0.3]])
        )
        path = tmp_path / "nosig.json"
        corr.save(path)
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

    def test_config_embedded(self, tmp_path):
        assert run(tmp_path, "witness", "--matrix", "rtrunc_eq3", "--seed", "3") == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        config = out["config"]
        assert config["seed"] == 3
        assert config["samples"] == 10000
        assert config["bin"] == 0.005
        assert config["confidence"] == 0.99


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
        lambda path: ["discord", "--ensemble", path, "--grid", "2"],
        {"alpha": 0.5, "pps": {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}},
    ),
    "partitioned-ensemble": (
        lambda path: ["discord", "--ensemble", path, "--grid", "2"],
        {
            "alpha": 0.5,
            "pps": {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist(),
                    "qubit_partition": [1, 1]},
        },
    ),
    "matrix": (
        lambda path: ["witness", "--matrix", path, "--samples", "20"],
        eq3_fixture().to_dict(),
    ),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestMalformedJsonFuzz:
    """Malformed input files end in exit 2 and an error line, never in an
    exception or a traceback."""

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
