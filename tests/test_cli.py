import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from idsense.channel import channel_to_dict
from idsense.cli import main
from idsense.errors import NoConvergence, TooManyMessages
from idsense.fixtures import flip_bsc, fixture_path
from tests.conftest import budget_hides_the_useful_input, random_channel


@pytest.fixture
def runner():
    return CliRunner()


class TestCapacityCommand:
    def test_flip_values(self, runner):
        result = runner.invoke(main, ["capacity", "--channel", "flip_bsc"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["shannon"] == pytest.approx(0.531004, abs=1e-6)
        assert data["det_f"] == pytest.approx(0.468996, abs=1e-6)
        assert data["rand_f"] == pytest.approx(1.0, abs=1e-6)

    def test_sensor_values(self, runner):
        result = runner.invoke(main, ["capacity", "--channel", "sensor"])
        data = json.loads(result.output)
        assert data["det_f"] == pytest.approx(1.0, abs=1e-6)
        assert data["det_f_maximizer"] == 0
        assert data["rand_f"] == pytest.approx(1.0, abs=1e-6)

    def test_malformed_file_exit_2(self, runner, tmp_path):
        spec = channel_to_dict(flip_bsc())
        spec["kernel"][0][0] = [0.5, 0.49]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["capacity", "--channel", str(path)])
        assert result.exit_code == 2
        assert "x=0" in result.output and "s=0" in result.output

    def test_missing_file_exit_2(self, runner):
        result = runner.invoke(main, ["capacity", "--channel", "nope.json"])
        assert result.exit_code == 2

    def test_zero_capacity_exit_3(self, runner, tmp_path):
        spec = {"input_size": 2, "output_size": 2, "state_size": 1,
                "state_prior": [1.0],
                "kernel": [[[0.5, 0.5]], [[0.5, 0.5]]]}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["capacity", "--channel", str(path)])
        assert result.exit_code == 3


class TestTradeoffCommand:
    def test_sensor_grid(self, runner):
        result = runner.invoke(main, [
            "tradeoff", "--channel", "sensor", "--distortion", "hamming",
            "--grid", "0.05,0.3,0.6", "--mode", "det", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "mode,D,feasible,value"
        assert lines[1].startswith("det,0.05,False")
        assert lines[2] == "det,0.3,True,1"
        assert lines[3] == "det,0.6,True,1"

    def test_both_modes_ordered(self, runner):
        result = runner.invoke(main, [
            "tradeoff", "--channel", "flip_bsc", "--distortion", "hamming",
            "--grid", "0.45:0.55:0.05", "--mode", "both"])
        data = json.loads(result.output)
        for pd, pr in zip(data["curves"]["det"], data["curves"]["rand"]):
            if pd["feasible"]:
                assert pr["value"] >= pd["value"] - 1e-6

    def test_bad_grid_exit_2(self, runner):
        result = runner.invoke(main, [
            "tradeoff", "--channel", "sensor", "--grid", "0.6:0.1:0.1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("grid", ["0:1:1e-9", "0:inf:1", "0:nan:0.1",
                                      "nan,0.5", "0.1,inf"])
    def test_oversized_grid_exit_2(self, runner, grid):
        # refused before any budget is built
        result = runner.invoke(main, [
            "tradeoff", "--channel", "flip_bsc", "--grid", grid])
        assert_config_error(result)

    def test_grid_step_below_ulp_returns(self, runner):
        # 1e20 + 1 == 1e20: the grid loop once spun forever on this point
        result = runner.invoke(main, [
            "tradeoff", "--channel", "flip_bsc", "--grid", "1e20:1e20:1"])
        assert result.exit_code == 0
        assert json.loads(result.output)["grid"] == [1e20]


def assert_config_error(result):
    """Exit code 2 with an `error:` line, not a traceback."""
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("command", [
    ["estimate"],
    ["simulate", "--n", "4", "--identities", "4", "--colors", "2", "--trials", "10"],
    ["bounds", "--n", "8"],
], ids=lambda command: command[0])
def test_non_finite_budget_exit_2(runner, command):
    # NaN compares false with every budget; it must not reach the JSON output
    result = runner.invoke(main, [command[0], "--channel", "flip_bsc", "-D", "nan"]
                           + command[1:])
    assert_config_error(result)
    assert "budget" in result.output


@pytest.mark.parametrize("command", ["capacity", "estimate"])
def test_nan_channel_entry_exit_2(runner, tmp_path, command):
    # nan passed every `<` check of the channel: `capacity` ended in a
    # traceback and `estimate` exited 0 with a nan profile
    spec = channel_to_dict(flip_bsc())
    spec["kernel"][0][0] = [float("nan"), 0.5]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(spec))
    assert_config_error(runner.invoke(main, [command, "--channel", str(path)]))


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "n", "four"),
    ("simulate", "identities", "four"),
    ("simulate", "colors", 2.5),
    ("simulate", "trials", "ten"),
    pytest.param("simulate", "seed", [1], id="simulate-seed-list"),
    ("bounds", "n", "four"),
    ("bounds", "mu", "half"),
    ("bounds", "n", True),      # a JSON boolean is not a number: int(True) is 1
    ("bounds", "eps", True),
])
def test_non_numeric_setting_exit_2(runner, tmp_path, command, key, value):
    config = {"channel": "flip_bsc", "n": 4, "identities": 4, "colors": 2,
              "trials": 10, key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(main, [command, "--config", str(path)])
    assert_config_error(result)
    assert key in result.output


# A config value is checked as its flag is, by the option's own type.
@pytest.mark.parametrize("command,key,value", [
    ("simulate", "mode", "xyz"),
    ("tradeoff", "mode", "xyz"),
    ("capacity", "channel", 5),
    ("estimate", "distortion", 3),
    ("capacity", "out", 5),
    ("capacity", "format", "xml"),
    ("simulate", "exact", "maybe"),
])
def test_bad_config_value_exit_2(runner, tmp_path, monkeypatch, command, key, value):
    monkeypatch.chdir(tmp_path)  # a misread `out` must not land in the source tree
    config = {"channel": "flip_bsc", "n": 4, "identities": 4, "colors": 2,
              "trials": 10, "grid": "0.3,0.45", key: value}
    Path("cfg.json").write_text(json.dumps(config))
    result = runner.invoke(main, [command, "--config", "cfg.json"])
    assert_config_error(result)
    assert f"error: {key}" in result.output


def test_unwritable_out_exit_2(runner, tmp_path):
    out = tmp_path / "nodir" / "x.json"
    result = runner.invoke(main, ["capacity", "--channel", "flip_bsc", "--out", str(out)])
    assert_config_error(result)
    assert f"error: cannot write {str(out)!r}" in result.output
    assert not out.exists()


# "no" is a boolean to click, as it is to `--exact`'s own type.
@pytest.mark.parametrize("exact", [False, "no"])
def test_config_exact_off(runner, tmp_path, exact):
    config = {"channel": "flip_bsc", "n": 4, "identities": 4, "colors": 2,
              "trials": 10, "exact": exact}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(main, ["simulate", "--config", str(path)])
    assert result.exit_code == 0
    assert "exact_lambda1" not in json.loads(result.output)


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"],
                         ids=["missing", "not-json", "list"])
def test_bad_config_file_exit_2(runner, tmp_path, text):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    result = runner.invoke(main, ["capacity", "--channel", "flip_bsc", "--config", str(path)])
    assert_config_error(result)
    assert "error: config file" in result.output


# A directory is neither a config nor a distortion file; reading it is an
# OSError that exits 2 like a missing file.
@pytest.mark.parametrize("args", [["capacity", "--config"], ["estimate", "--distortion"]],
                         ids=["config", "distortion"])
def test_unreadable_file_exit_2(runner, tmp_path, args):
    command, option = args
    result = runner.invoke(main, [command, "--channel", "flip_bsc", option, str(tmp_path)])
    assert_config_error(result)
    assert f"error: cannot read {option[2:]} file" in result.output


def _no_convergence(*args, **kwargs):
    raise NoConvergence(100000, 7.8e-9)


def _too_many_messages(*args, **kwargs):
    raise TooManyMessages("injected")


# Each command's first solve, and the solve behind `bounds`' K2 cap, which
# runs after the first one has returned.
each_command_solve = pytest.mark.parametrize("target,command", [
    ("idsense.cli.shannon_capacity_avg", ["capacity"]),
    ("idsense.cli.tradeoff_curve", ["tradeoff", "--grid", "0.3,0.45"]),
    ("idsense.cli.build_id_code", ["simulate", "--n", "4", "--identities", "4",
                                   "--colors", "2", "--trials", "10"]),
    ("idsense.cli.det_feedback_capacity", ["bounds", "--n", "8"]),
    ("idsense.cli.rand_feedback_capacity", ["bounds", "--n", "8"]),
], ids=["capacity", "tradeoff", "simulate", "bounds", "bounds-K2"])


# A solver that gives up is neither a bad configuration nor a traceback.
@each_command_solve
def test_no_convergence_exit_5(runner, monkeypatch, target, command):
    monkeypatch.setattr(target, _no_convergence)
    result = runner.invoke(main, [command[0], "--channel", "flip_bsc"] + command[1:])
    assert result.exit_code == 5
    assert isinstance(result.exception, SystemExit)
    assert ("error: no convergence after 100000 iterations (remaining gap 7.800e-09)"
            in result.output)
    assert "Traceback" not in result.output


# A library error with no exit code of its own is a configuration error.
@each_command_solve
def test_other_library_error_exit_2(runner, monkeypatch, target, command):
    monkeypatch.setattr(target, _too_many_messages)
    result = runner.invoke(main, [command[0], "--channel", "flip_bsc"] + command[1:])
    assert_config_error(result)
    assert "error: injected" in result.output


# Each command's stdout, pinned byte for byte in tests/data/cli/<channel>.<name>:
# a refactor may not move any artifact, not even by one ulp.
PINNED = {
    "capacity": ["capacity"],
    "tradeoff.json": ["tradeoff", "--grid", "0:1:0.05", "--mode", "both"],
    "tradeoff.csv": ["tradeoff", "--grid", "0:1:0.05", "--mode", "both", "--format", "csv"],
    "estimate": ["estimate", "-D", "0.3"],
    "bounds": ["bounds", "--n", "12", "--eps", "0.1", "-D", "0.45", "--distortion", "hamming"],
}
# simulate runs a code built for one channel's budget, so its cases are per
# channel; Sensor has no rand case (its rand pilot has a single input).
_SIMULATE = ["--identities", "4", "--eps", "0.3", "--trials", "2000", "--seed", "1", "--exact"]
PINNED_PER_CHANNEL = {
    ("flip_bsc", "simulate.det"): ["simulate", "-D", "0.45", "--n", "9", "--colors", "3",
                                   "--mode", "det"] + _SIMULATE,
    ("flip_bsc", "simulate.rand"): ["simulate", "-D", "0.45", "--n", "9", "--colors", "3",
                                    "--mode", "rand"] + _SIMULATE,
    ("sensor", "simulate.det"): ["simulate", "-D", "0.5", "--n", "4", "--colors", "2",
                                 "--mode", "det"] + _SIMULATE,
}
PINNED_CASES = sorted(
    [(channel, name, args) for name, args in PINNED.items() for channel in ("flip_bsc", "sensor")]
    + [(channel, name, args) for (channel, name), args in PINNED_PER_CHANNEL.items()])


@pytest.mark.parametrize("channel,name,args", [
    pytest.param(channel, name, args, id=f"{name}-{channel}")
    for channel, name, args in PINNED_CASES])
def test_pinned_artifacts(runner, channel, name, args):
    result = runner.invoke(main, [args[0], "--channel", channel] + args[1:])
    assert result.exit_code == 0
    expected = Path(__file__).parent / "data" / "cli" / f"{channel}.{name}"
    assert result.stdout_bytes == expected.read_bytes()


def _as_config(channel, flags):
    """A pinned command line's flags as the config object that says the same."""
    config, rest = {"channel": channel}, list(flags)
    while rest:
        flag = rest.pop(0)
        key = "budget" if flag == "-D" else flag.lstrip("-")
        if key == "exact":
            config[key] = True
            continue
        text = rest.pop(0)
        try:
            config[key] = json.loads(text)
        except ValueError:  # a name or a grid such as 0:1:0.05
            config[key] = text
    return config


# The same bytes when every setting comes from a config file and no flag is set.
@pytest.mark.parametrize("channel,name,args", [
    pytest.param(channel, name, args, id=f"{name}-{channel}")
    for channel, name, args in PINNED_CASES])
def test_pinned_artifacts_from_config(runner, tmp_path, channel, name, args):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_as_config(channel, args[1:])))
    result = runner.invoke(main, [args[0], "--config", str(path)])
    assert result.exit_code == 0
    expected = Path(__file__).parent / "data" / "cli" / f"{channel}.{name}"
    assert result.stdout_bytes == expected.read_bytes()


class TestEstimateCommand:
    def test_sensor_profile(self, runner):
        result = runner.invoke(main, [
            "estimate", "--channel", "sensor", "--distortion", "hamming",
            "-D", "0.3"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["profile"] == [0.1, 0.5]
        assert data["estimator"] == [[0, 1], [0, 0]]
        assert data["feasible_inputs"] == [0]
        assert data["oracle_max_diff"] <= 1e-12

    def test_distortion_size_mismatch_exit_2(self, runner, tmp_path):
        path = tmp_path / "d3.json"
        path.write_text(json.dumps({"distortion": (1.0 - np.eye(3)).tolist()}))
        result = runner.invoke(main, ["estimate", "--channel", "flip_bsc",
                                      "--distortion", str(path)])
        assert_config_error(result)
        assert "2 states" in result.output

    @pytest.mark.parametrize("form", ["object", "list"])
    def test_distortion_file_matches_hamming(self, runner, tmp_path, form):
        matrix = [[0.0, 1.0], [1.0, 0.0]]
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"distortion": matrix} if form == "object" else matrix))
        args = ["estimate", "--channel", "flip_bsc", "-D", "0.45", "--distortion"]
        from_file = runner.invoke(main, args + [str(path)])
        hamming = runner.invoke(main, args + ["hamming"])
        assert from_file.exit_code == hamming.exit_code == 0
        assert from_file.stdout_bytes == hamming.stdout_bytes

    # the estimator picks among the matrix's columns, so the exhaustive oracle
    # must search tables over three reconstructions, and over one
    @pytest.mark.parametrize("matrix,estimator", [
        ([[0.0, 1.0, 0.3], [1.0, 0.0, 0.3]], [[2, 1], [1, 2]]),
        ([[0.0], [1.0]], [[0, 0], [0, 0]])])
    def test_reconstructions_other_than_states(self, runner, tmp_path, matrix, estimator):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"distortion": matrix}))
        result = runner.invoke(main, ["estimate", "--channel", "flip_bsc",
                                      "--distortion", str(path)])
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        assert data["estimator"] == estimator
        assert data["oracle_max_diff"] <= 1e-12

    def test_inline_distortion(self, runner, tmp_path):
        spec = channel_to_dict(flip_bsc())
        spec["distortion"] = [[0.0, 1.0, 0.3], [1.0, 0.0, 0.3]]
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(spec))
        inline = runner.invoke(main, ["estimate", "--channel", str(path)])
        assert inline.exit_code == 0
        assert json.loads(inline.output)["estimator"] == [[2, 1], [1, 2]]
        # --distortion hamming overrides the channel file's own matrix
        args = ["--distortion", "hamming", "-D", "0.45"]
        overridden = runner.invoke(main, ["estimate", "--channel", str(path)] + args)
        fixture = runner.invoke(main, ["estimate", "--channel", "flip_bsc"] + args)
        assert overridden.exit_code == fixture.exit_code == 0
        assert overridden.stdout_bytes == fixture.stdout_bytes

    def test_single_state_zero_profile(self, runner, tmp_path):
        spec = {"input_size": 1, "output_size": 2, "state_size": 1,
                "state_prior": [1.0], "kernel": [[[0.3, 0.7]]]}
        path = tmp_path / "single.json"
        path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["estimate", "--channel", str(path)])
        data = json.loads(result.output)
        assert data["profile"] == [0.0]


class TestSimulateCommand:
    ARGS = ["simulate", "--channel", "flip_bsc", "--distortion", "hamming",
            "--n", "4", "--identities", "4", "--colors", "4", "--eps", "0.3",
            "--trials", "300", "--seed", "12"]

    def test_reproducible_artifacts(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = runner.invoke(main, self.ARGS + ["--out", str(out1)])
        r2 = runner.invoke(main, self.ARGS + ["--out", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exact_fields_present(self, runner):
        result = runner.invoke(main, self.ARGS + ["--exact"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert "exact_lambda1" in data and "exact_lambda2" in data
        assert "rate" in data and "image_size_log2_K1" in data

    def test_infeasible_budget_exit_3(self, runner):
        result = runner.invoke(main, [
            "simulate", "--channel", "sensor", "--distortion", "hamming",
            "-D", "0.05", "--n", "4", "--identities", "4", "--colors", "2"])
        assert result.exit_code == 3
        assert "0.1" in result.output  # names the smallest feasible budget

    @staticmethod
    def run_on(runner, tmp_path, ch, *args):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(channel_to_dict(ch)))
        return runner.invoke(main, ["simulate", "--channel", str(path), "--n", "4",
                                    "--identities", "4", "--colors", "2", "--mode", "det",
                                    *args])

    def test_inner_solve_certified_exit_2(self, runner, tmp_path):
        # the inner code's former Blahut-Arimoto solve exited 5 here after
        # about 2 s; the Frank-Wolfe solve certifies it, and 2 colors do not fit
        ch = random_channel(np.random.default_rng(10120), 2, 2, 2)
        result = self.run_on(runner, tmp_path, ch)
        assert_config_error(result)
        assert "M=2 messages exceed" in result.output

    def test_restricted_zero_capacity_exit_3(self, runner, tmp_path):
        result = self.run_on(runner, tmp_path, budget_hides_the_useful_input(), "-D", "0.3")
        assert result.exit_code == 3
        assert "error: the feasible inputs' channel has zero Shannon capacity" in result.output
        assert "Traceback" not in result.output

    def test_negative_eps_exit_2(self, runner):
        args = [a if a != "0.3" else "-0.1" for a in self.ARGS]
        result = runner.invoke(main, args)
        assert_config_error(result)
        assert "eps" in result.output

    def test_zero_trials_exit_2(self, runner):
        args = [a if a != "300" else "0" for a in self.ARGS]
        assert_config_error(runner.invoke(main, args))

    def test_exact_pilot_guarded_apart_from_tail(self, runner):
        # m = 17 + 5: 2^17 pilot blocks and 2^5 tails, each within the guard
        result = runner.invoke(main, [
            "simulate", "--channel", "flip_bsc", "-D", "0.45", "--n", "17",
            "--identities", "4", "--colors", "4", "--eps", "0.3",
            "--trials", "2000", "--seed", "3", "--exact"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        for measured, exact in ((data["lambda1_per_identity"], data["exact_lambda1"]),
                                (data["lambda2_per_pair"], data["exact_lambda2"])):
            assert measured.keys() == exact.keys()
            for key, p in exact.items():
                assert abs(measured[key] - p) <= 4 * np.sqrt(p * (1 - p) / 2000), key

    def test_exact_guard_exit_4(self, runner):
        result = runner.invoke(main, [
            "simulate", "--channel", "flip_bsc", "--distortion", "hamming",
            "--n", "25", "--identities", "4", "--colors", "4", "--eps", "0.3",
            "--trials", "100", "--exact"])
        assert result.exit_code == 4

    def test_exact_guard_before_any_trial(self, runner, monkeypatch):
        # the guard once refused the code only after the whole Monte Carlo
        def no_trials(*args, **kwargs):
            raise AssertionError("monte_carlo ran past the enumeration guard")

        monkeypatch.setattr("idsense.cli.monte_carlo", no_trials)
        result = runner.invoke(main, [
            "simulate", "--channel", "flip_bsc", "--n", "25", "--identities", "4",
            "--colors", "2", "--trials", "300000", "--exact"])
        assert result.exit_code == 4
        assert "error: 2^25 blocks exceed the enumeration guard" in result.output

    def test_csv_format(self, runner):
        result = runner.invoke(main, self.ARGS + ["--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "i,iprime,trials,accept_rate,stderr"
        assert "t,d_t_hat,stderr" in lines

    def test_config_file_with_flag_override(self, runner, tmp_path):
        config = {"channel": "flip_bsc", "distortion": "hamming", "n": 4,
                  "identities": 4, "colors": 4, "eps": 0.3, "trials": 200,
                  "seed": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        base = runner.invoke(main, ["simulate", "--config", str(path)])
        override = runner.invoke(main, ["simulate", "--config", str(path),
                                        "--seed", "6"])
        assert base.exit_code == 0 and override.exit_code == 0
        assert json.loads(base.output)["seed"] == 5
        assert json.loads(override.output)["seed"] == 6


class TestBoundsCommand:
    def test_flip_bounds(self, runner):
        result = runner.invoke(main, [
            "bounds", "--channel", "flip_bsc", "--n", "8", "--eps", "0.1",
            "--mu", "0.5", "-D", "0.45", "--distortion", "hamming"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["typical_log2_size_lower"] <= data["typical_log2_size_upper"]
        for key in ("image_size_log2_K1", "image_size_log2_K2",
                    "image_size_log2_K3", "image_size_log2_K4"):
            assert data[key] > 0

    def test_zero_n_exit_2(self, runner):
        assert_config_error(runner.invoke(main, [
            "bounds", "--channel", "flip_bsc", "--n", "0"]))

    def test_zero_eps_exit_2(self, runner):
        assert_config_error(runner.invoke(main, [
            "bounds", "--channel", "flip_bsc", "--n", "8", "--eps", "0"]))

    def test_nan_eps_exit_2(self, runner):
        result = runner.invoke(main, [
            "bounds", "--channel", "flip_bsc", "--n", "8", "--eps", "nan"])
        assert_config_error(result)
        assert "eps" in result.output

    def test_missing_distortion_without_budget_exit_2(self, runner, tmp_path):
        # --distortion is resolved for every command that declares it
        result = runner.invoke(main, [
            "bounds", "--channel", "flip_bsc", "--n", "8",
            "--distortion", str(tmp_path / "missing.json")])
        assert_config_error(result)
        assert "distortion file" in result.output

    def test_bad_mu_exit_2(self, runner):
        result = runner.invoke(main, [
            "bounds", "--channel", "flip_bsc", "--n", "8", "--mu", "2.0"])
        assert result.exit_code == 2
