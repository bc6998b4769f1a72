import json

import pytest

from perturbed_bandits import cli
from perturbed_bandits import harness as hz

STOCH_CONFIG = {
    "mode": "stochastic",
    "seed": 11,
    "K": 3,
    "T": 400,
    "episodes": 3,
    "checkpoints": [100, 400],
    "policies": [{"kind": "ucb1"}, {"kind": "ftpl", "sigma": 1.0}],
}

EVT_CONFIG = {"mode": "evt", "seed": 3, "K_list": [500], "n_blocks": 30_000}

ADV_CONFIG = {
    "mode": "adversarial",
    "seed": 11,
    "K": 3,
    "T": 300,
    "episodes": 2,
    "adversary": "single_best_arm",
    "checkpoints": [100, 300],
    "potentials": [{"kind": "shannon", "eta": 8.0}],
}


def write_config(tmp_path, raw, name="config.json"):
    """Write ``raw`` as JSON, or as it is if it is already JSON text."""
    path = tmp_path / name
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    return path


def with_1e999(raw):
    """``raw`` as JSON text with every "1e999" string written as the number
    1e999, which JSON reads as infinity."""
    return json.dumps(raw).replace('"1e999"', "1e999")


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_config_required_for_simulation(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["stochastic"])

    def test_defaults(self):
        args = cli.build_parser().parse_args(["theory-check"])
        assert args.config is None and args.seed is None and args.threads == 1

    def test_all_flags_parse(self, tmp_path):
        args = cli.build_parser().parse_args(
            [
                "stochastic",
                "--config",
                str(tmp_path / "c.json"),
                "--seed",
                "42",
                "--out",
                str(tmp_path),
                "--threads",
                "4",
            ]
        )
        assert args.seed == 42 and args.threads == 4


class TestStochasticCommand:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        config = write_config(tmp_path, STOCH_CONFIG)
        out = tmp_path / "run"
        code = cli.main(["stochastic", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "stochastic_regret.csv").exists()
        assert (out / "stochastic_regret.svg").exists()
        assert "stochastic_regret.csv" in capsys.readouterr().out
        result = hz.parse_csv(out / "stochastic_regret.csv")
        assert result == hz.run_experiment(hz.config_from_dict(STOCH_CONFIG))

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(tmp_path, STOCH_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["stochastic", "--config", str(config), "--out", str(a)]) == 0
        assert (
            cli.main(
                ["stochastic", "--config", str(config), "--out", str(b), "--seed", "99"]
            )
            == 0
        )
        rows = hz.parse_csv(b / "stochastic_regret.csv").rows
        assert all(r.seed == 99 for r in rows)
        assert (a / "stochastic_regret.csv").read_bytes() != (
            b / "stochastic_regret.csv"
        ).read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        config = write_config(tmp_path, STOCH_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["stochastic", "--config", str(config), "--out", str(a)])
        cli.main(["stochastic", "--config", str(config), "--out", str(b), "--threads", "4"])
        assert (a / "stochastic_regret.csv").read_bytes() == (
            b / "stochastic_regret.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "command, raw",
        [
            pytest.param(command, raw, id=command)
            for command, raw in (
                ("stochastic", ADV_CONFIG),
                ("adversarial", STOCH_CONFIG),
                ("grid-search", EVT_CONFIG),
                ("evt-table", STOCH_CONFIG),
                ("theory-check", STOCH_CONFIG),
            )
        ],
    )
    def test_mode_mismatch_rejected(self, tmp_path, capsys, command, raw):
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and "mode" in err[0], err
        assert not out.exists()


class TestAdversarialCommand:
    def test_writes_outputs(self, tmp_path):
        config = write_config(tmp_path, ADV_CONFIG)
        out = tmp_path / "run"
        assert cli.main(["adversarial", "--config", str(config), "--out", str(out)]) == 0
        rows = hz.parse_csv(out / "adversarial_regret.csv").rows
        assert [r.t for r in rows] == [100, 300]
        assert (out / "adversarial_regret.svg").exists()


class TestGridSearchCommand:
    def test_outputs_and_best_selection(self, tmp_path, capsys):
        raw = dict(STOCH_CONFIG, policies=[{"kind": "ftpl", "sigma": [0.5, 8.0]}])
        config = write_config(tmp_path, raw)
        out = tmp_path / "grid"
        assert cli.main(["grid-search", "--config", str(config), "--out", str(out)]) == 0
        results = hz.parse_csv(out / "grid_results.csv")
        assert len(results.series()) == 2
        best = json.loads((out / "grid_best.json").read_text())
        assert len(best) == 1
        assert best[0]["best_param"] in ("sigma=0.5", "sigma=8")
        assert "best" in capsys.readouterr().out


class TestVerificationCommands:
    def test_evt_table_passes_with_config(self, tmp_path, capsys):
        config = write_config(tmp_path, EVT_CONFIG)
        out = tmp_path / "evt"
        assert cli.main(["evt-table", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "evt_table.csv").exists()
        captured = capsys.readouterr().out
        assert captured.count("PASS") == 5 and "FAIL" not in captured

    def test_theory_check_passes(self, tmp_path, capsys):
        out = tmp_path / "theory"
        assert cli.main(["theory-check", "--out", str(out)]) == 0
        assert "PASS" in (out / "theory_checks.txt").read_text()
        assert "FAIL" not in capsys.readouterr().out


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(
            ["stochastic", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["stochastic", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, raw, flags",
        [
            pytest.param("stochastic", dict(STOCH_CONFIG, T=400.0), [], id="float-T"),
            pytest.param("stochastic", dict(STOCH_CONFIG, episodes=True), [], id="bool-episodes"),
            pytest.param("stochastic", dict(STOCH_CONFIG, checkpoints=[100, 400.0]), [], id="float-checkpoint"),
            pytest.param("stochastic", dict(STOCH_CONFIG, policies=[{"perturbation": "gaussian"}]), [], id="no-kind"),
            pytest.param("stochastic", dict(STOCH_CONFIG, policies=[{"kind": "ftpl", "sigm": 5}]), [], id="unknown-key"),
            pytest.param("stochastic", dict(STOCH_CONFIG, reward_model="cauchy_shift"), [], id="reward-model"),
            pytest.param("adversarial", dict(ADV_CONFIG, adversary="adaptive"), [], id="adversary"),
            pytest.param(
                "adversarial",
                dict(ADV_CONFIG, potentials=[{"kind": "ftpl", "perturbation": "gamma", "shape": [2.0, 3.0]}]),
                [],
                id="list-shape",
            ),
            pytest.param(
                "adversarial",
                dict(ADV_CONFIG, potentials=[{"kind": "tsallis", "eta": 5.0, "alpha": [0.5, 0.9]}]),
                [],
                id="list-alpha",
            ),
            pytest.param(
                "adversarial",
                dict(ADV_CONFIG, potentials=[{"kind": "shannon", "eta": 8.0}, {"kind": "ftpl", "eta": 5.0, "floor": 0.01}]),
                [],
                id="floor-key",
            ),
            pytest.param(
                "adversarial",
                dict(ADV_CONFIG, potentials=[{"kind": "ftpl", "perturbation": "gumbel", "shape": 7}]),
                [],
                id="gumbel-shape",
            ),
            pytest.param(
                "stochastic",
                dict(STOCH_CONFIG, policies=[{"kind": "ucb1"}, {"kind": "ftpl", "sigma": []}]),
                [],
                id="empty-sigma",
            ),
            pytest.param(
                "stochastic",
                dict(STOCH_CONFIG, policies=[{"kind": "ucb1"}, {"kind": "rcb", "epsilon": []}]),
                [],
                id="empty-epsilon",
            ),
            pytest.param(
                "adversarial",
                dict(ADV_CONFIG, potentials=[{"kind": "shannon", "eta": 8.0}, {"kind": "tsallis", "eta": []}]),
                [],
                id="empty-eta",
            ),
            pytest.param(
                "stochastic",
                dict(STOCH_CONFIG, policies=[{"kind": "ftpl", "sigma": [1, 1.0]}]),
                [],
                id="duplicate-sigma",
            ),
            pytest.param(
                "stochastic",
                dict(STOCH_CONFIG, policies=[{"kind": "rcb", "perturbation": "gaussian"}]),
                [],
                id="rcb-gaussian",
            ),
            pytest.param(
                "stochastic",
                with_1e999(dict(STOCH_CONFIG, policies=[{"kind": "ftpl", "sigma": "1e999"}])),
                [],
                id="infinite-sigma",
            ),
            pytest.param(
                "adversarial",
                with_1e999(dict(ADV_CONFIG, potentials=[{"kind": "shannon", "eta": "1e999"}])),
                [],
                id="infinite-eta",
            ),
            pytest.param(
                "stochastic", dict(STOCH_CONFIG, potentials=[{"kind": "bogus"}]), [], id="stochastic-potentials"
            ),
            pytest.param("stochastic", dict(STOCH_CONFIG, adversary="iid"), [], id="stochastic-adversary"),
            pytest.param("stochastic", dict(STOCH_CONFIG, K_list=[100]), [], id="stochastic-K_list"),
            pytest.param("adversarial", dict(ADV_CONFIG, policies=[{"kind": "ucb1"}]), [], id="adversarial-policies"),
            pytest.param(
                "adversarial", dict(ADV_CONFIG, reward_model="gaussian_shift"), [], id="adversarial-reward-model"
            ),
            pytest.param("evt-table", dict(EVT_CONFIG, episodes=0), [], id="evt-episodes"),
            pytest.param("evt-table", dict(EVT_CONFIG, K_list=[]), [], id="evt-empty-K_list"),
            pytest.param("evt-table", dict(EVT_CONFIG, K_list=[1]), [], id="evt-K-1"),
            pytest.param("evt-table", dict(EVT_CONFIG, n_blocks=99), [], id="evt-n_blocks-99"),
            pytest.param("evt-table", dict(EVT_CONFIG, K_list=[2, 2]), [], id="evt-duplicate-K"),
            pytest.param("theory-check", {"mode": "theory"}, [], id="no-seed"),
            pytest.param("stochastic", {k: v for k, v in STOCH_CONFIG.items() if k != "mode"}, [], id="no-mode"),
            pytest.param("stochastic", STOCH_CONFIG, ["--threads", "0"], id="threads-0"),
            pytest.param("stochastic", STOCH_CONFIG, ["--threads", "-3"], id="threads-negative"),
        ],
    )
    def test_bad_input_fails_closed(self, tmp_path, capsys, command, raw, flags):
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = cli.main([command, "--config", str(path), "--out", str(out), *flags])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:"), err
        # the error is raised before the output directory is made, so before
        # the first episode
        assert not out.exists()

    def test_invalid_config_contents(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(STOCH_CONFIG, K=0))
        assert cli.main(["stochastic", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err
