import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import perturbed_bandits
from perturbed_bandits import cli
from perturbed_bandits import harness as hz

from csv_results import parse_csv

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
        result = parse_csv(out / "stochastic_regret.csv")
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
        rows = parse_csv(b / "stochastic_regret.csv").rows
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


class TestEpisodeProcesses:
    # --threads N deals the episodes to up to min(N, CPUs, episodes)
    # processes.  The CPU count is raised to 4 so that every N here gets
    # its own number of processes; 3 episodes split unevenly over 2 of them.
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "command, raw",
        [pytest.param("stochastic", STOCH_CONFIG, id="stochastic"),
         pytest.param("adversarial", dict(ADV_CONFIG, episodes=3, adversary="iid"), id="adversarial")],
    )
    def test_bytes_do_not_depend_on_threads(self, tmp_path, command, raw):
        config = write_config(tmp_path, raw)
        outputs = []
        for threads in ("1", "2", "3", "4"):
            out = tmp_path / threads
            assert cli.main([command, "--config", str(config), "--out", str(out), "--threads", threads]) == 0
            assert multiprocessing.active_children() == []
            outputs.append((out / f"{command}_regret.csv").read_bytes())
        assert outputs[1:] == outputs[:1] * 3

    def test_bad_policy_fails_closed(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(STOCH_CONFIG, policies=[{"kind": "ftpl", "sigma": 1e308}]))
        out = tmp_path / "out"
        assert cli.main(["stochastic", "--config", str(path), "--out", str(out), "--threads", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not out.exists()

    @pytest.mark.parametrize("exc", [ValueError("episode 1 failed"), MemoryError()])
    def test_worker_error_reaches_the_caller(self, tmp_path, capsys, monkeypatch, exc):
        # Episode 1 is the second process's first; the fork inherits the patch.
        episode = hz._episode

        def failing(config, grid, checkpoints, e):
            if e == 1:
                raise exc
            return episode(config, grid, checkpoints, e)

        monkeypatch.setattr(hz, "_episode", failing)
        path = write_config(tmp_path, STOCH_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["stochastic", "--config", str(path), "--out", str(out), "--threads", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {str(exc) or type(exc).__name__}"]
        assert not out.exists()

    def test_caller_error_stops_the_workers(self, tmp_path, capsys, monkeypatch):
        # Episode 0 is the calling process's; episode 1's worker would sleep
        # for 5 s, but the error is reported without waiting for it.
        episode = hz._episode

        def failing(config, grid, checkpoints, e):
            if e == 0:
                raise ValueError("episode 0 failed")
            if e == 1:
                time.sleep(5.0)
            return episode(config, grid, checkpoints, e)

        monkeypatch.setattr(hz, "_episode", failing)
        path = write_config(tmp_path, STOCH_CONFIG)
        out = tmp_path / "out"
        start = time.perf_counter()
        code = cli.main(["stochastic", "--config", str(path), "--out", str(out), "--threads", "2"])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: episode 0 failed"]
        assert elapsed < 2.0
        assert multiprocessing.active_children() == []


class TestAdversarialCommand:
    def test_writes_outputs(self, tmp_path):
        config = write_config(tmp_path, ADV_CONFIG)
        out = tmp_path / "run"
        assert cli.main(["adversarial", "--config", str(config), "--out", str(out)]) == 0
        rows = parse_csv(out / "adversarial_regret.csv").rows
        assert [r.t for r in rows] == [100, 300]
        assert (out / "adversarial_regret.svg").exists()


class TestGridSearchCommand:
    def test_outputs_and_best_selection(self, tmp_path, capsys):
        raw = dict(STOCH_CONFIG, policies=[{"kind": "ftpl", "sigma": [0.5, 8.0]}])
        config = write_config(tmp_path, raw)
        out = tmp_path / "grid"
        assert cli.main(["grid-search", "--config", str(config), "--out", str(out)]) == 0
        results = parse_csv(out / "grid_results.csv")
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
            pytest.param("adversarial", dict(ADV_CONFIG, adversary=["iid"]), [], id="adversary-list"),
            pytest.param("adversarial", dict(ADV_CONFIG, adversary={}), [], id="adversary-object"),
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

    @pytest.mark.parametrize(
        "command, raw",
        [
            pytest.param(
                "adversarial",
                {"mode": "adversarial", "seed": 1, "K": 10, "T": 500, "episodes": 1, "adversary": "iid",
                 "checkpoints": [500], "potentials": [{"kind": "tsallis", "eta": 1e-200, "alpha": 0.5}]},
                id="tiny-tsallis-eta",
            ),
            pytest.param("stochastic", dict(STOCH_CONFIG, policies=[{"kind": "ftpl", "sigma": 1e308}]), id="huge-sigma"),
            pytest.param(
                "adversarial",
                {"mode": "adversarial", "seed": 1, "K": 4, "T": 200, "episodes": 1, "adversary": "iid",
                 "checkpoints": [200], "potentials": [{"kind": "ftpl", "perturbation": "gumbel", "eta": 1e308,
                                                       "mc_samples": 10}]},
                id="huge-ftpl-eta",
            ),
        ],
    )
    def test_numerical_failure_fails_closed(self, tmp_path, capsys, command, raw):
        # Valid input that the floats cannot carry fails in the first episode,
        # with one error line and no output left behind.
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not out.exists()

    def test_tiny_shannon_eta_runs(self, tmp_path, capsys):
        # Shannon shifts G by its max before dividing by eta, so no exponent
        # overflows (a RuntimeWarning is an error under this suite's settings).
        raw = {"mode": "adversarial", "seed": 1, "K": 4, "T": 2000, "episodes": 1, "adversary": "iid",
               "checkpoints": [2000], "potentials": [{"kind": "shannon", "eta": 1e-306}]}
        out = tmp_path / "out"
        assert cli.main(["adversarial", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 0
        rows = parse_csv(out / "adversarial_regret.csv").rows
        assert len(rows) == 1 and math.isfinite(rows[0].mean_avg_regret)

    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 TiB for an array", ""])
    def test_out_of_memory_fails_closed(self, tmp_path, capsys, monkeypatch, message):
        # A config too large for memory (evt-table at K = 2^40 asks for 8 TiB)
        # ends in one error line and exit 2; nothing is allocated here.
        def run_evt_mode(config, path):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(hz, "run_evt_mode", run_evt_mode)
        path = write_config(tmp_path, dict(EVT_CONFIG, K_list=[1 << 40], n_blocks=100))
        kept = tmp_path / "kept"
        kept.mkdir()
        code = cli.main(["evt-table", "--config", str(path), "--out", str(kept / "out" / "run")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: {message or 'MemoryError'}"]
        # the failed command removes the directories it made, and keeps the
        # empty one that was there before
        assert kept.is_dir() and not (kept / "out").exists()

    def test_invalid_config_contents(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(STOCH_CONFIG, K=0))
        assert cli.main(["stochastic", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


def test_import_loads_only_what_commands_use():
    # A fresh interpreter, so that no other test's imports count.
    src = str(Path(perturbed_bandits.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, perturbed_bandits.cli; print(sorted({'scipy', 'urllib.request'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_one_process_imports_no_pool(tmp_path):
    # --threads 1 plays every episode in the calling process, without the
    # process pool's modules.
    src = str(Path(perturbed_bandits.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["stochastic", "--config", str(write_config(tmp_path, STOCH_CONFIG)), "--out", str(tmp_path / "out")]
    probe = (f"import sys, perturbed_bandits.cli as cli; assert cli.main({argv!r}) == 0; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
