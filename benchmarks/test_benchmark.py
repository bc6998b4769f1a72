"""Tests of the benchmark itself: each output checker accepts a real program
output and rejects a corrupted copy, and the traced run writes the same
bytes as the untraced one.

    python3 -m pytest benchmarks -q
"""
import csv
import json
import math
import sys

import pytest

import checks
import run

sys.path.insert(0, str(run.SRC))
from perturbed_bandits import cli  # noqa: E402

CHECKPOINTS = [100, 500, 2000]
STOCHASTIC = {"mode": "stochastic", "seed": 5, "K": 10, "T": 2000, "episodes": 2,
              "reward_model": "gaussian_shift", "checkpoints": CHECKPOINTS, "policies": run.FIGURE_POLICIES}
ADVERSARIAL = {"mode": "adversarial", "seed": 5, "K": 10, "T": 2000, "episodes": 2,
               "adversary": "single_best_arm", "checkpoints": CHECKPOINTS, "potentials": run.GBPA_POTENTIALS}
EVT = {"mode": "evt", "seed": 5, "K_list": [1000], "n_blocks": 20_000}


def _cli(tmp_path, command, config, name):
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / name
    code = cli.main([command, "--config", str(config_path), "--out", str(out)])
    return out, code


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def _failed(results):
    return {name for name, ok, _ in results if not ok}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    stochastic, code_s = _cli(tmp, "stochastic", STOCHASTIC, "stochastic")
    adversarial, code_a = _cli(tmp, "adversarial", ADVERSARIAL, "adversarial")
    evt, code_e = _cli(tmp, "evt-table", EVT, "evt")
    theory, code_t = _cli(tmp, "theory-check", {"mode": "theory", "seed": 5}, "theory")
    assert (code_s, code_a, code_e, code_t) == (0, 0, 0, 0)
    return {"stochastic": stochastic / "stochastic_regret.csv", "adversarial": adversarial / "adversarial_regret.csv",
            "evt": evt / "evt_table.csv", "theory": theory / "theory_checks.txt"}


def test_checkers_accept_program_outputs(outputs):
    assert not _failed(checks.check_stochastic(outputs["stochastic"], STOCHASTIC))
    assert not _failed(checks.check_adversarial(outputs["adversarial"], ADVERSARIAL))
    assert not _failed(checks.check_evt(outputs["evt"], EVT, 0))
    assert not _failed(checks.check_theory(outputs["theory"], 0))


@pytest.mark.parametrize("kind", ["stochastic", "adversarial"])
def test_falling_cumulative_regret_is_rejected(outputs, kind, tmp_path):
    path = tmp_path / "regret.csv"
    path.write_bytes(outputs[kind].read_bytes())

    def fall(rows):  # R(2000) below R(500) in the first series
        rows[2]["mean_avg_regret"] = repr(float(rows[1]["mean_avg_regret"]) * 500 / 2000 / 2)

    _rewrite(path, fall)
    check = checks.check_stochastic if kind == "stochastic" else checks.check_adversarial
    config = STOCHASTIC if kind == "stochastic" else ADVERSARIAL
    assert f"{kind}.monotone" in _failed(check(path, config))


def test_regret_above_largest_gap_is_rejected(outputs, tmp_path):
    path = tmp_path / "regret.csv"
    path.write_bytes(outputs["stochastic"].read_bytes())
    gap = max(float(m.max() - m.min()) for m in (checks.instance_means(5, e, 10) for e in range(2)))

    def above(rows):  # every checkpoint of the first series, so it stays monotone
        for row in rows[:3]:
            row["mean_avg_regret"] = repr(1.01 * gap)

    _rewrite(path, above)
    assert "stochastic.gap_bound" in _failed(checks.check_stochastic(path, STOCHASTIC))


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("label", checks.EVT_ROWS)
def test_evt_row_off_its_exact_mean_is_rejected(outputs, label, direction, tmp_path):
    path = tmp_path / "evt.csv"
    path.write_bytes(outputs["evt"].read_bytes())

    def move(rows):  # twice the band's width away from the exact mean
        row = next(r for r in rows if r["params"] == label)
        mean, var = checks.exact_block_max(label, 1000)
        if math.isfinite(var):
            band = checks.EVT_BAND_Z * math.sqrt(var / EVT["n_blocks"])
        elif direction > 0:
            band = checks.EVT_BAND_Z * float(row["stderr"])
        else:
            band = checks.heavy_lower_band(label, 1000, EVT["n_blocks"])
        row["mc"] = repr(mean + 2 * direction * band)

    _rewrite(path, move)
    assert _failed(checks.check_evt(path, EVT, 0)) == {f"evt.{label}.K1000"}


def test_failed_theory_row_is_rejected(outputs, tmp_path):
    path = tmp_path / "theory.txt"
    path.write_text(outputs["theory"].read_text().replace("PASS", "FAIL", 1))
    assert _failed(checks.check_theory(path, 0)) == {"theory.rows"}


def test_traced_run_writes_the_untraced_bytes(tmp_path):
    invs = [
        run._simulation("stochastic", STOCHASTIC, threads=2),
        run._simulation("adversarial", ADVERSARIAL, threads=1),
        run.Invocation("evt-table", "evt-table", EVT, 1, 5 * EVT["n_blocks"]),
        run.Invocation("theory-check", "theory-check", {"mode": "theory", "seed": 5}, 1, 0),
    ]
    paths = []
    for inv in invs:
        paths.append(tmp_path / f"{inv.label}.json")
        paths[-1].write_text(json.dumps(inv.config))
    metrics, results = run.run_traced(invs, paths, tmp_path, seconds=0.0)
    assert not _failed(results)
    assert sum(name.endswith(":traced_identical") for name, _, _ in results) == len(invs)
    # The same bytes again from the command run as its own process.
    _, results_untraced = run.untraced_round(invs, paths, tmp_path)
    assert not _failed(results_untraced)
    for inv in invs:
        assert run.same_outputs(tmp_path / "out" / inv.label, tmp_path / "traced" / inv.label) == (True, "")
    for name in ("stochastic.run_episode.us_per_round.ftpl-gaussian", "adversarial.run_gbpa.us_per_round.tsallis",
                 "extremes.mc_expected_block_max.ns_per_block.pareto", "choice_theory.run_theory_checks.s",
                 "harness.run_experiment.self_s", "distributions.sample_array.ns_per_draw"):
        assert metrics[name][0] > 0.0, name
    assert (tmp_path / "spans.csv").stat().st_size > 0
