import json
import math
import xml.dom.minidom

import numpy as np
import pytest

from perturbed_bandits import adversarial as adv
from perturbed_bandits import distributions as dist
from perturbed_bandits import extremes as ex
from perturbed_bandits import harness as hz
from perturbed_bandits import stochastic as st

from csv_results import parse_csv


def small_stochastic_config(**overrides):
    raw = {
        "mode": "stochastic",
        "seed": 5,
        "K": 3,
        "T": 500,
        "episodes": 4,
        "checkpoints": [100, 500],
        "policies": [{"kind": "ucb1"}, {"kind": "ftpl", "sigma": 1.0}],
    }
    raw.update(overrides)
    return hz.config_from_dict(raw)


class TestConfig:
    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            hz.config_from_dict({"mode": "quantum", "seed": 0})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            hz.config_from_dict({"mode": "theory", "seed": 0, "verbose": True})

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            hz.config_from_dict({"mode": "stochastic", "seed": 0, "policies": []})

    def test_unknown_reward_model_rejected(self):
        with pytest.raises(ValueError, match="reward model"):
            small_stochastic_config(reward_model="cauchy_shift")

    def test_checkpoints_clipped_to_horizon(self):
        cfg = small_stochastic_config(T=800, checkpoints=[100, 500, 5000])
        assert cfg.effective_checkpoints() == (100, 500)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "config.json"
        raw = {
            "mode": "stochastic",
            "seed": 5,
            "K": 3,
            "T": 500,
            "episodes": 4,
            "checkpoints": [100, 500],
            "policies": [{"kind": "ucb1"}],
        }
        path.write_text(json.dumps(raw))
        assert hz.load_config(path) == hz.config_from_dict(raw)


class TestGridExpansion:
    def test_singleton_policies(self):
        for kind in ("ucb1", "thompson"):
            [(cfg, param)] = hz.expand_policy_entry({"kind": kind})
            assert cfg.kind == kind and param == ""

    def test_ftpl_sigma_grid(self):
        grid = hz.expand_policy_entry({"kind": "ftpl", "sigma": [0.25, 0.5, 1, 2]})
        assert [param for _, param in grid] == [
            "sigma=0.25",
            "sigma=0.5",
            "sigma=1",
            "sigma=2",
        ]
        assert all(cfg.spec.kind == dist.GAUSSIAN for cfg, _ in grid)

    def test_rcb_epsilon_grid(self):
        grid = hz.expand_policy_entry(
            {"kind": "rcb", "perturbation": "rademacher", "epsilon": [0.1, 0.25]}
        )
        assert [cfg.epsilon for cfg, _ in grid] == [0.1, 0.25]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            hz.expand_policy_entry({"kind": "exp3"})

    def test_potential_auto_eta(self):
        [(pot, param)] = hz.expand_potential_entry(
            {"kind": "ftpl", "perturbation": "gumbel", "eta": "auto"}, K=10, T=1000
        )
        expected = adv.tune_eta(
            10, 1000, dist.sup_hazard(dist.gumbel()), ex.asymptotic_block_max(dist.gumbel(), 10)
        )
        assert pot.eta == pytest.approx(expected, rel=1e-9)
        # close to the coarse sqrt(KT / (log K + gamma)) rate
        assert pot.eta == pytest.approx(
            math.sqrt(10 * 1000 / (math.log(10) + np.euler_gamma)), rel=0.01
        )
        assert param.startswith("eta=")

    def test_auto_eta_needs_ftpl(self):
        with pytest.raises(ValueError, match="auto"):
            hz.expand_potential_entry({"kind": "shannon", "eta": "auto"}, K=10, T=1000)


# A valid value other than the default for every key a kind accepts.
NON_DEFAULT = {"sigma": 2.0, "epsilon": 0.5, "eta": 3.0, "alpha": 0.7, "shape": 3.0, "mc_samples": 7}

FAMILIES = (
    (hz.POLICY_KINDS, hz.expand_policy_entry),
    (hz.POTENTIAL_KINDS, lambda entry: hz.expand_potential_entry(entry, K=10, T=1000)),
)


def _kinds():
    for table, expand in FAMILIES:
        for kind, row in table.items():
            yield expand, kind, row


def _key_cases():
    for expand, kind, row in _kinds():
        for pert in row.perturbations or (None,):
            base = {"kind": kind} if pert is None else {"kind": kind, "perturbation": pert}
            keys = [*row.keys, dist.PERTURBATIONS[pert][1]] if pert else list(row.keys)
            for key in filter(None, keys):
                yield pytest.param(expand, base, key, id=f"{kind}-{pert}-{key}")


class TestKindTables:
    @pytest.mark.parametrize("expand, base, key", list(_key_cases()))
    def test_no_accepted_key_is_ignored(self, expand, base, key):
        assert expand({**base, key: NON_DEFAULT[key]}) != expand(base)

    def test_each_perturbation_name_builds_that_distribution(self):
        for expand, kind, row in _kinds():
            for pert in row.perturbations:
                [(obj, _)] = expand({"kind": kind, "perturbation": pert})
                assert obj.spec.kind == pert
            if row.perturbations:  # the first is the default
                assert expand({"kind": kind}) == expand({"kind": kind, "perturbation": row.perturbations[0]})


class TestRunExperiment:
    GRID = [
        {"kind": "ucb1"},
        {"kind": "rcb", "perturbation": "rademacher"},
        {"kind": "ftpl", "perturbation": "gaussian"},
    ]

    def test_single_episode_equals_trace(self):
        # Every grid point's series is run_episode's regret under the seeding
        # rule: child 0 the means, child 1 the reward table, child 2 + i the
        # generator of grid point i.
        cfg = small_stochastic_config(episodes=1, policies=self.GRID)
        result = hz.run_experiment(cfg)
        children = np.random.SeedSequence([cfg.seed, 0]).spawn(2 + len(self.GRID))
        means = np.random.default_rng(children[0]).random(cfg.K)
        inst = st.BanditInstance(
            means=means, reward_model=dist.RewardModel(cfg.reward_model), horizon=cfg.T
        )
        grid = cfg.grid()
        series = result.series()
        assert list(series) == [(policy.label(), param) for policy, param in grid]
        for i, (policy, param) in enumerate(grid):
            trace = st.run_episode(
                inst,
                policy,
                reward_rng=np.random.default_rng(children[1]),
                policy_rng=np.random.default_rng(children[2 + i]),
            )
            rows = series[(policy.label(), param)]
            assert [row.mean_avg_regret for row in rows] == [trace.regret(100) / 100, trace.regret(500) / 500]
            assert all(row.stderr == 0.0 for row in rows)

    def test_reward_table_drawn_once_per_episode(self, monkeypatch):
        # One RewardTable per episode, which every policy of the episode
        # plays, drawn only as far as their pulls reach.
        tables, played = [], []
        init, play = dist.RewardTable.__init__, st.play

        def spy_init(self, model, means, n, rng):
            tables.append(self)
            init(self, model, means, n, rng)

        def spy_play(table, policy, rng):
            played.append(table)
            return play(table, policy, rng)

        monkeypatch.setattr(dist.RewardTable, "__init__", spy_init)
        monkeypatch.setattr(st, "play", spy_play)
        hz.run_experiment(small_stochastic_config(episodes=3, policies=self.GRID))
        assert [table.horizon for table in tables] == [500] * 3
        assert len(played) == 3 * len(self.GRID)
        assert all(table is tables[i // len(self.GRID)] for i, table in enumerate(played))
        tables.clear()
        wide = small_stochastic_config(K=300, T=2000, episodes=1, reward_model=dist.GAUSSIAN_MIXTURE_SHIFT,
                                       checkpoints=[2000], policies=self.GRID)
        hz.run_experiment(wide)
        assert len(tables) == 1 and len(tables[0].rows) < 2000

    def test_deterministic_across_thread_counts(self):
        cfg = small_stochastic_config()
        assert hz.run_experiment(cfg, threads=1) == hz.run_experiment(cfg, threads=4)

    def test_rows_shape_and_order(self):
        cfg = small_stochastic_config()
        result = hz.run_experiment(cfg)
        assert [(r.policy, r.t) for r in result.rows] == [
            ("ucb1", 100),
            ("ucb1", 500),
            ("ftpl-gaussian", 100),
            ("ftpl-gaussian", 500),
        ]
        assert all(r.episodes == 4 and r.seed == 5 for r in result.rows)

    def test_adversarial_mode(self):
        cfg = hz.config_from_dict(
            {
                "mode": "adversarial",
                "seed": 2,
                "K": 4,
                "T": 300,
                "episodes": 3,
                "adversary": "constant",
                "checkpoints": [100, 300],
                "potentials": [{"kind": "shannon", "eta": 5.0}],
            }
        )
        result = hz.run_experiment(cfg)
        # constant rewards: every arm optimal, regret identically zero
        assert all(abs(r.mean_avg_regret) < 1e-12 for r in result.rows)

    def test_unknown_adversary(self):
        with pytest.raises(ValueError, match="adversary"):
            hz.config_from_dict(
                {
                    "mode": "adversarial",
                    "seed": 2,
                    "K": 4,
                    "T": 300,
                    "episodes": 1,
                    "adversary": "adaptive",
                    "checkpoints": [100],
                    "potentials": [{"kind": "shannon", "eta": 5.0}],
                }
            )


class TestGridSearch:
    def test_single_point_grid(self):
        cfg = small_stochastic_config(policies=[{"kind": "ucb1"}])
        search = hz.grid_search(cfg)
        assert len(search.best) == 1
        assert search.best[0].policy == "ucb1"

    def test_argmin_selected_with_all_results_retained(self):
        cfg = small_stochastic_config(
            T=2000,
            episodes=6,
            checkpoints=[2000],
            policies=[{"kind": "ftpl", "sigma": [0.5, 8.0]}],
        )
        search = hz.grid_search(cfg)
        finals = {r.param: r.mean_avg_regret for r in search.all_results.final_rows()}
        assert len(finals) == 2
        winner = search.best[0]
        assert finals[winner.best_param] == min(finals.values())

    def test_adversarial_grid_compares_eta_values(self):
        cfg = hz.config_from_dict(
            {
                "mode": "adversarial",
                "seed": 3,
                "K": 3,
                "T": 300,
                "episodes": 2,
                "adversary": "iid",
                "checkpoints": [300],
                "potentials": [{"kind": "shannon", "eta": [2.0, 50.0]}],
            }
        )
        search = hz.grid_search(cfg)
        finals = {r.param: r.mean_avg_regret for r in search.all_results.final_rows()}
        assert set(finals) == {"eta=2", "eta=50"}
        [entry] = search.best
        assert entry.policy == "shannon"
        assert finals[entry.best_param] == min(finals.values())

    def test_ties_to_first_grid_point(self, monkeypatch):
        # an exact tie between two grid points: the first one wins and the
        # other is flagged as within-stderr
        rows = tuple(
            hz.ResultRow("ftpl-gaussian", param, 500, 0.1, 0.0, 4, 5) for param in ("sigma=2", "sigma=1")
        )
        threads = []
        monkeypatch.setattr(hz, "run_experiment", lambda config, n: threads.append(n) or hz.AggregateResult(rows))
        search = hz.grid_search(small_stochastic_config(), 3)
        assert search.best[0].best_param == "sigma=2"
        assert search.best[0].tied_within_stderr == ("sigma=1",)
        assert threads == [3]  # grid_search passes its thread count on


class TestEmission:
    def test_csv_header_and_roundtrip(self, tmp_path):
        result = hz.run_experiment(small_stochastic_config())
        path = tmp_path / "result.csv"
        hz.emit_csv(result, path)
        first = path.read_text().splitlines()[0]
        assert first == "policy,param,t,mean_avg_regret,stderr,episodes,seed"
        assert parse_csv(path) == result

    def test_single_row_two_lines(self, tmp_path):
        row = hz.ResultRow("ucb1", "", 10, 0.5, 0.1, 3, 7)
        path = tmp_path / "one.csv"
        hz.emit_csv(hz.AggregateResult(rows=(row,)), path)
        assert len(path.read_text().strip().splitlines()) == 2

    def test_empty_result_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            hz.emit_csv(hz.AggregateResult(rows=()), tmp_path / "x.csv")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_stochastic_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        hz.emit_csv(hz.run_experiment(cfg, threads=1), a)
        hz.emit_csv(hz.run_experiment(cfg, threads=3), b)
        assert a.read_bytes() == b.read_bytes()

    def test_svg_structure(self, tmp_path):
        result = hz.run_experiment(small_stochastic_config())
        path = tmp_path / "plot.svg"
        hz.emit_svg_lineplot(result, path)
        doc = xml.dom.minidom.parse(str(path))
        polylines = doc.getElementsByTagName("polyline")
        assert len(polylines) == len(result.series())
        texts = [t.firstChild.data for t in doc.getElementsByTagName("text") if t.firstChild]
        assert "t" in texts and "R(t)/t" in texts

    def test_param_with_comma_survives_roundtrip(self, tmp_path):
        row = hz.ResultRow("ftpl[gumbel(0,1)]", "eta=1", 10, 0.5, 0.1, 3, 7)
        result = hz.AggregateResult(rows=(row,))
        path = tmp_path / "quoted.csv"
        hz.emit_csv(result, path)
        assert parse_csv(path) == result


class TestVerificationModes:
    def test_evt_mode_writes_csv(self, tmp_path):
        cfg = hz.config_from_dict({"mode": "evt", "seed": 1, "K_list": [200], "n_blocks": 3000})
        out = tmp_path / "evt.csv"
        reports = hz.run_evt_mode(cfg, out)
        assert len(reports) == 5
        assert out.exists()

    def test_theory_mode_writes_report(self, tmp_path):
        out = tmp_path / "theory.txt"
        rows = hz.run_theory_mode(hz.config_from_dict({"mode": "theory", "seed": 0}), out)
        assert all(r.passed for r in rows)
        assert "PASS" in out.read_text()
