"""Golden outputs: every case re-runs one CLI command on a fixed config and
compares the files it writes, byte for byte, with fixtures under
``tests/golden/<case>/``.

A refactor that keeps every random stream must reproduce them exactly.  A
change that alters a stream on purpose regenerates them and says so:

    PYTHONPATH=src python3 tests/test_golden.py
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import perturbed_bandits
from perturbed_bandits import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

ARTIFACTS = {
    "stochastic": ("stochastic_regret.csv",),
    "adversarial": ("adversarial_regret.csv",),
    "grid-search": ("grid_results.csv", "grid_best.json"),
    "evt-table": ("evt_table.csv",),
    "theory-check": ("theory_checks.txt",),
}

# Acceptance criterion 12's configs.
CRIT12_STOCHASTIC = {
    "mode": "stochastic",
    "seed": 12,
    "K": 4,
    "T": 1000,
    "episodes": 6,
    "checkpoints": [100, 1000],
    "policies": [{"kind": "ucb1"}, {"kind": "ftpl", "sigma": [0.5, 1.0]}],
}
CRIT12_ADVERSARIAL = {
    "mode": "adversarial",
    "seed": 12,
    "K": 4,
    "T": 500,
    "episodes": 4,
    "adversary": "iid",
    "checkpoints": [100, 500],
    "potentials": [{"kind": "shannon", "eta": 5.0}, {"kind": "tsallis", "eta": 5.0}],
}
CRIT12_EVT = {"mode": "evt", "seed": 12, "K_list": [100], "n_blocks": 20_000}

# The benchmark's workload configs at seed 2019, cut to T = 2000, with
# Thompson sampling, the other two adversaries and a second Tsallis alpha.
SEED = 2019
CHECKPOINTS = [100, 1000, 2000]
FIGURE_POLICIES = [
    {"kind": "ucb1"},
    {"kind": "thompson"},
    {"kind": "rcb", "perturbation": "uniform", "epsilon": 0.25},
    {"kind": "rcb", "perturbation": "rademacher", "epsilon": 0.25},
    {"kind": "ftpl", "perturbation": "gaussian", "sigma": 1.0},
    {"kind": "ftpl", "perturbation": "double_exponential", "sigma": 1.0},
]
GBPA_POTENTIALS = [
    {"kind": "ftpl", "perturbation": "gumbel", "eta": "auto", "mc_samples": 200},
    {"kind": "shannon", "eta": 187.0},
    {"kind": "tsallis", "eta": 50.0, "alpha": 0.5},
    {"kind": "tsallis", "eta": 50.0, "alpha": 0.9},
]


def _figure(model):
    return {"mode": "stochastic", "seed": SEED, "K": 10, "T": 2000, "episodes": 2,
            "reward_model": model, "checkpoints": CHECKPOINTS, "policies": FIGURE_POLICIES}


def _gbpa(adversary):
    return {"mode": "adversarial", "seed": SEED, "K": 10, "T": 2000, "episodes": 2,
            "adversary": adversary, "checkpoints": CHECKPOINTS, "potentials": GBPA_POTENTIALS}


CASES = {
    "crit12-stochastic": ("stochastic", CRIT12_STOCHASTIC),
    "crit12-adversarial": ("adversarial", CRIT12_ADVERSARIAL),
    "crit12-grid-search": ("grid-search", CRIT12_STOCHASTIC),
    "crit12-evt-table": ("evt-table", CRIT12_EVT),
    **{
        f"figure-{model}": ("stochastic", _figure(model))
        for model in ("uniform_shift", "rademacher_shift", "gaussian_shift", "gaussian_mixture_shift")
    },
    "wide": ("stochastic", {"mode": "stochastic", "seed": SEED, "K": 300, "T": 2000, "episodes": 3,
                            "reward_model": "gaussian_mixture_shift", "checkpoints": CHECKPOINTS,
                            "policies": [FIGURE_POLICIES[i] for i in (0, 1, 3, 4)]}),
    **{f"gbpa-{adversary}": ("adversarial", _gbpa(adversary)) for adversary in ("single_best_arm", "constant", "iid")},
    "theory-check": ("theory-check", {"mode": "theory", "seed": SEED}),
    # Grid search over GBPA potentials, and FTPL potentials with heavy-tailed
    # perturbations whose learning rate is tuned from their block maxima.
    "gbpa-grid-search": ("grid-search", {
        "mode": "adversarial", "seed": SEED, "K": 5, "T": 1000, "episodes": 3, "adversary": "iid",
        "checkpoints": [100, 1000],
        "potentials": [{"kind": "shannon", "eta": [20.0, 80.0]},
                       {"kind": "tsallis", "eta": [10.0, 40.0], "alpha": 0.5},
                       {"kind": "ftpl", "perturbation": "gumbel", "eta": [10.0, 40.0], "mc_samples": 50}]}),
    "gbpa-heavy-tail": ("adversarial", {
        "mode": "adversarial", "seed": SEED, "K": 5, "T": 1000, "episodes": 2, "adversary": "single_best_arm",
        "checkpoints": [100, 1000],
        "potentials": [{"kind": "ftpl", "perturbation": "frechet", "eta": "auto", "mc_samples": 100},
                       {"kind": "ftpl", "perturbation": "pareto", "shape": 3.0, "eta": "auto", "mc_samples": 100},
                       {"kind": "ftpl", "perturbation": "weibull", "eta": "auto", "mc_samples": 100}]}),
}


def run_case(name: str, out: Path) -> None:
    command, raw = CASES[name]
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps(raw))
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    run_case(name, tmp_path)
    for artifact in ARTIFACTS[CASES[name][0]]:
        expected = (GOLDEN / name / artifact).read_bytes()
        assert (tmp_path / artifact).read_bytes() == expected, f"{name}/{artifact} differs from the fixture"


# numpy's AVX-512 exp differs from its baseline exp in the last bit on a few
# percent of inputs.  The contract is the same arms, and so the same CSV
# bytes, at every dispatch level; internal probabilities may differ.
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_goldens_hold_without_avx512():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    missing = [f for f in AVX512 if f not in umath.__cpu_dispatch__ or not umath.__cpu_features__.get(f)]
    if missing:
        pytest.skip(f"numpy here does not dispatch to {', '.join(missing)}; there is no lower level to compare")
    # The variable must be set before numpy is imported, so a fresh interpreter.
    src = str(Path(perturbed_bandits.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{__file__}::test_golden"]
    run = subprocess.run(argv, cwd=GOLDEN.parent.parent, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]


if __name__ == "__main__":
    for name in sorted(CASES):
        run_case(name, GOLDEN / name)
        (GOLDEN / name / "config.json").unlink()
        for extra in (GOLDEN / name).iterdir():
            if extra.name not in ARTIFACTS[CASES[name][0]]:
                extra.unlink()
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
