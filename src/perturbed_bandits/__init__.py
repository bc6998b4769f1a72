"""Perturbation-based multi-armed bandit algorithms, with numerical
verification of the extreme-value and discrete-choice facts they rest on."""

from . import adversarial, choice_theory, distributions, extremes, harness, stochastic
from .adversarial import PotentialSpec, run_gbpa, tune_eta
from .distributions import PerturbationSpec, RewardModel, hazard, sup_hazard
from .extremes import asymptotic_block_max, mc_expected_block_max, normalizing_constants, verify_table1
from .harness import ExperimentConfig, grid_search, run_experiment
from .stochastic import BanditInstance, PolicyConfig, RegretTrace, run_episode

__all__ = [
    "adversarial",
    "choice_theory",
    "distributions",
    "extremes",
    "harness",
    "stochastic",
    "PotentialSpec",
    "run_gbpa",
    "tune_eta",
    "PerturbationSpec",
    "RewardModel",
    "hazard",
    "sup_hazard",
    "asymptotic_block_max",
    "mc_expected_block_max",
    "normalizing_constants",
    "verify_table1",
    "ExperimentConfig",
    "grid_search",
    "run_experiment",
    "BanditInstance",
    "PolicyConfig",
    "RegretTrace",
    "run_episode",
]

__version__ = "0.1.0"
