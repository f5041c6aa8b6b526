"""Attack algorithms: point-functional, full-distribution, baselines, gray-box."""

from .baselines import fgsm_like
from .feasible import FeasibleSet, project_l1_ball
from .functionals import Functional, covariate_functional, onehot_functional, response_functional
from .graybox import (
    EnsembleMember,
    MixtureBackend,
    MixtureLikelihood,
    ModelEnsemble,
    TaggedBatch,
)
from .point import (
    PointAttackProblem,
    estimate_grad_mu,
    estimate_mu,
    grad_J,
    reparam_grad_mu,
    run_point_attack,
)
from .ppd import (
    CategoricalAppd,
    MlmcConfig,
    NormalAppd,
    delta_level,
    expected_samples_per_iter,
    mlmc_grad,
    ratio_grad,
    run_ppd_attack,
    simulate_sample_cost,
)
from .trace import AttackTrace

__all__ = [
    "AttackTrace",
    "CategoricalAppd",
    "EnsembleMember",
    "FeasibleSet",
    "Functional",
    "MixtureBackend",
    "MixtureLikelihood",
    "MlmcConfig",
    "ModelEnsemble",
    "NormalAppd",
    "PointAttackProblem",
    "TaggedBatch",
    "covariate_functional",
    "delta_level",
    "estimate_grad_mu",
    "estimate_mu",
    "expected_samples_per_iter",
    "fgsm_like",
    "grad_J",
    "mlmc_grad",
    "onehot_functional",
    "project_l1_ball",
    "ratio_grad",
    "reparam_grad_mu",
    "response_functional",
    "run_point_attack",
    "run_ppd_attack",
    "simulate_sample_cost",
]
