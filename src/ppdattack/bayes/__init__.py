"""Bayesian core: conjugate posteriors, likelihood families, draw backends."""

from .backends import ExactConjugate, McmcChain, SampleBank, adaptive_rwm
from .conjugate import (
    GaussianPosterior,
    NigPosterior,
    NigPrior,
    TPredictive,
    gaussian_update,
    nig_update,
    ppd_t_params,
    spd_inverse,
    spd_solve,
)
from .data import Dataset
from .draws import DrawBatch
from .likelihoods import (
    BernoulliLogit,
    CategoricalSoftmax,
    FeatureSubsetModel,
    GaussianLinear,
    SmallBnn,
)

__all__ = [
    "BernoulliLogit",
    "CategoricalSoftmax",
    "Dataset",
    "DrawBatch",
    "ExactConjugate",
    "FeatureSubsetModel",
    "GaussianLinear",
    "GaussianPosterior",
    "McmcChain",
    "NigPosterior",
    "NigPrior",
    "SampleBank",
    "SmallBnn",
    "TPredictive",
    "adaptive_rwm",
    "gaussian_update",
    "nig_update",
    "ppd_t_params",
    "spd_inverse",
    "spd_solve",
]
