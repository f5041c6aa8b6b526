"""A fitted Bayesian predictor: likelihood family + posterior + draw backend."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bayes.backends import ExactConjugate
from ..bayes.conjugate import NigPrior, gaussian_update, nig_update
from ..bayes.data import Dataset
from ..bayes.likelihoods import GaussianLinear
from .config import ModelSpec


@dataclass
class BayesPredictor:
    """Bundles a likelihood, a posterior draw backend, and the conjugate
    posterior itself for closed-form predictive access."""

    likelihood: object
    backend: object
    posterior: object

    @property
    def dim(self):
        return self.likelihood.dim

    def predictive_mean_mc(self, x, n, rng):
        """Monte-Carlo predictive mean from n joint (parameter, outcome) draws."""
        draws = self.backend.draw(n, rng)
        return float(np.mean(self.likelihood.sample_y(x, draws, rng)))


def fit_predictor(spec: ModelSpec, train: Dataset) -> BayesPredictor:
    """Fit the conjugate posterior described by ``spec`` on the training data."""
    p = train.p
    mu0 = np.full(p, float(spec.prior_mean))
    lambda0 = float(spec.prior_precision) * np.eye(p)
    if spec.kind == "gaussian_linear":
        post = gaussian_update(mu0, lambda0, spec.sigma2, train.X, train.y)
    else:  # nig_linear
        post = nig_update(NigPrior(mu0, lambda0, spec.a0, spec.b0), train.X, train.y)
    return BayesPredictor(
        likelihood=GaussianLinear(p), backend=ExactConjugate(post), posterior=post
    )
