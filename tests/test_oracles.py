"""Exact oracles for the stochastic gradients on backends other than the
conjugate Gaussian testbed.

A ``SampleBank`` is a finite posterior, so the cross-entropy gradient that
``mlmc_grad`` estimates on it, and the one-hot point-attack gradient that
``grad_J`` estimates on a softmax bank, have exact values by enumerating the
bank.  A ``MixtureBackend`` of conjugate Gaussian members has a predictive
mean that is the weighted mean of the members' means, which gives ``grad_J``
on the gray-box views an exact value too.  Each test replicates its estimator 1e4
times and z-tests every coordinate of the replicate mean at |z| <= 4.
"""

import numpy as np
import pytest

from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.functionals import onehot_functional, response_functional
from ppdattack.attacks.graybox import (
    EnsembleMember,
    MixtureBackend,
    MixtureLikelihood,
    ModelEnsemble,
)
from ppdattack.attacks.point import PointAttackProblem, grad_J
from ppdattack.attacks.ppd import CategoricalAppd, MlmcConfig, mlmc_grad
from ppdattack.bayes.backends import ExactConjugate, SampleBank
from ppdattack.bayes.conjugate import gaussian_update
from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.likelihoods import CategoricalSoftmax, GaussianLinear

REPLICATES = 10_000
Z_MAX = 4.0
X0 = np.array([0.4, -0.3])


def z_scores(samples, oracle):
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    return (samples.mean(axis=0) - oracle) / se


def bank_softmax(bank, n_classes, x):
    """Per bank row, s = softmax(W x) and its x-Jacobian (diag s - s s^T) W."""
    W = bank.batch.beta.reshape(len(bank), n_classes, x.size)
    logits = W @ x
    s = np.exp(logits - logits.max(axis=1, keepdims=True))
    s /= s.sum(axis=1, keepdims=True)
    # d softmax_y / dx = s_y (W_y - sum_c s_c W_c)
    return s, s[:, :, None] * (W - np.einsum("bc,bcp->bp", s, W)[:, None, :])


def bank_cross_entropy_grad(bank, n_classes, x, target):
    """-sum_y pi_A(y) grad mu_y(x) / mu_y(x), mu_y the bank mean of softmax(W x)_y."""
    s, grad_s = bank_softmax(bank, n_classes, x)
    return -(target.probs / s.mean(axis=0)) @ grad_s.mean(axis=0)


@pytest.mark.parametrize("untruncated", [False, True])
def test_mlmc_on_a_softmax_bank_matches_the_enumerated_gradient(untruncated):
    rng = np.random.default_rng(np.random.SeedSequence((12, 1)))
    bank = SampleBank(DrawBatch(1.5 * rng.standard_normal((40, 6)), 1.0))
    model = CategoricalSoftmax(2, 3)
    target = CategoricalAppd(np.array([0.2, 0.5, 0.3]))
    config = MlmcConfig(FeasibleSet(X0, 1.0, "l2"), M0=8, tau=1.5, R=2, Lmax=6,
                        untruncated=untruncated)
    grads, _, _ = mlmc_grad(model, X0, target, config, bank,
                            np.random.default_rng(np.random.SeedSequence((12, 2))), REPLICATES)
    z = z_scores(grads, bank_cross_entropy_grad(bank, 3, X0, target))
    assert np.all(np.abs(z) <= Z_MAX), z


def bank_point_grad(bank, n_classes, x, g_star):
    """2 (mu - g*)^T mean_r[(diag p_r - p_r p_r^T) W_r], mu the bank mean of p_r."""
    p, jac = bank_softmax(bank, n_classes, x)
    return 2.0 * (p.mean(axis=0) - g_star) @ jac.mean(axis=0)


def test_point_gradient_on_a_softmax_bank_matches_the_enumerated_gradient():
    rng = np.random.default_rng(np.random.SeedSequence((12, 5)))
    bank = SampleBank(DrawBatch(1.5 * rng.standard_normal((40, 6)), 1.0))
    g_star = np.array([0.2, 0.5, 0.3])
    prob = PointAttackProblem(onehot_functional(3), g_star, CategoricalSoftmax(2, 3),
                              FeasibleSet(X0, 1.0, "l2"), N=8, M=8)
    grads = grad_J(prob, X0, bank, np.random.default_rng(np.random.SeedSequence((12, 6))),
                   REPLICATES)
    z = z_scores(grads, bank_point_grad(bank, 3, X0, g_star))
    assert np.all(np.abs(z) <= Z_MAX), z


def test_score_gradient_on_a_conjugate_mixture_matches_the_weighted_means():
    rng = np.random.default_rng(np.random.SeedSequence((12, 3)))
    X = rng.standard_normal((12, 2))
    y = X @ np.array([-1.0, 2.0]) + rng.standard_normal(12)
    posts = [gaussian_update(np.zeros(2), np.eye(2), 1.0, X[:8], y[:8]),
             gaussian_update(np.ones(2), 4.0 * np.eye(2), 0.5, X[6:], y[6:])]
    weights = np.array([0.3, 0.7])
    ens = ModelEnsemble([EnsembleMember(GaussianLinear(2), ExactConjugate(p)) for p in posts],
                        weights)
    g_star = np.array([0.2])
    prob = PointAttackProblem(response_functional(), g_star, MixtureLikelihood(ens),
                              FeasibleSet(X0, 1.0, "l2"), N=8, M=8)
    grads = grad_J(prob, X0, MixtureBackend(ens),
                   np.random.default_rng(np.random.SeedSequence((12, 4))), REPLICATES)
    mean_slope = sum(w * p.mu_n for w, p in zip(weights, posts))
    oracle = 2.0 * (X0 @ mean_slope - g_star[0]) * mean_slope
    z = z_scores(grads, oracle)
    assert np.all(np.abs(z) <= Z_MAX), z
