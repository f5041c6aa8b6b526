"""A call for K replicates equals K successive one-replicate calls.

``grad_J`` and ``mlmc_grad`` draw each replicate's randomness in turn, through
the same backend, ``sample_y``, target and level calls as a one-replicate
call, and then score all K replicates in one pass.  So the K-replicate call
must return, bit for bit, what K successive one-replicate calls return, and
leave the generator in the same state.

Bit identity needs every likelihood evaluation of a one-replicate call to
see at least two rows: numpy evaluates a one-row ``beta @ x`` through BLAS
``dot`` and a longer one through ``gemv``, and the two can differ in the last
place.  Batch sizes below 2 and mixtures (whose members can get a single row
in one replicate) are therefore held to round-off instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.functionals import onehot_functional, response_functional
from ppdattack.attacks.graybox import (
    EnsembleMember,
    MixtureBackend,
    MixtureLikelihood,
    ModelEnsemble,
)
from ppdattack.attacks.point import (
    PointAttackProblem,
    estimate_grad_mu,
    grad_J,
    reparam_grad_mu,
)
from ppdattack.attacks.ppd import CategoricalAppd, MlmcConfig, NormalAppd, mlmc_grad
from ppdattack.bayes.backends import ExactConjugate, SampleBank
from ppdattack.bayes.conjugate import NigPrior, gaussian_update, nig_update
from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.likelihoods import CategoricalSoftmax, FeatureSubsetModel, GaussianLinear

SEEDS = st.integers(0, 2**32 - 1)
X0 = np.array([0.4, -0.3])
RTOL = 1e-12


def _data():
    rng = np.random.default_rng(np.random.SeedSequence((2, 10)))
    X = rng.standard_normal((10, 2))
    return X, X @ np.array([-1.0, 2.0]) + rng.standard_normal(10)


def gaussian_case():
    X, y = _data()
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, X, y)
    return GaussianLinear(2), ExactConjugate(post), response_functional(), NormalAppd(0.3, 2.0)


def nig_case():
    X, y = _data()
    post = nig_update(NigPrior(np.zeros(2), np.eye(2), 2.0, 2.0), X, y)
    return GaussianLinear(2), ExactConjugate(post), response_functional(), NormalAppd(0.3, 2.0)


def bank_case():
    rng = np.random.default_rng(np.random.SeedSequence((2, 12)))
    bank = SampleBank(DrawBatch(rng.standard_normal((50, 2)), rng.uniform(0.5, 2.0, 50)))
    return GaussianLinear(2), bank, response_functional(), NormalAppd(0.3, 2.0)


def softmax_case():
    rng = np.random.default_rng(np.random.SeedSequence((2, 11)))
    bank = SampleBank(DrawBatch(rng.standard_normal((50, 6)), 1.0))
    return (CategoricalSoftmax(2, 3), bank, onehot_functional(3),
            CategoricalAppd(np.array([0.2, 0.5, 0.3])))


def mixture_case():
    X, y = _data()
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, X, y)
    post1 = gaussian_update(np.zeros(1), np.eye(1), 1.0, X[:, [1]], y)
    ens = ModelEnsemble([EnsembleMember(GaussianLinear(2), ExactConjugate(post)),
                         EnsembleMember(FeatureSubsetModel(GaussianLinear(1), [1], 2),
                                        ExactConjugate(post1))], [0.6, 0.4])
    return (MixtureLikelihood(ens), MixtureBackend(ens), response_functional(),
            NormalAppd(0.3, 2.0))


CASES = {"gaussian": gaussian_case, "nig": nig_case, "bank": bank_case,
         "softmax": softmax_case, "mixture": mixture_case}


def assert_same(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * np.abs(want).max())


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(K=st.integers(1, 600), N=st.integers(1, 12), M=st.integers(1, 12), shared=st.booleans(),
       reparam=st.booleans(), seed=SEEDS)
def test_grad_J_replicates_equal_successive_calls(case, K, N, M, shared, reparam, seed):
    model, backend, g, _ = CASES[case]()
    # the reparameterised Jacobian exists for Gaussian linear likelihoods only
    reparam = reparam and isinstance(model, GaussianLinear)
    grad_mu = reparam_grad_mu if reparam else estimate_grad_mu
    prob = PointAttackProblem(g, np.full(g.out_dim, 0.2), model, FeasibleSet(X0, 1.0, "l2"),
                              N=N, M=M)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = grad_J(prob, X0, backend, ours, K, grad_mu, shared)
    want = np.concatenate([grad_J(prob, X0, backend, theirs, 1, grad_mu, shared)
                           for _ in range(K)])
    assert got.shape == (K, 2)
    assert_same(got, want, exact=min(N, M) >= 2 and case != "mixture")
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=10, deadline=None)
@given(K=st.integers(1, 600), B=st.integers(1, 3), R=st.integers(1, 3),
       M0=st.sampled_from([2, 4, 8]), Lmax=st.integers(0, 4), seed=SEEDS)
def test_mlmc_replicates_equal_successive_calls(case, K, B, R, M0, Lmax, seed):
    model, backend, _, appd = CASES[case]()
    config = MlmcConfig(FeasibleSet(X0, 1.0, "l2"), M0=M0, R=R, Lmax=Lmax, B=B)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, levels, cost = mlmc_grad(model, X0, appd, config, backend, ours, K)
    calls = [mlmc_grad(model, X0, appd, config, backend, theirs) for _ in range(K)]
    assert got.shape == (K, 2)
    assert_same(got, np.concatenate([c[0] for c in calls]), exact=case != "mixture")
    assert levels == [level for c in calls for level in c[1]]
    assert cost == sum(c[2] for c in calls)
    assert ours.random() == theirs.random()
