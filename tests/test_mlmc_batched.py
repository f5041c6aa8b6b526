"""The one-pass multilevel gradient against a pair-by-pair reference.

The gradient draws, per (outcome, repeat) pair, a level and its posterior
draws, then scores all pairs at once.  The reference below loops over the
pairs instead: it draws the level with ``rng.choice`` over the level weights,
scores the full batch and each half with its own :func:`ratio_grad` call, and
accumulates ``delta / P(level)`` pair by pair.  Both consume the generator in
the same order, so they must agree on every level and sample cost, and on the
gradient up to summation order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.graybox import (
    EnsembleMember,
    MixtureBackend,
    MixtureLikelihood,
    ModelEnsemble,
)
from ppdattack.attacks.ppd import (
    CategoricalAppd,
    DegenerateLikelihoodError,
    MlmcConfig,
    NormalAppd,
    _objective_estimate,
    _sample_level,
    delta_level,
    mlmc_grad,
    ratio_grad,
)
from ppdattack.bayes.backends import ExactConjugate, SampleBank
from ppdattack.bayes.conjugate import NigPrior, gaussian_update, nig_update
from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.likelihoods import CategoricalSoftmax, FeatureSubsetModel, GaussianLinear

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=40, deadline=None)
RTOL = 1e-12


def _data():
    rng = np.random.default_rng(np.random.SeedSequence((2, 10)))
    X = rng.standard_normal((10, 2))
    y = X @ np.array([-1.0, 2.0]) + rng.standard_normal(10)
    return X, y


def gaussian_case():
    X, y = _data()
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, X, y)
    return GaussianLinear(2), ExactConjugate(post), NormalAppd(0.3, 2.0)


def nig_case():
    X, y = _data()
    post = nig_update(NigPrior(np.zeros(2), np.eye(2), 2.0, 2.0), X, y)
    return GaussianLinear(2), ExactConjugate(post), NormalAppd(0.3, 2.0)


def softmax_case():
    rng = np.random.default_rng(np.random.SeedSequence((2, 11)))
    bank = SampleBank(DrawBatch(rng.standard_normal((50, 6)), 1.0))
    return CategoricalSoftmax(2, 3), bank, CategoricalAppd(np.array([0.2, 0.5, 0.3]))


def mixture_case():
    X, y = _data()
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, X, y)
    post1 = gaussian_update(np.zeros(1), np.eye(1), 1.0, X[:, [1]], y)
    ens = ModelEnsemble([EnsembleMember(GaussianLinear(2), ExactConjugate(post)),
                         EnsembleMember(FeatureSubsetModel(GaussianLinear(1), [1], 2),
                                        ExactConjugate(post1))], [0.6, 0.4])
    return MixtureLikelihood(ens), MixtureBackend(ens), NormalAppd(0.3, 2.0)


CASES = {"gaussian": gaussian_case, "nig": nig_case, "softmax": softmax_case,
         "mixture": mixture_case}


def plug_in(model, x, y, gammas):
    return ratio_grad(model.loglik(x, y, gammas), model.score_x(x, y, gammas), [0])[0]


def reference_level(config, rng):
    if config.untruncated:
        q = 2.0 ** (-config.tau)
        level = int(rng.geometric(1.0 - q)) - 1
        return level, (1.0 - q) * q**level
    w = config.level_weights
    level = int(rng.choice(config.Lmax + 1, p=w))
    return level, float(w[level])


def reference_grad_info(model, x, appd, config, backend, rng):
    """Pair by pair: a level, its draws, the full ratio minus the mean of the halves."""
    ys = np.atleast_1d(appd.sample(config.B, rng))
    grad = np.zeros(x.size)
    levels, cost, scale = [], 0, 0.0
    for y in ys:
        acc = np.zeros_like(grad)
        for _ in range(config.R):
            level, w = reference_level(config, rng)
            m = config.M0 * (1 << level)
            draws = backend.draw(m, rng)
            delta = plug_in(model, x, y, draws)
            if level > 0:
                first, second = draws[: m // 2], draws[m // 2 :]
                delta = delta - 0.5 * (plug_in(model, x, y, first) + plug_in(model, x, y, second))
            levels.append(level)
            cost += m
            scale = max(scale, np.abs(delta / w).max())
            acc += delta / w
        grad += acc / config.R
    return grad / config.B, levels, cost, scale


def assert_matches_reference(model, backend, appd, config, seed):
    x = config.feasible.center
    (grad,), levels, cost = mlmc_grad(model, x, appd, config, backend,
                                      np.random.default_rng(seed))
    want, want_levels, want_cost, scale = reference_grad_info(
        model, x, appd, config, backend, np.random.default_rng(seed))
    assert list(levels) == want_levels
    assert cost == want_cost
    # Summation order differs, so the error scales with the largest term
    # delta / P(level), not with the (possibly cancelling) gradient.
    np.testing.assert_allclose(grad, want, rtol=RTOL, atol=RTOL * scale)


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(B=st.integers(1, 6), R=st.integers(1, 3), M0=st.sampled_from([2, 4, 8]),
       Lmax=st.integers(0, 5), tau=st.floats(1.05, 3.0), seed=SEEDS)
def test_batched_gradient_matches_pair_loop(case, B, R, M0, Lmax, tau, seed):
    model, backend, appd = CASES[case]()
    fs = FeasibleSet(np.array([0.4, -0.3]), 1.0, "l2")
    config = MlmcConfig(fs, M0=M0, tau=tau, R=R, Lmax=Lmax, B=B)
    assert_matches_reference(model, backend, appd, config, seed)


@PROPERTY
@given(B=st.integers(1, 6), R=st.integers(1, 3), M0=st.sampled_from([2, 4, 8]),
       tau=st.floats(1.5, 3.0), seed=SEEDS)
def test_batched_gradient_matches_pair_loop_untruncated(B, R, M0, tau, seed):
    model, backend, appd = gaussian_case()
    fs = FeasibleSet(np.array([0.4, -0.3]), 1.0, "l2")
    config = MlmcConfig(fs, M0=M0, tau=tau, R=R, B=B, untruncated=True)
    assert_matches_reference(model, backend, appd, config, seed)


@settings(max_examples=60, deadline=None)
@given(Lmax=st.integers(0, 12), tau=st.floats(1.01, 4.0), n=st.integers(1, 300), seed=SEEDS)
def test_level_cdf_draws_the_choice_stream(Lmax, tau, n, seed):
    config = MlmcConfig(FeasibleSet(np.zeros(1), 1.0, "l2"), tau=tau, Lmax=Lmax)
    w = config.level_weights
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(n):
        level, prob = _sample_level(config, ours)
        assert level == int(theirs.choice(Lmax + 1, p=w))
        assert prob == w[level]
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("split_level", [0, 2])
def test_one_degenerate_segment_raises(split_level):
    # Pair 1's rows (all of them at level 0, only its first half at level 2)
    # have zero likelihood at its outcome, while pair 0 is well posed.
    model = GaussianLinear(2)
    config = MlmcConfig(FeasibleSet(np.zeros(2), 1.0, "l2"), M0=2)
    m = config.M0 << split_level
    phi = np.ones(2 + m)
    phi[2 : 2 + (m // 2 if split_level else m)] = 1e-300
    draws = DrawBatch(np.full((2 + m, 2), 0.5), phi)
    x = np.array([0.3, -0.2])
    with pytest.raises(DegenerateLikelihoodError):
        delta_level(model, x, [0.0, 1e12], [0, split_level], draws, config)
    # The same rows at a well-posed outcome give finite differences.
    assert np.all(np.isfinite(delta_level(model, x, [0.0, 0.0], [0, split_level], draws,
                                          config)))


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=20, deadline=None)
@given(n_y=st.integers(1, 12), obj_draws=st.integers(1, 64), seed=SEEDS)
def test_objective_matches_per_outcome_loop(case, n_y, obj_draws, seed):
    model, backend, appd = CASES[case]()
    config = MlmcConfig(FeasibleSet(np.array([0.4, -0.3]), 1.0, "l2"), obj_draws=obj_draws)
    x = config.feasible.center
    ys = np.atleast_1d(appd.sample(n_y, np.random.default_rng(seed)))
    got = _objective_estimate(model, x, ys, config, backend, np.random.default_rng(seed))
    draws = backend.draw(obj_draws, np.random.default_rng(seed))
    want = -np.mean([logsumexp(model.loglik(x, y, draws)) - np.log(obj_draws) for y in ys])
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL)


def test_config_is_frozen():
    config = MlmcConfig(FeasibleSet(np.zeros(1), 1.0, "l2"))
    with pytest.raises(AttributeError):
        config.Lmax = 3
    with pytest.raises(AttributeError):
        config.level_weights = np.ones(config.Lmax + 1)
    with pytest.raises(ValueError):
        config.level_weights[0] = 1.0
