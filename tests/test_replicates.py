"""Replicate calls of ``grad_J`` and ``mlmc_grad`` against block-order references.

A ``grad_J`` call for K replicates draws one joint sample for all of them
(one ``backend.draw`` and one ``sample_y``) on any backend and likelihood:
K * N rows, replicate k's batch for ``mu`` the k-th block of N, then K * M
rows, its independent batch for the Jacobian the k-th block of M; the
shared-batch control draws K * N rows, replicate k's block of N feeding
both.  One pass then scores all replicates.  The replicates are iid, like
those of K successive calls, but come from a different stream; a
one-replicate call, as in the attack loop, is the N + M rows it always drew.
The call is held bit for bit to a reference that draws the same sample and
scores each replicate's blocks on their own, and to K successive
one-replicate calls, the attack loop's path, each handed one replicate's
blocks as its N + M rows; and, up to round-off, to the score-function
formula written out on each replicate's blocks.  It must leave the generator
in the same state as a draw of the same sample.

An ``mlmc_grad`` call for K replicates draws three blocks for all of them:
K * B target outcomes, then K * B * R levels in one call, then the posterior
rows of every (outcome, repeat) pair in one ``backend.draw``; one
``delta_level`` pass scores them.  Its replicates are iid, like those of K
successive calls, but come from a different stream.  It is held bit for bit
to a reference that draws the same blocks (its levels through
``rng.choice``, which draws them as ``_sample_level`` does) and averages
each replicate's pairs separately; and a one-replicate call, as in the
attack loop, to the outcome -> level -> draw stream with one ``rng.choice``
per pair and one ``delta_level`` call per pair.

Bit identity needs every likelihood evaluation of a reference replicate to
see at least two rows: numpy evaluates a one-row ``beta @ x`` through BLAS
``dot`` and a longer one through ``gemv``, and the two can differ in the last
place.  Batch sizes below 2 and mixtures (whose members can get a single row
in one replicate) are therefore held to round-off instead.
"""

import copy
from dataclasses import replace

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
    estimate_mu,
    grad_J,
    reparam_grad_mu,
)
from ppdattack.attacks.ppd import (
    CategoricalAppd,
    MlmcConfig,
    NormalAppd,
    delta_level,
    mlmc_grad,
)
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


def joint_sample(prob, x, backend, rng, K, shared):
    """The rows a K-replicate ``grad_J`` call draws: K * N, then K * M more
    unless the batch is shared, with their outcomes."""
    draws = backend.draw(K * prob.N if shared else K * (prob.N + prob.M), rng)
    return draws, prob.model.sample_y(x, draws, rng)


def replicate_rows(prob, draws, ys, K, k, shared):
    """Replicate k's rows of a K-replicate joint sample, as a one-replicate
    call draws them: its block of N, then its block of M unless shared."""
    N, M = prob.N, prob.M
    head = slice(k * N, (k + 1) * N)
    if shared:
        return draws[head], ys[head]
    tail = slice(K * N + k * M, K * N + (k + 1) * M)
    return type(draws).concat([draws[head], draws[tail]]), np.concatenate([ys[head], ys[tail]])


def reference_grad_J(prob, x, backend, rng, K, grad_mu, shared):
    """K replicates from one joint sample of K * N rows, then K * M more unless
    the batch is shared, each replicate scored on its own blocks alone."""
    N, M = prob.N, prob.N if shared else prob.M
    kn = K * N
    draws, ys = joint_sample(prob, x, backend, rng, K, shared)
    tail, tail_ys = (draws, ys) if shared else (draws[kn:], ys[kn:])
    grads = []
    for k in range(K):
        resid = estimate_mu(prob, x, ys[k * N:(k + 1) * N][None]) - prob.g_star
        rows = slice(k * M, (k + 1) * M)
        jac = grad_mu(prob, x, tail[rows], tail_ys[rows][None])
        grads.append(np.matmul((2.0 * resid)[:, None, :], jac)[0, 0])
    return np.array(grads)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(K=st.integers(1, 600), N=st.integers(1, 12), M=st.integers(1, 12), shared=st.booleans(),
       reparam=st.booleans(), seed=SEEDS)
def test_grad_J_replicates_equal_a_block_layout_reference(case, K, N, M, shared, reparam, seed):
    model, backend, g, _ = CASES[case]()
    # the reparameterised Jacobian exists for Gaussian linear likelihoods only
    reparam = reparam and isinstance(model, GaussianLinear)
    grad_mu = reparam_grad_mu if reparam else estimate_grad_mu
    prob = PointAttackProblem(g, np.full(g.out_dim, 0.2), model, FeasibleSet(X0, 1.0, "l2"),
                              N=N, M=M)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = grad_J(prob, X0, backend, ours, K, grad_mu, shared)
    want = reference_grad_J(prob, X0, backend, theirs, K, grad_mu, shared)
    assert got.shape == (K, 2)
    assert_same(got, want, exact=min(N, M) >= 2 and case != "mixture")
    assert ours.random() == theirs.random()


class Replay:
    """A backend that hands back fixed rows, for a call that asks for all of them."""

    def __init__(self, rows):
        self.rows = rows

    def draw(self, count, rng):
        assert count == len(self.rows)
        return self.rows


def replaying(prob, ys):
    """``prob`` with a copy of its model whose ``sample_y`` hands back ``ys``."""
    model = copy.copy(prob.model)
    model.sample_y = lambda x, draws, rng: ys
    return replace(prob, model=model)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(K=st.integers(1, 600), N=st.integers(1, 12), M=st.integers(1, 12), shared=st.booleans(),
       reparam=st.booleans(), seed=SEEDS)
def test_grad_J_replicates_equal_successive_calls(case, K, N, M, shared, reparam, seed):
    # K successive one-replicate calls, each handed one replicate's blocks of
    # the K-replicate call's joint sample, return that call's K replicates.
    model, backend, g, _ = CASES[case]()
    reparam = reparam and isinstance(model, GaussianLinear)
    grad_mu = reparam_grad_mu if reparam else estimate_grad_mu
    prob = PointAttackProblem(g, np.full(g.out_dim, 0.2), model, FeasibleSet(X0, 1.0, "l2"),
                              N=N, M=M)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = grad_J(prob, X0, backend, ours, K, grad_mu, shared)
    draws, ys = joint_sample(prob, X0, backend, theirs, K, shared)
    want = []
    for k in range(K):
        rows, rows_ys = replicate_rows(prob, draws, ys, K, k, shared)
        want.append(grad_J(replaying(prob, rows_ys), X0, Replay(rows), None, 1, grad_mu, shared))
    want = np.concatenate(want)
    assert got.shape == want.shape == (K, 2)
    assert_same(got, want, exact=min(N, M) >= 2 and case != "mixture")
    assert ours.random() == theirs.random()


def reference_mlmc(model, x, appd, config, backend, rng, K):
    """K replicates from three blocks (K * B outcomes, K * B * R levels through
    ``rng.choice``, one ``backend.draw``) and one ``delta_level`` pass, each
    replicate averaged over its own B * R pairs."""
    ys = np.atleast_1d(appd.sample(K * config.B, rng))
    w = config.level_weights
    levels = rng.choice(w.size, K * config.B * config.R, p=w)
    draws = backend.draw(int((config.M0 << levels).sum()), rng)
    deltas = delta_level(model, x, np.repeat(ys, config.R), levels, draws, config)
    terms = deltas / w[levels][:, None]
    pairs = config.B * config.R
    grads = [(terms[k * pairs:(k + 1) * pairs].reshape(config.B, config.R, -1).sum(axis=1)
              / config.R).sum(axis=0) / config.B for k in range(K)]
    return np.array(grads), levels.tolist(), len(draws)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=10, deadline=None)
@given(K=st.integers(1, 600), B=st.integers(1, 3), R=st.integers(1, 3),
       M0=st.sampled_from([2, 4, 8]), Lmax=st.integers(0, 4), seed=SEEDS)
def test_mlmc_replicates_equal_a_block_order_reference(case, K, B, R, M0, Lmax, seed):
    model, backend, _, appd = CASES[case]()
    config = MlmcConfig(FeasibleSet(X0, 1.0, "l2"), M0=M0, R=R, Lmax=Lmax, B=B)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, levels, cost = mlmc_grad(model, X0, appd, config, backend, ours, K)
    want, want_levels, want_cost = reference_mlmc(model, X0, appd, config, backend, theirs, K)
    assert got.shape == (K, 2)
    assert_same(got, want, exact=case != "mixture")
    assert levels == want_levels
    assert cost == want_cost == sum(M0 << level for level in levels)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(B=st.integers(1, 3), R=st.integers(1, 3), M0=st.sampled_from([2, 4, 8]),
       Lmax=st.integers(0, 4), seed=SEEDS)
def test_one_replicate_mlmc_keeps_the_outcome_level_draw_stream(case, B, R, M0, Lmax, seed):
    model, backend, _, appd = CASES[case]()
    config = MlmcConfig(FeasibleSet(X0, 1.0, "l2"), M0=M0, R=R, Lmax=Lmax, B=B)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, levels, cost = mlmc_grad(model, X0, appd, config, backend, ours)
    w = config.level_weights
    ys = np.atleast_1d(appd.sample(B, theirs))
    want_levels = [int(theirs.choice(w.size, p=w)) for _ in range(B * R)]
    sizes = [M0 << level for level in want_levels]
    draws = backend.draw(sum(sizes), theirs)
    ends = np.cumsum(sizes)
    deltas = [delta_level(model, X0, ys[[i // R]], [level], draws[end - size:end], config)[0]
              / w[level] for i, (level, size, end) in enumerate(zip(want_levels, sizes, ends))]
    want = np.mean(np.mean(np.reshape(deltas, (B, R, -1)), axis=1), axis=0)
    assert_same(got[0], want, exact=case != "mixture")
    assert levels == want_levels
    assert cost == sum(sizes)
    assert ours.random() == theirs.random()


def formula_grad_J(prob, x, draws, ys, shared):
    """One replicate's gradient from its joint sample (N rows, then M unless
    shared) by the score-function formula written out; also a bound on its terms."""
    head = ys[:prob.N]
    tail, tail_draws = (ys, draws) if shared else (ys[prob.N:], draws[prob.N:])
    resid = prob.g.value(x, head).mean(axis=0) - prob.g_star
    vals = prob.g.value(x, tail)
    scores = prob.model.score_x(x, tail, tail_draws)
    gx = prob.g.grad_x(x, tail)
    gx = gx.mean(axis=0) if gx.ndim == 3 else gx
    jac = vals.T @ scores / len(tail) + gx
    bound = 2 * (np.abs(resid) + np.abs(prob.g_star)) @ (
        np.abs(vals).T @ np.abs(scores) / len(tail) + np.abs(gx))
    return 2 * resid @ jac, bound


@pytest.mark.parametrize("case", ["gaussian", "nig", "softmax", "mixture"])
@settings(max_examples=15, deadline=None)
@given(K=st.integers(1, 40), N=st.integers(1, 12), M=st.integers(1, 12), shared=st.booleans(),
       seed=SEEDS)
def test_grad_J_draws_one_joint_sample_per_replicate(case, K, N, M, shared, seed):
    # Each replicate's joint sample is its blocks of the call's one draw; the
    # formula scores it with no help from the estimator's own functions.
    model, backend, g, _ = CASES[case]()
    prob = PointAttackProblem(g, np.full(g.out_dim, 0.2), model, FeasibleSet(X0, 1.0, "l2"),
                              N=N, M=M)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = grad_J(prob, X0, backend, ours, K, shared_batch=shared)
    draws, ys = joint_sample(prob, X0, backend, theirs, K, shared)
    want, bound = map(np.array, zip(*(
        formula_grad_J(prob, X0, *replicate_rows(prob, draws, ys, K, k, shared), shared)
        for k in range(K))))
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * bound.max())
    assert ours.random() == theirs.random()


class Counted:
    """A backend that records the row count of each ``draw``."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def draw(self, count, rng):
        self.calls.append(count)
        return self.inner.draw(count, rng)


def test_block_path_draws_once_per_call():
    # One backend.draw per grad_J or mlmc_grad call, for all its replicates, on
    # every backend.
    for case in sorted(CASES):
        model, backend, g, appd = CASES[case]()
        counted = Counted(backend)
        prob = PointAttackProblem(g, np.full(g.out_dim, 0.2), model,
                                  FeasibleSet(X0, 1.0, "l2"), N=3, M=4)
        grad_J(prob, X0, counted, np.random.default_rng(0), 5)
        grad_J(prob, X0, counted, np.random.default_rng(0), 5, shared_batch=True)
        config = MlmcConfig(FeasibleSet(X0, 1.0, "l2"), M0=2, Lmax=2)
        _, _, cost = mlmc_grad(model, X0, appd, config, counted, np.random.default_rng(0), 5)
        assert counted.calls == [5 * (3 + 4), 5 * 3, cost], case
