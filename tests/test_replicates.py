"""Replicate calls of ``grad_J`` and ``mlmc_grad`` against reference streams.

A ``grad_J`` call for K replicates draws each replicate's randomness in turn
and then scores all K replicates in one pass.  A replicate makes one joint
sample of N + M rows (one ``backend.draw`` and one ``sample_y``): its first N
rows estimate ``mu`` and its last M rows, an independent batch because the
rows are iid, the Jacobian; the shared-batch control draws N rows that feed
both.  So the K-replicate call must return, bit for bit, what K successive
one-replicate calls return, and leave the generator in the same state; and
it must return what a reference that draws and splits the joint sample
replicate by replicate returns, up to summation order.

Where the backend and the likelihood draw nothing but standard normals (the
known-variance conjugate backend with ``GaussianLinear``: the "gaussian" case
below), a K-replicate ``grad_J`` draws all K replicates' normals as one block
and makes one ``backend.draw`` and one ``sample_y`` through a
:class:`~ppdattack.bayes.draws.NormalSource`.  The same properties cover that
path unchanged: they are the oracle that the block hands each replicate
exactly its own normals.  The source itself is checked to hand out normals
in generator order and to raise on an overrun, on leftovers, and for a
backend or likelihood that declares the wrong count.

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
from ppdattack.attacks.ppd import (
    CategoricalAppd,
    MlmcConfig,
    NormalAppd,
    delta_level,
    mlmc_grad,
)
from ppdattack.bayes.backends import ExactConjugate, SampleBank
from ppdattack.bayes.conjugate import NigPrior, gaussian_update, nig_update
from ppdattack.bayes.draws import DrawBatch, NormalSource
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


def reference_grad_J(prob, x, backend, rng, shared):
    """One replicate: draw N + M rows (N if shared), sample their outcomes,
    split, and form the score-function gradient; also a bound on its terms."""
    n = prob.N if shared else prob.N + prob.M
    draws = backend.draw(n, rng)
    ys = prob.model.sample_y(x, draws, rng)
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
    model, backend, g, _ = CASES[case]()
    prob = PointAttackProblem(g, np.full(g.out_dim, 0.2), model, FeasibleSet(X0, 1.0, "l2"),
                              N=N, M=M)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = grad_J(prob, X0, backend, ours, K, shared_batch=shared)
    want, bound = map(np.array, zip(*(reference_grad_J(prob, X0, backend, theirs, shared)
                                      for _ in range(K))))
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * bound.max())
    assert ours.random() == theirs.random()


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.one_of(st.integers(1, 5), st.tuples(st.integers(1, 4),
                                                           st.integers(1, 4))),
                      min_size=1, max_size=5), seed=SEEDS)
def test_normal_source_hands_out_normals_in_generator_order(sizes, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    total = sum(int(np.prod(size)) for size in sizes)
    with NormalSource(ours.standard_normal(total)) as source:
        for size in sizes:
            assert np.array_equal(source.standard_normal(size), theirs.standard_normal(size))
    assert ours.random() == theirs.random()


def test_normal_source_raises_on_overrun_and_on_leftovers():
    source = NormalSource(np.zeros(5))
    source.standard_normal(3)
    with pytest.raises(RuntimeError, match="overrun"):
        source.standard_normal((1, 3))
    with pytest.raises(RuntimeError, match="left over"):
        with NormalSource(np.zeros(5)) as source:
            source.standard_normal(4)
    with pytest.raises(ZeroDivisionError):  # an error inside the block is not masked
        with NormalSource(np.zeros(5)):
            1 / 0


class Declaring:
    """A backend or likelihood with an overridden ``normals_per_row``."""

    def __init__(self, inner, per_row):
        self.inner, self.normals_per_row = inner, per_row

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_block_path_draws_once_per_call():
    model, backend, g, appd = gaussian_case()
    assert backend.normals_per_row == 2 and model.normals_per_row == 1
    calls = []
    counted = Declaring(backend, 2)
    counted.draw = lambda count, rng: calls.append(count) or backend.draw(count, rng)
    prob = PointAttackProblem(g, np.full(1, 0.2), model, FeasibleSet(X0, 1.0, "l2"), N=3, M=4)
    grad_J(prob, X0, counted, np.random.default_rng(0), 5)
    assert calls == [5 * 7]
    # mlmc_grad draws its rows in one call whether or not the backend declares
    # normals_per_row.
    config = MlmcConfig(FeasibleSet(X0, 1.0, "l2"), M0=2, Lmax=2)
    for per_row in (2, None):
        counted.normals_per_row = per_row
        _, _, cost = mlmc_grad(model, X0, appd, config, counted, np.random.default_rng(0), 5)
        assert calls.pop() == cost
    assert calls == [5 * 7]
    assert ExactConjugate(nig_case()[1].posterior).normals_per_row is None


@pytest.mark.parametrize("part, per_row", [("backend", 1), ("backend", 3), ("model", 2)])
def test_a_wrong_normal_count_fails_loudly(part, per_row):
    # Too few declared normals overrun the block, too many are left over; either
    # way the call raises instead of handing a replicate another's normals.
    model, backend, g, appd = gaussian_case()
    if part == "backend":
        backend = Declaring(backend, per_row)
    else:
        model = Declaring(model, per_row)
    prob = PointAttackProblem(g, np.full(1, 0.2), model, FeasibleSet(X0, 1.0, "l2"), N=3, M=4)
    with pytest.raises(RuntimeError, match="normal source"):
        grad_J(prob, X0, backend, np.random.default_rng(0), 2)
