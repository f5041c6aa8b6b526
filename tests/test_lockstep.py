"""Point attacks run in lockstep equal the same attacks run one at a time.

``run_point_attack`` on K ball centres advances K instances together, one
forward and score pass over all their rows per iteration.  Each instance
draws from its own generator exactly what its one-instance attack draws, so
its iterates, objectives, final point and final residual must be the same
numbers bit for bit, and its generator must end in the same state.  Every
instance runs exactly T iterations, so the lockstep trace has fixed shapes:
iterates (T+1, K, p) and objectives (T, K).  Every likelihood family takes
K points, so the property runs over all of them, each with its own backend.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.functionals import onehot_functional, response_functional
from ppdattack.attacks.point import (
    PointAttackProblem,
    estimate_grad_mu,
    grad_J,
    reparam_grad_mu,
    run_point_attack,
)
from ppdattack.bayes.backends import ExactConjugate, SampleBank
from ppdattack.bayes.conjugate import gaussian_update
from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.likelihoods import (
    BernoulliLogit,
    CategoricalSoftmax,
    FeatureSubsetModel,
    GaussianLinear,
    SmallBnn,
)
from ppdattack.exceptions import NonFiniteGradientError


def _softmax_setup(r, K, dim, k):
    model = CategoricalSoftmax(dim, k)
    bank = SampleBank(DrawBatch(1.5 * r.standard_normal((60, k * dim))))
    targets = r.dirichlet(np.ones(k), size=K)
    return onehot_functional(k), model, bank, targets, estimate_grad_mu


def _gaussian_setup(r, K, dim, reparam):
    X = r.standard_normal((30, dim))
    y = X @ r.standard_normal(dim) + r.standard_normal(30)
    post = gaussian_update(np.zeros(dim), np.eye(dim), 1.0, X, y)
    grad_mu = reparam_grad_mu if reparam else estimate_grad_mu
    return (response_functional(), GaussianLinear(dim), ExactConjugate(post),
            r.uniform(-3.0, 3.0, (K, 1)), grad_mu)


def _logit_setup(r, K, dim, k):
    bank = SampleBank(DrawBatch(r.standard_normal((60, dim))))
    return (response_functional(), BernoulliLogit(dim), bank, r.uniform(0.1, 0.9, (K, 1)),
            estimate_grad_mu)


def _bnn_setup(r, K, dim, k, head):
    model = (SmallBnn(dim, 3) if head == "gaussian"
             else SmallBnn(dim, 3, likelihood="categorical", n_out=k))
    bank = SampleBank(DrawBatch(r.standard_normal((60, model.n_params)), r.uniform(0.5, 2.0, 60)))
    if head == "gaussian":
        return response_functional(), model, bank, r.uniform(-2.0, 2.0, (K, 1)), estimate_grad_mu
    return onehot_functional(k), model, bank, r.dirichlet(np.ones(k), size=K), estimate_grad_mu


def _subset_setup(r, K, dim, k):
    # The inner Gaussian model sees the last dim - 1 covariates.
    g, inner, backend, targets, grad_mu = _gaussian_setup(r, K, dim - 1, False)
    return g, FeatureSubsetModel(inner, np.arange(1, dim), dim), backend, targets, grad_mu


def _setup(family, r, K, dim, k):
    if family == "softmax":
        return _softmax_setup(r, K, dim, k)
    if family == "logit":
        return _logit_setup(r, K, dim, k)
    if family.startswith("bnn-"):
        return _bnn_setup(r, K, dim, k, family[4:])
    if family == "subset":
        return _subset_setup(r, K, dim, k)
    return _gaussian_setup(r, K, dim, family.endswith("reparam"))


def _lockstep_and_alone(prob, backend, seeds, grad_mu):
    gens = [np.random.default_rng(s) for s in seeds]
    together = run_point_attack(prob, backend, gens, grad_mu)
    alone, alone_gens = [], []
    for k, s in enumerate(seeds):
        one = replace(prob, g_star=prob.g_star[k],
                      feasible=replace(prob.feasible, center=prob.feasible.center[k]))
        rng = np.random.default_rng(s)
        alone.append(run_point_attack(one, backend, rng, grad_mu))
        alone_gens.append(rng)
    return together, gens, alone, alone_gens


def _assert_same(prob, together, gens, alone, alone_gens):
    K, p = prob.feasible.center.shape
    assert together.iterates.shape == (prob.T + 1, K, p)
    assert together.objectives.shape == (prob.T, K)
    assert not np.isnan(together.iterates).any() and not np.isnan(together.objectives).any()
    for k, (a, rng) in enumerate(zip(alone, alone_gens)):
        assert a.objectives.shape == (prob.T,)
        b = together.instance(k)
        assert np.array_equal(b.iterates, a.iterates)
        assert np.array_equal(b.objectives, a.objectives)
        assert np.array_equal(b.final_x, a.final_x)
        assert np.array_equal(together.final_x[k], a.final_x)
        assert b.final_residual == a.final_residual
        assert gens[k].bit_generator.state == rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 6),
       norm=st.sampled_from(["l2", "linf", "l1"]),
       eps=st.sampled_from([0.0, 0.2, 0.7, 3.0]),
       family=st.sampled_from(["softmax", "gaussian", "gaussian-reparam", "logit",
                               "bnn-gaussian", "bnn-categorical", "subset"]),
       dim=st.integers(2, 4), k=st.integers(2, 4), NM=st.tuples(st.integers(2, 24),
                                                                 st.integers(2, 24)))
@example(seed=3, K=5, norm="l2", eps=1.0, family="softmax", dim=2, k=3, NM=(16, 16))
@example(seed=4, K=3, norm="l2", eps=0.7, family="logit", dim=3, k=2, NM=(8, 8))
@example(seed=5, K=3, norm="linf", eps=0.7, family="bnn-gaussian", dim=3, k=2, NM=(8, 8))
@example(seed=6, K=3, norm="l1", eps=0.7, family="bnn-categorical", dim=3, k=3, NM=(8, 8))
@example(seed=7, K=3, norm="l2", eps=0.7, family="subset", dim=3, k=2, NM=(8, 8))
def test_lockstep_equals_one_instance_runs(seed, K, norm, eps, family, dim, k, NM):
    r = np.random.default_rng(seed)
    g, model, backend, targets, grad_mu = _setup(family, r, K, dim, k)
    prob = PointAttackProblem(
        g=g, g_star=targets, model=model,
        feasible=FeasibleSet(center=r.standard_normal((K, dim)), epsilon=eps, norm=norm),
        eta=0.3, T=15, N=NM[0], M=NM[1],
    )
    seeds = r.integers(0, 2**32, K)
    _assert_same(prob, *_lockstep_and_alone(prob, backend, seeds, grad_mu))


def test_lockstep_needs_one_generator_per_instance():
    r = np.random.default_rng(0)
    g, model, backend, targets, grad_mu = _softmax_setup(r, 3, 2, 3)
    prob = PointAttackProblem(g=g, g_star=targets, model=model,
                              feasible=FeasibleSet(center=np.zeros((3, 2)), epsilon=1.0), T=2)
    with pytest.raises(ValueError, match="one generator per instance"):
        run_point_attack(prob, backend, [np.random.default_rng(1)] * 2)
    with pytest.raises(ValueError, match="g_star"):
        replace(prob, g_star=targets[:2])


@pytest.mark.parametrize("replicates, n_gens", [(1, 2), (2, 3), (3, 3)])
def test_k_points_need_k_generators_and_k_blocks(replicates, n_gens):
    # Two points take a list of two generators and two row blocks; anything
    # else is refused before a draw, not cut into the wrong rows.
    r = np.random.default_rng(0)
    g, model, backend, targets, grad_mu = _softmax_setup(r, 2, 2, 3)
    prob = PointAttackProblem(g=g, g_star=targets, model=model,
                              feasible=FeasibleSet(center=np.zeros((2, 2)), epsilon=1.0), T=2)
    gens = [np.random.default_rng(s) for s in range(n_gens)]
    with pytest.raises(ValueError, match="2 points need a list of as many generators and k = 2"):
        grad_J(prob, np.zeros((2, 2)), backend, gens, replicates)
    with pytest.raises(ValueError, match=r"got k = 2 and Generator\("):
        grad_J(prob, np.zeros((2, 2)), backend, gens[0], 2)
    assert grad_J(prob, np.zeros((2, 2)), backend, gens[:2], 2).shape == (2, 2)


def test_non_finite_gradient_names_the_instance():
    r = np.random.default_rng(0)
    W = r.standard_normal((20, 6))
    W[:, 0] = 1e300  # class 0's logit overflows where x_0 is large, and only there
    centres = np.array([[0.0, 1.0], [1e9, 1.0]])
    prob = PointAttackProblem(g=onehot_functional(3), g_star=np.full((2, 3), 1 / 3),
                              model=CategoricalSoftmax(2, 3),
                              feasible=FeasibleSet(center=centres, epsilon=1.0),
                              T=3, N=4, M=4)
    gens = [np.random.default_rng(s) for s in (1, 2)]
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonFiniteGradientError, match="of instance 1") as err:
            run_point_attack(prob, SampleBank(DrawBatch(W)), gens)
    assert err.value.iteration == 1 and np.array_equal(err.value.x, centres[1])


def test_one_shared_target_is_every_instance_target():
    r = np.random.default_rng(5)
    g, model, backend, targets, grad_mu = _softmax_setup(r, 3, 2, 3)
    ball = FeasibleSet(center=r.standard_normal((3, 2)), epsilon=0.5)
    shared = PointAttackProblem(g=g, g_star=targets[0], model=model, feasible=ball, T=6,
                                N=8, M=8)
    rows = replace(shared, g_star=np.tile(targets[0], (3, 1)))
    a, b = (run_point_attack(p, backend, [np.random.default_rng(s) for s in (1, 2, 3)])
            for p in (shared, rows))
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.final_residual, b.final_residual)


def _k3_trace():
    r = np.random.default_rng(2)
    g, model, backend, targets, grad_mu = _softmax_setup(r, 3, 2, 3)
    prob = PointAttackProblem(g=g, g_star=targets, model=model,
                              feasible=FeasibleSet(center=r.standard_normal((3, 2)), epsilon=0.5),
                              T=3, N=8, M=8)
    return run_point_attack(prob, backend, [np.random.default_rng(s) for s in (1, 2, 3)])


def test_lockstep_trace_is_written_one_instance_at_a_time(tmp_path):
    trace = _k3_trace()
    with pytest.raises(ValueError, match=r"3 instances; write one with "
                                         r"trace\.instance\(k\)\.write_csv\(path\)"):
        trace.write_csv(tmp_path / "all.csv")
    assert not (tmp_path / "all.csv").exists()
    trace.instance(1).write_csv(tmp_path / "one.csv")
    rows = (tmp_path / "one.csv").read_text().splitlines()
    assert rows[0] == "iteration,objective,x_0,x_1" and len(rows) == 1 + 4


def test_one_instance_trace_has_no_instance_to_cut():
    one = _k3_trace().instance(0)
    with pytest.raises(ValueError, match=r"one-instance trace.*trace\.write_csv\(path\)"):
        one.instance(0)
