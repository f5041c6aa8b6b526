"""Point attacks: Monte-Carlo estimators, the two-batch gradient, projected SGD.

The conjugate Gaussian testbed (n=1000 synthetic rows, beta=(-1,2), sigma2=1)
admits closed forms for everything the stochastic code estimates: the
predictive mean is mu_n'x, its covariate gradient is mu_n, and the optimal
perturbation has a one-line solution.  Every estimator is held to those
oracles within Monte-Carlo error bands computed from the replicates
themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdattack.analytic import analytic_point_l2
from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.functionals import (
    Functional,
    covariate_functional,
    onehot_functional,
    response_functional,
)
from ppdattack.attacks.point import (
    PointAttackProblem,
    estimate_grad_mu,
    estimate_mu,
    grad_J,
    reparam_grad_mu,
    run_point_attack,
)
from ppdattack.bayes.backends import ExactConjugate, SampleBank
from ppdattack.bayes.conjugate import gaussian_update
from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.likelihoods import BernoulliLogit, GaussianLinear, UnsupportedModelError
from ppdattack.exceptions import NonFiniteGradientError
from ppdattack.harness.data import gen_synthetic
from test_replicates import X0, mixture_case, softmax_case

TARGET = 3.0


@pytest.fixture(scope="module")
def testbed():
    rng = np.random.default_rng(np.random.SeedSequence((0, 555)))
    ds = gen_synthetic(1000, (-1.0, 2.0), 1.0, rng)
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, ds.X, ds.y)
    backend = ExactConjugate(post)
    mu_n = post.mu_n
    x0 = (-0.5 / (mu_n @ mu_n)) * mu_n  # clean predictive mean exactly -0.5
    return post, backend, mu_n, x0


def problem(x0, eps=1.0, norm="l2", **kw):
    kw.setdefault("model", GaussianLinear(2))
    return PointAttackProblem(response_functional(), [TARGET],
                              feasible=FeasibleSet(x0, eps, norm), **kw)


def joint_batches(prob, x, backend, rng, count, replicates=1):
    """Per replicate, ``count`` posterior draws and their outcomes, drawn in turn.

    Returns the draws concatenated and the outcomes as a (replicates, count)
    array: the arguments of the estimators' arithmetic.
    """
    draws, ys = [], []
    for _ in range(replicates):
        draws.append(backend.draw(count, rng))
        ys.append(prob.model.sample_y(x, draws[-1], rng))
    return DrawBatch.concat(draws), np.stack(ys)


def mu_estimates(prob, x, backend, rng, replicates=1):
    return estimate_mu(prob, x, joint_batches(prob, x, backend, rng, prob.N, replicates)[1])


# ---------------------------------------------------------------------------
# estimate_mu
# ---------------------------------------------------------------------------

def test_estimate_mu_matches_predictive_mean(testbed):
    post, backend, mu_n, x0 = testbed
    prob = problem(x0, N=100_000)
    rng = np.random.default_rng(1)
    est = mu_estimates(prob, x0, backend, rng)[0]
    # SE of the mean of N predictive draws, using the exact predictive variance.
    lam_inv_x = np.linalg.solve(post.lambda_n, x0)
    pred_var = x0 @ lam_inv_x + post.sigma2
    se = np.sqrt(pred_var / prob.N)
    assert abs(est[0] - mu_n @ x0) <= 3.0 * se


def test_constant_functional_is_exact(testbed):
    _, backend, _, x0 = testbed
    g_const = Functional(lambda x, ys: np.full((np.asarray(ys).size, 1), 4.25), 1)
    prob = PointAttackProblem(g_const, [0.0], GaussianLinear(2),
                              FeasibleSet(x0, 1.0, "l2"), N=3)
    est = mu_estimates(prob, x0, backend, np.random.default_rng(0))
    assert est[0, 0] == 4.25


def test_single_draw_estimates_average_out(testbed):
    post, backend, mu_n, x0 = testbed
    rng = np.random.default_rng(2)
    one = PointAttackProblem(response_functional(), [TARGET], GaussianLinear(2),
                             FeasibleSet(x0, 1.0, "l2"), N=1)
    singles = mu_estimates(one, x0, backend, rng, 10_000)[:, 0]
    big = PointAttackProblem(response_functional(), [TARGET], GaussianLinear(2),
                             FeasibleSet(x0, 1.0, "l2"), N=10_000)
    pooled = mu_estimates(big, x0, backend, rng)[0, 0]
    se = singles.std(ddof=1) / np.sqrt(singles.size)
    # Both estimate the same mean; their difference has SE*sqrt(2) at most.
    assert abs(singles.mean() - pooled) <= 3.0 * np.sqrt(2.0) * se


# ---------------------------------------------------------------------------
# estimate_grad_mu
# ---------------------------------------------------------------------------

def test_grad_mu_matches_posterior_mean(testbed):
    _, backend, mu_n, x0 = testbed
    prob = problem(x0, M=16)
    rng = np.random.default_rng(3)
    draws, ys = joint_batches(prob, x0, backend, rng, prob.M, 10_000)
    reps = estimate_grad_mu(prob, x0, draws, ys)[:, 0]
    se = reps.std(axis=0, ddof=1) / np.sqrt(reps.shape[0])
    assert np.all(np.abs(reps.mean(axis=0) - mu_n) <= 3.0 * se)


def test_onehot_functional_rejects_labels_out_of_range():
    g = onehot_functional(3)
    assert np.array_equal(g.value(np.zeros(2), np.array([2, 0, 1])), np.eye(3)[[2, 0, 1]])
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="class label out of range"):
            g.value(np.zeros(2), np.array([0, bad, 1]))


def test_grad_mu_of_covariate_functional_is_identity(testbed):
    _, backend, _, x0 = testbed
    prob = PointAttackProblem(covariate_functional(2), np.zeros(2), GaussianLinear(2),
                              FeasibleSet(x0, 1.0, "l2"), M=32)
    rng = np.random.default_rng(4)
    draws, ys = joint_batches(prob, x0, backend, rng, prob.M, 2_000)
    reps = estimate_grad_mu(prob, x0, draws, ys)
    se = reps.std(axis=0, ddof=1) / np.sqrt(reps.shape[0])
    # The score term has mean zero, leaving only grad_x g = I.
    assert np.all(np.abs(reps.mean(axis=0) - np.eye(2)) <= 3.0 * se + 1e-12)


def test_grad_mu_of_constant_is_zero(testbed):
    _, backend, _, x0 = testbed
    g_const = Functional(lambda x, ys: np.full((np.asarray(ys).size, 1), 2.0), 1)
    prob = PointAttackProblem(g_const, [0.0], GaussianLinear(2),
                              FeasibleSet(x0, 1.0, "l2"), M=32)
    rng = np.random.default_rng(5)
    draws, ys = joint_batches(prob, x0, backend, rng, prob.M, 2_000)
    reps = estimate_grad_mu(prob, x0, draws, ys)[:, 0]
    se = reps.std(axis=0, ddof=1) / np.sqrt(reps.shape[0])
    assert np.all(np.abs(reps.mean(axis=0)) <= 3.0 * se)


# ---------------------------------------------------------------------------
# grad_J
# ---------------------------------------------------------------------------

def test_grad_J_unbiased_against_analytic(testbed):
    _, backend, mu_n, x0 = testbed
    prob = problem(x0, N=16, M=16)
    oracle = 2.0 * (mu_n @ x0 - TARGET) * mu_n
    rng = np.random.default_rng(6)
    reps = grad_J(prob, x0, backend, rng, 10_000)
    se = reps.std(axis=0, ddof=1) / np.sqrt(reps.shape[0])
    assert np.all(np.abs(reps.mean(axis=0) - oracle) <= 3.0 * se)


def test_grad_J_vanishes_at_exact_solution(testbed):
    _, backend, mu_n, x0 = testbed
    sol = analytic_point_l2(mu_n, x0, TARGET, 2.0)
    assert sol.achieved
    x_star = x0 + sol.r_star
    prob = problem(x0, eps=2.0, N=16, M=16)
    rng = np.random.default_rng(9)
    reps = grad_J(prob, x_star, backend, rng, 4_000)
    se = reps.std(axis=0, ddof=1) / np.sqrt(reps.shape[0])
    assert np.all(np.abs(reps.mean(axis=0)) <= 3.0 * se)


def test_shared_batch_is_biased_control(testbed):
    # Reusing one batch for both factors couples mu-hat with its own gradient;
    # for g(x,y)=y the resulting bias is 2 Cov(mu_hat, grad_mu_hat) = O(1/N).
    # At N=2 the bias is large enough to stand out of 20k replicates, while the
    # two-batch estimator stays within its own error band.
    _, backend, mu_n, x0 = testbed
    prob = problem(x0, N=2, M=2)
    oracle = 2.0 * (mu_n @ x0 - TARGET) * mu_n
    rng = np.random.default_rng(123)
    shared = grad_J(prob, x0, backend, rng, 20_000, shared_batch=True)
    se = shared.std(axis=0, ddof=1) / np.sqrt(shared.shape[0])
    z_shared = (shared.mean(axis=0) - oracle) / se
    assert np.max(np.abs(z_shared)) > 4.0

    indep = grad_J(prob, x0, backend, rng, 20_000)
    se = indep.std(axis=0, ddof=1) / np.sqrt(indep.shape[0])
    z_indep = (indep.mean(axis=0) - oracle) / se
    assert np.max(np.abs(z_indep)) <= 3.0


# ---------------------------------------------------------------------------
# projected SGD
# ---------------------------------------------------------------------------

def test_zero_epsilon_returns_start(testbed):
    _, backend, _, x0 = testbed
    prob = problem(x0, eps=0.0, T=20)
    trace = run_point_attack(prob, backend, np.random.default_rng(10))
    assert np.array_equal(trace.final_x, x0)
    assert np.all(trace.iterates == x0)


def test_sgd_matches_analytic_residuals(testbed):
    post, backend, mu_n, x0 = testbed
    for i, eps in enumerate((0.1, 0.2, 0.3, 0.4, 0.5)):
        sol = analytic_point_l2(mu_n, x0, TARGET, eps)
        prob = problem(x0, eps=eps, eta=0.05, T=500, N=64, M=64, eta_decay=True)
        trace = run_point_attack(prob, backend,
                                 np.random.default_rng(np.random.SeedSequence((1, i))))
        exact_residual = abs(mu_n @ trace.final_x - TARGET)
        assert abs(exact_residual - sol.residual) <= 1e-2, eps


def test_all_iterates_feasible(testbed):
    _, backend, _, x0 = testbed
    for norm in ("l2", "linf", "l1"):
        fs = FeasibleSet(x0, 0.4, norm)
        prob = PointAttackProblem(response_functional(), [TARGET], GaussianLinear(2),
                                  fs, eta=0.2, T=100, N=8, M=8)
        trace = run_point_attack(prob, backend, np.random.default_rng(11))
        norms = [fs.perturbation_norm(xt) for xt in trace.iterates]
        assert max(norms) <= 0.4 + 1e-9, norm


def test_objective_trace_descends_after_smoothing(testbed):
    _, backend, _, x0 = testbed
    prob = problem(x0, eps=1.5, eta=0.05, T=500, N=64, M=64, eta_decay=True)
    trace = run_point_attack(prob, backend, np.random.default_rng(7))
    windows = trace.objectives.reshape(-1, 50).mean(axis=1)
    # Strict descent until the boundary, then a plateau whose window means
    # wobble by Monte-Carlo noise; 0.02 is ~3x the plateau SE here.
    assert np.all(np.diff(windows) <= 0.02)
    assert windows[-1] < 0.1 * windows[0]


@pytest.mark.parametrize("case", ["score", "reparam", "softmax", "mixture"])
def test_one_loop_step_is_one_grad_J_call(testbed, case):
    # The loop and grad_J share one sampler and one gradient: with T = 1 and
    # a fixed step, the first iterate is the projected step along grad_J's
    # one-replicate gradient from the same generator state, bit for bit.
    grad_mu = reparam_grad_mu if case == "reparam" else None
    if case in ("score", "reparam"):
        _, backend, _, x0 = testbed
        prob = problem(x0, eps=0.5, eta=0.3, T=1, N=8, M=8)
    else:  # a SampleBank, and a two-member MixtureBackend of TaggedBatch draws
        model, backend, g, _ = softmax_case() if case == "softmax" else mixture_case()
        x0 = X0
        prob = PointAttackProblem(g, np.full(g.out_dim, 0.2), model, FeasibleSet(x0, 0.5, "l2"),
                                  eta=0.3, T=1, N=8, M=8)
    for seed in range(5):
        trace = run_point_attack(prob, backend, np.random.default_rng(seed), grad_mu)
        gJ = grad_J(prob, x0, backend, np.random.default_rng(seed), 1, grad_mu)[0]
        assert not np.array_equal(trace.iterates[1], x0)
        assert np.array_equal(trace.iterates[1], prob.feasible.project(x0 - prob.eta * gJ))


def test_nonfinite_gradient_raises(testbed):
    _, backend, _, x0 = testbed
    g_bad = Functional(lambda x, ys: np.full((np.asarray(ys).size, 1), np.nan), 1)
    prob = PointAttackProblem(g_bad, [0.0], GaussianLinear(2),
                              FeasibleSet(x0, 1.0, "l2"), T=5, N=4, M=4)
    with pytest.raises(NonFiniteGradientError):
        run_point_attack(prob, backend, np.random.default_rng(12))


def test_problem_validation(testbed):
    _, _, _, x0 = testbed
    with pytest.raises(ValueError):
        PointAttackProblem(response_functional(), [1.0, 2.0], GaussianLinear(2),
                           FeasibleSet(x0, 1.0, "l2"))
    for eta in (0.0, np.nan):
        with pytest.raises(ValueError, match="PointAttackProblem field 'eta' must be"):
            problem(x0, eta=eta)


# ---------------------------------------------------------------------------
# reparameterised gradient
# ---------------------------------------------------------------------------

def per_sample(estimator, prob, x, backend, rng, n=20_000):
    """n one-draw Jacobian estimates (prob.M == 1): per-sample contributions, stacked."""
    return estimator(prob, x, *joint_batches(prob, x, backend, rng, prob.M, n))[:, 0]


def test_reparam_agrees_with_score_estimator(testbed):
    _, backend, mu_n, x0 = testbed
    prob = problem(x0, M=1)
    rng = np.random.default_rng(55)
    score = per_sample(estimate_grad_mu, prob, x0, backend, rng)
    rep = per_sample(reparam_grad_mu, prob, x0, backend, rng)
    joint_se = np.sqrt(score.var(axis=0, ddof=1) / score.shape[0]
                       + rep.var(axis=0, ddof=1) / rep.shape[0])
    # measured |diff| / joint_se: 0.16 and 0.26
    assert np.all(np.abs(score.mean(axis=0) - rep.mean(axis=0)) <= 3.0 * joint_se)


def test_reparam_has_lower_per_sample_variance(testbed):
    _, backend, _, x0 = testbed
    prob = problem(x0, M=1)
    rng = np.random.default_rng(56)
    score = per_sample(estimate_grad_mu, prob, x0, backend, rng)
    rep = per_sample(reparam_grad_mu, prob, x0, backend, rng)
    # measured per-sample variance sums: reparam 0.0021, score 11.3
    assert rep.var(axis=0, ddof=1).sum() < score.var(axis=0, ddof=1).sum()


def test_reparam_deterministic_limit(testbed):
    # Pin both noise sources: a singleton bank at beta = mu_n and phi -> 0.
    _, _, mu_n, x0 = testbed
    bank = SampleBank(DrawBatch(mu_n[None, :], np.array([1e-12])))
    prob = problem(x0, M=64)
    est = reparam_grad_mu(prob, x0, *joint_batches(prob, x0, bank, np.random.default_rng(57),
                                                     prob.M))
    assert np.allclose(est[0, 0], mu_n, atol=1e-12)


def quadratic_functional():
    """g(x, y) = (y^2, y * x_0): outcome gradient and per-draw covariate gradient."""
    def grad_x(x, ys):
        out = np.zeros((ys.size, 2, x.size))
        out[:, 1, 0] = ys
        return out

    return Functional(lambda x, ys: np.column_stack([ys**2, ys * x[0]]), 2, grad_x_fn=grad_x,
                      grad_y_fn=lambda x, ys: np.column_stack([2.0 * ys, np.full(ys.size, x[0])]))


def reference_reparam_grad_mu(prob, x, backend, rng):
    """The reparameterised estimator with its outcome draw written out inline."""
    draws = backend.draw(prob.M, rng)
    zeta = rng.standard_normal(len(draws))
    ys = draws.beta @ np.asarray(x, dtype=float) + np.sqrt(draws.phi) * zeta
    gy = prob.g.grad_y(x, ys)
    grad = np.einsum("mq,mp->qp", gy, draws.beta) / len(draws)
    gx = prob.g.grad_x(x, ys)
    grad += gx.mean(axis=0) if gx.ndim == 3 else gx
    return grad


@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), quadratic=st.booleans(),
       bank=st.booleans())
def test_reparam_draws_outcomes_through_sample_y(testbed, M, seed, quadratic, bank):
    # Drawing the outcomes with GaussianLinear.sample_y consumes the same
    # stream and computes the same expression as the inline formula.
    _, backend, _, x0 = testbed
    if bank:  # per-draw noise variances
        r = np.random.default_rng(seed ^ 0x5EED)
        backend = SampleBank(DrawBatch(r.standard_normal((50, 2)), r.uniform(0.1, 3.0, 50)))
    g = quadratic_functional() if quadratic else response_functional()
    prob = PointAttackProblem(g, np.zeros(g.out_dim), GaussianLinear(2),
                              FeasibleSet(x0, 1.0, "l2"), M=M)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = reparam_grad_mu(prob, x0, *joint_batches(prob, x0, backend, ours, M))[0]
    want = reference_reparam_grad_mu(prob, x0, backend, theirs)
    assert np.array_equal(got, want)
    assert ours.random() == theirs.random()


def test_reparam_requires_gaussian_linear(testbed):
    _, backend, _, x0 = testbed
    prob = PointAttackProblem(response_functional(), [TARGET], BernoulliLogit(2),
                              FeasibleSet(x0, 1.0, "l2"))
    with pytest.raises(UnsupportedModelError):
        run_point_attack(prob, backend, np.random.default_rng(58), reparam_grad_mu)


def test_reparam_descent_matches_analytic(testbed):
    _, backend, mu_n, x0 = testbed
    sol = analytic_point_l2(mu_n, x0, TARGET, 0.3)
    prob = problem(x0, eps=0.3, eta=0.05, T=400, N=64, M=64, eta_decay=True)
    trace = run_point_attack(prob, backend, np.random.default_rng(59), reparam_grad_mu)
    exact_residual = abs(mu_n @ trace.final_x - TARGET)
    assert abs(exact_residual - sol.residual) <= 1e-2
