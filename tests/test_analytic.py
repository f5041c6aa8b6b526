"""Closed-form attack solutions and the exact Gaussian KL objective.

These are the oracles the stochastic attack tests lean on, so they get the
tightest tolerances in the suite: hand-substituted values to 1e-12 and
duality-based feasibility properties over randomized tuples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdattack.analytic import (
    analytic_point,
    analytic_point_l2,
    gaussian_kl,
    kl_normal_ppd,
    kl_normal_ppd_grad,
    minimize_kl_multistart,
    minimize_kl_pgd,
)
from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.ppd import NormalAppd
from ppdattack.bayes.conjugate import GaussianPosterior, gaussian_update, spd_solve
from ppdattack.harness.data import gen_synthetic

MU = np.array([-1.0, 2.0])
# x chosen so the clean predictive mean mu'x is exactly -0.5.
X_CLEAN = (-0.5 / (MU @ MU)) * MU


# ---------------------------------------------------------------------------
# L2 solution
# ---------------------------------------------------------------------------

def test_l2_on_target_needs_no_perturbation():
    sol = analytic_point_l2(MU, X_CLEAN, MU @ X_CLEAN, 1.0)
    assert sol.achieved
    assert np.array_equal(sol.r_star, np.zeros(2))
    assert sol.residual == 0.0


def test_l2_interior_hand_values():
    # alpha = 3 - (-0.5) = 3.5, ||mu||^2 = 5  ->  r = 0.7 * (-1, 2)
    sol = analytic_point_l2(MU, X_CLEAN, 3.0, 2.0)
    assert sol.achieved
    assert np.allclose(sol.r_star, [-0.7, 1.4], atol=1e-12)
    assert sol.residual == 0.0
    assert MU @ sol.x_star == pytest.approx(3.0, abs=1e-12)


def test_l2_boundary_hand_values():
    sol = analytic_point_l2(MU, X_CLEAN, 3.0, 0.5)
    assert not sol.achieved
    assert np.allclose(sol.r_star, np.sign(3.5) * (0.5 / np.sqrt(5.0)) * MU, atol=1e-12)
    assert sol.residual == pytest.approx(3.5 - 0.5 * np.sqrt(5.0), abs=1e-12)
    assert np.linalg.norm(sol.r_star) == pytest.approx(0.5, abs=1e-12)


def test_l2_zero_mean_vector_rejected():
    with pytest.raises(ValueError):
        analytic_point_l2(np.zeros(2), X_CLEAN, 1.0, 1.0)
    # ...unless the target is already met, where r = 0 trivially works.
    sol = analytic_point_l2(np.zeros(2), X_CLEAN, 0.0, 1.0)
    assert sol.achieved


def test_l2_interior_solution_is_minimum_norm():
    rng = np.random.default_rng(41)
    for _ in range(200):
        mu = rng.standard_normal(4)
        x = rng.standard_normal(4)
        y_star = float(mu @ x + rng.uniform(-2.0, 2.0))
        sol = analytic_point_l2(mu, x, y_star, eps=10.0)
        assert sol.achieved
        alpha = y_star - mu @ x
        # Any other r on the constraint plane mu'r = alpha is at least as long.
        for _ in range(5):
            z = rng.standard_normal(4)
            z = z - (mu @ z) / (mu @ mu) * mu  # component orthogonal to mu
            r_other = sol.r_star + z
            assert mu @ r_other == pytest.approx(alpha, abs=1e-9)
            assert np.linalg.norm(r_other) >= np.linalg.norm(sol.r_star) - 1e-12


# ---------------------------------------------------------------------------
# Linf solution
# ---------------------------------------------------------------------------

def test_linf_boundary_hand_values():
    # alpha = 3, ||mu||_1 = 3: exactly on the feasibility edge at eps = 1.
    x = np.array([2.0, 1.0])  # mu'x = 0
    sol = analytic_point(MU, x, 3.0, 1.0, norm="linf")
    assert sol.achieved
    assert np.allclose(sol.r_star, [-1.0, 1.0], atol=1e-12)
    assert sol.residual == 0.0


def test_linf_unreachable_target():
    x = np.array([2.0, 1.0])
    sol = analytic_point(MU, x, 4.0, 1.0, norm="linf")  # alpha=4 > eps*||mu||_1=3
    assert not sol.achieved
    assert np.allclose(sol.r_star, [-1.0, 1.0], atol=1e-12)
    assert sol.residual == pytest.approx(1.0, abs=1e-12)


def test_linf_zero_coordinate_untouched():
    mu = np.array([0.0, 2.0])
    sol = analytic_point(mu, np.zeros(2), 1.0, 1.0, norm="linf")
    assert sol.r_star[0] == 0.0
    assert mu @ sol.x_star == pytest.approx(1.0, abs=1e-12)


def test_duality_boundary_is_exact():
    # With |alpha| = eps * dual_norm(mu) the target is met exactly and the
    # perturbation saturates the ball: residual 0 and ||r|| = eps to 1e-12.
    rng = np.random.default_rng(43)
    for _ in range(300):
        mu = rng.standard_normal(3)
        x = rng.standard_normal(3)
        eps = float(rng.uniform(0.1, 2.0))
        sign = rng.choice([-1.0, 1.0])

        y2 = mu @ x + sign * eps * np.linalg.norm(mu)
        sol = analytic_point_l2(mu, x, float(y2), eps)
        assert sol.residual <= 1e-9
        assert abs(np.linalg.norm(sol.r_star) - eps) <= 1e-12

        y1 = mu @ x + sign * eps * np.abs(mu).sum()
        sol = analytic_point(mu, x, float(y1), eps, norm="linf")
        assert sol.residual <= 1e-9
        assert abs(np.abs(sol.r_star).max() - eps) <= 1e-12


# ---------------------------------------------------------------------------
# L1 solution, and every ball through the dual norm
# ---------------------------------------------------------------------------

def test_l1_moves_the_largest_entry_alone():
    # alpha = 3.5, ||mu||_inf = 2 at the second entry
    sol = analytic_point(MU, X_CLEAN, 3.0, 2.0, "l1")
    assert sol.achieved and sol.residual == 0.0
    assert np.array_equal(sol.r_star, [0.0, 1.75])
    sol = analytic_point(MU, X_CLEAN, 3.0, 1.0, "l1")
    assert not sol.achieved and sol.residual == 1.5
    assert np.array_equal(sol.r_star, [0.0, 1.0])
    # a negative largest entry is moved down
    sol = analytic_point(np.array([1.0, -3.0]), np.zeros(2), 3.0, 2.0, "l1")
    assert np.array_equal(sol.r_star, [0.0, -1.0])
    # on a tie the first largest entry wins
    sol = analytic_point(np.array([2.0, -2.0]), np.zeros(2), -1.0, 2.0, "l1")
    assert np.array_equal(sol.r_star, [-0.5, 0.0])


def test_unknown_norm_rejected():
    with pytest.raises(ValueError, match="norm must be one of"):
        analytic_point(MU, X_CLEAN, 3.0, 1.0, "l3")


@pytest.mark.parametrize("eps", [-0.5, np.nan])
def test_negative_or_nan_radius_rejected(eps):
    # A NaN radius passed an `eps < 0` test and gave an all-NaN step.
    with pytest.raises(ValueError, match="eps must be nonnegative"):
        analytic_point(MU, X_CLEAN, 3.0, eps, "l2")


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6),
       norm=st.sampled_from(["l1", "l2", "linf"]), eps=st.sampled_from([0.0, 0.1, 0.5, 2.0]))
def test_dual_norm_solution_is_feasible_and_optimal(seed, p, norm, eps):
    r = np.random.default_rng(seed)
    mu = np.where(r.random(p) < 0.2, 0.0, r.standard_normal(p))
    mu[0] = mu[0] or 1.0  # a zero mu_n cannot move the mean
    x = r.standard_normal(p)
    y_star = float(mu @ x + r.normal(0.0, 2.0))
    sol = analytic_point(mu, x, y_star, eps, norm)

    assert FeasibleSet(x, eps, norm).contains(sol.x_star)
    alpha = y_star - float(mu @ x)
    dual = {"l2": np.linalg.norm(mu), "linf": np.abs(mu).sum(), "l1": np.abs(mu).max()}[norm]
    assert sol.residual == max(0.0, abs(alpha) - eps * dual)
    assert sol.achieved == (sol.residual == 0.0)
    best = abs(y_star - mu @ sol.x_star)
    assert best == pytest.approx(sol.residual, abs=1e-12)
    # No vertex x +- eps e_j of the L1 ball (inside every ball) and no
    # projected random point gets closer to the target.
    others = np.vstack([x + eps * np.eye(p), x - eps * np.eye(p),
                        FeasibleSet(x, eps, norm).project(x + eps * r.uniform(-2, 2, (200, p)))])
    assert np.all(np.abs(y_star - others @ mu) >= best - 1e-12)


# ---------------------------------------------------------------------------
# closed-form KL
# ---------------------------------------------------------------------------

def test_kl_zero_when_target_equals_predictive():
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0,
                           np.array([[1.0, 0.0]]), np.array([1.0]))
    x = np.array([0.5, -0.5])
    m = post.mu_n @ x
    v = x @ np.linalg.solve(post.lambda_n, x) + post.sigma2
    assert kl_normal_ppd(NormalAppd(float(m), float(v)), post, x) == 0.0


def test_kl_scalar_substitution():
    # N(0,1) against N(0,4): 0.5 ln 4 + 1/8 - 1/2.
    post = GaussianPosterior(np.zeros(1), np.eye(1), 4.0)
    val = kl_normal_ppd(NormalAppd(0.0, 1.0), post, np.zeros(1))
    assert val == pytest.approx(0.5 * np.log(4.0) + 0.125 - 0.5, abs=1e-12)
    assert val == pytest.approx(0.3181, abs=5e-5)
    assert gaussian_kl(0.0, 1.0, 0.0, 4.0) == pytest.approx(val, abs=1e-12)


def test_kl_gradient_matches_finite_differences():
    rng = np.random.default_rng(45)
    ds = gen_synthetic(50, (-1.0, 2.0, 0.5), 1.0, rng)
    post = gaussian_update(np.zeros(3), np.eye(3), 1.0, ds.X, ds.y)
    appd = NormalAppd(1.5, 2.0)
    h = 1e-6
    for _ in range(20):
        x = rng.standard_normal(3)
        grad = kl_normal_ppd_grad(appd, post, x)
        fd = np.empty(3)
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            fd[i] = (kl_normal_ppd(appd, post, x + step)
                     - kl_normal_ppd(appd, post, x - step)) / (2.0 * h)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0) < 1e-6


def test_kl_nonnegative_on_random_inputs():
    rng = np.random.default_rng(46)
    post = GaussianPosterior(rng.standard_normal(2), np.eye(2), 0.7)
    for _ in range(100):
        appd = NormalAppd(float(rng.standard_normal()), float(rng.uniform(0.1, 5.0)))
        assert kl_normal_ppd(appd, post, rng.standard_normal(2)) >= 0.0


# ---------------------------------------------------------------------------
# multistart KL benchmark on the closed-form KL
# ---------------------------------------------------------------------------

def two_minima_problem():
    # mu_n = (0, 1), Lambda_n = I, sigma2 = 1, target N(0, 3): on the
    # mean-matching line x2 = 0 the KL reduces to a function of
    # v = x1^2 + 1 minimised at v = 3, i.e. at the two points x1 = +-sqrt(2).
    post = GaussianPosterior(np.array([0.0, 1.0]), np.eye(2), 1.0)
    appd = NormalAppd(0.0, 3.0)
    feasible = FeasibleSet(np.zeros(2), 3.0, "l2")
    return post, appd, feasible


def test_pgd_finds_both_local_minimisers():
    post, appd, feasible = two_minima_problem()
    x_pos, kl_pos = minimize_kl_pgd(appd, post, feasible, np.array([1.0, 0.5]))
    x_neg, kl_neg = minimize_kl_pgd(appd, post, feasible, np.array([-1.0, 0.5]))
    assert np.allclose(x_pos, [np.sqrt(2.0), 0.0], atol=1e-5)
    assert np.allclose(x_neg, [-np.sqrt(2.0), 0.0], atol=1e-5)
    assert kl_pos == pytest.approx(kl_neg, abs=1e-10)
    assert kl_pos == pytest.approx(0.0, abs=1e-10)


def test_multistart_returns_all_solutions():
    post, appd, feasible = two_minima_problem()
    result = minimize_kl_multistart(appd, post, feasible, np.random.default_rng(47))
    assert result.kl == pytest.approx(0.0, abs=1e-8)
    assert len(result.solutions) == 8
    xs = np.array([x for x, _ in result.solutions])
    # Both symmetric minimisers show up across the starts.
    assert np.any(xs[:, 0] > 1.0) and np.any(xs[:, 0] < -1.0)


def test_pgd_respects_feasible_set():
    post, appd, _ = two_minima_problem()
    tight = FeasibleSet(np.zeros(2), 0.5, "l2")
    x, kl = minimize_kl_pgd(appd, post, tight, np.array([0.4, 0.0]))
    assert np.linalg.norm(x) <= 0.5 + 1e-12
    # Constrained optimum sits on the boundary (unconstrained one is outside).
    assert np.linalg.norm(x) == pytest.approx(0.5, abs=1e-6)
    assert kl > 0.0


def test_pgd_descends_from_start_value():
    rng = np.random.default_rng(48)
    ds = gen_synthetic(30, (-1.0, 2.0), 1.0, rng)
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, ds.X, ds.y)
    appd = NormalAppd(0.5, 2.5)
    feasible = FeasibleSet(np.array([0.3, -0.3]), 1.0, "l2")
    start_val = kl_normal_ppd(appd, post, feasible.center)
    _, kl = minimize_kl_pgd(appd, post, feasible, feasible.center)
    assert kl <= start_val


# ---------------------------------------------------------------------------
# one point and K points: the same numbers, bit for bit
# ---------------------------------------------------------------------------

def random_problem(seed, p):
    # A random known-variance posterior (SPD Lambda_n), Gaussian target and ball.
    r = np.random.default_rng(seed)
    a = r.standard_normal((p, p))
    post = GaussianPosterior(r.standard_normal(p), a @ a.T + 0.1 * np.eye(p),
                             float(r.uniform(0.1, 2.0)))
    appd = NormalAppd(float(r.standard_normal()), float(r.uniform(0.2, 4.0)))
    return r, post, appd


def one_start_reference(appd, post, feasible, x0):
    # The descent on Python floats, solving against Lambda_n afresh for each
    # KL value and gradient: the path the lockstep loop must take bit for bit.
    def pair(x):
        sx = spd_solve(post.lambda_n, x, "Lambda_n")
        return float(x @ post.mu_n), float(x @ sx + post.sigma2), sx

    def kl(x):
        m, v, _ = pair(x)
        return 0.5 * (np.log(v / appd.var) + (appd.var + (appd.mean - m) ** 2) / v - 1.0)

    def grad(x):
        m, v, sx = pair(x)
        dm = appd.mean - m
        return 2.0 * sx * (0.5 / v - (appd.var + dm**2) / (2.0 * v**2)) - (dm / v) * post.mu_n

    x = feasible.project(x0)
    val, s = kl(x), 0.25
    for _ in range(500):
        g, moved = grad(x), False
        while s > 1e-14:
            cand = feasible.project(x - s * g)
            cand_val = kl(cand)
            if cand_val < val - 1e-15:
                x, val, moved, s = cand, cand_val, True, min(s * 2.0, 0.25)
                break
            s *= 0.5
        if not moved or np.linalg.norm(g) < 1e-12:
            break
    return x, float(val)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 8), p=st.integers(2, 5),
       norm=st.sampled_from(["l2", "linf", "l1"]), eps=st.sampled_from([0.1, 0.5, 2.0]))
def test_pgd_on_k_starts_equals_k_one_start_descents(seed, K, p, norm, eps):
    r, post, appd = random_problem(seed, p)
    feasible = FeasibleSet(r.standard_normal(p), eps, norm)
    starts = feasible.center + eps * r.uniform(-1.5, 1.5, (K, p))
    xs, kls = minimize_kl_pgd(appd, post, feasible, starts)
    assert xs.shape == (K, p) and kls.shape == (K,)
    for k in range(K):
        x, kl = minimize_kl_pgd(appd, post, feasible, starts[k])
        assert type(kl) is float
        assert np.array_equal(xs[k], x) and kls[k] == kl
    x_ref, kl_ref = one_start_reference(appd, post, feasible, starts[0])
    assert np.array_equal(xs[0], x_ref) and kls[0] == kl_ref


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 8), p=st.integers(1, 6))
def test_k_points_equal_k_one_point_calls(seed, K, p):
    r, post, appd = random_problem(seed, p)
    x = 3.0 * r.standard_normal((K, p))
    m, q = post.predictive_pair(x)
    mean, var = post.predictive_moments(x)
    sx = post.cov_times(x)
    kl = kl_normal_ppd(appd, post, x)
    grad = kl_normal_ppd_grad(appd, post, x)
    assert m.shape == q.shape == kl.shape == (K,) and sx.shape == grad.shape == (K, p)
    for k in range(K):
        assert (m[k], q[k]) == post.predictive_pair(x[k])
        assert (mean[k], var[k]) == post.predictive_moments(x[k])
        assert np.array_equal(sx[k], post.cov_times(x[k]))
        assert kl[k] == kl_normal_ppd(appd, post, x[k])
        assert np.array_equal(grad[k], kl_normal_ppd_grad(appd, post, x[k]))


@pytest.mark.parametrize("shape", [(2, 3, 2), (2, 3), (3,), ()])
def test_points_of_the_wrong_shape_raise(shape):
    _, post, appd = random_problem(0, 2)
    x = np.zeros(shape)
    for call in (post.predictive_pair, post.cov_times,
                 lambda x: kl_normal_ppd(appd, post, x),
                 lambda x: kl_normal_ppd_grad(appd, post, x),
                 lambda x: minimize_kl_pgd(appd, post, FeasibleSet(np.zeros(2), 1.0), x)):
        with pytest.raises(ValueError):
            call(x)
