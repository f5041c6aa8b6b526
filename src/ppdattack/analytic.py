"""Closed-form attack solutions and KL expressions for conjugate Gaussian models.

For the known-variance conjugate linear model the predictive mean is linear in
the covariates, so the point attack that moves the predictive mean to a target
``y_star`` inside an L1, L2 or L-infinity ball has an exact solution via the
Hölder inequality: the best achievable shift of the mean is
``epsilon * ||mu_n||_dual``, attained by perturbing along ``mu_n`` (L2),
``sign(mu_n)`` (L-infinity) or the largest entry of ``mu_n`` alone (L1).  The
same model gives the KL divergence between a Gaussian adversarial target and
the predictive in closed form, together with its covariate gradient, which
powers a multi-start projected gradient benchmark, with random starts and
capped descents, for the distribution attacks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .attacks.feasible import NORMS, FeasibleSet
from .attacks.ppd import NormalAppd
from .bayes.conjugate import GaussianPosterior


@dataclass(frozen=True)
class AnalyticPointSolution:
    """Exact point-attack solution: perturbation, residual, feasibility flag."""

    r_star: np.ndarray
    x_star: np.ndarray
    residual: float
    achieved: bool


def analytic_point(mu_n, x, y_star, eps, norm) -> AnalyticPointSolution:
    """Exact attack on the predictive mean of a linear model in an L1, L2 or L-infinity ball.

    Let ``alpha = y_star - mu_n^T x``.  By Hölder a step of size ``eps`` moves
    the mean by at most ``eps * dual``, along the direction ``d``:

    * L2: dual ``||mu_n||_2``, ``d = mu_n``;
    * L-infinity: dual ``||mu_n||_1``, ``d = sign(mu_n)`` (zero entries stay put);
    * L1: dual ``||mu_n||_inf``, ``d`` the signed unit vector of ``mu_n``'s
      largest entry, the first one on ties.

    If ``|alpha| <= eps * dual`` the target is reachable and the smallest step
    ``r = alpha * d / (d^T mu_n)`` reaches it; otherwise the optimum is the
    boundary step ``r = sign(alpha) * eps * d / ||d||`` with residual
    ``|alpha| - eps * dual``.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    mu_n = np.asarray(mu_n, dtype=float)
    x = np.asarray(x, dtype=float)
    if mu_n.shape != x.shape or mu_n.ndim != 1:
        raise ValueError("mu_n and x must be vectors of equal length")
    alpha = float(y_star) - float(mu_n @ x)
    if norm == "l2":
        dual = np.linalg.norm(mu_n)
        d, gain, length = mu_n, dual**2, dual
    elif norm == "linf":
        dual = np.abs(mu_n).sum()
        d, gain, length = np.sign(mu_n), dual, 1.0
    elif norm == "l1":
        j = np.argmax(np.abs(mu_n))
        dual = np.abs(mu_n[j])
        d, gain, length = np.sign(mu_n[j]) * np.eye(mu_n.size)[j], dual, 1.0
    else:
        raise ValueError("norm must be one of %s" % (NORMS,))
    if dual == 0.0:
        if alpha == 0.0:
            return AnalyticPointSolution(np.zeros_like(x), x.copy(), 0.0, True)
        raise ValueError("mu_n is zero: the predictive mean cannot be moved")
    if abs(alpha) <= eps * dual:
        r = (alpha / gain) * d
        return AnalyticPointSolution(r, x + r, 0.0, True)
    r = np.sign(alpha) * (eps / length) * d
    return AnalyticPointSolution(r, x + r, abs(alpha) - eps * dual, False)


# Kept for the benchmark's graybox check (perfbench/workloads.py), which imports it.
analytic_point_l2 = functools.partial(analytic_point, norm="l2")


def gaussian_kl(mean1, var1, mean2, var2):
    """KL( N(mean1, var1) || N(mean2, var2) ), elementwise over arrays.

    ``float_power`` squares through libm's ``pow``, as Python's scalar ``**``
    does; an array's ``**2`` multiplies, and the two round apart about once
    in a thousand.  So K points round as K one-point calls on floats do.
    """
    if np.any(var1 <= 0) or np.any(var2 <= 0):
        raise ValueError("variances must be positive")
    return 0.5 * (np.log(var2 / var1) + (var1 + np.float_power(mean1 - mean2, 2)) / var2 - 1.0)


def kl_normal_ppd(appd: NormalAppd, post: GaussianPosterior, x):
    """KL from a Gaussian adversarial target to the predictive at ``x``.

    With predictive mean ``m(x) = x^T mu_n`` and variance
    ``v(x) = x^T inv(Lambda_n) x + sigma2``:

        KL = 0.5 log(v / var_A) + (var_A + (mean_A - m)^2) / (2 v) - 0.5

    ``x`` is one point (p,), giving a scalar, or K points (K, p), giving (K,).
    """
    return gaussian_kl(appd.mean, appd.var, *post.predictive_moments(x))


def kl_normal_ppd_grad(appd: NormalAppd, post: GaussianPosterior, x):
    """Exact covariate gradient of :func:`kl_normal_ppd`, shaped as ``x``.

    Using ``grad m = mu_n`` and ``grad v = 2 inv(Lambda_n) x``:

        grad KL = grad_v * (1/(2v) - (var_A + (mean_A - m)^2) / (2 v^2))
                  - (mean_A - m) mu_n / v
    """
    x = np.asarray(x, dtype=float)
    sx = post.cov_times(x)
    m = np.vecdot(x, post.mu_n)[..., None]
    v = np.vecdot(x, sx)[..., None] + post.sigma2
    dm = appd.mean - m
    # float_power squares as scalar ``**`` does; see gaussian_kl.
    dkl_dv = 0.5 / v - (appd.var + np.float_power(dm, 2)) / (2.0 * np.float_power(v, 2))
    return 2.0 * sx * dkl_dv - (dm / v) * post.mu_n


@dataclass(frozen=True)
class KlBenchmarkResult:
    """Best point found by the multi-start benchmark plus all local solutions."""

    x: np.ndarray
    kl: float
    solutions: tuple  # of (x, kl) pairs, one per start


STEP = 0.25  # the first and the largest step of the backtracking search
ITERS = 500  # gradient steps at most, per start
TOL = 1e-12  # a start stops once its gradient norm is below this
N_STARTS = 8  # the benchmark's starts: the centre and N_STARTS - 1 uniform draws


def minimize_kl_pgd(appd, post, feasible: FeasibleSet, x0):
    """Projected gradient descent on the closed-form KL with backtracking.

    ``x0`` is one start (p,), returning its point (p,) and KL as a float, or
    K starts (K, p), returning (K, p) points and (K,) KL values.  K starts
    descend in lockstep, each with its own step size, each stopping on its
    own, and each on the path its one-start descent takes, bit for bit.
    """
    x = feasible.project(np.atleast_2d(x0))
    val = kl_normal_ppd(appd, post, x)
    s = np.full(len(x), STEP)
    live = np.ones(len(x), dtype=bool)
    for _ in range(ITERS):
        g = kl_normal_ppd_grad(appd, post, x)
        moved = np.zeros_like(live)
        trying = live & (s > 1e-14)
        while trying.any():
            cand = feasible.project(x - s[:, None] * g)
            cand_val = kl_normal_ppd(appd, post, cand)
            ok = trying & (cand_val < val - 1e-15)
            x = np.where(ok[:, None], cand, x)
            val = np.where(ok, cand_val, val)
            s = np.where(ok, np.minimum(s * 2.0, STEP), np.where(trying, s * 0.5, s))
            moved |= ok
            trying &= ~ok & (s > 1e-14)
        live &= moved & (np.sqrt(np.vecdot(g, g)) >= TOL)
        if not live.any():
            break
    return (x[0], float(val[0])) if np.ndim(x0) == 1 else (x, val)


def minimize_kl_multistart(appd, post, feasible: FeasibleSet, rng) -> KlBenchmarkResult:
    """Multi-start PGD on the closed-form KL: the ppd sweep's ``analytic`` benchmark.

    The KL is generally non-convex in the covariates, so N_STARTS starts
    inside the ball, its centre first, are polished together and the best
    kept, with every start's end point.  Not exact: the other starts are
    random and each descent stops after ``ITERS`` steps (see the README).
    """
    z = rng.uniform(-1.0, 1.0, size=(N_STARTS - 1, feasible.dim))
    starts = np.vstack([feasible.center, feasible.project(feasible.center + feasible.epsilon * z)])
    x, kl = minimize_kl_pgd(appd, post, feasible, starts)
    best = int(np.argmin(kl))
    return KlBenchmarkResult(x=x[best], kl=float(kl[best]), solutions=tuple(zip(x, kl.tolist())))
