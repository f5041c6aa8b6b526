"""Point-functional attacks on the posterior predictive distribution.

The attack perturbs a covariate vector inside a norm ball so that the
posterior predictive expectation of a functional ``g`` moves towards a target
vector.  Writing ``mu(x') = E[g(x', y)]`` with the expectation over posterior
parameter draws and predictive outcomes, the objective is

    J(x') = || mu(x') - g_star ||^2

minimised by projected stochastic gradient descent.  Because the gradient of
``J`` is a product of two expectations, an unbiased estimate needs two
*independent* Monte-Carlo batches: one of size N for ``mu`` and one of size M
for its gradient (which combines the functional's own covariate gradient with
a score-function term).  Reusing a single batch for both factors is provided
only as a deliberately biased diagnostic mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import NonFiniteGradientError
from ..bayes.likelihoods import require_gaussian_linear
from .feasible import FeasibleSet
from .functionals import Functional
from .trace import AttackTrace


@dataclass
class PointAttackProblem:
    """Attack specification: functional, target, likelihood model, ball, optimiser.

    Parameters
    ----------
    g : Functional
    g_star : ndarray, shape (g.out_dim,)
        Target value for the predictive expectation of ``g``.
    model : likelihood model
        Provides ``loglik`` / ``score_x`` / ``sample_y``.
    feasible : FeasibleSet
    eta : float
        Step size; with ``eta_decay`` the step at iteration t is eta/sqrt(t).
    T : int
        Number of iterations.
    N, M : int
        Batch sizes of the two independent Monte-Carlo batches.
    early_stop_tol : float, optional
        Stop once the objective, smoothed over ``smooth_window`` iterations,
        falls below this value.
    """

    g: Functional
    g_star: np.ndarray
    model: object
    feasible: FeasibleSet
    eta: float = 0.05
    T: int = 500
    N: int = 64
    M: int = 64
    eta_decay: bool = False
    early_stop_tol: float = None
    smooth_window: int = 50

    def __post_init__(self):
        self.g_star = np.atleast_1d(np.asarray(self.g_star, dtype=float))
        if self.g_star.shape != (self.g.out_dim,):
            raise ValueError(
                "g_star must have shape (%d,), got %s" % (self.g.out_dim, self.g_star.shape)
            )
        if self.eta <= 0 or self.T < 1 or self.N < 1 or self.M < 1:
            raise ValueError("need eta > 0 and T, N, M >= 1")
        if self.smooth_window < 1:
            raise ValueError("smooth_window must be >= 1")
        if self.early_stop_tol is not None and not (
            np.isfinite(self.early_stop_tol) and self.early_stop_tol >= 0
        ):
            raise ValueError("early_stop_tol must be None or a finite number >= 0")


def _joint_sample(prob, x, backend, rng, count):
    draws = backend.draw(count, rng)
    ys = prob.model.sample_y(x, draws, rng)
    return draws, ys


def estimate_mu(prob, x, backend, rng):
    """Monte-Carlo estimate of mu(x) = E[g(x, y)] from N joint draws."""
    draws, ys = _joint_sample(prob, x, backend, rng, prob.N)
    return prob.g.value(x, ys).mean(axis=0)


def _grad_mu_from(prob, x, draws, ys):
    m = len(draws)
    vals = prob.g.value(x, ys)  # (m, q)
    scores = prob.model.score_x(x, ys, draws)  # (m, p)
    grad = np.einsum("mq,mp->qp", vals, scores) / m
    gx = prob.g.grad_x(x, ys)
    grad += gx.mean(axis=0) if gx.ndim == 3 else gx
    return grad


def estimate_grad_mu(prob, x, backend, rng):
    """Score-function estimate of the Jacobian of mu(x), from M fresh joint draws.

    Each sample contributes ``grad_x g + g * score_x`` so the estimator stays
    unbiased for models whose predictive density depends on ``x``.
    """
    draws, ys = _joint_sample(prob, x, backend, rng, prob.M)
    return _grad_mu_from(prob, x, draws, ys)


def reparam_grad_mu(prob, x, backend, rng):
    """Reparameterised Jacobian estimate for Gaussian linear likelihoods.

    Outcomes are expressed as ``y = beta^T x + sqrt(phi) * zeta`` with standard
    normal ``zeta`` independent of ``x``, so differentiation passes through the
    sample path and no score term appears:
    each draw contributes ``grad_x g + grad_y g * beta``.
    """
    require_gaussian_linear(prob.model)
    # GaussianLinear.sample_y draws the outcomes along exactly that path.
    draws, ys = _joint_sample(prob, x, backend, rng, prob.M)
    gy = prob.g.grad_y(x, ys)  # (m, q)
    grad = np.einsum("mq,mp->qp", gy, draws.beta) / len(draws)
    gx = prob.g.grad_x(x, ys)
    grad += gx.mean(axis=0) if gx.ndim == 3 else gx
    return grad


def grad_J(prob, x, backend, rng, shared_batch=False):
    """Stochastic gradient of J(x) = ||mu(x) - g_star||^2.

    With ``shared_batch=False`` (the default) the two factors use independent
    batches of sizes N and M and the estimate is unbiased.  With
    ``shared_batch=True`` one batch of size N feeds both factors -- a biased
    negative control for gradient validation.
    """
    if shared_batch:
        draws, ys = _joint_sample(prob, x, backend, rng, prob.N)
        mu_hat = prob.g.value(x, ys).mean(axis=0)
        grad_mu = _grad_mu_from(prob, x, draws, ys)
    else:
        mu_hat = estimate_mu(prob, x, backend, rng)
        grad_mu = estimate_grad_mu(prob, x, backend, rng)
    return 2.0 * (mu_hat - prob.g_star) @ grad_mu


def _descend(prob, backend, rng, grad_mu_fn):
    x = prob.feasible.center.astype(float).copy()
    iterates = [x.copy()]
    objectives = np.empty(prob.T)
    n_done = 0
    for t in range(1, prob.T + 1):
        mu_hat = estimate_mu(prob, x, backend, rng)
        grad_mu = grad_mu_fn(prob, x, backend, rng)
        resid = mu_hat - prob.g_star
        gJ = 2.0 * resid @ grad_mu
        if not np.all(np.isfinite(gJ)):
            raise NonFiniteGradientError(
                "non-finite gradient estimate at iteration %d" % t, iteration=t, x=x.copy()
            )
        objectives[t - 1] = resid @ resid
        n_done = t
        step = prob.eta / np.sqrt(t) if prob.eta_decay else prob.eta
        x = prob.feasible.project(x - step * gJ)
        iterates.append(x.copy())
        if prob.early_stop_tol is not None and t >= prob.smooth_window:
            if objectives[t - prob.smooth_window : t].mean() < prob.early_stop_tol:
                break
    mu_final = estimate_mu(prob, x, backend, rng)
    return AttackTrace(
        iterates=np.asarray(iterates),
        objectives=objectives[:n_done],
        final_x=x,
        final_residual=float(np.linalg.norm(mu_final - prob.g_star)),
    )


def run_point_attack(prob, backend, rng) -> AttackTrace:
    """Projected SGD on the point-attack objective with score-function gradients."""
    return _descend(prob, backend, rng, estimate_grad_mu)


def run_point_attack_reparam(prob, backend, rng) -> AttackTrace:
    """Projected SGD using the reparameterised gradient (Gaussian linear only)."""
    require_gaussian_linear(prob.model)
    return _descend(prob, backend, rng, reparam_grad_mu)
