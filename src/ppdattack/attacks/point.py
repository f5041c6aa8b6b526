"""Point-functional attacks on the posterior predictive distribution.

The attack perturbs a covariate vector inside a norm ball so that the
posterior predictive expectation of a functional ``g`` moves towards a target
vector.  Writing ``mu(x') = E[g(x', y)]`` with the expectation over posterior
parameter draws and predictive outcomes, the objective is

    J(x') = || mu(x') - g_star ||^2

minimised by projected stochastic gradient descent in the loop both attacks
share, :func:`~ppdattack.attacks.trace.projected_descent`.  Because the gradient of
``J`` is a product of two expectations, an unbiased estimate needs two
*independent* Monte-Carlo batches: one of size N for ``mu`` and one of size M
for its gradient (which combines the functional's own covariate gradient with
a score-function term).  Reusing a single batch for both factors is provided
only as a deliberately biased diagnostic mode.

The Jacobian factor has two estimators, passed as ``grad_mu`` to both
:func:`grad_J` and the attack loop :func:`run_point_attack`:
:func:`estimate_grad_mu` (score function, any likelihood; the default) and
:func:`reparam_grad_mu` (differentiates through the outcome draw; Gaussian
linear likelihoods only).

One sampler and one gradient serve every caller.  A joint sample
(``backend.draw`` then ``model.sample_y``) holds, per replicate or instance,
N outcomes for ``mu`` and an independent batch of M draws and outcomes for
the Jacobian.  :func:`grad_J`, each iteration of :func:`run_point_attack`
and its final residual (N rows only) all draw through it, and :func:`grad_J`
and the loop form ``2 (mu - g_star)^T grad mu`` by the same code, so one
iteration is a one-replicate :func:`grad_J` call, bit for bit.  Replicates
of one point share one generator: K * N rows, replicate k's batch for ``mu``
being the k-th block of N, then K * M rows, its Jacobian batch the k-th
block of M; with ``shared_batch`` the K * N rows feed both factors.  The rows
are iid, so the replicates are iid and each has the law of a one-replicate
call.  :func:`estimate_mu`, :func:`estimate_grad_mu` and
:func:`reparam_grad_mu` are arithmetic on already-drawn samples with a
leading replicate axis, so K replicates cost one ``g.value``/``score_x``
evaluation over all their rows.  Both Jacobian estimators are one average of
per-sample products ``a b^T`` plus the mean of ``grad_x g`` (Mohamed, Rosca,
Figurnov & Mnih, JMLR 2020): ``(g, score_x)`` for the score function,
``(grad_y g, beta)`` for the reparameterised estimator.

Instances are not replicates.  Given K ball centres (K, p) and a list of K
generators, :func:`run_point_attack` advances K independent attacks in
lockstep, with one backend draw and one forward and score pass over all
K (N + M) rows per iteration; :func:`estimate_mu` and the Jacobian
estimators then read x (K, p) as one point per row of outcomes.  Each
instance draws its N + M rows from its own generator, as alone, and the
sampler cuts every instance's M Jacobian rows out in one reshape.  Every
reduction is made per instance as one attack makes it, so it follows that
attack bit for bit: logits by a batched ``matmul`` (``gemv`` per block, as
for one point), mu as ``sum / N``, the gradient as a batched ``matmul`` of
``2 (mu - g_star)`` with the Jacobian, the L2 projection norm as
``sqrt(vecdot(d, d))``.  An ``einsum`` forward pass or an axis norm
(``np.linalg.norm(d, axis=1)``) rounds some rows differently in the last
place, and the attacks drift apart.  Every likelihood family takes one point
or K points; a gray-box mixture takes one, and refuses K before it draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._fields import Checked, Count, Positive
from ..bayes.draws import DrawBatch
from ..bayes.likelihoods import require_gaussian_linear
from .feasible import FeasibleSet
from .functionals import Functional
from .trace import AttackTrace, projected_descent


@dataclass
class PointAttackProblem(Checked):
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
    """

    g: Functional
    g_star: np.ndarray
    model: object
    feasible: FeasibleSet
    eta: Positive = 0.05
    T: Count = 500
    N: Count = 64
    M: Count = 64
    eta_decay: bool = False

    def validate(self):
        self.g_star = np.atleast_1d(np.asarray(self.g_star, dtype=float))
        q = (self.g.out_dim,)
        if self.g_star.shape not in (q, self.feasible.center.shape[:-1] + q):
            raise ValueError(
                "g_star must have shape (%d,), or one row per ball centre, got %s"
                % (self.g.out_dim, self.g_star.shape)
            )


def _joint_sample(prob, x, backend, rng, k, shared=False):
    # The one row layout: the outcomes for mu (k, N) and the Jacobian's draws
    # and outcomes (k, M), or with ``shared`` the same N rows, uncut, for
    # both.  One point (p,) and one generator: k * N rows, then k * M.  K
    # points (K, p) and K generators: each instance's N + M rows from its own.
    n = prob.N
    rows = n if shared else n + prob.M
    if x.ndim != 1 and not (isinstance(rng, list) and k == len(x) == len(rng)):
        raise ValueError("%d points need a list of as many generators and k = %d, got k = %d"
                         " and %r" % (len(x), len(x), k, rng))
    draws = backend.draw(k * rows, rng)
    ys = prob.model.sample_y(x, draws, rng)
    if shared:
        ys = ys.reshape(k, n)
        return ys, draws, ys
    if x.ndim == 1:
        return ys[:k * n].reshape(k, n), draws[k * n:], ys[k * n:].reshape(k, -1)
    # Lockstep sees DrawBatch only, so each instance's M tail rows are cut
    # out by one reshape, which costs less than an index gather.
    ys, p = ys.reshape(k, rows), draws.beta.shape[1]
    tail = DrawBatch(draws.beta.reshape(k, rows, p)[:, n:].reshape(-1, p),
                     draws.phi.reshape(k, rows)[:, n:].ravel())
    return ys[:, :n], tail, ys[:, n:]


def _jacobian(prob, x, ys, a, b):
    # The mean of a b^T over each row of outcomes ys (K, m), with a and b one
    # row per outcome, plus the mean of grad_x g.
    K, m = ys.shape
    grad = np.einsum("...mq,...mp->...qp", a.reshape(K, m, -1), b.reshape(K, m, -1)) / m
    gx = prob.g.grad_x(x, ys.ravel())
    if gx.ndim == 3:  # one (q, p) gradient per outcome
        gx = gx.reshape(ys.shape + gx.shape[1:]).sum(axis=1) / m
    return grad + gx


def _gradient(prob, x, sample, g_star, *grad_mus):
    # mu - g_star, then 2 (mu - g_star)^T grad mu for each Jacobian estimator
    # in ``grad_mus`` (None is the score function's), one row per replicate
    # or instance of a ``_joint_sample``: one residual for all of them.
    ys, draws, jac_ys = sample
    resid = estimate_mu(prob, x, ys) - g_star
    twice = (2.0 * resid)[:, None, :]
    grads = [np.matmul(twice, (grad_mu or estimate_grad_mu)(prob, x, draws, jac_ys))[:, 0]
             for grad_mu in grad_mus]
    return resid, *grads


def estimate_mu(prob, x, ys):
    """Monte-Carlo estimates of mu(x) = E[g(x, y)], one per row of outcomes.

    ``ys`` has shape (K, n): the n joint predictive outcomes of replicate k at
    one point x (p,), or of instance k at x[k] for K points (K, p).
    Returns shape (K, q).
    """
    ys = np.asarray(ys)
    # sum / n is the quotient np.mean forms, without its per-call overhead,
    # which the attack loop pays every iteration.
    return prob.g.value(x, ys.ravel()).reshape(ys.shape + (-1,)).sum(axis=1) / ys.shape[1]


def estimate_grad_mu(prob, x, draws, ys):
    """Score-function estimates of the Jacobian of mu(x), one per replicate.

    ``draws`` holds the K replicates' (or instances') posterior draws one
    after another and ``ys`` (K, m) their outcomes; x is as in
    :func:`estimate_mu`.  Each sample contributes
    ``grad_x g + g * score_x`` so the estimator stays unbiased for models whose
    predictive density depends on ``x``.  Returns shape (K, q, p).
    """
    flat = ys.ravel()
    return _jacobian(prob, x, ys, prob.g.value(x, flat), prob.model.score_x(x, flat, draws))


def reparam_grad_mu(prob, x, draws, ys):
    """Reparameterised Jacobian estimates for Gaussian linear likelihoods.

    Same arguments and shapes as :func:`estimate_grad_mu`.  Outcomes drawn by
    ``GaussianLinear.sample_y`` are ``y = beta^T x + sqrt(phi) * zeta`` with
    standard normal ``zeta`` independent of ``x``, so differentiation passes
    through the sample path and no score term appears: each draw contributes
    ``grad_x g + grad_y g * beta``.
    """
    require_gaussian_linear(prob.model)
    return _jacobian(prob, x, ys, prob.g.grad_y(x, ys.ravel()), draws.beta)


def grad_J(prob, x, backend, rng, replicates=1, grad_mu=None, shared_batch=False):
    """Stochastic gradients of J(x) = ||mu(x) - g_star||^2, one per replicate.

    The replicates' batches are blocks of one joint sample (see the module
    docstring); ``grad_mu`` estimates the Jacobian factor:
    :func:`estimate_grad_mu` (the default) or :func:`reparam_grad_mu`.
    With ``shared_batch=False`` (the default) the two factors use independent
    batches of sizes N and M and the estimate is unbiased.  With
    ``shared_batch=True`` one batch of size N feeds both factors -- a biased
    negative control for gradient validation.  Returns shape (replicates, p).
    """
    sample = _joint_sample(prob, x, backend, rng, replicates, shared_batch)
    return _gradient(prob, x, sample, prob.g_star, grad_mu)[1]


def run_point_attack(prob, backend, rng, grad_mu=None) -> AttackTrace:
    """Projected SGD on the point-attack objective, for one or K instances.

    ``grad_mu`` estimates the Jacobian factor of each step's gradient, as in
    :func:`grad_J`: :func:`estimate_grad_mu` (score function, the default) or
    :func:`reparam_grad_mu` (reparameterised, Gaussian linear only).  Every
    instance runs exactly T iterations.

    With one ball centre (p,), ``rng`` is a generator and the trace is one
    instance's: iterates (T+1, p), objectives (T,).  With K centres (K, p),
    ``rng`` is a list of K generators and the K instances advance in
    lockstep, each from its own centre towards its own row of ``g_star`` (or
    the one shared target).  The trace then has an instance axis: iterates
    (T+1, K, p), objectives (T, K), ``final_x`` (K, p) and ``final_residual``
    (K,); :meth:`AttackTrace.instance` cuts one instance out.  If an
    instance's gradient is not finite, the whole call raises
    ``NonFiniteGradientError`` with that instance's iterate.
    """
    gens = [rng] if prob.feasible.center.ndim == 1 else list(rng)
    K = len(np.atleast_2d(prob.feasible.center))
    if len(gens) != K:
        raise ValueError("need one generator per instance: %d instances, %d generators"
                         % (K, len(gens)))
    g_star = np.broadcast_to(prob.g_star, (K, prob.g.out_dim))
    r = gens[0] if K == 1 else gens  # one instance draws as a one-point attack

    def gradient(x):
        resid, gJ = _gradient(prob, x, _joint_sample(prob, x, backend, r, K), g_star, grad_mu)
        return gJ, np.vecdot(resid, resid)

    def residual(x):
        resid = estimate_mu(prob, x, _joint_sample(prob, x, backend, r, K, shared=True)[0]) - g_star
        return np.sqrt(np.vecdot(resid, resid))

    return projected_descent(prob, gradient, residual)
