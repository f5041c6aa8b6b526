"""Full-distribution attacks: drive the posterior predictive towards a target law.

The objective is the cross entropy ``-E_{y ~ pi_A}[log pi(y | x', D)]``
(equivalently the KL from the adversarial predictive distribution ``pi_A`` to
the induced posterior predictive, up to the constant entropy of ``pi_A``).
Its covariate gradient involves, for each outcome ``y``, the ratio

    g_x(y) = - E[grad_x pi(y | x, gamma)] / E[pi(y | x, gamma)]

of two posterior expectations.  The plug-in ratio with M draws in numerator
and denominator is biased at O(1/M); the multilevel estimator removes the
bias by telescoping over doubling batch sizes M0 * 2^level with an antithetic
first-half/second-half coupling and a randomised level draw, giving an
unbiased (or, when the level range is capped, nearly unbiased) gradient at
finite expected cost.

One gradient evaluation draws its randomness in three blocks: the B target
outcomes, the levels of all B * R (outcome, repeat) pairs in one generator
call, and all of their posterior draws in one ``backend.draw`` call, iid rows
cut into M0 * 2^level per pair in pair order.  The arithmetic runs in one
pass over those draws: :func:`delta_level` scores the batch with one
``loglik`` and one ``score_x`` call, each row carrying its pair's outcome,
and one :func:`ratio_grad` call forms, by segment reductions, the ratio and
log normaliser of every level-0 batch and of both halves of every other
batch.  A split batch's level difference is then a closed form in its two
half ratios and log normalisers (see :func:`delta_level`); the full-batch
ratio is never formed.  A call for K replicate gradients draws the same three
blocks once for all K replicates, on any backend and likelihood: K * B
outcomes, then K * B * R levels, then the rows of every pair, which one
:func:`delta_level` pass scores.  The replicates are iid, so their law does
not depend on K; but their numbers are not those of K successive
one-replicate calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .._fields import Checked, Count, Positive, Size, _Bound
from ..bayes.likelihoods import _sample_categorical, logsumexp, normal_logpdf, normal_sample
from ..exceptions import DegenerateLikelihoodError, NonFiniteGradientError
from .feasible import FeasibleSet
from .trace import AttackTrace


@dataclass(frozen=True)
class NormalAppd(Checked):
    """Gaussian adversarial predictive target N(mean, var)."""

    mean: float
    var: Positive

    def sample(self, size, rng):
        return normal_sample(self.mean, self.var, size, rng)

    def logpdf(self, y):
        return normal_logpdf(np.asarray(y, dtype=float), self.mean, self.var)


@dataclass(frozen=True)
class CategoricalAppd:
    """Categorical adversarial predictive target over class labels."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or not np.all(probs >= 0) or not abs(probs.sum() - 1.0) <= 1e-9:
            raise ValueError("probs must be a 1-D probability vector summing to 1")
        object.__setattr__(self, "probs", probs)

    def sample(self, size, rng):
        return _sample_categorical(np.broadcast_to(self.probs, (size, self.probs.size)), rng)

    def logpdf(self, y):
        y = np.asarray(y).astype(int)
        with np.errstate(divide="ignore"):
            return np.log(self.probs)[y]


@dataclass(frozen=True)
class MlmcConfig(Checked):
    """Settings for the multilevel gradient and its attack loop.

    ``M0`` is the base batch size, level ``l`` uses ``M0 * 2^l`` draws, the
    randomised level is drawn with probability proportional to ``2^(-tau*l)``
    (``tau > 1`` so the expected cost is finite), ``R`` levels are averaged per
    predictive outcome, and ``B`` outcomes are drawn from the target per
    iteration.  ``Lmax`` caps the level range with renormalised weights; set
    ``untruncated=True`` for the uncapped geometric law (guarded by
    ``max_level_draws``).  ``level_weights`` holds the probabilities of
    levels 0..Lmax under the truncated, renormalised law (read-only).
    """

    feasible: FeasibleSet
    eta: Positive = 0.05
    T: Count = 300
    M0: Count = 8
    tau: Annotated[float, _Bound(">", 1)] = 1.5
    R: Count = 2
    Lmax: Size = 6
    B: Count = 1
    untruncated: bool = False
    eta_decay: bool = False
    record_objective: bool = True
    obj_draws: Count = 64
    max_level_draws: Count = 1 << 22

    def validate(self):
        if self.M0 % 2 != 0:
            raise ValueError("M0 must be even so batches can be halved antithetically")
        w = 2.0 ** (-self.tau * np.arange(self.Lmax + 1))
        w /= w.sum()
        # Normalised as Generator.choice(p=w) normalises it: searching it with
        # one rng.random() gives the level rng.choice would, from the same stream.
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        w.flags.writeable = cdf.flags.writeable = False
        object.__setattr__(self, "level_weights", w)
        object.__setattr__(self, "_level_cdf", cdf)


def _sample_level(config, rng, count):
    """``count`` iid levels and their probabilities from one generator call: the
    levels ``count`` calls of ``rng.choice(p=level_weights)`` would give, or
    ``count`` geometric draws for the untruncated law."""
    if config.untruncated:
        q = 2.0 ** (-config.tau)
        levels = rng.geometric(1.0 - q, size=count) - 1
        top = int(levels.max())
        if config.M0 << top > config.max_level_draws:
            raise RuntimeError("level %d needs %d draws, above the max_level_draws guard"
                               % (top, config.M0 << top))
        return levels, (1.0 - q) * q**levels
    levels = config._level_cdf.searchsorted(rng.random(count), side="right")
    return levels, config.level_weights[levels]


def ratio_grad(loglik, scores, starts):
    """Plug-in ratio estimates of -grad_x log predictive density, one per segment.

    Rows ``starts[i]`` up to ``starts[i + 1]`` (the last segment runs to the
    end) hold the log-likelihoods ``loglik`` and covariate scores ``scores``
    of one batch of posterior draws at one outcome.  Each estimate shares its
    batch between numerator and denominator:

        - sum_m pi(y | x, gamma_m) * score_x_m / sum_m pi(y | x, gamma_m)

    computed with the likelihoods factored by the segment's maximum log scale:
    the largest weight is then exactly 1, so the denominator is at least 1.
    Each estimate carries an O(1/M) bias at batch size M; the multilevel
    combination removes it.  Returns ``(ratios, lognorm)``: the estimates,
    shape ``(len(starts), dim)``, and each segment's log normaliser
    ``log sum_m pi(y | x, gamma_m)``, shape ``(len(starts),)``.
    """
    lmax = np.maximum.reduceat(loglik, starts)
    if not np.all(np.isfinite(lmax)):
        raise DegenerateLikelihoodError(
            "all likelihood values are zero (or non-finite) for this outcome"
        )
    w = np.exp(loglik - np.repeat(lmax, np.diff(starts, append=loglik.size)))
    total = np.add.reduceat(w, starts)
    return -np.add.reduceat(w[:, None] * scores, starts) / total[:, None], lmax + np.log(total)


def delta_level(model, x, ys, levels, draws, config):
    """Antithetic level differences of the ratio estimator, one row per pair.

    Pair ``i`` owns outcome ``ys[i]`` and the next ``M0 * 2^levels[i]`` rows
    of ``draws``, pairs in order.  Level 0 gives the plain ratio on its rows.
    Level l >= 1 gives the full-batch ratio minus the average of the two
    half-batch ratios (first half / second half), whose expectation telescopes
    to the bias removed between consecutive batch sizes.  The full-batch
    ratio is the normaliser-weighted mean of the half ratios r1, r2, so with
    half log normalisers L1, L2 that difference is

        (r2 - r1) / 2 * tanh((L2 - L1) / 2),

    which one :func:`ratio_grad` pass over the halves gives, without the
    cancellation of subtracting two nearly equal ratios.  All pairs are
    scored by one ``loglik`` and one ``score_x`` call on ``draws``.
    """
    levels = np.asarray(levels, dtype=int)
    if np.any(levels < 0):
        raise ValueError("level must be nonnegative")
    sizes = config.M0 << levels
    if sizes.sum() != len(draws):
        raise ValueError("the levels need %d draws, got %d" % (sizes.sum(), len(draws)))
    y_rows = np.repeat(ys, sizes)
    ll = model.loglik(x, y_rows, draws)
    scores = model.score_x(x, y_rows, draws)
    # Level-0 pairs stay one segment and the others split at their midpoint.
    # The pass checks every segment, so a degenerate half raises even when
    # its full batch is finite.
    split = levels > 0
    parts = 1 + split
    segments = np.repeat(sizes // parts, parts)
    ratios, lognorm = ratio_grad(ll, scores, np.cumsum(segments) - segments)
    first = np.cumsum(parts) - parts
    delta = ratios[first]
    h = first[split]
    delta[split] = (0.5 * (ratios[h + 1] - ratios[h])
                    * np.tanh(0.5 * (lognorm[h + 1] - lognorm[h]))[:, None])
    return delta


def mlmc_grad(model, x, appd, config, backend, rng, replicates=1):
    """Randomised multilevel estimates of the cross-entropy gradient at ``x``.

    Each estimate averages ``R`` single-level draws ``delta_level / P(level)``
    per predictive outcome and ``B`` outcomes sampled from the adversarial
    target.  The ``replicates`` estimates draw their randomness in three
    blocks, in this order: all ``replicates * B`` outcomes, all
    ``replicates * B * R`` levels in one call, and one posterior batch for
    all pairs; one :func:`delta_level` call then scores them all.  Returns
    ``(grads, levels, draws)``: the gradients, shape ``(replicates, dim)``,
    the level of each (outcome, repeat) pair in draw order, and the number of
    posterior draws consumed.
    """
    ys = np.atleast_1d(appd.sample(replicates * config.B, rng))
    levels, probs = _sample_level(config, rng, replicates * config.B * config.R)
    draws = backend.draw(int((config.M0 << levels).sum()), rng)
    deltas = delta_level(model, x, np.repeat(ys, config.R), levels, draws, config)
    terms = (deltas / probs[:, None]).reshape(replicates, config.B, config.R, -1)
    grads = (terms.sum(axis=2) / config.R).sum(axis=1) / config.B
    return grads, levels.tolist(), len(draws)


def expected_samples_per_iter(config: MlmcConfig):
    """Expected posterior draws per attack iteration under the config's level law.

    Untruncated geometric law: ``B * R * M0 * (1 - 2^-tau) / (1 - 2^-(tau-1))``.
    Truncated law: the exact finite sum ``B * R * sum_l w_l * M0 * 2^l`` with
    the renormalised weights.
    """
    if config.untruncated:
        q = 2.0 ** (-config.tau)
        per_level = config.M0 * (1.0 - q) / (1.0 - 2.0 * q)
    else:
        per_level = float(config.level_weights @ (config.M0 * 2.0 ** np.arange(config.Lmax + 1)))
    return config.B * config.R * per_level


def simulate_sample_cost(config: MlmcConfig, iters, rng):
    """Empirical mean posterior-draw count per iteration over simulated level draws.

    Exercises the same level-sampling path as :func:`mlmc_grad` without
    evaluating any gradients.
    """
    levels, _ = _sample_level(config, rng, int(iters) * config.B * config.R)
    return float((config.M0 << levels).sum()) / float(iters)


def _objective_estimate(model, x, ys, config, backend, rng):
    # Diagnostic plug-in cross entropy: -mean_y log( mean_m pi(y | x, gamma_m) ),
    # every (outcome, draw) pair scored by one loglik call.
    draws = backend.draw(config.obj_draws, rng)
    m = len(draws)
    ll = model.loglik(x, np.repeat(ys, m), type(draws).concat([draws] * len(ys)))
    return -float((logsumexp(ll.reshape(len(ys), m), axis=1) - np.log(m)).mean())


def run_ppd_attack(model, appd, config, backend, rng) -> AttackTrace:
    """Projected SGD on the cross-entropy objective with multilevel gradients.

    The trace records, per iteration, a Monte-Carlo estimate of
    ``-E_{pi_A}[log predictive density]`` at the point the step starts from,
    the levels drawn, and the posterior draws consumed by the gradient.
    ``final_residual`` is one more estimate, at ``final_x``, drawn after the
    last step.  With ``record_objective`` off, every estimate is NaN.
    """
    def objective(x):
        if not config.record_objective:
            return np.nan
        ys = np.atleast_1d(appd.sample(max(config.B, 8), rng))
        return _objective_estimate(model, x, ys, config, backend, rng)

    x = config.feasible.center.astype(float).copy()
    iterates = [x.copy()]
    objectives = np.empty(config.T)
    levels_used = []
    sample_cost = []
    for t in range(1, config.T + 1):
        grads, levels, cost = mlmc_grad(model, x, appd, config, backend, rng)
        grad = grads[0]
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradientError(
                "non-finite multilevel gradient at iteration %d" % t, iteration=t, x=x.copy()
            )
        objectives[t - 1] = objective(x)
        levels_used.append(levels)
        sample_cost.append(cost)
        step = config.eta / np.sqrt(t) if config.eta_decay else config.eta
        x = config.feasible.project(x - step * grad)
        iterates.append(x.copy())
    return AttackTrace(
        iterates=np.asarray(iterates),
        objectives=objectives,
        final_x=x,
        final_residual=objective(x),
        levels_used=levels_used,
        sample_cost=sample_cost,
    )
