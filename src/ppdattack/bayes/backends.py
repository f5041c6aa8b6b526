"""Posterior draw backends: exact conjugate sampling, stored banks, and MCMC.

All backends expose ``draw(count, rng) -> DrawBatch`` and are deterministic
given the generator state, so a fixed seed reproduces draw sequences
bit-identically.  From a list of K generators, one per attack instance, the
``count`` rows come in K equal blocks, block k as ``draw(count // K, rng[k])``.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.random import Generator

from .conjugate import GaussianPosterior, NigPosterior
from .draws import DrawBatch, _by_instance, _check_draws


class ExactConjugate:
    """iid draws from a conjugate posterior.

    For a normal--inverse-gamma posterior the noise variance is drawn from its
    inverse-gamma marginal and the coefficients from the conditional normal
    ``N(mu_n, sigma^2 inv(Lambda_n))``.  For a known-variance Gaussian
    posterior the coefficients are ``N(mu_n, inv(Lambda_n))`` with ``phi``
    pinned at the known ``sigma2``.  From a list of generators each draws its
    normals, then its gammas (a generator listed twice draws both blocks'
    normals first), and takes its own product with the factor, as alone: one
    product over all blocks rounds one-row blocks differently.
    """

    def __init__(self, posterior):
        if not isinstance(posterior, (NigPosterior, GaussianPosterior)):
            raise TypeError("posterior must be NigPosterior or GaussianPosterior")
        self.posterior = posterior
        self._nig = isinstance(posterior, NigPosterior)
        # Transposed lower factor of inv(Lambda_n), so a draw is mu_n + z @ chol_t.
        self._chol_t = posterior.cov_chol().T
        # A finite mean and factor and a positive noise scale make every
        # known-variance draw valid, so that branch of ``draw`` checks nothing.
        _check_draws(np.vstack([posterior.mu_n, self._chol_t]),
                     posterior.b_n if self._nig else posterior.sigma2)

    def _scaled_normals(self, rng, size):
        return rng.standard_normal((size, self.posterior.p)) @ self._chol_t

    def draw(self, count, rng):
        if count < 1:
            raise ValueError("count must be >= 1")
        post = self.posterior
        zc = _by_instance(rng, self._scaled_normals, count)
        if self._nig:
            # InvGamma(a, b): reciprocal of Gamma(shape=a, scale=1/b).  For a
            # small shape a the gamma draw underflows and phi overflows to inf,
            # which ``_check_draws`` rejects with a ValueError, not a warning.
            with np.errstate(divide="ignore", over="ignore"):
                phi = 1.0 / _by_instance(rng, Generator.gamma, count, post.a_n, 1.0 / post.b_n)
            beta = post.mu_n + np.sqrt(phi)[:, None] * zc
            _check_draws(beta, phi)
        else:
            phi = np.full(count, post.sigma2)
            beta = post.mu_n + zc
        return DrawBatch(beta, phi)


class SampleBank:
    """Resample stored draws with replacement to approximate iid posterior draws.

    When the bank holds states of a correlated chain this is only an
    approximation to independent sampling; the resampled draws inherit
    whatever autocorrelation structure survives in the bank.
    """

    def __init__(self, batch: DrawBatch):
        if len(batch) == 0:
            raise ValueError("sample bank must be non-empty")
        _check_draws(batch.beta, batch.phi)
        self.batch = batch

    def __len__(self):
        return len(self.batch)

    def draw(self, count, rng):
        if count < 1:
            raise ValueError("count must be >= 1")
        idx = _by_instance(rng, Generator.integers, count, 0, len(self.batch))
        return DrawBatch(self.batch.beta.take(idx, axis=0), self.batch.phi.take(idx))


# Proposals scored per ``log_post`` call, and steps of randomness drawn per
# block (a 1024 x dim block of normals and 1024 uniforms).
_PREFETCH = 6
_BLOCK = 1024


def _log_posts(log_post, states):
    lps = np.asarray(log_post(states), dtype=float)
    if lps.shape != (len(states),):
        raise ValueError("log_post must map (k, dim) states to shape (k,), got %s for k = %d"
                         % (lps.shape, len(states)))
    return lps


def adaptive_rwm(log_post, x0, n_keep, rng, step=0.5, burn_in=1000, thin=5,
                 target_accept=0.3):
    """Adaptive random-walk Metropolis sampler with prefetched proposals.

    The global proposal scale is adapted during burn-in by Robbins--Monro
    updates towards ``target_accept``; it is frozen afterwards so the kept
    states target the exact posterior.

    ``log_post`` is batched: it maps a (k, dim) array of states to k
    unnormalised log posteriors, and any other shape raises ``ValueError``.
    Each step draws ``standard_normal(dim)``
    and then ``random()`` whatever the chain does, so the stream is drawn
    ahead in that order, in blocks of at most 1024 steps.  From the current
    state the next ``_PREFETCH`` proposals are formed as if each were
    rejected (during burn-in their scales shrink by the rejection updates)
    and scored in one ``log_post`` call (Brockwell 2006); the chain walks
    them to the first acceptance and starts the next batch there.  Each
    proposal is formed by the same operations as in a one-at-a-time loop,
    and the values feed only ``log(u) < lp' - lp``, so the states,
    acceptance rate and final generator state are those of that loop with a
    log posterior that gives each row's value.

    Returns
    -------
    states : ndarray, shape (n_keep, dim)
    accept_rate : float
        Post-burn-in acceptance rate.
    """
    if burn_in < 0 or thin < 1 or n_keep < 1:
        raise ValueError("need burn_in >= 0, thin >= 1, n_keep >= 1")
    if not (np.isfinite(step) and step > 0):
        raise ValueError("step must be finite and positive")
    if not 0.0 < target_accept < 1.0:
        raise ValueError("target_accept must lie in (0, 1)")
    x = np.asarray(x0, dtype=float).copy()
    dim = x.size
    lp = float(_log_posts(log_post, x[None])[0])
    if not np.isfinite(lp):
        raise ValueError("log posterior is not finite at the initial state")
    scale = float(step)
    states = np.empty((n_keep, dim))
    kept = 0
    accepted_post = 0
    keep_at = burn_in + thin - 1  # the next step whose state is kept
    total = burn_in + n_keep * thin
    for start in range(0, total, _BLOCK):
        z = np.empty((min(_BLOCK, total - start), dim))
        u = np.empty(len(z))
        for i, z_i in enumerate(z):
            rng.standard_normal(out=z_i)
            u[i] = rng.random()
        log_u = np.log(u)  # numpy's log takes one kernel for arrays and scalars
        i = 0
        while i < len(z):
            t = start + i
            k = min(_PREFETCH, len(z) - i)
            if t < burn_in:
                # The scale at each step if every proposal before it is rejected.
                scales = np.empty(k)
                for j in range(k):
                    scales[j] = scale
                    if t + j < burn_in:
                        scale *= np.exp((t + j + 1.0) ** -0.6 * (0.0 - target_accept))
                props = x + scales[:, None] * z[i:i + k]
            else:
                props = x + scale * z[i:i + k]
            lps = _log_posts(log_post, props)
            accept = log_u[i:i + k] < lps - lp
            j = int(accept.argmax())
            if accept[j]:
                a = t + j
                if t < burn_in:
                    scale = scales[j]
                if a < burn_in:
                    scale *= np.exp((a + 1.0) ** -0.6 * (1.0 - target_accept))
                else:
                    accepted_post += 1
                while keep_at < a:
                    states[kept] = x
                    kept += 1
                    keep_at += thin
                x, lp = props[j], float(lps[j])
                i += j + 1
            else:
                i += k
            while keep_at < start + i:
                states[kept] = x
                kept += 1
                keep_at += thin
    rate = accepted_post / (n_keep * thin)
    if not 0.05 <= rate <= 0.95:
        warnings.warn(
            "MCMC acceptance rate %.3f outside [0.05, 0.95] after adaptation; "
            "draws may mix poorly" % rate,
            RuntimeWarning,
        )
    return states, rate


class McmcChain:
    """Posterior draws via adaptive random-walk Metropolis on a log posterior.

    Each ``draw`` reruns the chain from ``initial``, burn-in included, and
    returns the kept states as ``beta`` with ``phi = 1`` (classifiers have no
    free noise scale).  To resample one run cheaply, freeze it with
    ``SampleBank(chain.draw(n, rng))``.  From K generators it runs one chain
    each and joins them; ``last_accept_rate`` is then the last chain's.

    Parameters
    ----------
    log_post : callable
        Batched unnormalised log posterior: maps a (k, dim) array of
        parameter vectors to k values (see ``adaptive_rwm``).
    initial : ndarray
        Chain starting state.
    step, burn_in, thin, target_accept
        Sampler settings; the proposal scale adapts during burn-in only.
    """

    def __init__(self, log_post, initial, step=0.5, burn_in=1000, thin=5,
                 target_accept=0.3):
        self.log_post = log_post
        self.initial = np.asarray(initial, dtype=float)
        self.step = float(step)
        self.burn_in = int(burn_in)
        self.thin = int(thin)
        self.target_accept = float(target_accept)
        self.last_accept_rate = None

    def draw(self, count, rng):
        return DrawBatch(_by_instance(rng, self._run, count), 1.0)

    def _run(self, rng, size):
        states, self.last_accept_rate = adaptive_rwm(
            self.log_post, self.initial, size, rng,
            step=self.step, burn_in=self.burn_in, thin=self.thin,
            target_accept=self.target_accept,
        )
        return states
