"""Sequential random-walk Metropolis: one proposal and one scalar log
posterior per step.

This is the sampler loop ``adaptive_rwm`` ran before it scored proposals in
batches.  Tests hold the library sampler to it exactly: same states,
acceptance rate, warnings and final generator state.
"""

import warnings

import numpy as np


def sequential_rwm(log_post, x0, n_keep, rng, step=0.5, burn_in=1000, thin=5,
                   target_accept=0.3):
    """``adaptive_rwm`` with a scalar ``log_post``: a state maps to one value."""
    x = np.asarray(x0, dtype=float).copy()
    dim = x.size
    lp = float(log_post(x))
    scale = float(step)
    states = np.empty((n_keep, dim))
    kept = 0
    accepted_post = 0
    total_post = 0
    total = burn_in + n_keep * thin
    for t in range(total):
        prop = x + scale * rng.standard_normal(dim)
        lp_prop = float(log_post(prop))
        accept = np.log(rng.random()) < lp_prop - lp
        if accept:
            x, lp = prop, lp_prop
        if t < burn_in:
            gain = (t + 1.0) ** -0.6
            scale *= np.exp(gain * ((1.0 if accept else 0.0) - target_accept))
        else:
            total_post += 1
            accepted_post += int(accept)
            if (t - burn_in) % thin == thin - 1:
                states[kept] = x
                kept += 1
    rate = accepted_post / max(total_post, 1)
    if not 0.05 <= rate <= 0.95:
        warnings.warn(
            "MCMC acceptance rate %.3f outside [0.05, 0.95] after adaptation; "
            "draws may mix poorly" % rate,
            RuntimeWarning,
        )
    return states, rate
