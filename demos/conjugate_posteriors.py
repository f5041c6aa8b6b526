"""Conjugate Bayesian linear regression: posteriors and predictive laws.

Fits the two conjugate models the attack library targets -- unknown-variance
normal--inverse-gamma and known-variance Gaussian -- on the same synthetic
data, and prints how the posterior and the posterior predictive behave as the
sample grows: contraction of the coefficient posterior, the Student-t
predictive converging to a Gaussian, and the ridge-regression reading of the
posterior mean.
"""

import numpy as np

from ppdattack.bayes.conjugate import (
    NigPrior,
    gaussian_update,
    nig_update,
    ppd_t_params,
    spd_solve,
)
from ppdattack.harness.data import gen_synthetic

BETA = np.array([-1.0, 2.0])
SIGMA2 = 1.0


def main():
    rng = np.random.default_rng(np.random.SeedSequence((100, 0)))
    data = gen_synthetic(4000, BETA, SIGMA2, rng)
    x_probe = np.array([0.5, 0.5])

    print("true coefficients %s, noise variance %g" % (BETA, SIGMA2))
    print()
    print("%6s  %-22s  %-12s  %-28s" % ("n", "posterior mean", "t df", "predictive at (0.5, 0.5)"))
    for n in (0, 2, 10, 100, 1000, 4000):
        prior = NigPrior(np.zeros(2), np.eye(2), a0=2.0, b0=2.0)
        post = nig_update(prior, data.X[:n], data.y[:n])
        t = ppd_t_params(post, x_probe)
        print("%6d  %-22s  df=%-9.1f  loc=%8.4f  scale^2=%7.4f"
              % (n, np.round(post.mu_n, 4), t.df, t.loc, t.scale))

    print()
    print("known-variance posterior on the full data:")
    post_g = gaussian_update(np.zeros(2), np.eye(2), SIGMA2, data.X, data.y)
    m, v = post_g.predictive_moments(x_probe)
    print("  mu_n = %s" % np.round(post_g.mu_n, 4))
    print("  predictive at probe: N(%.4f, %.4f)  (noise floor %.1f)" % (m, v, SIGMA2))

    # the posterior mean solves the ridge problem (X^T X + c I) b = X^T y
    c = 1.0  # prior precision
    ridge = spd_solve(data.X.T @ data.X + c * SIGMA2 * np.eye(2), data.X.T @ data.y)
    print()
    print("ridge solution with matched penalty: %s" % np.round(ridge, 6))
    print("posterior mean:                      %s" % np.round(post_g.mu_n, 6))
    print("max difference: %.2e" % np.max(np.abs(ridge - post_g.mu_n)))


if __name__ == "__main__":
    main()
