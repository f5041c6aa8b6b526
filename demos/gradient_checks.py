"""Validating the stochastic gradients against closed-form oracles.

Every gradient the attack loops consume has an analytic counterpart on the
conjugate Gaussian testbed.  This demo replicates each estimator a few
thousand times, z-tests the replicate means against the oracles, and shows
why the product estimator needs two independent batches: feeding both factors
from one shared batch (the negative control) produces a bias the same test
flags immediately.
"""

import numpy as np

from ppdattack.harness.config import GradCheckSpec, MlmcSpec
from ppdattack.harness.gradcheck import validate_gradients


def main():
    # library defaults: 10^4 replicates, shared control batch of 4; the
    # control bias scales like 1/batch so detection needs the full replicate
    # budget to stand clear of the threshold
    spec = GradCheckSpec(
        seed=0,
        replicates=10_000,
        N=64,
        M=64,
        control_batch=4,
        z_threshold=4.0,
        mlmc=MlmcSpec(M0=8, tau=1.5, R=2, Lmax=6, B=1),
    )
    report = validate_gradients(spec)

    print("replicates per estimator: %d, |z| threshold: %g" % (spec.replicates, spec.z_threshold))
    print()
    print("%-20s %-9s %5s  %12s  %12s  %8s  %s" % (
        "estimator", "role", "coord", "mean", "analytic", "z", "verdict"))
    for c in report.checks:
        verdict = "ok" if c.within_threshold else "FLAGGED"
        print("%-20s %-9s %5d  %12.6f  %12.6f  %8.2f  %s" % (
            c.estimator, c.role, c.coordinate, c.mean, c.analytic, c.z, verdict))

    print()
    print("positive estimators unbiased: %s" % report.positives_ok)
    print("shared-batch control flagged: %s" % report.control_detected)
    print("validation %s" % ("PASSED" if report.passed else "FAILED"))

    # the per-replicate spread also shows the variance gap between the score
    # and reparameterized routes to the same gradient; both read the same
    # joint samples, so the comparison is paired
    sd_score = report.samples["score"].std(axis=0, ddof=1)
    sd_rep = report.samples["reparam"].std(axis=0, ddof=1)
    print()
    print("per-replicate standard deviation, score route:          %s" % np.round(sd_score, 4))
    print("per-replicate standard deviation, reparameterized route: %s" % np.round(sd_rep, 4))


if __name__ == "__main__":
    main()
