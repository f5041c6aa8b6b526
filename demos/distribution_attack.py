"""Reshaping the whole predictive distribution with multilevel gradients.

On a 10-observation regression -- small enough that the posterior is wide and
the predictive is attackable -- the adversary asks for a predictive with four
times the clean variance at the attacked input.  The attack minimizes the
cross-entropy to that target with randomized multilevel gradient estimates;
progress is scored with the closed-form Gaussian KL.

A second pass contrasts covariate geometries at n=1000: when the covariates
are nearly collinear, the same budget buys a visibly larger KL reduction,
while under independent covariates the predictive variance barely moves.
"""

import numpy as np

from ppdattack.analytic import kl_normal_ppd
from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.ppd import MlmcConfig, NormalAppd, run_ppd_attack
from ppdattack.bayes.backends import ExactConjugate
from ppdattack.bayes.conjugate import gaussian_update
from ppdattack.bayes.likelihoods import GaussianLinear
from ppdattack.harness.config import AttackSpec, DatasetSpec, ExperimentConfig, ModelSpec
from ppdattack.harness.data import gen_synthetic
from ppdattack.harness.sep import run_sep


def small_data_attack():
    rng = np.random.default_rng(np.random.SeedSequence((101, 0)))
    data = gen_synthetic(10, (-1.0, 2.0), 1.0, rng)
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, data.X, data.y)
    backend = ExactConjugate(post)
    model = GaussianLinear(2)

    mu = post.mu_n
    x0 = (-0.5 / float(mu @ mu)) * mu
    m0, v0 = post.predictive_moments(x0)
    appd = NormalAppd(mean=m0, var=4.0 * v0)
    print("n=10 testbed: clean predictive N(%.3f, %.3f), target N(%.3f, %.3f)"
          % (m0, v0, appd.mean, appd.var))
    print()
    print("%6s  %12s  %12s  %10s" % ("eps", "KL to target", "pred var", "draws used"))
    print("%6.2f  %12.4f  %12.4f  %10s" % (0.0, kl_normal_ppd(appd, post, x0), v0, "-"))
    for eps in (0.5, 1.0, 2.0):
        cfg = MlmcConfig(
            feasible=FeasibleSet(center=x0, epsilon=eps, norm="l2"),
            eta=0.6, T=500, B=32, eta_decay=True, record_objective=False,
        )
        rng_attack = np.random.default_rng(np.random.SeedSequence((101, 1, int(10 * eps))))
        trace = run_ppd_attack(model, appd, cfg, backend, rng_attack)
        _, v = post.predictive_moments(trace.final_x)
        print("%6.2f  %12.4f  %12.4f  %10d"
              % (eps, kl_normal_ppd(appd, post, trace.final_x), v,
                 trace.total_sample_cost()))


def collinearity_contrast():
    print()
    print("covariate geometry at n=1000, eps=2"
          " (multistart KL benchmark: random starts, may stop short):")
    for mode in ("independent", "correlated"):
        cfg = ExperimentConfig(
            seed=41,
            dataset=DatasetSpec(n=1000, mode=mode),
            model=ModelSpec(),
            attack=AttackSpec(type="ppd", eps_grid=(0.0, 2.0), repeats=1,
                              strategies=("analytic",), x0_mode="clean_mean",
                              metric_mode="exact", appd_var_factor=4.0),
        )
        cell = {(r.epsilon, r.metric): r.value for r in run_sep(cfg).records}
        reduction = cell[(0.0, "kl-to-appd")] - cell[(2.0, "kl-to-appd")]
        var_change = 100.0 * abs(cell[(2.0, "pred-var")] / cell[(0.0, "pred-var")] - 1.0)
        print("  %-12s  KL reduction %.4f   predictive variance change %5.2f%%"
              % (mode, reduction, var_change))


def main():
    small_data_attack()
    collinearity_contrast()


if __name__ == "__main__":
    main()
