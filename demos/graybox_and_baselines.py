"""Partial knowledge and cheap baselines: what the attacker loses.

Three comparisons on the synthetic regression testbed:

1. gray box vs white box -- an attacker who only has a 10-observation
   surrogate posterior lands measurably farther from its target than one
   holding the defender's own posterior, averaged over 20 seeds;
2. sign-step baseline vs full optimization -- one projected sign step gets a
   surprising share of the way there at small budgets;
3. L1 vs L2 geometry -- the same attack under an L1 ball zeroes most
   perturbation coordinates, under an L2 ball it touches all of them.
"""

import numpy as np

from ppdattack.analytic import analytic_point_l2
from ppdattack.attacks.baselines import fgsm_like
from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.functionals import response_functional
from ppdattack.attacks.point import PointAttackProblem, grad_J, run_point_attack
from ppdattack.bayes.backends import ExactConjugate
from ppdattack.bayes.conjugate import gaussian_update
from ppdattack.bayes.likelihoods import GaussianLinear
from ppdattack.harness.data import gen_synthetic
from ppdattack.harness.sep import compare_graybox_residuals, compare_norm_sparsity


def graybox_comparison():
    print("1. gray box vs white box (20 seeds, surrogate fit on 10 points)")
    rows = compare_graybox_residuals(range(20))
    for eps in (0.3, 0.5):
        white = np.array([r["residual_white"] for r in rows if r["epsilon"] == eps])
        gray = np.array([r["residual_gray"] for r in rows if r["epsilon"] == eps])
        gaps = gray - white
        se = gaps.std(ddof=1) / np.sqrt(gaps.size)
        print("   eps=%.1f: white %.4f, gray %.4f, paired gap %.4f +/- %.4f"
              % (eps, white.mean(), gray.mean(), gaps.mean(), se))


def sign_step_comparison():
    print()
    print("2. one sign step vs full optimization vs closed form")
    rng = np.random.default_rng(np.random.SeedSequence((102, 0)))
    data = gen_synthetic(1000, (-1.0, 2.0), 1.0, rng)
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, data.X, data.y)
    backend = ExactConjugate(post)
    mu = post.mu_n
    x0 = (-0.5 / float(mu @ mu)) * mu
    target = 3.0
    print("   %6s  %12s  %12s  %12s" % ("eps", "closed form", "sgd", "sign step"))
    for eps in (0.1, 0.3, 0.5):
        feasible = FeasibleSet(center=x0, epsilon=eps, norm="l2")
        prob = PointAttackProblem(
            g=response_functional(), g_star=np.array([target]),
            model=GaussianLinear(2), feasible=feasible,
            eta=0.05, T=500, N=64, M=64, eta_decay=True)
        rng_s = np.random.default_rng(np.random.SeedSequence((102, 1, int(10 * eps))))
        x_sgd = run_point_attack(prob, backend, rng_s).final_x
        g = grad_J(prob, x0, backend, rng_s)[0]
        x_sign = fgsm_like(x0, g, eps, norm="l2")
        exact = analytic_point_l2(mu, x0, target, eps)
        print("   %6.2f  %12.4f  %12.4f  %12.4f"
              % (eps, abs(exact.residual), abs(mu @ x_sgd - target),
                 abs(mu @ x_sign - target)))


def sparsity_comparison():
    print()
    print("3. zeroed perturbation coordinates out of 8 (|delta| < 1e-6)")
    rows = compare_norm_sparsity(range(5))
    print("   %6s  %10s  %10s" % ("seed", "L1 ball", "L2 ball"))
    for r in rows:
        print("   %6d  %10d  %10d" % (r["seed"], r["zeros_l1"], r["zeros_l2"]))


def main():
    graybox_comparison()
    sign_step_comparison()
    sparsity_comparison()


if __name__ == "__main__":
    main()
