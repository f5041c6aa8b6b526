"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the library on a frozen seed,
prints a single PASS/FAIL line with the measured statistics (run with ``-s``
to see the lines for passing tests), and asserts the stated tolerance.
Runtime budgets are asserted where a check is expected to stay cheap.
"""

import os
import time

import numpy as np
import pytest

from ppdattack.analytic import analytic_point_l2
from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.ppd import (
    MlmcConfig,
    delta_level,
    expected_samples_per_iter,
    ratio_grad,
    simulate_sample_cost,
)
from ppdattack.bayes.backends import ExactConjugate
from ppdattack.bayes.conjugate import gaussian_update
from ppdattack.bayes.likelihoods import GaussianLinear
from ppdattack.harness.config import (
    AttackSpec,
    DatasetSpec,
    EntropySpec,
    ExperimentConfig,
    GradCheckSpec,
    MlmcSpec,
    ModelSpec,
    OptimizerSpec,
)
from ppdattack.harness.data import gen_synthetic
from ppdattack.harness.entropy import entropy_experiment
from ppdattack.harness.gradcheck import validate_gradients
from ppdattack.harness.sep import (
    compare_graybox_residuals,
    compare_norm_sparsity,
    run_sep,
)


def report(number, name, ok, detail):
    line = "criterion %02d (%s): %s — %s" % (number, name, "PASS" if ok else "FAIL", detail)
    print(line)
    return line


def test_criterion_01_gradient_estimators_unbiased():
    start = time.monotonic()
    rep = validate_gradients(GradCheckSpec())  # 10^4 replicates, |z| <= 4
    elapsed = time.monotonic() - start
    max_z = max(abs(c.z) for c in rep.checks if c.role == "positive")
    ctrl_z = max(abs(c.z) for c in rep.checks if c.role == "control")
    ok = rep.passed and elapsed <= 120.0
    line = report(1, "gradient unbiasedness", ok,
                  "max positive |z| = %.2f, shared-batch control |z| = %.2f "
                  "(flagged: %s), %.1fs" % (max_z, ctrl_z, rep.control_detected, elapsed))
    assert ok, line


def test_criterion_02_stochastic_sweep_matches_analytic_curve():
    grid = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    start = time.monotonic()
    cfg = ExperimentConfig(
        seed=21, dataset=DatasetSpec(n=1000), model=ModelSpec(),
        attack=AttackSpec(type="point", eps_grid=grid, repeats=10,
                          strategies=("sgd",), x0_mode="clean_mean",
                          metric_mode="mc", n_eval=512,
                          optimizer=OptimizerSpec()))
    res = run_sep(cfg)
    elapsed = time.monotonic() - start
    mu = res.defender.posterior.mu_n
    x0 = res.instances[0]
    zs = []
    for eps in grid:
        vals = np.array([r.value for r in res.records
                         if r.strategy == "sgd" and r.epsilon == eps])
        exact = (mu @ x0 - 3.0) ** 2 if eps == 0.0 \
            else analytic_point_l2(mu, x0, 3.0, eps).residual ** 2
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        zs.append((vals.mean() - exact) / se)
    max_z = float(np.max(np.abs(zs)))
    ok = max_z <= 2.0 and elapsed <= 120.0  # measured 1.52 at this seed
    line = report(2, "sweep tracks analytic curve", ok,
                  "max |mean - exact| / SE over grid = %.2f (2.0 allowed), %.1fs"
                  % (max_z, elapsed))
    assert ok, line


def test_criterion_03_boundary_attacks_are_exact():
    rng = np.random.default_rng(np.random.SeedSequence((9, 3)))
    worst_residual = 0.0
    worst_norm_err = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        mu = rng.normal(size=dim)
        while np.linalg.norm(mu) < 1e-6:
            mu = rng.normal(size=dim)
        x = rng.normal(size=dim)
        eps = float(rng.uniform(0.01, 3.0))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        # put the target exactly at the reachable edge |alpha| = eps * ||mu||
        g_star = float(mu @ x) + sign * eps * float(np.linalg.norm(mu))
        sol = analytic_point_l2(mu, x, g_star, eps)
        worst_residual = max(worst_residual, abs(sol.residual))
        worst_norm_err = max(worst_norm_err,
                             abs(float(np.linalg.norm(sol.x_star - x)) - eps))
    ok = worst_residual <= 1e-9 and worst_norm_err <= 1e-12
    line = report(3, "boundary exactness", ok,
                  "worst residual %.2e (1e-9 allowed), worst ||r*|| error %.2e "
                  "(1e-12 allowed) over 1000 tuples" % (worst_residual, worst_norm_err))
    assert ok, line


def test_criterion_04_multilevel_sampling_cost():
    fs = FeasibleSet(np.zeros(2), 1.0, "l2")
    cfg_u = MlmcConfig(fs, M0=8, tau=2.0, R=2, B=1, untruncated=True)
    exact = expected_samples_per_iter(cfg_u)  # R*M0*(1-2^-tau)/(1-2^-(tau-1))
    cfg_t = MlmcConfig(fs, M0=8, tau=2.0, R=2, B=1, Lmax=6)
    want = expected_samples_per_iter(cfg_t)
    got = simulate_sample_cost(cfg_t, 10_000,
                               np.random.default_rng(np.random.SeedSequence((9, 6))))
    rel = abs(got - want) / want
    ok = exact == pytest.approx(24.0, abs=1e-12) and rel <= 0.02
    line = report(4, "multilevel cost", ok,
                  "closed form %.1f (want 24 exactly), simulated mean %.3f vs %.3f "
                  "(rel err %.4f, 0.02 allowed)" % (exact, got, want, rel))
    assert ok, line


def test_criterion_05_small_data_distribution_attack():
    grid = (0.0, 0.5, 1.0, 2.0)
    start = time.monotonic()
    cfg = ExperimentConfig(
        seed=31, dataset=DatasetSpec(n=10), model=ModelSpec(),
        attack=AttackSpec(type="ppd", eps_grid=grid, repeats=5,
                          strategies=("sgd",), x0_mode="clean_mean",
                          metric_mode="exact", appd_var_factor=4.0,
                          mlmc=MlmcSpec(eta=0.6, T=500, B=32, eta_decay=True)))
    res = run_sep(cfg)
    elapsed = time.monotonic() - start

    def cells(metric):
        out = []
        for eps in grid:
            vals = np.array([r.value for r in res.records
                             if r.metric == metric and r.epsilon == eps])
            se = vals.std(ddof=1) / np.sqrt(vals.size) if vals.size > 1 else 0.0
            out.append((vals.mean(), se))
        return out

    kl = cells("kl-to-appd")
    # strict decrease, significant at one pooled SE per consecutive pair
    # (measured gap/SE ratios 11.9 / 5.4 / 15.1 at this seed)
    decreasing = all(
        b_mean + np.hypot(a_se, b_se) < a_mean
        for (a_mean, a_se), (b_mean, b_se) in zip(kl, kl[1:])
    )
    var = cells("pred-var")
    var_up = var[-1][0] > var[0][0]  # measured 1.499 vs 1.008
    ok = decreasing and var_up and elapsed <= 300.0
    line = report(5, "small-data distribution attack", ok,
                  "KL to target %s decreasing=%s, variance %.3f -> %.3f, %.0fs"
                  % (np.round([m for m, _ in kl], 3).tolist(), decreasing,
                     var[0][0], var[-1][0], elapsed))
    assert ok, line


def test_criterion_06_collinearity_amplifies_the_attack():
    def run(mode):
        cfg = ExperimentConfig(
            seed=41, dataset=DatasetSpec(n=1000, mode=mode), model=ModelSpec(),
            attack=AttackSpec(type="ppd", eps_grid=(0.0, 2.0), repeats=1,
                              strategies=("analytic",), x0_mode="clean_mean",
                              metric_mode="exact", appd_var_factor=4.0))
        cell = {(r.epsilon, r.metric): r.value for r in run_sep(cfg).records}
        reduction = cell[(0.0, "kl-to-appd")] - cell[(2.0, "kl-to-appd")]
        var_change = abs(cell[(2.0, "pred-var")] / cell[(0.0, "pred-var")] - 1.0)
        return reduction, var_change

    red_ind, var_ind = run("independent")
    red_cor, _ = run("correlated")  # default mixing gives correlation 0.99
    ok = red_cor > red_ind and var_ind < 0.10
    line = report(6, "collinearity effect", ok,
                  "KL reduction correlated %.4f > independent %.4f, independent "
                  "variance change %.2f%% (<10%% required)"
                  % (red_cor, red_ind, 100 * var_ind))
    assert ok, line


def test_criterion_07_level_differences_telescope():
    rng0 = np.random.default_rng(np.random.SeedSequence((0, 555)))
    ds = gen_synthetic(1000, (-1.0, 2.0), 1.0, rng0)
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, ds.X, ds.y)
    backend = ExactConjugate(post)
    model = GaussianLinear(2)
    mu = post.mu_n
    x = (-0.5 / float(mu @ mu)) * mu
    cfg = MlmcConfig(FeasibleSet(x, 1.0, "l2"), M0=8, Lmax=2)
    y = 1.3
    rng = np.random.default_rng(np.random.SeedSequence((9, 7)))
    reps = 8000
    lhs = np.zeros(2)
    lhs_var = np.zeros(2)
    for level in range(3):
        d = np.array([delta_level(model, x, [y], [level], backend.draw(8 << level, rng), cfg)[0]
                      for _ in range(reps)])
        lhs += d.mean(axis=0)
        lhs_var += d.var(axis=0, ddof=1) / reps
    direct = []
    for _ in range(reps):
        draws = backend.draw(32, rng)
        direct.append(ratio_grad(model.loglik(x, y, draws), model.score_x(x, y, draws), [0])[0][0])
    direct = np.array(direct)
    joint_se = np.sqrt(lhs_var + direct.var(axis=0, ddof=1) / reps)
    z = (lhs - direct.mean(axis=0)) / joint_se
    ok = bool(np.all(np.abs(z) <= 3.0))  # measured (-0.07, 1.23)
    line = report(7, "telescoping identity", ok,
                  "sum of level means vs direct estimate: z = %s (3.0 allowed)"
                  % np.round(z, 2).tolist())
    assert ok, line


def test_criterion_08_entropy_attacks_on_the_toy_classifier():
    start = time.monotonic()
    res = entropy_experiment(EntropySpec())
    elapsed = time.monotonic() - start
    grid = res.eps_grid
    id_curve = [res.id_mean_entropy[e] for e in grid]
    ood_curve = [res.ood_mean_entropy[e] for e in grid]
    id_up = all(b > a for a, b in zip(id_curve, id_curve[1:]))
    ood_down = all(b < a for a, b in zip(ood_curve, ood_curve[1:]))
    near_ln_p = id_curve[-1] >= 0.9 * res.ln_p  # measured 1.072 vs bar 0.989
    clean_acc = res.selective[(grid[0], 0.5)]
    attacked_acc = res.selective[(grid[-1], 0.5)]
    drop = clean_acc - attacked_acc
    ok = id_up and ood_down and near_ln_p and drop > 0
    line = report(8, "predictive-entropy attacks", ok,
                  "ID entropy %s (monotone up, final >= %.3f), OOD %s (monotone "
                  "down), selective accuracy at 50%% retention %.2f -> %.2f "
                  "(drop %.2f), %.0fs"
                  % (np.round(id_curve, 3).tolist(), 0.9 * res.ln_p,
                     np.round(ood_curve, 3).tolist(), clean_acc, attacked_acc,
                     drop, elapsed))
    assert ok, line


def test_criterion_09_partial_knowledge_costs_the_attacker():
    rows = compare_graybox_residuals(range(20))
    detail = []
    ok = True
    for eps in (0.3, 0.5):
        gaps = np.array([r["residual_gray"] - r["residual_white"]
                         for r in rows if r["epsilon"] == eps])
        mean_gap = gaps.mean()
        se = gaps.std(ddof=1) / np.sqrt(gaps.size)
        ok = ok and mean_gap > 0  # strict: measured 0.0067 (3.9 SE), 0.0112 (4.1 SE)
        detail.append("eps %.1f gap %.4f (SE %.4f)" % (eps, mean_gap, se))
    line = report(9, "gray-box degradation", ok,
                  "gray minus white residual over 20 seeds: %s" % "; ".join(detail))
    assert ok, line


def test_criterion_10_l1_balls_zero_more_coordinates():
    rows = compare_norm_sparsity(range(10))
    wins = sum(r["zeros_l1"] > r["zeros_l2"] for r in rows)
    ok = wins == 10
    line = report(10, "L1 sparsity", ok,
                  "L1 zeroed more coordinates than L2 on %d/10 seeds (%s)"
                  % (wins, [(r["zeros_l1"], r["zeros_l2"]) for r in rows]))
    assert ok, line


def test_criterion_11_real_data_sweep():
    target = os.environ.get("PPDATTACK_REALDATA_CSV")
    if not target:
        pytest.skip("set PPDATTACK_REALDATA_CSV=path[:response_column] to run "
                    "the real-data sweep")
    path, _, response = target.rpartition(":")
    if not path or "/" in response or "\\" in response:
        path, response = target, "y"
    cfg = ExperimentConfig(
        seed=51,
        dataset=DatasetSpec(kind="csv", path=path, response=response,
                            split=0.7, standardize=True),
        model=ModelSpec(),
        attack=AttackSpec(type="point", eps_grid=(0.0, 0.2, 0.5), repeats=3,
                          strategies=("sgd",), x0_mode="test_sample", x0_count=5,
                          target_mode="times_mean_response", target=2.0,
                          metric_mode="mc"))
    res = run_sep(cfg)
    means = []
    for eps in (0.0, 0.2, 0.5):
        vals = [r.value for r in res.records
                if r.metric == "rmse-to-target" and r.epsilon == eps]
        means.append(float(np.mean(vals)))
    ok = means[0] > means[1] > means[2]
    line = report(11, "real-data attack direction", ok,
                  "RMSE to target across eps grid: %s" % np.round(means, 4).tolist())
    assert ok, line
