"""Distribution attacks: ratio gradients, multilevel telescoping, attack loop.

The known-variance conjugate testbed gives a closed form for the predictive
log density and hence for the ratio quantity the estimators target, letting
each piece be checked against an exact oracle: the plug-in ratio against
-grad log predictive, the level differences against their telescoping sum,
and the full multilevel estimator against the gradient of the closed-form
Gaussian KL.
"""

import numpy as np
import pytest
from scipy import stats

from ppdattack.analytic import kl_normal_ppd, kl_normal_ppd_grad
from ppdattack.attacks import ppd
from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.ppd import (
    CategoricalAppd,
    DegenerateLikelihoodError,
    MlmcConfig,
    NormalAppd,
    delta_level,
    expected_samples_per_iter,
    mlmc_grad,
    ratio_grad,
    run_ppd_attack,
    simulate_sample_cost,
)
from ppdattack.attacks.ppd import _sample_level
from ppdattack.bayes.backends import ExactConjugate, SampleBank
from ppdattack.bayes.conjugate import TPredictive, gaussian_update
from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.likelihoods import GaussianLinear
from ppdattack.exceptions import NonFiniteGradientError
from ppdattack.harness.data import gen_synthetic


@pytest.fixture(scope="module")
def testbed():
    rng = np.random.default_rng(np.random.SeedSequence((0, 555)))
    ds = gen_synthetic(1000, (-1.0, 2.0), 1.0, rng)
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, ds.X, ds.y)
    return post, ExactConjugate(post), GaussianLinear(2)


def clean_point(post):
    mu = post.mu_n
    return (-0.5 / (mu @ mu)) * mu


def neg_grad_log_ppd(post, x, y):
    # Predictive is N(m, v) with m = mu_n'x and v = x'inv(Lambda_n)x + sigma2;
    # differentiate -log density through both m and v.
    m, v = post.predictive_moments(x)
    grad_v = 2.0 * np.linalg.solve(post.lambda_n, x)
    return grad_v / (2.0 * v) - (y - m) * post.mu_n / v - (y - m) ** 2 * grad_v / (2.0 * v**2)


def config(x0, eps=1.0, **kw):
    return MlmcConfig(FeasibleSet(x0, eps, "l2"), **kw)


def plug_in(model, x, y, gammas):
    # The plug-in ratio on one batch at one outcome: a single segment.
    return ratio_grad(model.loglik(x, y, gammas), model.score_x(x, y, gammas), [0])[0][0]


def one_level(model, x, y, level, cfg, backend, rng):
    # One (outcome, level) pair's difference on its own fresh draws.
    return delta_level(model, x, [y], [level], backend.draw(cfg.M0 << level, rng), cfg)[0]


# ---------------------------------------------------------------------------
# adversarial target distributions
# ---------------------------------------------------------------------------

def test_appd_logpdfs_match_scipy():
    ys = np.linspace(-3.0, 5.0, 9)
    assert np.allclose(NormalAppd(1.0, 2.5).logpdf(ys),
                       stats.norm.logpdf(ys, 1.0, np.sqrt(2.5)))
    assert np.allclose(TPredictive(3.0, 1.0, 2.0).logpdf(ys),
                       stats.t.logpdf(ys, 3.0, 1.0, np.sqrt(2.0)))
    cat = CategoricalAppd(np.array([0.2, 0.5, 0.3]))
    assert np.allclose(cat.logpdf(np.array([0, 1, 2])), np.log([0.2, 0.5, 0.3]))


def test_appd_sampling_moments():
    rng = np.random.default_rng(1)
    ys = NormalAppd(-1.0, 4.0).sample(100_000, rng)
    assert abs(ys.mean() + 1.0) < 3.0 * 2.0 / np.sqrt(ys.size)
    cat = CategoricalAppd(np.array([0.7, 0.3]))
    ys = cat.sample(100_000, rng)
    assert abs(np.mean(ys == 0.0) - 0.7) < 0.01


def test_appd_validation():
    with pytest.raises(ValueError):
        NormalAppd(0.0, 0.0)
    with pytest.raises(ValueError):
        TPredictive(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        TPredictive(3.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        CategoricalAppd(np.array([0.5, 0.6]))


@pytest.mark.parametrize("make", [
    lambda: NormalAppd(0.0, np.nan),
    lambda: NormalAppd(np.nan, 1.0),
    lambda: NormalAppd(0.0, np.inf),
    lambda: CategoricalAppd(np.array([np.nan, np.nan])),
    lambda: MlmcConfig(FeasibleSet(np.zeros(2), 1.0), tau=np.inf),
    lambda: FeasibleSet(np.zeros(2), np.nan),
], ids=["appd-var-nan", "appd-mean-nan", "appd-var-inf", "categorical-nan", "tau-inf",
        "epsilon-nan"])
def test_non_finite_settings_are_rejected(make):
    # Each slips past a plain `<` or `>` test: an infinite tau makes every level
    # weight NaN, a NaN target or radius every gradient or projection.
    with pytest.raises(ValueError):
        make()


# ---------------------------------------------------------------------------
# ratio gradient
# ---------------------------------------------------------------------------

def test_ratio_single_draw_is_negative_score(testbed):
    post, _, model = testbed
    x = clean_point(post)
    gamma = DrawBatch(np.array([[0.3, -1.1]]), np.array([0.8]))
    out = plug_in(model, x, 0.7, gamma)
    score = model.score_x(x, 0.7, gamma)[0]
    assert np.array_equal(out, -score)


def test_ratio_constant_draws_independent_of_batch_size(testbed):
    post, _, model = testbed
    x = clean_point(post)
    row = np.array([0.3, -1.1])
    small = plug_in(model, x, 0.7, DrawBatch(np.tile(row, (2, 1)), 0.8))
    large = plug_in(model, x, 0.7, DrawBatch(np.tile(row, (64, 1)), 0.8))
    assert np.allclose(small, large, atol=1e-12)


def test_ratio_matches_closed_form_log_ppd_gradient(testbed):
    post, backend, model = testbed
    x = clean_point(post)
    y = 1.3
    oracle = neg_grad_log_ppd(post, x, y)
    rng = np.random.default_rng(71)
    reps = np.array([plug_in(model, x, y, backend.draw(256, rng))
                     for _ in range(10_000)])
    se = reps.std(axis=0, ddof=1) / np.sqrt(reps.shape[0])
    # The plug-in ratio carries O(1/M) bias; at M=256 it sits well inside the band.
    assert np.all(np.abs(reps.mean(axis=0) - oracle) <= 3.0 * se)


def test_ratio_degenerate_likelihood_raises(testbed):
    post, _, model = testbed
    x = clean_point(post)
    gamma = DrawBatch(np.array([[0.3, -1.1]]), np.array([1e-300]))
    with pytest.raises(DegenerateLikelihoodError):
        plug_in(model, x, 1e12, gamma)


# ---------------------------------------------------------------------------
# level differences
# ---------------------------------------------------------------------------

def test_level_zero_equals_ratio_on_same_seed(testbed):
    post, backend, model = testbed
    x = clean_point(post)
    cfg = config(x, M0=8)
    a = one_level(model, x, 1.3, 0, cfg, backend, np.random.default_rng(20))
    b = plug_in(model, x, 1.3, backend.draw(8, np.random.default_rng(20)))
    assert np.array_equal(a, b)


def test_identical_draws_cancel_exactly(testbed):
    post, _, model = testbed
    x = clean_point(post)
    bank = SampleBank(DrawBatch(np.array([[0.3, -1.1]]), np.array([0.8])))
    cfg = config(x, M0=8)
    for level in (1, 2, 3):
        d = one_level(model, x, 1.3, level, cfg, bank, np.random.default_rng(21))
        # Cancellation is exact up to summation rounding (the full batch and
        # its halves accumulate in different orders).
        assert np.allclose(d, 0.0, atol=1e-12), level


def test_level_mean_decays(testbed):
    post, backend, model = testbed
    x = clean_point(post)
    cfg = config(x, M0=8)
    rng = np.random.default_rng(72)
    norms, ses = [], []
    for level in range(4):
        d = np.array([one_level(model, x, 1.3, level, cfg, backend, rng)
                      for _ in range(5_000)])
        norms.append(np.linalg.norm(d.mean(axis=0)))
        ses.append(np.linalg.norm(d.std(axis=0, ddof=1)) / np.sqrt(d.shape[0]))
    for k in range(1, 4):
        assert norms[k] <= norms[k - 1] + 3.0 * (ses[k] + ses[k - 1]), norms


def test_telescoping_sum_matches_direct_estimate(testbed):
    # sum_{l<=Lmax} E[delta_l] telescopes to E[ratio at M0 * 2^Lmax].
    post, backend, model = testbed
    x = clean_point(post)
    cfg = config(x, M0=8, Lmax=2)
    rng = np.random.default_rng(75)
    y = 1.3
    lhs = np.zeros(2)
    lhs_var = np.zeros(2)
    for level in range(3):
        d = np.array([one_level(model, x, y, level, cfg, backend, rng)
                      for _ in range(8_000)])
        lhs += d.mean(axis=0)
        lhs_var += d.var(axis=0, ddof=1) / d.shape[0]
    direct = np.array([plug_in(model, x, y, backend.draw(32, rng))
                       for _ in range(8_000)])
    joint_se = np.sqrt(lhs_var + direct.var(axis=0, ddof=1) / direct.shape[0])
    assert np.all(np.abs(lhs - direct.mean(axis=0)) <= 3.0 * joint_se)


def test_negative_level_rejected(testbed):
    post, backend, model = testbed
    x = clean_point(post)
    with pytest.raises(ValueError):
        delta_level(model, x, [1.3], [-1], backend.draw(8, np.random.default_rng(0)), config(x))


# ---------------------------------------------------------------------------
# multilevel gradient
# ---------------------------------------------------------------------------

def test_mlmc_matches_closed_form_kl_gradient(testbed):
    post, backend, model = testbed
    x = clean_point(post)
    m0, v0 = post.predictive_moments(x)
    appd = NormalAppd(m0, 4.0 * v0)
    oracle = kl_normal_ppd_grad(appd, post, x)
    cfg = config(x, M0=8, tau=1.5, R=2, Lmax=6)
    rng = np.random.default_rng(73)
    reps = mlmc_grad(model, x, appd, cfg, backend, rng, 20_000)[0]
    se = reps.std(axis=0, ddof=1) / np.sqrt(reps.shape[0])
    assert np.all(np.abs(reps.mean(axis=0) - oracle) <= 3.0 * se)


def test_mlmc_mean_zero_at_stationary_point(testbed):
    post, backend, model = testbed
    x = clean_point(post)
    m0, v0 = post.predictive_moments(x)
    appd = NormalAppd(m0, v0)  # target equals the predictive at x
    assert kl_normal_ppd(appd, post, x) == 0.0
    cfg = config(x, M0=8)
    rng = np.random.default_rng(74)
    reps = mlmc_grad(model, x, appd, cfg, backend, rng, 5_000)[0]
    se = reps.std(axis=0, ddof=1) / np.sqrt(reps.shape[0])
    assert np.all(np.abs(reps.mean(axis=0)) <= 3.0 * se)


def test_single_level_degenerates_to_plugin_ratio(testbed):
    # Lmax=0 always draws level 0, so the estimator is the plain (biased)
    # plug-in ratio at M0 averaged over target outcomes.
    post, backend, model = testbed
    x = clean_point(post)
    m0, v0 = post.predictive_moments(x)
    appd = NormalAppd(m0, 4.0 * v0)
    cfg = config(x, M0=8, Lmax=0, R=1)
    rng = np.random.default_rng(76)
    mlmc = mlmc_grad(model, x, appd, cfg, backend, rng, 6_000)[0]
    rng = np.random.default_rng(77)
    plain = np.array([
        plug_in(model, x, appd.sample(1, rng)[0], backend.draw(8, rng))
        for _ in range(6_000)
    ])
    joint_se = np.sqrt(mlmc.var(axis=0, ddof=1) / mlmc.shape[0]
                       + plain.var(axis=0, ddof=1) / plain.shape[0])
    assert np.all(np.abs(mlmc.mean(axis=0) - plain.mean(axis=0)) <= 3.0 * joint_se)


# ---------------------------------------------------------------------------
# level law and expected cost
# ---------------------------------------------------------------------------

def test_expected_cost_formula_values(testbed):
    post, _, _ = testbed
    x = clean_point(post)
    cfg = config(x, M0=8, tau=2.0, R=2, untruncated=True)
    assert expected_samples_per_iter(cfg) == pytest.approx(24.0, abs=1e-12)
    cfg0 = config(x, M0=8, tau=2.0, R=2, Lmax=0)
    assert expected_samples_per_iter(cfg0) == pytest.approx(16.0, abs=1e-12)


def test_simulated_cost_within_two_percent(testbed):
    post, _, _ = testbed
    x = clean_point(post)
    cfg = config(x, M0=8, tau=1.5, R=2, Lmax=6)
    expected = expected_samples_per_iter(cfg)
    mean_cost = simulate_sample_cost(cfg, 10_000, np.random.default_rng(78))
    assert abs(mean_cost - expected) / expected < 0.02


def test_level_frequencies_chi_square(testbed):
    post, _, _ = testbed
    x = clean_point(post)
    cfg = config(x, M0=8, tau=1.5, R=2, Lmax=6)
    w = cfg.level_weights
    rng = np.random.default_rng(79)
    n = 100_000
    levels, probs = _sample_level(cfg, rng, n)
    counts = np.bincount(levels, minlength=cfg.Lmax + 1)
    assert np.array_equal(probs, w[levels])
    _, pval = stats.chisquare(counts, w * n)
    assert pval > 0.01


def test_untruncated_guard_trips(testbed):
    post, backend, model = testbed
    x = clean_point(post)
    m0, v0 = post.predictive_moments(x)
    appd = NormalAppd(m0, v0)
    cfg = config(x, M0=8, tau=1.5, untruncated=True, max_level_draws=8)
    rng = np.random.default_rng(80)
    with pytest.raises(RuntimeError):
        for _ in range(50):  # any level >= 1 exceeds the 8-draw guard
            mlmc_grad(model, x, appd, cfg, backend, rng)


def test_config_validation(testbed):
    post, _, _ = testbed
    x = clean_point(post)
    with pytest.raises(ValueError):
        config(x, tau=1.0)
    with pytest.raises(ValueError):
        config(x, M0=7)
    with pytest.raises(ValueError):
        config(x, Lmax=-1)
    with pytest.raises(ValueError):
        config(x, eta=0.0)


@pytest.mark.parametrize("field, message", [("tau", "MlmcConfig field 'tau' must be"),
                                            ("eta", "MlmcConfig field 'eta' must be")])
def test_config_rejects_nan(testbed, field, message):
    # NaN passes a `tau <= 1` or `eta <= 0` test; a NaN tau makes every level
    # weight NaN, and a NaN eta every step.
    post, _, _ = testbed
    with pytest.raises(ValueError, match=message):
        config(clean_point(post), **{field: np.nan})


# ---------------------------------------------------------------------------
# attack loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_posterior():
    rng = np.random.default_rng(np.random.SeedSequence((2, 10)))
    X = rng.standard_normal((10, 2))
    y = X @ np.array([-1.0, 2.0]) + rng.standard_normal(10)
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, X, y)
    return post, ExactConjugate(post), GaussianLinear(2)


def test_zero_epsilon_leaves_x_unchanged(small_posterior):
    post, backend, model = small_posterior
    x0 = clean_point(post)
    m0, v0 = post.predictive_moments(x0)
    cfg = config(x0, eps=0.0, T=10, record_objective=False)
    trace = run_ppd_attack(model, NormalAppd(m0, 4.0 * v0), cfg, backend,
                           np.random.default_rng(30))
    assert np.array_equal(trace.final_x, x0)


def test_attack_reduces_closed_form_kl(small_posterior):
    # A 10-observation posterior has enough epistemic slack for the attack to
    # move the predictive towards an inflated-variance target.
    post, backend, model = small_posterior
    x0 = clean_point(post)
    m0, v0 = post.predictive_moments(x0)
    appd = NormalAppd(m0, 4.0 * v0)
    kl_clean = kl_normal_ppd(appd, post, x0)
    for eps in (1.0, 2.0):
        cfg = MlmcConfig(FeasibleSet(x0, eps, "l2"), eta=0.6, T=150, B=16,
                         eta_decay=True, record_objective=False)
        trace = run_ppd_attack(model, appd, cfg, backend,
                               np.random.default_rng(np.random.SeedSequence((3, int(eps)))))
        kl_final = kl_normal_ppd(appd, post, trace.final_x)
        assert kl_final < kl_clean, eps


def test_trace_bookkeeping_and_feasibility(small_posterior):
    post, backend, model = small_posterior
    x0 = clean_point(post)
    m0, v0 = post.predictive_moments(x0)
    fs = FeasibleSet(x0, 0.5, "l2")
    cfg = MlmcConfig(fs, eta=0.5, T=40, B=2, R=2, eta_decay=True)
    trace = run_ppd_attack(model, NormalAppd(m0, 2.0 * v0), cfg, backend,
                           np.random.default_rng(31))
    assert trace.iterates.shape == (41, 2)
    assert all(fs.perturbation_norm(xt) <= 0.5 + 1e-9 for xt in trace.iterates)
    assert len(trace.levels_used) == 40
    assert len(trace.sample_cost) == 40
    # B*R level draws per iteration, each costing at least M0 draws.
    assert all(len(levels) == 4 for levels in trace.levels_used)
    assert all(cost >= 4 * cfg.M0 for cost in trace.sample_cost)
    assert np.all(np.isfinite(trace.objectives))
    # The plug-in cross entropy can never drop below the target's entropy
    # by more than estimation noise.
    entropy = 0.5 * np.log(2.0 * np.pi * np.e * 2.0 * v0)
    assert trace.objectives[-20:].mean() >= entropy - 0.15


def test_objective_recording_optional(small_posterior):
    post, backend, model = small_posterior
    x0 = clean_point(post)
    m0, v0 = post.predictive_moments(x0)
    cfg = config(x0, T=5, record_objective=False)
    trace = run_ppd_attack(model, NormalAppd(m0, v0), cfg, backend,
                           np.random.default_rng(32))
    assert np.all(np.isnan(trace.objectives))
    assert np.isnan(trace.final_residual)


def test_recording_the_objective_leaves_the_attack_unchanged(small_posterior):
    # The estimates draw from a child generator, so the attack's own stream,
    # and with it every step, is the same with recording on and off.
    post, backend, model = small_posterior
    x0 = clean_point(post)
    m0, v0 = post.predictive_moments(x0)
    on, off = (run_ppd_attack(model, NormalAppd(m0, 2.0 * v0),
                              config(x0, eps=0.5, T=8, B=2, record_objective=record), backend,
                              np.random.default_rng(35)) for record in (True, False))
    assert np.all(np.isfinite(on.objectives)) and np.isfinite(on.final_residual)
    assert np.array_equal(on.iterates, off.iterates)
    assert on.levels_used == off.levels_used and on.sample_cost == off.sample_cost


@pytest.mark.parametrize("record", [True, False])
def test_each_step_is_one_projected_mlmc_grad_step(small_posterior, record):
    # The shared descent loop steps along mlmc_grad's one-replicate gradient
    # from the same generator state, bit for bit: by eta, then eta / sqrt(2).
    post, backend, model = small_posterior
    x0 = clean_point(post)
    m0, v0 = post.predictive_moments(x0)
    appd = NormalAppd(m0, 2.0 * v0)
    cfg = config(x0, eps=0.5, eta=0.3, T=2, B=2, eta_decay=True, record_objective=record)
    for seed in range(3):
        trace = run_ppd_attack(model, appd, cfg, backend, np.random.default_rng(seed))
        rng, x = np.random.default_rng(seed), x0
        for t in (1, 2):
            grad = mlmc_grad(model, x, appd, cfg, backend, rng)[0][0]
            x = cfg.feasible.project(x - cfg.eta / np.sqrt(t) * grad)
            assert not np.array_equal(x, trace.iterates[t - 1])
            assert np.array_equal(trace.iterates[t], x)


def test_final_residual_is_estimated_at_final_x(small_posterior, monkeypatch):
    # objectives[t - 1] is estimated at the point step t starts from; the
    # headline final_residual is one more estimate, at final_x itself, and
    # not a copy of the last iteration's (taken one step before final_x).
    post, backend, model = small_posterior
    x0 = clean_point(post)
    m0, v0 = post.predictive_moments(x0)
    estimate, calls = ppd._objective_estimate, []

    def recording(model, x, *args):
        calls.append((x.copy(), estimate(model, x, *args)))
        return calls[-1][1]

    monkeypatch.setattr(ppd, "_objective_estimate", recording)
    cfg = config(x0, eps=0.5, T=6, eta=0.5, B=2)
    trace = run_ppd_attack(model, NormalAppd(m0, 2.0 * v0), cfg, backend,
                           np.random.default_rng(34))
    points, values = zip(*calls)
    assert np.array_equal(points, trace.iterates)
    assert np.array_equal(values[:-1], trace.objectives)
    assert trace.final_residual == values[-1]
    assert not np.array_equal(trace.final_x, trace.iterates[-2])


class NanScoreLinear(GaussianLinear):
    """Gaussian linear likelihood whose covariate scores are all NaN."""

    def score_x(self, x, y, gamma):
        return np.full_like(super().score_x(x, y, gamma), np.nan)


def test_nonfinite_multilevel_gradient_raises(small_posterior):
    # The first multilevel gradient is NaN, so the attack stops before its
    # first step and reports the iterate it was at: the ball centre.
    post, backend, _ = small_posterior
    x0 = clean_point(post)
    m0, v0 = post.predictive_moments(x0)
    cfg = config(x0, T=5, record_objective=False)
    with pytest.raises(NonFiniteGradientError) as err:
        run_ppd_attack(NanScoreLinear(2), NormalAppd(m0, v0), cfg, backend,
                       np.random.default_rng(33))
    assert err.value.iteration == 1
    assert np.array_equal(err.value.x, x0)


def test_distribution_attack_refuses_several_ball_centres(small_posterior):
    # Its gradient takes one point, so K centres are refused before any draw.
    post, backend, model = small_posterior
    x0 = clean_point(post)
    m0, v0 = post.predictive_moments(x0)
    with pytest.raises(ValueError, match="takes one ball centre"):
        run_ppd_attack(model, NormalAppd(m0, v0), config(np.stack([x0, x0]), T=2), backend,
                       np.random.default_rng(36))


def test_multilevel_gradient_refuses_several_points(small_posterior):
    # delta_level scores every row at one point; with K points it would split
    # the rows between them.  Both refuse before drawing anything.
    post, backend, model = small_posterior
    x = np.stack([clean_point(post)] * 2)
    cfg = config(np.zeros(2), B=2)
    rng = np.random.default_rng(37)
    with pytest.raises(ValueError, match="takes one ball centre"):
        mlmc_grad(model, x, NormalAppd(0.0, 4.0), cfg, backend, rng)
    assert rng.bit_generator.state == np.random.default_rng(37).bit_generator.state
    with pytest.raises(ValueError, match="takes one ball centre"):
        delta_level(model, x, [0.0], [0], backend.draw(cfg.M0, rng), cfg)
