"""The one-pass multilevel gradient against a pair-by-pair reference.

Per replicate the gradient draws its B outcomes, then the levels of all
B * R (outcome, repeat) pairs in one call, then every pair's posterior draws
in one backend call, and scores all pairs at once.  The reference below
draws in the same order but one value at a time: each level by its own
``rng.choice`` over the level weights (or ``rng.geometric`` for the
untruncated law), then one backend batch cut pair by pair.  It scores a
level-0 batch, or each half of a split batch, with its own
:func:`ratio_grad` call and accumulates ``delta / P(level)`` pair by pair.
Both consume the generator in the same order, so they must agree on every
level and sample cost and on the final generator state, and on the gradient
up to summation order.

A split pair's difference is the closed form ``(r2 - r1) / 2 * tanh((L2 -
L1) / 2)`` in the half ratios and log normalisers, here as in the library;
a separate property checks that form against its definition, the full-batch
ratio minus the mean of the half ratios.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.graybox import (
    EnsembleMember,
    MixtureBackend,
    MixtureLikelihood,
    ModelEnsemble,
)
from ppdattack.attacks.ppd import (
    CategoricalAppd,
    DegenerateLikelihoodError,
    MlmcConfig,
    NormalAppd,
    _objective_estimate,
    _sample_level,
    delta_level,
    mlmc_grad,
    ratio_grad,
)
from ppdattack.bayes.backends import ExactConjugate, SampleBank
from ppdattack.bayes.conjugate import NigPrior, gaussian_update, nig_update
from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.likelihoods import CategoricalSoftmax, FeatureSubsetModel, GaussianLinear

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=40, deadline=None)
RTOL = 1e-12


def _data():
    rng = np.random.default_rng(np.random.SeedSequence((2, 10)))
    X = rng.standard_normal((10, 2))
    y = X @ np.array([-1.0, 2.0]) + rng.standard_normal(10)
    return X, y


def gaussian_case():
    X, y = _data()
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, X, y)
    return GaussianLinear(2), ExactConjugate(post), NormalAppd(0.3, 2.0)


def nig_case():
    X, y = _data()
    post = nig_update(NigPrior(np.zeros(2), np.eye(2), 2.0, 2.0), X, y)
    return GaussianLinear(2), ExactConjugate(post), NormalAppd(0.3, 2.0)


def softmax_case():
    rng = np.random.default_rng(np.random.SeedSequence((2, 11)))
    bank = SampleBank(DrawBatch(rng.standard_normal((50, 6)), 1.0))
    return CategoricalSoftmax(2, 3), bank, CategoricalAppd(np.array([0.2, 0.5, 0.3]))


def mixture_case():
    X, y = _data()
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, X, y)
    post1 = gaussian_update(np.zeros(1), np.eye(1), 1.0, X[:, [1]], y)
    ens = ModelEnsemble([EnsembleMember(GaussianLinear(2), ExactConjugate(post)),
                         EnsembleMember(FeatureSubsetModel(GaussianLinear(1), [1], 2),
                                        ExactConjugate(post1))], [0.6, 0.4])
    return MixtureLikelihood(ens), MixtureBackend(ens), NormalAppd(0.3, 2.0)


CASES = {"gaussian": gaussian_case, "nig": nig_case, "softmax": softmax_case,
         "mixture": mixture_case}


def ratio_and_lognorm(model, x, y, gammas):
    ratios, lognorm = ratio_grad(model.loglik(x, y, gammas), model.score_x(x, y, gammas), [0])
    return ratios[0], lognorm[0]


def plug_in(model, x, y, gammas):
    return ratio_and_lognorm(model, x, y, gammas)[0]


def reference_level(config, rng):
    if config.untruncated:
        q = 2.0 ** (-config.tau)
        level = int(rng.geometric(1.0 - q)) - 1
        return level, (1.0 - q) * q**level
    w = config.level_weights
    level = int(rng.choice(config.Lmax + 1, p=w))
    return level, float(w[level])


def reference_grad_info(model, x, appd, config, backend, rng):
    """Outcomes, then every pair's level, then one batch cut pair by pair:
    the plain ratio at level 0, else the closed-form level difference from
    each half's own ratio and log normaliser."""
    ys = np.atleast_1d(appd.sample(config.B, rng))
    pairs = [reference_level(config, rng) for _ in range(config.B * config.R)]
    cost = sum(config.M0 * (1 << level) for level, _ in pairs)
    draws = backend.draw(cost, rng)
    grad = np.zeros(x.size)
    scale, start = 0.0, 0
    for i, y in enumerate(ys):
        acc = np.zeros_like(grad)
        for level, w in pairs[i * config.R:(i + 1) * config.R]:
            m = config.M0 * (1 << level)
            batch = draws[start:start + m]
            start += m
            if level == 0:
                delta = plug_in(model, x, y, batch)
            else:
                r1, l1 = ratio_and_lognorm(model, x, y, batch[: m // 2])
                r2, l2 = ratio_and_lognorm(model, x, y, batch[m // 2 :])
                delta = 0.5 * (r2 - r1) * np.tanh(0.5 * (l2 - l1))
            scale = max(scale, np.abs(delta / w).max())
            acc += delta / w
        grad += acc / config.R
    return grad / config.B, [level for level, _ in pairs], cost, scale


def assert_matches_reference(model, backend, appd, config, seed):
    x = config.feasible.center
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    (grad,), levels, cost = mlmc_grad(model, x, appd, config, backend, ours)
    want, want_levels, want_cost, scale = reference_grad_info(
        model, x, appd, config, backend, theirs)
    assert list(levels) == want_levels
    assert cost == want_cost
    assert ours.random() == theirs.random()
    # Summation order differs, so the error scales with the largest term
    # delta / P(level), not with the (possibly cancelling) gradient.
    np.testing.assert_allclose(grad, want, rtol=RTOL, atol=RTOL * scale)


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(B=st.integers(1, 6), R=st.integers(1, 3), M0=st.sampled_from([2, 4, 8]),
       Lmax=st.integers(0, 5), tau=st.floats(1.05, 3.0), seed=SEEDS)
def test_batched_gradient_matches_pair_loop(case, B, R, M0, Lmax, tau, seed):
    model, backend, appd = CASES[case]()
    fs = FeasibleSet(np.array([0.4, -0.3]), 1.0, "l2")
    config = MlmcConfig(fs, M0=M0, tau=tau, R=R, Lmax=Lmax, B=B)
    assert_matches_reference(model, backend, appd, config, seed)


@PROPERTY
@given(B=st.integers(1, 6), R=st.integers(1, 3), M0=st.sampled_from([2, 4, 8]),
       tau=st.floats(1.5, 3.0), seed=SEEDS)
def test_batched_gradient_matches_pair_loop_untruncated(B, R, M0, tau, seed):
    model, backend, appd = gaussian_case()
    fs = FeasibleSet(np.array([0.4, -0.3]), 1.0, "l2")
    config = MlmcConfig(fs, M0=M0, tau=tau, R=R, B=B, untruncated=True)
    assert_matches_reference(model, backend, appd, config, seed)


@settings(max_examples=60, deadline=None)
@given(Lmax=st.integers(0, 12), tau=st.floats(1.01, 4.0), n=st.integers(1, 300), seed=SEEDS)
def test_level_cdf_draws_the_choice_stream(Lmax, tau, n, seed):
    config = MlmcConfig(FeasibleSet(np.zeros(1), 1.0, "l2"), tau=tau, Lmax=Lmax)
    w = config.level_weights
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    levels, probs = _sample_level(config, ours, n)
    assert levels.tolist() == [int(theirs.choice(Lmax + 1, p=w)) for _ in range(n)]
    assert np.array_equal(probs, w[levels])
    assert ours.random() == theirs.random()


@settings(max_examples=60, deadline=None)
@given(tau=st.floats(1.01, 4.0), n=st.integers(1, 300), seed=SEEDS)
def test_untruncated_levels_draw_the_geometric_stream(tau, n, seed):
    config = MlmcConfig(FeasibleSet(np.zeros(1), 1.0, "l2"), tau=tau, untruncated=True,
                        max_level_draws=1 << 62)
    q = 2.0 ** (-tau)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    levels, probs = _sample_level(config, ours, n)
    want = [int(theirs.geometric(1.0 - q)) - 1 for _ in range(n)]
    assert levels.tolist() == want
    np.testing.assert_allclose(probs, [(1.0 - q) * q**level for level in want], rtol=RTOL)
    assert ours.random() == theirs.random()


def test_untruncated_guard_trips_before_any_draw():
    class NoDraws:
        def draw(self, count, rng):
            raise AssertionError("drew %d rows past the guard" % count)

    model, _, appd = gaussian_case()
    # any level >= 1 exceeds the 2-draw guard; all 64 pairs draw level 0 w.p. < 1e-12
    config = MlmcConfig(FeasibleSet(np.array([0.4, -0.3]), 1.0, "l2"), M0=2, tau=1.5, B=32,
                        untruncated=True, max_level_draws=2)
    with pytest.raises(RuntimeError, match="max_level_draws"):
        mlmc_grad(model, config.feasible.center, appd, config, NoDraws(),
                  np.random.default_rng(3))


@pytest.mark.parametrize("split_level, zero", [(0, "all"), (2, "first"), (2, "second")],
                         ids=["0", "2", "2-second-half"])
def test_one_degenerate_segment_raises(split_level, zero):
    # Pair 1's rows (all of them at level 0, only one half at level 2) have
    # zero likelihood at its outcome, while pair 0 is well posed.
    model = GaussianLinear(2)
    config = MlmcConfig(FeasibleSet(np.zeros(2), 1.0, "l2"), M0=2)
    m = config.M0 << split_level
    phi = np.ones(2 + m)
    rows = {"all": slice(2, 2 + m), "first": slice(2, 2 + m // 2), "second": slice(2 + m // 2, None)}
    phi[rows[zero]] = 1e-300
    draws = DrawBatch(np.full((2 + m, 2), 0.5), phi)
    x = np.array([0.3, -0.2])
    with pytest.raises(DegenerateLikelihoodError):
        delta_level(model, x, [0.0, 1e12], [0, split_level], draws, config)
    # The same rows at a well-posed outcome give finite differences.
    assert np.all(np.isfinite(delta_level(model, x, [0.0, 0.0], [0, split_level], draws,
                                          config)))


@pytest.mark.parametrize("zero_half", [0, 1])
def test_level_zero_pair_with_one_zero_half_keeps_its_finite_rows(zero_half):
    # A level-0 pair is one segment: a half of zero likelihood (-inf loglik,
    # finite score) weighs nothing, and the pair's ratio is the ratio of its
    # other half, as it would be if those rows were all it drew.  Splitting
    # the pair would make the zero half a segment of its own, which raises.
    model = GaussianLinear(2)
    config = MlmcConfig(FeasibleSet(np.zeros(2), 1.0, "l2"), M0=8)
    rng = np.random.default_rng(5)
    beta, phi = rng.standard_normal((8, 2)), rng.uniform(0.5, 2.0, 8)
    zero = slice(4 * zero_half, 4 * zero_half + 4)
    phi[zero] = 1e-300
    draws, x, y = DrawBatch(beta, phi), np.array([0.3, -0.2]), 1e5
    assert np.all(model.loglik(x, y, draws)[zero] == -np.inf)
    assert np.all(np.isfinite(model.score_x(x, y, draws)))
    finite = draws[4 * (1 - zero_half) : 4 * (1 - zero_half) + 4]
    got = delta_level(model, x, [y], [0], draws, config)[0]
    assert np.array_equal(got, plug_in(model, x, y, finite))
    with pytest.raises(DegenerateLikelihoodError):
        ratio_grad(model.loglik(x, y, draws), model.score_x(x, y, draws), [0, 4])


def parent_ratios(loglik, scores, starts):
    """The ratio arithmetic of ratio_grad before it returned log normalisers."""
    lmax = np.maximum.reduceat(loglik, starts)
    w = np.exp(loglik - np.repeat(lmax, np.diff(starts, append=loglik.size)))
    return -np.add.reduceat(w[:, None] * scores, starts) / np.add.reduceat(w, starts)[:, None]


@PROPERTY
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       spread=st.floats(0.0, 800.0), shift=st.floats(-1e4, 1e4), seed=SEEDS)
def test_ratio_grad_log_normaliser_is_the_segment_logsumexp(sizes, spread, shift, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    loglik = shift + spread * rng.standard_normal(n)
    loglik[rng.random(n) < 0.2] = -np.inf  # some rows of zero likelihood
    starts = np.cumsum(sizes) - sizes
    loglik[starts] = shift  # every segment keeps a finite row
    scores = rng.standard_normal((n, 3)) * np.exp(rng.uniform(-5, 5, (n, 1)))
    ratios, lognorm = ratio_grad(loglik, scores, starts)
    assert np.array_equal(ratios, parent_ratios(loglik, scores, starts))
    bounds = np.append(starts, n)
    want = [logsumexp(loglik[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    # Both add the log of a sum in [1, size] to the segment maximum: a few
    # roundings of the larger of the two.
    lmax = np.maximum.reduceat(loglik, starts)
    tol = 4 * 2.0**-52 * np.maximum(np.abs(lmax), np.log(sizes))
    assert np.all(np.abs(lognorm - want) <= tol)


# The closed-form difference and its definition differ by a few roundings of
# the size of the largest ratio entry: the definition rounds the full ratio
# (a weighted mean of at most 256 score rows here), the mean of the half
# ratios and one subtraction; the closed form rounds a subtraction, two
# products and tanh (within an ulp); the half ratios are shared.  One
# coordinate's error follows the largest entries, not its own (a softmax
# score can cancel to a tiny ratio entry), so the scale is the largest entry
# of the three ratio vectors.  Over 3,000 random batches per case (M0 in
# {2, 4, 8}, levels 1-5) the worst error read 3.6 of these units (41 if each
# coordinate were scaled by its own entries); 16 keeps a fourfold margin.
IDENTITY_ULPS = 16


def two_pass_difference(model, x, y, draws):
    """The level difference as defined: full-batch ratio minus the mean of the
    half ratios, each from its own ratio_grad pass; and that scale."""
    m = len(draws)
    ll, scores = model.loglik(x, y, draws), model.score_x(x, y, draws)
    full = ratio_grad(ll, scores, [0])[0][0]
    halves = ratio_grad(ll, scores, [0, m // 2])[0]
    scale = max(np.abs(full).max(), np.abs(halves).max())
    return full - 0.5 * (halves[0] + halves[1]), halves, scale


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(M0=st.sampled_from([2, 4, 8]), level=st.integers(1, 5),
       offset=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), seed=SEEDS)
def test_closed_form_level_difference_matches_its_definition(case, M0, level, offset, seed):
    model, backend, appd = CASES[case]()
    x = np.array([0.4, -0.3]) + np.array(offset)
    config = MlmcConfig(FeasibleSet(x, 1.0, "l2"), M0=M0)
    rng = np.random.default_rng(seed)
    y = np.atleast_1d(appd.sample(1, rng))
    draws = backend.draw(M0 << level, rng)
    got = delta_level(model, x, y, [level], draws, config)[0]
    want, _, scale = two_pass_difference(model, x, y[0], draws)
    assert np.all(np.abs(got - want) <= IDENTITY_ULPS * 2.0**-52 * scale)


@pytest.mark.parametrize("heavy_half", [0, 1])
def test_closed_form_survives_an_underflowing_half(heavy_half):
    # One half's rows fit the outcome 0 and the other's predict 40 at unit
    # noise, so the half log normalisers differ by about 800 > 745 and the
    # light half's weight underflows to 0 in the full batch.  The difference
    # is then half the gap between the half ratios, signed towards the heavy
    # half, as the two-pass definition gives.
    model = GaussianLinear(2)
    config = MlmcConfig(FeasibleSet(np.zeros(2), 1.0, "l2"), M0=4)
    x = np.array([1.0, 0.5])
    rng = np.random.default_rng(8)
    beta = 0.1 * rng.standard_normal((8, 2))
    light = slice(4 * (1 - heavy_half), 4 * (1 - heavy_half) + 4)
    beta[light, 0] += 40.0
    draws = DrawBatch(beta, np.ones(8))
    _, lognorm = ratio_grad(model.loglik(x, 0.0, draws), model.score_x(x, 0.0, draws), [0, 4])
    assert abs(lognorm[1] - lognorm[0]) > 745
    got = delta_level(model, x, [0.0], [1], draws, config)[0]
    want, (r1, r2), scale = two_pass_difference(model, x, 0.0, draws)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, 0.5 * (r2 - r1) if heavy_half else 0.5 * (r1 - r2))
    assert np.all(np.abs(got - want) <= IDENTITY_ULPS * 2.0**-52 * scale)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=20, deadline=None)
@given(n_y=st.integers(1, 12), obj_draws=st.integers(1, 64), seed=SEEDS)
def test_objective_matches_per_outcome_loop(case, n_y, obj_draws, seed):
    model, backend, appd = CASES[case]()
    config = MlmcConfig(FeasibleSet(np.array([0.4, -0.3]), 1.0, "l2"), obj_draws=obj_draws)
    x = config.feasible.center
    ys = np.atleast_1d(appd.sample(n_y, np.random.default_rng(seed)))
    got = _objective_estimate(model, x, ys, config, backend, np.random.default_rng(seed))
    draws = backend.draw(obj_draws, np.random.default_rng(seed))
    want = -np.mean([logsumexp(model.loglik(x, y, draws)) - np.log(obj_draws) for y in ys])
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL)


def test_config_is_frozen():
    config = MlmcConfig(FeasibleSet(np.zeros(1), 1.0, "l2"))
    with pytest.raises(AttributeError):
        config.Lmax = 3
    with pytest.raises(AttributeError):
        config.level_weights = np.ones(config.Lmax + 1)
    with pytest.raises(ValueError):
        config.level_weights[0] = 1.0
