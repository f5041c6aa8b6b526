"""Sign-step baseline and gray-box ensemble attacks.

The sign step has hand-checkable values in two dimensions, so those are
asserted exactly.  The ensemble machinery is checked two ways: distributional
(model-averaged draws match the closed-form mixture via KS / moment tests)
and behavioral (a degenerate single-member ensemble attacks as well as the
white-box loop, while a surrogate that cannot see a coordinate leaves it
untouched and lands measurably farther from the target).  The mixture
backend's stored member CDF is checked draw for draw against member ids taken
with ``Generator.choice``, and the mixture likelihood bit for bit against
each member evaluating its own rows.  The gray-box attacks are the ordinary
attacks run on ``MixtureLikelihood(ensemble)`` and ``MixtureBackend(ensemble)``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fixed_data import FixedData
from ppdattack.attacks.baselines import fgsm_like
from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.functionals import response_functional
from ppdattack.attacks.graybox import (
    EnsembleMember,
    MixtureBackend,
    MixtureLikelihood,
    ModelEnsemble,
    TaggedBatch,
)
from ppdattack.attacks.point import PointAttackProblem, grad_J, run_point_attack
from ppdattack.attacks.ppd import MlmcConfig, NormalAppd, delta_level, run_ppd_attack
from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.backends import ExactConjugate
from ppdattack.bayes.conjugate import gaussian_update
from ppdattack.bayes.likelihoods import FeatureSubsetModel, GaussianLinear
from ppdattack.exceptions import UnsupportedModelError
from ppdattack.harness.data import gen_synthetic


# ---------------------------------------------------------------------------
# sign-step baseline


def test_sign_step_linf_hand_value():
    out = fgsm_like([0.0, 0.0], [1.0, -2.0], 0.1, norm="linf")
    assert np.allclose(out, [-0.1, 0.1], atol=1e-15)


def test_sign_step_l2_projects_back():
    # the raw sign step (-0.1, 0.1) has norm 0.1*sqrt(2), so the L2 ball
    # rescales it onto the radius-0.1 sphere
    out = fgsm_like([0.0, 0.0], [1.0, -2.0], 0.1, norm="l2")
    want = 0.1 * np.array([-1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(out, want, atol=1e-12)
    assert np.isclose(np.linalg.norm(out), 0.1, atol=1e-12)


def test_sign_step_zero_budget_is_identity():
    x = np.array([0.4, -1.3])
    out = fgsm_like(x, [1.0, -2.0], 0.0)
    assert np.array_equal(out, x)


def test_sign_step_zero_gradient_warns_and_stays():
    x = np.array([0.4, -1.3])
    with pytest.warns(RuntimeWarning):
        out = fgsm_like(x, [0.0, 0.0], 0.5)
    assert np.array_equal(out, x)


def test_sign_step_always_feasible():
    rng = np.random.default_rng(np.random.SeedSequence((6, 20)))
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        x = rng.normal(size=dim)
        grad = rng.normal(size=dim)
        eps = float(rng.uniform(0.01, 2.0))
        norm = ("l2", "linf", "l1")[int(rng.integers(3))]
        out = fgsm_like(x, grad, eps, norm=norm)
        assert FeasibleSet(center=x, epsilon=eps, norm=norm).contains(out)


def test_sign_step_matches_one_projected_sign_iteration():
    # the baseline is exactly one projected-descent iteration of step eps
    # taken along sign(grad); under L-infinity that step saturates the ball
    rng = np.random.default_rng(np.random.SeedSequence((6, 21)))
    for _ in range(50):
        x = rng.normal(size=3)
        grad = rng.normal(size=3)
        eps = float(rng.uniform(0.05, 1.0))
        fs = FeasibleSet(center=x, epsilon=eps, norm="linf")
        manual = fs.project(x - eps * np.sign(grad))
        out = fgsm_like(x, grad, eps, norm="linf")
        assert np.allclose(out, manual, atol=1e-15)
        assert np.isclose(np.max(np.abs(out - x)), eps, atol=1e-15)


def test_sign_step_rejects_bad_gradients():
    with pytest.raises(ValueError):
        fgsm_like([0.0, 0.0], [1.0], 0.1)
    with pytest.raises(ValueError):
        fgsm_like([0.0, 0.0], [np.nan, 1.0], 0.1)


# ---------------------------------------------------------------------------
# ensemble plumbing


@pytest.fixture(scope="module")
def defender():
    rng = np.random.default_rng(np.random.SeedSequence((0, 555)))
    ds = gen_synthetic(1000, (-1.0, 2.0), 1.0, rng)
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, ds.X, ds.y)
    return ds, post, ExactConjugate(post)


def test_ensemble_weight_validation(defender):
    _, _, backend = defender
    member = EnsembleMember(GaussianLinear(2), backend)
    with pytest.raises(ValueError):
        ModelEnsemble([])
    with pytest.raises(ValueError):
        ModelEnsemble([member, member], [0.7, 0.5])
    with pytest.raises(ValueError):
        ModelEnsemble([member, member], [1.2, -0.2])
    uniform = ModelEnsemble([member, member, member])
    assert np.allclose(uniform.weights, 1.0 / 3.0)
    assert len(uniform) == 3


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan], [np.inf, 1.0]])
def test_ensemble_rejects_non_finite_weights(defender, weights):
    # abs(nan - 1.0) > 1e-9 is False, so the sum test alone lets NaN through;
    # the stored member CDF would then give silent member ids.
    member = EnsembleMember(GaussianLinear(2), defender[2])
    with pytest.raises(ValueError, match="probability vector"):
        ModelEnsemble([member, member], weights)


def test_mixture_draw_rejects_empty_count(defender):
    # The same refusal as the member backends give.
    backend = MixtureBackend(ModelEnsemble([EnsembleMember(GaussianLinear(2), defender[2])]))
    with pytest.raises(ValueError, match="count must be >= 1"):
        backend.draw(0, np.random.default_rng(0))


def _untemper(y):
    # Inverse of the MT19937 output tempering on a 32-bit word.
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    t = y
    for _ in range(5):
        t = y ^ ((t << 7) & 0x9D2C5680)
    t &= 0xFFFFFFFF
    y = t
    for _ in range(2):
        t = y ^ (t >> 11)
    return t & 0xFFFFFFFF


def uniforms_then_stream(numerators, seed):
    """A generator whose first ``random()`` calls return ``n / 2**53`` for each
    ``n`` in ``numerators`` and whose later output is an MT19937 stream.

    ``Generator.random`` builds each double from two 32-bit words, the top 27
    bits of the first and the top 26 of the second; writing their untempered
    values at the head of the state makes the uniforms exact, so they can sit
    on a member CDF entry, where a left and a right search differ.
    """
    bits = np.random.MT19937(seed)
    state = bits.state
    key = state["state"]["key"].copy()
    for i, n in enumerate(numerators):
        key[2 * i] = _untemper((n >> 26) << 5)
        key[2 * i + 1] = _untemper((n & (2**26 - 1)) << 6)
    state["state"]["key"], state["state"]["pos"] = key, 0
    bits.state = state
    return np.random.Generator(bits)


def choice_mixture_draw(ensemble, count, rng):
    # The member ids from rng.choice, then each member's rows in np.unique order.
    ids = rng.choice(len(ensemble), size=count, p=ensemble.weights)
    subs = {int(k): ensemble.members[k].backend.draw(int(np.count_nonzero(ids == k)), rng)
            for k in np.unique(ids)}
    return ids, subs


MIXTURE_MEMBERS = [
    EnsembleMember(GaussianLinear(2), ExactConjugate(
        gaussian_update(np.full(2, float(i)), np.eye(2), 1.0, np.zeros((0, 2)), np.zeros(0))))
    for i in range(5)]


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(any),
       count=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), data=st.data())
@example(counts=[3], count=7, seed=11, data=FixedData(False))  # one member: no CDF search
def test_mixture_draw_matches_rng_choice(counts, count, seed, data):
    # Integer weight ratios give zero weights, single members and CDF entries
    # that are exact multiples of 2**-53; the chosen-uniform generator puts
    # draws exactly on those entries.
    weights = np.array(counts, dtype=float) / sum(counts)
    ensemble = ModelEnsemble(MIXTURE_MEMBERS[: len(counts)], weights)
    backend = MixtureBackend(ensemble)
    if data.draw(st.booleans()):
        cdf = np.cumsum(weights) / np.cumsum(weights)[-1]
        on_cdf = [int(c * 2**53) for c in cdf if c < 1.0 and c * 2**53 == int(c * 2**53)]
        numerator = st.integers(0, 2**53 - 1)
        if on_cdf:
            numerator = st.one_of(st.sampled_from(on_cdf), numerator)
        numerators = data.draw(st.lists(numerator, min_size=count, max_size=count))
        rngs = [uniforms_then_stream(numerators, seed) for _ in range(2)]
    else:
        rngs = [np.random.default_rng(seed) for _ in range(2)]
    got = backend.draw(count, rngs[0])
    want_ids, want_subs = choice_mixture_draw(ensemble, count, rngs[1])
    assert np.array_equal(got.member_ids, want_ids)
    assert set(got.sub) == set(want_subs)
    for k, sub in want_subs.items():
        assert got.sub[k].beta.tobytes() == sub.beta.tobytes()
        assert got.sub[k].phi.tobytes() == sub.phi.tobytes()
    assert rngs[0].random() == rngs[1].random()


def bma_draws(ensemble, x, n, rng):
    """n (member, parameters) draws and their outcomes from the model-averaged
    predictive at x, along the path the gray-box attacks sample."""
    batch = MixtureBackend(ensemble).draw(n, rng)
    return batch, MixtureLikelihood(ensemble).sample_y(x, batch, rng)


def test_single_member_draw_matches_exact_predictive(defender):
    # K=1: the member index is always 0 and the outcomes follow the
    # closed-form predictive at x
    _, post, backend = defender
    ens = ModelEnsemble([EnsembleMember(GaussianLinear(2), backend)])
    x = np.array([0.3, -0.2])
    rng = np.random.default_rng(np.random.SeedSequence((6, 3)))
    batch, ys = bma_draws(ens, x, 2000, rng)
    assert set(batch.member_ids.tolist()) == {0}
    draw = batch.sub[0]
    assert draw.beta.shape == (2000, 2) and draw.phi.shape == (2000,) and np.all(draw.phi > 0)
    m, v = post.predictive_moments(x)
    ks = stats.kstest(ys, "norm", args=(m, np.sqrt(v)))
    assert ks.pvalue > 0.01  # measured 0.96 at this seed


def test_duplicate_members_match_single_member(defender):
    _, _, backend = defender
    member = EnsembleMember(GaussianLinear(2), backend)
    two = ModelEnsemble([member, member], [0.5, 0.5])
    one = ModelEnsemble([member])
    x = np.array([0.3, -0.2])
    r1 = np.random.default_rng(np.random.SeedSequence((6, 1)))
    r2 = np.random.default_rng(np.random.SeedSequence((6, 2)))
    _, ys2 = bma_draws(two, x, 10_000, r1)
    _, ys1 = bma_draws(one, x, 10_000, r2)
    assert stats.ks_2samp(ys2, ys1).pvalue > 0.01  # measured 0.59


def test_mixture_mean_is_weighted_posterior_mean(defender):
    ds, postA, backA = defender
    rngB = np.random.default_rng(np.random.SeedSequence((0, 556)))
    dsB = gen_synthetic(500, (2.0, -1.0), 1.0, rngB)
    postB = gaussian_update(np.zeros(2), np.eye(2), 1.0, dsB.X, dsB.y)
    mix = ModelEnsemble(
        [EnsembleMember(GaussianLinear(2), backA),
         EnsembleMember(GaussianLinear(2), ExactConjugate(postB))],
        [0.7, 0.3])
    x = np.array([0.3, -0.2])
    rng = np.random.default_rng(np.random.SeedSequence((6, 4)))
    _, ys = bma_draws(mix, x, 100_000, rng)
    want = 0.7 * postA.mu_n @ x + 0.3 * postB.mu_n @ x
    se = ys.std(ddof=1) / np.sqrt(ys.size)
    assert abs(ys.mean() - want) < 3 * se  # measured z = -1.03


def test_tagged_batch_preserves_draw_order(defender):
    ds, postA, backA = defender
    post1 = gaussian_update(np.zeros(1), np.eye(1), 1.0, ds.X[:, [0]], ds.y)
    ens = ModelEnsemble(
        [EnsembleMember(GaussianLinear(2), backA),
         EnsembleMember(GaussianLinear(1), ExactConjugate(post1))],
        [0.5, 0.5])
    rng = np.random.default_rng(np.random.SeedSequence((6, 5)))
    batch = MixtureBackend(ens).draw(8, rng)
    assert isinstance(batch, TaggedBatch) and len(batch) == 8

    # Row slices of concatenated draws keep each member's rows in draw order;
    # the pair-loop reference in test_mlmc_batched.py takes a level's halves
    # this way.
    joined = TaggedBatch.concat([MixtureBackend(ens).draw(2, rng), batch])
    first, second = joined[2:6], joined[6:10]
    assert len(first) == 4 and len(second) == 4
    assert np.array_equal(first.member_ids, batch.member_ids[:4])
    assert np.array_equal(second.member_ids, batch.member_ids[4:])
    # Each member's rows in a half are that member's rows of the full batch
    # falling in the half, in draw order.
    for half, rows in ((first, slice(0, 4)), (second, slice(4, 8))):
        for k, sub in half.sub.items():
            before = np.count_nonzero(batch.member_ids[: rows.start] == k)
            n_k = np.count_nonzero(batch.member_ids[rows] == k)
            full = batch.sub[k]
            assert np.array_equal(sub.beta, full.beta[before : before + n_k])
            assert np.array_equal(sub.phi, full.phi[before : before + n_k])

    odd = MixtureBackend(ens).draw(5, rng)
    cfg = MlmcConfig(FeasibleSet(center=np.zeros(2), epsilon=1.0, norm="l2"), M0=4)
    with pytest.raises(ValueError):
        delta_level(MixtureLikelihood(ens), np.zeros(2), [0.0], [0], odd, cfg)


# ---------------------------------------------------------------------------
# gray-box attacks


X0 = np.array([-0.1, 0.2])
GSTAR = 1.5
EPS = 0.6


def point_problem(model=GaussianLinear(2)):
    return PointAttackProblem(
        response_functional(), [GSTAR], model,
        feasible=FeasibleSet(center=X0, epsilon=EPS, norm="l2"),
        eta=0.05, T=150, N=32, M=32, eta_decay=True)


def test_degenerate_ensemble_matches_white_box(defender):
    # a single-member ensemble holding the defender's own model should attack
    # exactly as well as the white-box loop, up to Monte-Carlo noise
    _, post, backend = defender
    ens = ModelEnsemble([EnsembleMember(GaussianLinear(2), backend)])
    res_w, res_g = [], []
    for i in range(20):
        tw = run_point_attack(point_problem(), backend,
                              np.random.default_rng(np.random.SeedSequence((7, 0, i))))
        tg = run_point_attack(point_problem(MixtureLikelihood(ens)), MixtureBackend(ens),
                              np.random.default_rng(np.random.SeedSequence((7, 1, i))))
        res_w.append(abs(post.mu_n @ tw.final_x - GSTAR))
        res_g.append(abs(post.mu_n @ tg.final_x - GSTAR))
    res_w, res_g = np.array(res_w), np.array(res_g)
    se = np.sqrt(res_w.var(ddof=1) / 20 + res_g.var(ddof=1) / 20)
    # measured diff -4.4e-3 against 3se = 1.6e-2
    assert abs(res_g.mean() - res_w.mean()) < 3 * se


def test_feature_blind_surrogate_lands_farther(defender):
    # a surrogate fit without the second covariate never moves it, so the
    # defender-evaluated residual stays far larger than the informed attack's
    ds, post, backend = defender
    post1 = gaussian_update(np.zeros(1), np.eye(1), 1.0, ds.X[:, [0]], ds.y)
    blind = ModelEnsemble([EnsembleMember(
        FeatureSubsetModel(GaussianLinear(1), [0], 2), ExactConjugate(post1))])
    informed = ModelEnsemble([EnsembleMember(GaussianLinear(2), backend)])
    for i in range(3):
        tg = run_point_attack(point_problem(MixtureLikelihood(informed)), MixtureBackend(informed),
                              np.random.default_rng(np.random.SeedSequence((7, 2, i))))
        tb = run_point_attack(point_problem(MixtureLikelihood(blind)), MixtureBackend(blind),
                              np.random.default_rng(np.random.SeedSequence((7, 3, i))))
        r_informed = abs(post.mu_n @ tg.final_x - GSTAR)
        r_blind = abs(post.mu_n @ tb.final_x - GSTAR)
        # measured: blind 0.399 vs informed <= 0.03 on all three seeds
        assert r_blind > r_informed + 0.2
        assert np.isclose(tb.final_x[1], X0[1], atol=1e-12)  # hidden coord untouched


def test_graybox_dispatch(defender):
    _, post, backend = defender
    ens = ModelEnsemble([EnsembleMember(GaussianLinear(2), backend)])
    rng = np.random.default_rng(np.random.SeedSequence((7, 4)))

    point_trace = run_point_attack(point_problem(MixtureLikelihood(ens)), MixtureBackend(ens), rng)
    assert point_trace.iterates.shape == (151, 2)

    m0, v0 = post.predictive_moments(X0)
    appd = NormalAppd(m0, 4.0 * v0)
    cfg = MlmcConfig(FeasibleSet(center=X0, epsilon=0.5, norm="l2"),
                     eta=0.5, T=10, B=2, eta_decay=True, record_objective=False)
    ppd_trace = run_ppd_attack(MixtureLikelihood(ens), appd, cfg, MixtureBackend(ens), rng)
    assert ppd_trace.iterates.shape == (11, 2)
    assert FeasibleSet(center=X0, epsilon=0.5, norm="l2").contains(ppd_trace.final_x)


def test_graybox_attacks_take_one_point(defender):
    # A mixture's draws are tagged batches, which the K-point sampler cannot
    # join into one DrawBatch: K centres or K points raise before any draw,
    # not an AttributeError from inside the sampler.  One centre, as (p,) or
    # as a one-row (1, p), still attacks, and both give the same iterates.
    ens = ModelEnsemble([EnsembleMember(GaussianLinear(2), defender[2])])
    model, backend = MixtureLikelihood(ens), MixtureBackend(ens)
    seeds, centres = (1, 2), np.stack([X0, -X0])

    def problem(center):
        return PointAttackProblem(response_functional(), [GSTAR], model,
                                  FeasibleSet(center=center, epsilon=EPS, norm="l2"),
                                  eta=0.05, T=20, N=8, M=8)

    gens = [np.random.default_rng(s) for s in seeds]
    with pytest.raises(UnsupportedModelError, match="run gray-box attacks one at a time"):
        run_point_attack(problem(centres), backend, gens)
    with pytest.raises(UnsupportedModelError, match="run gray-box attacks one at a time"):
        grad_J(problem(X0), centres, backend, gens)
    assert all(g.bit_generator.state == np.random.default_rng(s).bit_generator.state
               for g, s in zip(gens, seeds))

    plain = run_point_attack(problem(X0), backend, np.random.default_rng(3))
    row = run_point_attack(problem(X0[None]), backend, [np.random.default_rng(3)])
    assert np.array_equal(row.iterates[:, 0], plain.iterates)
    assert np.isfinite(plain.final_residual)


# (member likelihood, width of its coefficient draws)
MEMBER_MODELS = [(GaussianLinear(2), 2), (FeatureSubsetModel(GaussianLinear(1), [0], 2), 1),
                 (FeatureSubsetModel(GaussianLinear(1), [1], 2), 1)]


def scattered(tagged, models, call):
    """Reference: each present member, in ascending id, evaluates ``call`` on
    its own sub-batch and rows, and its results go back to those rows."""
    out = [None] * len(tagged)
    for k in sorted(tagged.sub):
        rows = [i for i, j in enumerate(tagged.member_ids.tolist()) if j == k]
        for r, v in zip(rows, call(models[k], tagged.sub[k], rows)):
            out[r] = v
    return np.array(out)


@settings(max_examples=200, deadline=None)
@given(kinds=st.lists(st.integers(0, len(MEMBER_MODELS) - 1), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), shared_y=st.booleans(), data=st.data())
# One member's rows only, that member not member 0 of three: the batch goes
# to it without the scatter, with a scalar and with a per-row y.
@example(kinds=[0, 1, 2], seed=5, shared_y=True, data=FixedData([2, 2, 2, 2, 2]))
@example(kinds=[0, 1, 2], seed=6, shared_y=False, data=FixedData([1, 1, 1]))
@example(kinds=[1, 2, 0], seed=7, shared_y=False, data=FixedData([2]))
def test_mixture_likelihood_is_the_members_scattered_to_their_rows(kinds, seed, shared_y, data):
    models, widths = zip(*(MEMBER_MODELS[c] for c in kinds))
    ids = np.array(data.draw(st.lists(st.integers(0, len(models) - 1), min_size=1,
                                      max_size=24)))
    rng = np.random.default_rng(seed)
    subs = {k: DrawBatch(rng.normal(size=(np.count_nonzero(ids == k), width)),
                         rng.uniform(0.5, 2.0, np.count_nonzero(ids == k)))
            for k, width in enumerate(widths) if np.any(ids == k)}
    tagged = TaggedBatch(ids, subs)
    x = rng.normal(size=2)
    y = rng.normal() if shared_y else rng.normal(size=ids.size)
    y_rows = np.broadcast_to(y, ids.shape)
    mixture = MixtureLikelihood(ModelEnsemble([EnsembleMember(m, None) for m in models]))

    for method in ("loglik", "score_x"):
        got = getattr(mixture, method)(x, y, tagged)
        want = scattered(tagged, models,
                         lambda m, sub, rows: getattr(m, method)(x, y_rows[rows], sub))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    rng_got, rng_want = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = mixture.sample_y(x, tagged, rng_got)
    want = scattered(tagged, models, lambda m, sub, rows: m.sample_y(x, sub, rng_want))
    assert got.tobytes() == want.tobytes()
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
