"""Likelihood models: log density, covariate score, and predictive sampling.

Gradient correctness is checked two ways: hand-derived values for the Gaussian
linear case, and central finite differences of ``loglik`` for every model
family.  Sampling is checked against the score identity (mean score is zero
under the model) and simple moment/frequency oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdattack.attacks.ppd import CategoricalAppd, NormalAppd
from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.likelihoods import (
    BernoulliLogit,
    CategoricalSoftmax,
    FeatureSubsetModel,
    GaussianLinear,
    SmallBnn,
    UnsupportedModelError,
    _sample_categorical,
    logsumexp,
    require_gaussian_linear,
)


def fd_grad(f, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def test_gaussian_score_hand_value():
    model = GaussianLinear(2)
    gamma = DrawBatch(np.array([[1.0, 0.0]]), 1.0)
    # score = (y - beta'x) beta / phi = (2 - 0) * (1, 0)
    assert np.allclose(model.score_x(np.zeros(2), 2.0, gamma)[0], [2.0, 0.0])


def cases_for_fd():
    rng = np.random.default_rng(42)
    gl = GaussianLinear(3)
    bl = BernoulliLogit(3)
    cs = CategoricalSoftmax(2, 3)
    bnn_g = SmallBnn(2, 4)
    bnn_c = SmallBnn(2, 4, likelihood="categorical", n_out=3)
    fs = FeatureSubsetModel(GaussianLinear(2), [0, 2], 3)
    # One-row batches: a single draw is a batch with one row.
    return [
        (gl, DrawBatch(rng.standard_normal(3), 0.7), rng.standard_normal(3), 1.3),
        (bl, DrawBatch(rng.standard_normal(3)), rng.standard_normal(3), 1.0),
        (cs, DrawBatch(rng.standard_normal(6)), rng.standard_normal(2), 2),
        (bnn_g, DrawBatch(bnn_g.random_init(rng), 0.5), rng.standard_normal(2), 0.4),
        (bnn_c, DrawBatch(bnn_c.random_init(rng)), rng.standard_normal(2), 1),
        (fs, DrawBatch(rng.standard_normal(2), 1.1), rng.standard_normal(3), -0.2),
    ]


def test_score_matches_finite_differences():
    for model, gamma, x, y in cases_for_fd():
        analytic = model.score_x(x, y, gamma)[0]
        numeric = fd_grad(lambda z: float(model.loglik(z, y, gamma)[0]), x)
        denom = max(np.linalg.norm(numeric), 1.0)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-5, type(model).__name__


def test_pdf_grad_is_density_times_score():
    # The covariate gradient of the density pi itself is pi * score_x.
    for model, gamma, x, y in cases_for_fd():
        expected = np.exp(model.loglik(x, y, gamma)[0]) * model.score_x(x, y, gamma)[0]
        numeric = fd_grad(lambda z: float(np.exp(model.loglik(z, y, gamma)[0])), x)
        assert np.allclose(numeric, expected), type(model).__name__


def test_score_identity_mean_zero():
    # E_y[score_x] = 0 for y drawn from the model at fixed parameters.
    rng = np.random.default_rng(8)
    n = 100_000
    model = GaussianLinear(2)
    batch = DrawBatch(np.repeat([[0.8, -1.2]], n, axis=0), np.full(n, 0.9))
    x = np.array([0.4, 1.0])
    ys = model.sample_y(x, batch, rng)
    scores = model.score_x(x, ys, batch)
    se = scores.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(scores.mean(axis=0)) <= 3.0 * se)


def test_score_identity_mean_zero_logit():
    rng = np.random.default_rng(9)
    n = 100_000
    model = BernoulliLogit(2)
    batch = DrawBatch(np.repeat([[0.5, -0.3]], n, axis=0))
    x = np.array([1.0, 2.0])
    ys = model.sample_y(x, batch, rng)
    scores = model.score_x(x, ys, batch)
    se = scores.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(scores.mean(axis=0)) <= 3.0 * se)


def test_near_deterministic_gaussian_draws():
    model = GaussianLinear(2)
    beta = np.array([1.5, -0.5])
    x = np.array([2.0, 1.0])
    batch = DrawBatch(np.repeat([beta], 200, axis=0), np.full(200, 1e-12))
    ys = model.sample_y(x, batch, np.random.default_rng(3))
    assert np.all(np.abs(ys - beta @ x) < 1e-5)


def test_gaussian_draw_mean():
    model = GaussianLinear(2)
    beta = np.array([1.0, 2.0])
    x = np.array([-1.0, 0.5])
    n = 100_000
    batch = DrawBatch(np.repeat([beta], n, axis=0), np.ones(n))
    ys = model.sample_y(x, batch, np.random.default_rng(12))
    se = ys.std(ddof=1) / np.sqrt(n)
    assert abs(ys.mean() - beta @ x) <= 3.0 * se


def test_dominant_logit_wins():
    model = CategoricalSoftmax(2, 3)
    W = np.zeros((3, 2))
    W[0, 0] = 50.0
    n = 10_000
    batch = DrawBatch(np.repeat([W.ravel()], n, axis=0))
    ys = model.sample_y(np.array([1.0, 0.0]), batch, np.random.default_rng(4))
    assert np.mean(ys == 0.0) > 0.999


def test_a_row_summing_below_one_draws_a_class_in_range():
    # Counting all k cumulative sums gave class k, out of range, whenever a
    # row's sum fell below its uniform: here about half of the draws.
    labels = _sample_categorical(np.array([[0.25, 0.25]] * 1000), np.random.default_rng(0))
    assert set(labels) <= {0.0, 1.0}
    assert set(CategoricalAppd([0.5, 0.5 - 5e-10]).sample(1000, np.random.default_rng(1))) <= {
        0.0, 1.0}


def test_softmax_probs_sum_to_one():
    model = CategoricalSoftmax(3, 4)
    rng = np.random.default_rng(21)
    batch = DrawBatch(rng.standard_normal((16, 12)))
    probs = model.class_probs(rng.standard_normal(3), batch)
    assert probs.shape == (16, 4)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_feature_subset_hides_coordinates():
    model = FeatureSubsetModel(GaussianLinear(2), [0, 2], 3)
    gamma = DrawBatch(np.array([[1.0, -1.0]]), 1.0)
    g = model.score_x(np.array([0.5, 9.0, -0.5]), 1.0, gamma)
    assert g.shape == (1, 3) and g[0, 1] == 0.0
    # Changing the hidden coordinate must not change the log likelihood.
    a = model.loglik(np.array([0.5, 9.0, -0.5]), 1.0, gamma)
    b = model.loglik(np.array([0.5, -3.0, -0.5]), 1.0, gamma)
    assert np.array_equal(a, b)


def test_label_validation():
    model = CategoricalSoftmax(2, 3)
    gamma = DrawBatch(np.zeros((1, 6)))
    with pytest.raises(ValueError):
        model.loglik(np.zeros(2), 7, gamma)


@pytest.mark.parametrize("method", ["loglik", "score_x"])
@pytest.mark.parametrize("labels, message", [
    (np.array([0.0, 1.5]), "must be integers"),       # non-integer floats
    (np.array([0.0, np.nan]), "must be integers"),
    (np.array([1, -1]), "out of range"),              # negative
    (np.array([-1.0, 2.0]), "out of range"),
    (np.array([0, 3]), "out of range"),               # >= n_classes
    (np.array([0.0, np.inf]), "out of range"),
    (7, "out of range"),
    (np.array(["0", "1"]), "must be integers"),       # non-numeric dtypes
    (np.array([True, False]), "must be integers"),
    (np.array([0, 1], dtype=object), "must be integers"),
])
def test_label_validation_rejects(method, labels, message):
    model = CategoricalSoftmax(2, 3)
    gamma = DrawBatch(np.zeros((2, 6)))
    with pytest.raises(ValueError, match=message):
        getattr(model, method)(np.zeros(2), labels, gamma)


def test_valid_labels_pass_in_any_integer_form():
    model = CategoricalSoftmax(2, 3)
    gamma = DrawBatch(np.arange(12.0).reshape(2, 6) / 10.0)
    want = model.loglik(np.ones(2), np.array([0, 2]), gamma)
    for labels in (np.array([0.0, 2.0]), np.array([0, 2], dtype=np.uint8), [0, 2]):
        assert np.array_equal(model.loglik(np.ones(2), labels, gamma), want)
    with pytest.raises(ValueError):
        BernoulliLogit(2).loglik(np.zeros(2), 0.5, DrawBatch(np.zeros((1, 2))))


def test_require_gaussian_linear():
    assert require_gaussian_linear(GaussianLinear(2)) is not None
    with pytest.raises(UnsupportedModelError):
        require_gaussian_linear(BernoulliLogit(2))


# ---------------------------------------------------------------------------
# The shared outcome laws give the numbers of the expressions each family
# and target wrote out before they shared them, bit for bit, and consume the
# random stream the same way.


def _same_stream(a, b):
    return a.bit_generator.state == b.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 40), dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       one_y=st.booleans())
def test_gaussian_linear_matches_its_written_out_law(m, dim, seed, one_y):
    r = np.random.default_rng(seed)
    beta, phi = r.standard_normal((m, dim)), r.uniform(0.05, 4.0, m)
    x = r.standard_normal(dim)
    y = r.standard_normal() if one_y else r.standard_normal(m)
    model, gamma = GaussianLinear(dim), DrawBatch(beta, phi)
    mean = beta @ x
    want_ll = -0.5 * np.log(2.0 * np.pi * phi) - (np.asarray(y) - mean) ** 2 / (2.0 * phi)
    want_score = ((np.asarray(y) - mean) / phi)[:, None] * beta
    assert np.array_equal(model.loglik(x, y, gamma), want_ll)
    assert np.array_equal(model.score_x(x, y, gamma), want_score)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    want_y = beta @ x + np.sqrt(phi) * theirs.standard_normal(m)
    assert np.array_equal(model.sample_y(x, gamma, ours), want_y)
    assert _same_stream(ours, theirs)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 40), dim=st.integers(1, 4), k=st.integers(2, 5),
       seed=st.integers(0, 2**32 - 1), one_y=st.booleans())
def test_categorical_softmax_matches_its_written_out_law(m, dim, k, seed, one_y):
    r = np.random.default_rng(seed)
    W = 2.0 * r.standard_normal((m, k, dim))
    x = r.standard_normal(dim)
    y = int(r.integers(k)) if one_y else r.integers(0, k, m)
    model, gamma = CategoricalSoftmax(dim, k), DrawBatch(W.reshape(m, -1))
    logits = W @ x
    probs = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
    rows, labels = np.arange(m), np.broadcast_to(y, (m,))
    want_ll = logits[rows, labels] - logsumexp(logits, axis=1)
    want_score = W[rows, labels, :] - np.einsum("mk,mkp->mp", probs, W)
    assert np.array_equal(model.class_probs(x, gamma), probs)
    assert np.array_equal(model.loglik(x, y, gamma), want_ll)
    assert np.array_equal(model.score_x(x, y, gamma), want_score)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    u = theirs.random(m)[:, None]
    want_y = (np.cumsum(probs, axis=1) < u).sum(axis=1).astype(float)
    assert np.array_equal(model.sample_y(x, gamma, ours), want_y)
    assert _same_stream(ours, theirs)


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 50), k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_adversarial_targets_match_their_written_out_laws(size, k, seed):
    r = np.random.default_rng(seed)
    mean, var = float(r.standard_normal()), float(r.uniform(0.05, 4.0))
    ys = r.standard_normal(size)
    want = -0.5 * np.log(2.0 * np.pi * var) - (ys - mean) ** 2 / (2.0 * var)
    assert np.array_equal(NormalAppd(mean, var).logpdf(ys), want)
    probs = r.dirichlet(np.ones(k))
    appd = CategoricalAppd(probs)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    u = theirs.random(size)[:, None]
    want_y = (np.cumsum(appd.probs)[None, :] < u).sum(axis=1).astype(float)
    assert np.array_equal(appd.sample(size, ours), want_y)
    assert _same_stream(ours, theirs)
