"""The categorical path's short-class-axis layouts, bit for bit.

``logsumexp`` reduces an integer axis shorter than eight entries as the
leading axis of a contiguous copy; ``CategoricalSoftmax`` forms its logits as
one 2-D product over every draw's class rows; ``_sample_categorical`` takes
its cumulative sum down the leading axis of ``probs.T``.  Each must equal the
straightforward form exactly: scipy's ``logsumexp`` on either axis of an
(m, k) array, and the stacked ``(m, k, dim) @ x`` product with row-wise
``cumsum(axis=1)`` for the likelihood at dim 2-7.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.likelihoods import CategoricalSoftmax, logsumexp

PROPERTY = settings(max_examples=150, deadline=None)
SPECIAL = np.array([-np.inf, np.inf, np.nan, 0.0, 2.0, 709.0, -745.0])


@st.composite
def matrices(draw):
    """An (m, k) array, m <= 600, k 2-40: normals with some entries from a
    small pool, so ties, infinities and nans occur."""
    m = draw(st.integers(1, 600) | st.sampled_from([192, 384, 600]))
    k = draw(st.integers(2, 40) | st.integers(8, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = draw(st.sampled_from([1.0, 30.0, 400.0])) * rng.standard_normal((m, k))
    special = rng.random((m, k)) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    a[special] = rng.choice(SPECIAL, size=int(special.sum()))
    if draw(st.booleans()):  # a column-major input, strided along the class axis
        a = np.asfortranarray(a)
    return a


@PROPERTY
@given(a=matrices(), axis=st.sampled_from([0, 1, -1, -2]), keepdims=st.booleans())
def test_logsumexp_matches_scipy_on_either_axis(a, axis, keepdims):
    with np.errstate(all="ignore"):
        want = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
    got = logsumexp(a, axis=axis, keepdims=keepdims)
    assert type(got) is type(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


@st.composite
def categorical_cases(draw):
    dim = draw(st.integers(2, 7))
    k = draw(st.integers(2, 11))
    m = draw(st.integers(1, 400) | st.sampled_from([192, 384]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    beta = draw(st.sampled_from([0.3, 3.0, 40.0])) * rng.standard_normal((m, k * dim))
    if draw(st.booleans()):  # a non-contiguous batch, as a strided slice leaves it
        beta = np.repeat(beta, 2, axis=1)[:, ::2]
    x = 2.0 * rng.standard_normal(dim)
    y = rng.integers(0, k, size=m)
    return CategoricalSoftmax(dim, k), DrawBatch(beta), x, y, seed


@PROPERTY
@given(case=categorical_cases())
def test_categorical_softmax_matches_the_stacked_product(case):
    model, batch, x, y, seed = case
    m, k = len(batch), model.n_classes
    W = batch.beta.reshape(m, k, model.dim)
    logits = W @ x  # the stacked (m, k, dim) product
    probs = np.exp(logits - scipy_logsumexp(logits, axis=1, keepdims=True))
    rows = np.arange(m)

    assert np.array_equal(model.class_probs(x, batch), probs)
    assert np.array_equal(model.loglik(x, y, batch),
                          logits[rows, y] - scipy_logsumexp(logits, axis=1))
    assert np.array_equal(model.score_x(x, y, batch),
                          W[rows, y, :] - np.einsum("mk,mkp->mp", probs, W))

    u = np.random.default_rng(seed).random(m)[:, None]
    want = (np.cumsum(probs, axis=1) < u).sum(axis=1).astype(float)
    assert np.array_equal(model.sample_y(x, batch, np.random.default_rng(seed)), want)
