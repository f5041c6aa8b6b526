"""The library's logsumexp and the categorical path's layouts.

``ppdattack.bayes.likelihoods.logsumexp`` is a plain max-shifted
log-sum-exp.  The properties below compare it with the installed
``scipy.special.logsumexp``: the same result type and shape, +-inf and nan
in the same positions, no RuntimeWarning, and finite values within
2**-52 * (4 * max(1, |scipy's value|) + n) for n terms summed.  The n is the
plain form's own round-off: its shifted sum holds the maximum's term 1.0,
so each of the n - 1 additions may round by an ulp of a partial sum >= 1,
where scipy's ``log1p`` form sums the other terms alone (a column 0, -5,
..., -5 of 11 rows differs by 4.3 * 2**-52 at the value 0.065).

``CategoricalSoftmax`` forms its logits as one 2-D product over every draw's
class rows and ``_sample_categorical`` takes its cumulative sum down the
leading axis of ``probs.T``; both must equal the straightforward stacked
``(m, k, dim) @ x`` product and row-wise ``cumsum(axis=1)`` exactly at dim
2-7.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp as scipy_logsumexp

from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.likelihoods import CategoricalSoftmax, _softmax, logsumexp

PROPERTY = settings(max_examples=400, deadline=None)
ULP = 2.0**-52

FINITE = st.floats(-800.0, 800.0)
# A small pool makes tied maxima and all -inf slices common.
POOLED = st.sampled_from([-np.inf, np.inf, np.nan, -1.5, 0.0, 2.0, 709.0, -745.0])
ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=5),
    elements=st.one_of(FINITE, POOLED),
)
SPECIAL = np.array([-np.inf, np.inf, np.nan, 0.0, 2.0, 709.0, -745.0])


def assert_agrees(got, want, n):
    """Same type and shape, +-inf and nan where ``want`` has them, and finite
    entries within ``ULP * (4 * max(1, |want|) + n)``."""
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    err = np.abs(got[finite] - want[finite])
    assert np.all(err <= ULP * (4.0 * np.maximum(1.0, np.abs(want[finite])) + n))


def assert_matches_scipy(a, axis, keepdims):
    with np.errstate(all="ignore"):
        want = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logsumexp(a, axis=axis, keepdims=keepdims)
    assert_agrees(got, want, a.size if axis is None else np.atleast_1d(a).shape[axis])


@st.composite
def cases(draw):
    a = draw(ARRAYS)
    ndim = max(a.ndim, 1)  # a 0-d input is reduced as a 1-d one
    axis = draw(st.one_of(st.none(), st.integers(-ndim, ndim - 1)))
    return a, axis, draw(st.booleans())


@PROPERTY
@given(case=cases())
@example(case=(np.full((3, 4), -np.inf), 1, False))
@example(case=(np.array([[-np.inf, -np.inf], [0.0, 0.0]]), -1, True))
@example(case=(np.array([np.inf, 1.0, np.inf]), None, False))
@example(case=(np.array([np.inf, 800.0, -np.inf]), 0, False))
@example(case=(np.array([np.nan, np.inf, -np.inf]), 0, True))
@example(case=(np.array([np.nan, 800.0]), None, True))
@example(case=(np.array(3.5), None, False))
@example(case=(np.array(-np.inf), 0, True))
@example(case=(np.array([[0.0, -5.0]] + [[-5.0, -5.0]] * 10), 0, False))
def test_matches_scipy_to_a_few_ulps(case):
    assert_matches_scipy(*case)


@PROPERTY
@given(logits=hnp.arrays(np.float64, st.tuples(st.integers(1, 200), st.integers(2, 6)),
                         elements=FINITE))
def test_matches_scipy_on_softmax_shaped_input(logits):
    # The shapes the likelihoods pass it.
    for axis in (0, 1):
        for keepdims in (False, True):
            assert_matches_scipy(logits, axis, keepdims)


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


@settings(max_examples=150, deadline=None)
@given(a=matrices(), axis=st.sampled_from([0, 1, -1, -2]), keepdims=st.booleans())
def test_logsumexp_matches_scipy_on_either_axis(a, axis, keepdims):
    assert_matches_scipy(a, axis, keepdims)


@PROPERTY
@given(logits=hnp.arrays(np.float64, st.tuples(st.integers(1, 50), st.integers(2, 6)),
                         elements=FINITE))
def test_softmax_rows_sum_to_one(logits):
    probs = _softmax(logits)
    assert np.all(probs >= 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


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


@settings(max_examples=150, deadline=None)
@given(case=categorical_cases())
def test_categorical_softmax_matches_the_stacked_product(case):
    model, batch, x, y, seed = case
    m, k = len(batch), model.n_classes
    W = batch.beta.reshape(m, k, model.dim)
    logits = W @ x  # the stacked (m, k, dim) product
    lse = logsumexp(logits, axis=1)
    probs = np.exp(logits - lse[:, None])
    rows = np.arange(m)

    assert np.array_equal(model.class_probs(x, batch), probs)
    assert np.array_equal(model.loglik(x, y, batch), logits[rows, y] - lse)
    assert np.array_equal(model.score_x(x, y, batch),
                          W[rows, y, :] - np.einsum("mk,mkp->mp", probs, W))

    u = np.random.default_rng(seed).random(m)[:, None]
    want = (np.cumsum(probs, axis=1) < u).sum(axis=1).astype(float)
    assert np.array_equal(model.sample_y(x, batch, np.random.default_rng(seed)), want)

    # scipy's log mass differs from the library's only through the normaliser
    # and the rounding of the difference
    scipy_lse = scipy_logsumexp(logits, axis=1)
    want_ll = logits[rows, y] - scipy_lse
    err = np.abs(model.loglik(x, y, batch) - want_ll)
    assert np.all(err <= ULP * (4.0 * np.maximum(1.0, np.abs(scipy_lse)) + k)
                  + np.spacing(np.abs(want_ll)))
