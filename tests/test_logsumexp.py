"""The library's logsumexp against scipy's, bit for bit.

``ppdattack.bayes.likelihoods.logsumexp`` mirrors the real-input, unweighted
path of ``scipy.special.logsumexp`` as of scipy 1.17.1: the tied maxima are
counted and taken out of the shifted sum, the result is
``log1p(s / m) + log(m) + max``, and non-finite results fall back to
``log(sum(exp(a)))``.  The properties below compare it with the installed
scipy for exact equality (nan positions included) and for the same result
type, so a scipy release that changes its algorithm shows up here.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp as scipy_logsumexp

from ppdattack.bayes.likelihoods import _softmax, logsumexp

PROPERTY = settings(max_examples=400, deadline=None)

FINITE = st.floats(-800.0, 800.0)
# A small pool makes tied maxima and all -inf slices common.
POOLED = st.sampled_from([-np.inf, np.inf, np.nan, -1.5, 0.0, 2.0, 709.0, -745.0])
ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=5),
    elements=st.one_of(FINITE, POOLED),
)


@st.composite
def cases(draw):
    a = draw(ARRAYS)
    ndim = max(a.ndim, 1)  # a 0-d input is reduced as a 1-d one
    axis = draw(st.one_of(st.none(), st.integers(-ndim, ndim - 1)))
    return a, axis, draw(st.booleans())


def assert_same(a, axis, keepdims):
    with np.errstate(all="ignore"):
        want = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
    got = logsumexp(a, axis=axis, keepdims=keepdims)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


@PROPERTY
@given(case=cases())
@example(case=(np.full((3, 4), -np.inf), 1, False))
@example(case=(np.array([[-np.inf, -np.inf], [0.0, 0.0]]), -1, True))
@example(case=(np.array([np.inf, 1.0, np.inf]), None, False))
@example(case=(np.array([np.nan, np.inf, -np.inf]), 0, True))
@example(case=(np.array(3.5), None, False))
@example(case=(np.array(-np.inf), 0, True))
def test_matches_scipy_exactly(case):
    assert_same(*case)


@PROPERTY
@given(logits=hnp.arrays(np.float64, st.tuples(st.integers(1, 200), st.integers(2, 6)),
                         elements=FINITE))
def test_matches_scipy_on_softmax_shaped_input(logits):
    # The shapes the likelihoods and the MCMC log posterior pass it.
    for axis in (0, 1):
        for keepdims in (False, True):
            assert_same(logits, axis, keepdims)


@PROPERTY
@given(logits=hnp.arrays(np.float64, st.tuples(st.integers(1, 50), st.integers(2, 6)),
                         elements=FINITE))
def test_softmax_rows_sum_to_one(logits):
    probs = _softmax(logits)
    assert np.all(probs >= 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
