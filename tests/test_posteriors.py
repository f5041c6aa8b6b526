"""Conjugate posterior updates and the draw backends built on top of them.

The normal--inverse-gamma numbers below were worked out by hand from the
standard conjugate update formulas; the known-variance Gaussian case was
checked against a two-line linear-algebra derivation.  Monte-Carlo checks
compare chunked empirical moments against the closed-form posterior moments.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdattack.bayes.backends import ExactConjugate, SampleBank
from ppdattack.bayes.conjugate import (
    GaussianPosterior,
    NigPosterior,
    NigPrior,
    SingularPrecisionError,
    gaussian_update,
    nig_update,
    ppd_t_params,
    spd_solve,
)
from ppdattack.bayes.draws import DrawBatch


def unit_prior(p=1):
    return NigPrior(np.zeros(p), np.eye(p), 1.0, 1.0)


def test_empty_data_returns_prior():
    prior = NigPrior(np.array([0.3, -0.7]), np.diag([2.0, 5.0]), 1.5, 0.8)
    post = nig_update(prior, np.empty((0, 2)), np.empty(0))
    assert np.array_equal(post.mu_n, prior.mu0)
    assert np.array_equal(post.lambda_n, prior.lambda0)
    assert post.a_n == prior.a0
    assert post.b_n == prior.b0


def test_single_observation_hand_values():
    # p=1, mu0=0, Lambda0=1, a0=b0=1, one observation x=1, y=2:
    #   Lambda_n = 1 + 1 = 2,  mu_n = (0 + 1*2)/2 = 1
    #   a_n = 1 + 1/2 = 1.5,   b_n = 1 + (4 + 0 - 2*1)/2 = 2
    post = nig_update(unit_prior(), np.array([[1.0]]), np.array([2.0]))
    assert np.allclose(post.mu_n, [1.0])
    assert np.allclose(post.lambda_n, [[2.0]])
    assert post.a_n == pytest.approx(1.5)
    assert post.b_n == pytest.approx(2.0)


def test_batch_equals_sequential_update():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((5, 2))
    y = rng.standard_normal(5)
    prior = NigPrior(np.array([0.1, 0.2]), np.diag([1.0, 3.0]), 2.0, 1.5)
    batch = nig_update(prior, X, y)
    mid = nig_update(prior, X[:3], y[:3])
    seq = nig_update(
        NigPrior(mid.mu_n, mid.lambda_n, mid.a_n, mid.b_n), X[3:], y[3:]
    )
    assert np.allclose(batch.mu_n, seq.mu_n, atol=1e-10)
    assert np.allclose(batch.lambda_n, seq.lambda_n, atol=1e-10)
    assert abs(batch.a_n - seq.a_n) < 1e-10
    assert abs(batch.b_n - seq.b_n) < 1e-10


def test_t_predictive_hand_values():
    post = nig_update(unit_prior(), np.array([[1.0]]), np.array([2.0]))
    tp = ppd_t_params(post, np.array([1.0]))
    # df = 2 a_n = 3; loc = mu_n = 1; scale = (b_n/a_n)(1 + x' inv(Lambda_n) x) = (2/1.5)*1.5
    assert tp.df == pytest.approx(3.0)
    assert tp.loc == pytest.approx(1.0)
    assert tp.scale == pytest.approx(2.0)


def test_t_predictive_zero_covariates():
    post = nig_update(unit_prior(), np.array([[1.0]]), np.array([2.0]))
    tp = ppd_t_params(post, np.array([0.0]))
    assert tp.loc == 0.0
    assert tp.scale == pytest.approx(post.b_n / post.a_n)


def test_t_scale_grows_away_from_origin():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    post = nig_update(NigPrior(np.zeros(3), np.eye(3), 2.0, 2.0), X, y)
    evals, evecs = np.linalg.eigh(np.linalg.inv(post.lambda_n))
    for j in range(3):
        direction = evecs[:, j]
        scales = [ppd_t_params(post, t * direction).scale for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(s1 > s0 for s0, s1 in zip(scales, scales[1:]))


def test_gaussian_update_empty_data():
    mu0 = np.array([1.0, -1.0])
    lam0 = np.diag([4.0, 9.0])
    post = gaussian_update(mu0, lam0, 0.5, np.empty((0, 2)), np.empty(0))
    assert np.array_equal(post.mu_n, mu0)
    assert np.array_equal(post.lambda_n, lam0)


def test_gaussian_update_hand_values():
    # mu0=0, Lambda0=I, sigma2=1, X=[[1,0]], y=[1]:
    #   Lambda_n = I + [[1,0],[0,0]] = diag(2,1),  mu_n = inv(Lambda_n) (0 + X'y) = (0.5, 0)
    post = gaussian_update(np.zeros(2), np.eye(2), 1.0, np.array([[1.0, 0.0]]), np.array([1.0]))
    assert np.allclose(post.lambda_n, np.diag([2.0, 1.0]))
    assert np.allclose(post.mu_n, [0.5, 0.0])


@pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan])
def test_gaussian_update_refuses_a_non_positive_noise_variance(sigma2):
    # Refused before any arithmetic: no RuntimeWarning, no SingularPrecisionError
    # (NaN used to give mu_n = [nan, nan]).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            gaussian_update(np.zeros(2), np.eye(2), sigma2, np.ones((3, 2)), np.ones(3))


def test_predictive_variance_at_origin_is_noise_variance():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 4))
    y = X @ np.array([1.0, 0.0, -1.0, 2.0]) + rng.standard_normal(50)
    post = gaussian_update(np.zeros(4), np.eye(4), 1.7, X, y)
    mean, var = post.predictive_moments(np.zeros(4))
    assert mean == 0.0
    assert var == pytest.approx(1.7)


def test_ridge_map_property():
    # With mu0 = 0 and Lambda0 = c I the posterior mean equals the ridge
    # estimator inv(X'X + cI) X'y.
    rng = np.random.default_rng(19)
    X = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    for c in (0.1, 1.0, 10.0):
        post = nig_update(NigPrior(np.zeros(3), c * np.eye(3), 2.0, 2.0), X, y)
        ridge = np.linalg.solve(X.T @ X + c * np.eye(3), X.T @ y)
        assert np.allclose(post.mu_n, ridge, atol=1e-8)


@settings(max_examples=80, deadline=None)
@given(p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_predictive_params_match_the_written_out_forms(p, seed, scale):
    # Both predictive forms are built on the posteriors' shared pair
    # (x'mu_n, x'inv(Lambda_n)x); they must equal, bit for bit, the closed
    # forms written out with the same operations in the same order.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    lam = a @ a.T + 0.1 * np.eye(p)
    mu, x = rng.standard_normal(p), scale * rng.standard_normal(p)
    sigma2, a_n, b_n = rng.uniform(0.1, 5.0, 3)
    quad = x @ spd_solve(lam, x, "Lambda_n")
    m, v = GaussianPosterior(mu, lam, sigma2).predictive_moments(x)
    assert (m, v) == (float(x @ mu), float(x @ spd_solve(lam, x, "Lambda_n") + sigma2))
    nig = NigPosterior(mu, lam, a_n, b_n)
    t = ppd_t_params(nig, x)
    assert (t.df, t.loc, t.scale) == (2.0 * a_n, float(x @ mu),
                                      float((b_n / a_n) * (1.0 + quad)))
    if t.df > 2:
        assert nig.predictive_moments(x) == (t.loc, t.variance())
    else:
        with pytest.raises(ValueError, match="df <= 2"):
            nig.predictive_moments(x)


def test_singular_precision_rejected():
    with pytest.raises(SingularPrecisionError):
        nig_update(NigPrior(np.zeros(2), np.zeros((2, 2)), 1.0, 1.0),
                   np.empty((0, 2)), np.empty(0))
    with pytest.raises(SingularPrecisionError):
        GaussianPosterior(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0).cov_chol()
    # The factor of Lambda_n is made at first use, and a failed one is not kept.
    singular = GaussianPosterior(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0)
    for _ in range(2):
        with pytest.raises(SingularPrecisionError):
            singular.predictive_pair(np.ones((3, 2)))


def test_exact_conjugate_draw_covariance():
    # Marginal covariance of beta under the NIG posterior is E[sigma2] inv(Lambda_n)
    # with E[sigma2] = b_n/(a_n - 1).  Compare against chunked Monte-Carlo
    # estimates so the tolerance is set by the data, not by a guess.
    rng = np.random.default_rng(23)
    X = rng.standard_normal((60, 2))
    y = X @ np.array([1.0, -2.0]) + rng.standard_normal(60)
    post = nig_update(NigPrior(np.zeros(2), np.eye(2), 3.0, 2.0), X, y)
    target = post.b_n / (post.a_n - 1.0) * np.linalg.inv(post.lambda_n)

    backend = ExactConjugate(post)
    chunks = []
    for _ in range(20):
        batch = backend.draw(5000, rng)
        centered = batch.beta - post.mu_n
        chunks.append(centered.T @ centered / len(batch))
    chunks = np.array(chunks)
    mean = chunks.mean(axis=0)
    se = chunks.std(axis=0, ddof=1) / np.sqrt(len(chunks))
    assert np.all(np.abs(mean - target) <= 3.0 * se + 1e-12)


def test_known_variance_draws_pin_phi():
    post = gaussian_update(np.zeros(2), np.eye(2), 0.25,
                           np.array([[1.0, 0.0]]), np.array([1.0]))
    batch = ExactConjugate(post).draw(100, np.random.default_rng(0))
    assert np.all(batch.phi == 0.25)


def test_sample_bank_singleton_repeats():
    bank = SampleBank(DrawBatch(np.array([[1.5, -0.5]]), np.array([2.0])))
    batch = bank.draw(3, np.random.default_rng(5))
    assert np.array_equal(batch.beta, np.repeat([[1.5, -0.5]], 3, axis=0))
    assert np.array_equal(batch.phi, [2.0, 2.0, 2.0])


def test_fixed_seed_draws_are_bit_identical():
    post = nig_update(unit_prior(2), np.random.default_rng(1).standard_normal((8, 2)),
                      np.random.default_rng(2).standard_normal(8))
    backend = ExactConjugate(post)
    a = backend.draw(64, np.random.default_rng(99))
    b = backend.draw(64, np.random.default_rng(99))
    assert a.beta.tobytes() == b.beta.tobytes()
    assert a.phi.tobytes() == b.phi.tobytes()


def test_draw_count_validation():
    post = gaussian_update(np.zeros(1), np.eye(1), 1.0, np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        ExactConjugate(post).draw(0, np.random.default_rng(0))
