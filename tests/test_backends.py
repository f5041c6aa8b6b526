"""Random-walk Metropolis backend checked against a known Gaussian target,
and the checks made where draws enter: bank rows and conjugate draws."""

import numpy as np
import pytest

from ppdattack.bayes.backends import ExactConjugate, McmcChain, SampleBank, adaptive_rwm
from ppdattack.bayes.conjugate import GaussianPosterior, NigPrior, nig_update
from ppdattack.bayes.draws import DrawBatch


def gaussian_log_post(mean, var):
    mean = np.asarray(mean, dtype=float)

    def log_post(w):
        return -0.5 * np.sum((w - mean) ** 2) / var

    return log_post


def test_rwm_recovers_gaussian_moments():
    rng = np.random.default_rng(17)
    target_mean = np.array([1.0, -2.0])
    states, rate = adaptive_rwm(
        gaussian_log_post(target_mean, 0.5), np.zeros(2), 4000, rng,
        burn_in=2000, thin=10,
    )
    assert states.shape == (4000, 2)
    # Thinned RWM states are still autocorrelated, so the bounds are loose:
    # an exact-sampler 3-SE band would be ~0.03 wide here.
    assert np.all(np.abs(states.mean(axis=0) - target_mean) < 0.1)
    assert np.all(np.abs(states.var(axis=0, ddof=1) - 0.5) < 0.1)
    assert 0.1 < rate < 0.6


def test_adaptation_tracks_target_acceptance():
    rng = np.random.default_rng(5)
    # Start with a proposal scale two orders of magnitude off.
    _, rate = adaptive_rwm(
        gaussian_log_post([0.0], 1.0), np.zeros(1), 2000, rng,
        step=50.0, burn_in=3000, thin=2, target_accept=0.3,
    )
    assert abs(rate - 0.3) < 0.12


def test_chain_determinism_and_bank():
    chain = McmcChain(gaussian_log_post([0.5], 1.0), np.zeros(1),
                      burn_in=200, thin=2)
    a = chain.draw(50, np.random.default_rng(42))
    b = chain.draw(50, np.random.default_rng(42))
    assert a.beta.tobytes() == b.beta.tobytes()
    assert np.all(a.phi == 1.0)

    bank = SampleBank(chain.draw(50, np.random.default_rng(42)))
    assert len(bank) == 50
    assert bank.batch.beta.tobytes() == a.beta.tobytes()
    resampled = bank.draw(7, np.random.default_rng(0))
    assert resampled.beta.shape == (7, 1)


def test_pathological_acceptance_warns():
    # A flat target accepts every proposal regardless of scale.
    with pytest.warns(RuntimeWarning):
        adaptive_rwm(lambda w: 0.0, np.zeros(1), 100, np.random.default_rng(2),
                     burn_in=50, thin=1)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        adaptive_rwm(gaussian_log_post([0.0], 1.0), np.zeros(1), 0,
                     np.random.default_rng(0))
    with pytest.raises(ValueError):
        adaptive_rwm(lambda w: float("nan"), np.zeros(1), 10,
                     np.random.default_rng(0))


@pytest.mark.parametrize("beta, phi, message", [
    ([[0.0, np.nan]], 1.0, "non-finite coefficient draws"),
    ([[np.inf, 0.0]], 1.0, "non-finite coefficient draws"),
    ([[0.0, 0.0]], 0.0, "noise variances must be finite and positive"),
    ([[0.0, 0.0]], -1.0, "noise variances must be finite and positive"),
    ([[0.0, 0.0]], np.inf, "noise variances must be finite and positive"),
])
def test_bank_rejects_bad_rows(beta, phi, message):
    # DrawBatch takes any values; the bank checks them as they enter.
    with pytest.raises(ValueError, match=message):
        SampleBank(DrawBatch(np.vstack([[1.0, 2.0], beta]), [1.0, phi]))


def test_nig_draw_rejects_overflowing_noise_variance():
    # With shape a0 = 1e-3 and no data most Gamma(a, 1/b) draws underflow to
    # 0, so phi = 1 / gamma is inf and the coefficient draws are not finite.
    post = nig_update(NigPrior(np.zeros(2), np.eye(2), 1e-3, 1.0),
                      np.zeros((0, 2)), np.zeros(0))
    with np.errstate(divide="ignore", over="ignore"), \
            pytest.raises(ValueError, match="non-finite coefficient draws"):
        ExactConjugate(post).draw(64, np.random.default_rng(0))


def test_conjugate_backend_rejects_non_finite_posterior():
    post = GaussianPosterior(mu_n=np.array([0.0, np.nan]), lambda_n=np.eye(2), sigma2=1.0)
    with pytest.raises(ValueError, match="non-finite coefficient draws"):
        ExactConjugate(post)
    post = GaussianPosterior(mu_n=np.zeros(2), lambda_n=np.eye(2), sigma2=np.inf)
    with pytest.raises(ValueError, match="noise variances must be finite and positive"):
        ExactConjugate(post)
