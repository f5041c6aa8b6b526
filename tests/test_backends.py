"""Random-walk Metropolis backend checked against a known Gaussian target and
against a one-proposal-at-a-time reference loop, and the checks made
where draws enter: bank rows and conjugate draws."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppdattack.bayes.backends import (
    _PREFETCH,
    ExactConjugate,
    McmcChain,
    SampleBank,
    adaptive_rwm,
)
from ppdattack.bayes.conjugate import GaussianPosterior, NigPrior, nig_update
from ppdattack.bayes.draws import DrawBatch
from rwm_reference import sequential_rwm


def gaussian_log_post(mean, var):
    """Batched: a (k, dim) array of states maps to k log densities."""
    mean = np.asarray(mean, dtype=float)

    def log_post(w):
        return -0.5 * np.sum((w - mean) ** 2, axis=-1) / var

    return log_post


def flat_log_post(w):
    return np.zeros(len(w))


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
        adaptive_rwm(flat_log_post, np.zeros(1), 100, np.random.default_rng(2),
                     burn_in=50, thin=1)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        adaptive_rwm(gaussian_log_post([0.0], 1.0), np.zeros(1), 0,
                     np.random.default_rng(0))
    with pytest.raises(ValueError):
        adaptive_rwm(lambda w: np.full(len(w), np.nan), np.zeros(1), 10,
                     np.random.default_rng(0))


@pytest.mark.parametrize("step", [0.0, -0.5, np.nan, np.inf])
def test_step_must_be_finite_and_positive(step):
    with pytest.raises(ValueError, match="step must be finite and positive"):
        adaptive_rwm(flat_log_post, np.zeros(1), 10, np.random.default_rng(0), step=step)


@pytest.mark.parametrize("target_accept", [0.0, 1.0, -0.1, 1.5, np.nan])
def test_target_accept_must_lie_in_the_open_unit_interval(target_accept):
    with pytest.raises(ValueError, match="target_accept must lie in"):
        adaptive_rwm(flat_log_post, np.zeros(1), 10, np.random.default_rng(0),
                     target_accept=target_accept)


@pytest.mark.parametrize("log_post", [
    # a scalar log density summed over the whole batch: numpy would
    # broadcast its one value to every proposal
    lambda w: -0.5 * np.sum(w ** 2),
    lambda w: np.zeros((len(w), 1)),
    lambda w: np.zeros(len(w) + 1),
])
def test_log_post_must_return_one_value_per_row(log_post):
    with pytest.raises(ValueError, match="log_post must map"):
        adaptive_rwm(log_post, np.zeros(2), 10, np.random.default_rng(0))


def _run(sampler, log_post, seed, **kwargs):
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        states, rate = sampler(log_post, **kwargs, rng=rng)
    return states, rate, len(caught), rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 4),
    step=st.floats(0.01, 20.0),
    burn_in=st.integers(0, 600),
    thin=st.integers(1, 4),
    n_keep=st.integers(1, 300),
    target_accept=st.floats(0.05, 0.95),
    flat=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=3, step=0.5, burn_in=0, thin=1, n_keep=2100, target_accept=0.3,
         flat=False, seed=1)
@example(dim=2, step=2.0, burn_in=1100, thin=3, n_keep=400, target_accept=0.5,
         flat=True, seed=2)
def test_prefetching_sampler_equals_the_sequential_loop(dim, step, burn_in, thin, n_keep,
                                                       target_accept, flat, seed):
    # Same states, acceptance rate, warnings and final generator state as
    # the one-proposal loop fed the same log posterior one state at a time;
    # the examples run longer than one 1,024-step block of randomness.
    mean = np.linspace(-1.0, 1.0, dim)
    batched = flat_log_post if flat else gaussian_log_post(mean, 0.7)

    def scalar(w):
        return batched(w[None])[0]

    kwargs = dict(x0=np.zeros(dim), n_keep=n_keep, step=step, burn_in=burn_in,
                  thin=thin, target_accept=target_accept)
    got = _run(adaptive_rwm, batched, seed, **kwargs)
    want = _run(sequential_rwm, scalar, seed, **kwargs)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


@pytest.mark.parametrize("burn_in, thin", [(0, 1), (300, 5), (1500, 2)])
def test_each_call_scores_a_run_of_proposals_covering_every_step(burn_in, thin):
    target = gaussian_log_post([0.3, -0.2], 0.5)
    batches, proposals = [], []

    def counting(w):
        batches.append(w.copy())
        return target(w)

    def recording(w):
        proposals.append(w.copy())
        return target(w[None])[0]

    kwargs = dict(x0=np.zeros(2), n_keep=200, step=0.8, burn_in=burn_in, thin=thin)
    got = _run(adaptive_rwm, counting, 3, **kwargs)
    want = _run(sequential_rwm, recording, 3, **kwargs)
    assert np.array_equal(got[0], want[0])
    assert all(1 <= len(b) <= _PREFETCH for b in batches)
    total = burn_in + 200 * thin
    assert 1 + -(-total // _PREFETCH) <= len(batches) <= total + 1
    # Each call's rows start with the next step's proposal, and the rows up
    # to the first acceptance are the one-at-a-time loop's proposals.
    assert np.array_equal(batches[0], proposals[0][None])
    step = 1
    for b in batches[1:]:
        assert np.array_equal(b[0], proposals[step])
        used = 1
        while used < len(b) and step + used < len(proposals) and np.array_equal(
                b[used], proposals[step + used]):
            used += 1
        step += used
    assert step == len(proposals) == total + 1


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nig_draw_rejects_overflowing_noise_variance():
    # With shape a0 = 1e-3 and no data most Gamma(a, 1/b) draws underflow to
    # 0, so phi = 1 / gamma is inf and the coefficient draws are not finite.
    # The ValueError alone reports it: a RuntimeWarning first fails the test.
    post = nig_update(NigPrior(np.zeros(2), np.eye(2), 1e-3, 1.0),
                      np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="non-finite coefficient draws"):
        ExactConjugate(post).draw(64, np.random.default_rng(0))


def test_conjugate_backend_rejects_non_finite_posterior():
    post = GaussianPosterior(mu_n=np.array([0.0, np.nan]), lambda_n=np.eye(2), sigma2=1.0)
    with pytest.raises(ValueError, match="non-finite coefficient draws"):
        ExactConjugate(post)
    # An infinite noise variance is refused when the posterior is built.
    with pytest.raises(ValueError, match="GaussianPosterior field 'sigma2' must be a finite"):
        GaussianPosterior(mu_n=np.zeros(2), lambda_n=np.eye(2), sigma2=np.inf)


def _backends(r, dim=3):
    X = r.standard_normal((20, dim))
    y = X @ r.standard_normal(dim) + r.standard_normal(20)
    gaussian = GaussianPosterior(mu_n=r.standard_normal(dim), lambda_n=np.eye(dim) + X.T @ X,
                                 sigma2=0.7)
    nig = nig_update(NigPrior(np.zeros(dim), np.eye(dim), 3.0, 2.0), X, y)
    bank = SampleBank(DrawBatch(r.standard_normal((40, dim)), r.uniform(0.5, 2.0, 40)))
    chain = McmcChain(gaussian_log_post(np.ones(dim), 1.0), np.zeros(dim), burn_in=20, thin=2)
    return {"gaussian": ExactConjugate(gaussian), "nig": ExactConjugate(nig), "bank": bank,
            "chain": chain}


# A chain keeping a few states has a noisy acceptance rate; only its stream matters here.
@pytest.mark.filterwarnings("ignore:MCMC acceptance rate:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), picks=st.lists(st.integers(0, 4), min_size=1, max_size=5),
       n=st.integers(1, 12), kind=st.sampled_from(["gaussian", "nig", "bank", "chain"]))
# one-row blocks (numpy's vector product), and a generator listed twice under NIG
@example(seed=0, picks=[0, 1, 2, 3, 4], n=1, kind="gaussian")
@example(seed=0, picks=[0, 0], n=3, kind="nig")
def test_k_generator_draw_joins_the_per_generator_draws(seed, picks, n, kind):
    # draw(K * n, gens) draws block k as draw(n, gens[k]) draws it, called in
    # list order, and leaves each generator where those calls leave it, also
    # when the list names one generator more than once.
    backend = _backends(np.random.default_rng(seed))[kind]
    seeds = np.random.default_rng(seed + 1).integers(0, 2**32, 5)
    pool = [np.random.default_rng(s) for s in seeds]
    alone = [np.random.default_rng(s) for s in seeds]
    together = backend.draw(len(picks) * n, [pool[i] for i in picks])
    joined = DrawBatch.concat([backend.draw(n, alone[i]) for i in picks])
    assert np.array_equal(together.beta, joined.beta)
    assert np.array_equal(together.phi, joined.phi)
    assert [g.bit_generator.state for g in pool] == [g.bit_generator.state for g in alone]


@pytest.mark.parametrize("kind", ["gaussian", "nig", "bank", "chain"])
def test_k_generator_draw_refuses_an_uneven_split(kind):
    backend = _backends(np.random.default_rng(0))[kind]
    gens = [np.random.default_rng(s) for s in (1, 2, 3)]
    with pytest.raises(ValueError, match="10 rows do not split into 3 equal blocks"):
        backend.draw(10, gens)
