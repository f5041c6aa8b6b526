"""Projections onto L1/L2/Linf perturbation balls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdattack.attacks.feasible import NORMS, FeasibleSet, project_l1_ball

PROPERTY = settings(max_examples=200, deadline=None)
VECTORS = st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8).map(np.array)
RADII = st.one_of(st.just(0.0), st.floats(1e-3, 100.0))


def test_interior_point_unchanged():
    fs = FeasibleSet(np.array([1.0, 1.0]), 2.0, "l2")
    x = np.array([1.5, 0.5])
    assert np.array_equal(fs.project(x), x)


def test_l2_radial_scaling():
    fs = FeasibleSet(np.zeros(2), 1.0, "l2")
    assert np.allclose(fs.project(np.array([3.0, 4.0])), [0.6, 0.8])


def test_linf_clipping():
    fs = FeasibleSet(np.zeros(2), 1.0, "linf")
    assert np.allclose(fs.project(np.array([3.0, -4.0])), [1.0, -1.0])


@PROPERTY
@given(x=VECTORS, center=VECTORS, eps=RADII, norm=st.sampled_from(NORMS))
def test_projection_idempotent(x, center, eps, norm):
    n = min(x.size, center.size)
    fs = FeasibleSet(center[:n], eps, norm)
    once = fs.project(x[:n])
    twice = fs.project(once)
    assert fs.contains(once), norm
    assert np.allclose(once, twice, atol=1e-12), norm


def test_l2_projection_nonexpansive():
    rng = np.random.default_rng(13)
    fs = FeasibleSet(rng.standard_normal(4), 0.7, "l2")
    for _ in range(100):
        a = rng.standard_normal(4) * 2.0
        b = rng.standard_normal(4) * 2.0
        pa, pb = fs.project(a), fs.project(b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_l1_projection_produces_exact_zeros():
    v = np.array([3.0, -0.1, 0.05, 2.0, -0.02])
    w = project_l1_ball(v, 1.0)
    assert np.abs(w).sum() == pytest.approx(1.0)
    assert np.sum(w == 0.0) >= 2
    # Signs never flip under soft-thresholding.
    assert np.all(w * v >= 0.0)


def test_l1_projection_matches_bruteforce():
    # Check optimality against a dense grid search in 2-D.
    v = np.array([1.0, 0.4])
    w = project_l1_ball(v, 0.8)
    grid = np.linspace(-1.0, 1.0, 801)
    best = None
    for a in grid:
        rem = 0.8 - abs(a)
        if rem < 0:
            continue
        for b in (-rem, 0.0, rem, np.clip(v[1], -rem, rem)):
            cand = np.array([a, b])
            d = np.linalg.norm(cand - v)
            if best is None or d < best[0]:
                best = (d, cand)
    assert np.linalg.norm(w - v) <= best[0] + 1e-3
    assert np.abs(w).sum() <= 0.8 + 1e-12


def test_membership_and_norms():
    fs = FeasibleSet(np.zeros(3), 1.0, "l1")
    assert fs.contains(np.array([0.5, -0.5, 0.0]))
    assert not fs.contains(np.array([0.8, -0.5, 0.0]))
    assert fs.perturbation_norm(np.array([0.5, -0.5, 0.0])) == pytest.approx(1.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        FeasibleSet(np.zeros(2), -1.0, "l2")
    with pytest.raises(ValueError):
        FeasibleSet(np.zeros(2), 1.0, "l3")
    # A (K, p) centre is K balls; anything else that is not a vector is rejected.
    with pytest.raises(ValueError):
        FeasibleSet(np.array([[[1.0]]]), 1.0, "l2")
    with pytest.raises(ValueError):
        FeasibleSet(np.zeros((0, 2)), 1.0, "l2")
    for radius in (-0.5, np.nan):  # a NaN radius gave an all-NaN projection
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            project_l1_ball(np.ones(2), radius)


def test_zero_epsilon_collapses_to_center():
    fs = FeasibleSet(np.array([2.0, -1.0]), 0.0, "linf")
    assert np.array_equal(fs.project(np.array([5.0, 5.0])), [2.0, -1.0])


def test_l1_zero_radius_collapses_to_center():
    fs = FeasibleSet(np.array([2.0, -1.0, 0.5]), 0.0, "l1")
    assert np.array_equal(fs.project(np.array([5.0, 5.0, -3.0])), fs.center)
    assert np.array_equal(project_l1_ball(np.array([-1.0, 2.0]), 0.0), [0.0, 0.0])


def test_l1_radius_below_cumsum_rounding_projects():
    # 1 - 1e-20 rounds to 1, so no index passes the threshold test exactly.
    w = project_l1_ball(np.array([1.0, 0.0]), 1e-20)
    assert np.all(np.isfinite(w))
    assert np.abs(w).sum() <= 1e-20


@PROPERTY
@given(v=VECTORS, radius=RADII)
def test_l1_projection_meets_kkt_conditions(v, radius):
    # Duchi et al. (ICML 2008): w = sign(v) * max(|v| - theta, 0) for one
    # theta >= 0, and ||w||_1 = radius whenever v lies outside the ball.
    w = project_l1_ball(v, radius)
    tol = 1e-9 * (1.0 + np.abs(v).max())
    if np.abs(v).sum() > radius:
        assert np.abs(w).sum() == pytest.approx(radius, abs=tol)
    active = w != 0.0
    assert np.all(np.sign(w[active]) == np.sign(v[active]))
    theta = np.abs(v[active]) - np.abs(w[active]) if active.any() else np.abs(v).max(keepdims=True)
    assert theta.min() >= -tol
    assert np.ptp(theta) <= tol
    assert np.all(np.abs(v[~active]) <= theta.max() + tol)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 12), p=st.integers(1, 9),
       norm=st.sampled_from(["l2", "linf", "l1"]), eps=st.sampled_from([0.0, 0.1, 1.0, 5.0]),
       shared=st.booleans())
def test_rows_project_as_one_point_projections(seed, K, p, norm, eps, shared):
    # K points onto K balls (or one shared ball), row k rounded as the
    # one-point projection of row k is, bit for bit.
    r = np.random.default_rng(seed)
    centres = r.standard_normal((K, p))
    x = centres + r.standard_normal((K, p)) * r.uniform(0.0, 3.0, (K, 1))
    if shared:
        centres = centres[0]
    rows = FeasibleSet(centres, eps, norm).project(x)
    for k in range(K):
        one = FeasibleSet(centres if shared else centres[k], eps, norm).project(x[k])
        assert np.array_equal(rows[k], one)
    assert np.array_equal(FeasibleSet(centres, eps, norm).perturbation_norm(x),
                          [FeasibleSet(centres if shared else centres[k], eps, norm)
                           .perturbation_norm(x[k]) for k in range(K)])
