"""Projections onto L1/L2/Linf perturbation balls."""

import numpy as np
import pytest

from ppdattack.attacks.feasible import FeasibleSet, project_l1_ball


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


def test_projection_idempotent():
    rng = np.random.default_rng(31)
    for norm in ("l1", "l2", "linf"):
        for _ in range(50):
            fs = FeasibleSet(rng.standard_normal(5), float(rng.uniform(0.1, 2.0)), norm)
            x = rng.standard_normal(5) * 3.0
            once = fs.project(x)
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
    with pytest.raises(ValueError):
        FeasibleSet(np.array([[1.0]]), 1.0, "l2")
    with pytest.raises(ValueError):
        project_l1_ball(np.ones(2), -0.5)


def test_zero_epsilon_collapses_to_center():
    fs = FeasibleSet(np.array([2.0, -1.0]), 0.0, "linf")
    assert np.array_equal(fs.project(np.array([5.0, 5.0])), [2.0, -1.0])
