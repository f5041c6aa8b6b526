"""Norm-ball feasible sets and Euclidean projections onto them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORMS = ("l1", "l2", "linf")


def project_l1_ball(v, radius):
    """Euclidean projection of ``v`` onto the L1 ball of the given radius.

    Sort-and-threshold algorithm (Duchi et al., ICML 2008): project the
    absolute values onto the simplex of size ``radius`` and restore signs.
    O(p log p).
    """
    v = np.asarray(v, dtype=float)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if np.abs(v).sum() <= radius:
        return v.copy()
    if radius == 0:
        return np.zeros_like(v)
    u = np.sort(np.abs(v))[::-1]
    css = np.cumsum(u)
    k = np.arange(1, v.size + 1)
    # Exactly, index 0 always qualifies; a radius below the rounding of
    # css[0] can leave none, and index 0 is then the answer.
    active = np.flatnonzero(u * k > (css - radius))
    rho = active[-1] if active.size else 0
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


@dataclass(frozen=True)
class FeasibleSet:
    """Ball ``{x : ||x - center||_norm <= epsilon}`` with a projection operator."""

    center: np.ndarray
    epsilon: float
    norm: str = "l2"

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.ndim != 1:
            raise ValueError("center must be a vector")
        if not np.all(np.isfinite(center)):
            raise ValueError("center must be finite")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.norm not in NORMS:
            raise ValueError("norm must be one of %s" % (NORMS,))
        object.__setattr__(self, "center", center)

    @property
    def dim(self):
        return self.center.size

    def perturbation_norm(self, x):
        d = np.asarray(x, dtype=float) - self.center
        if self.norm == "l2":
            return float(np.linalg.norm(d))
        if self.norm == "linf":
            return float(np.abs(d).max()) if d.size else 0.0
        return float(np.abs(d).sum())

    def contains(self, x, tol=1e-9):
        return self.perturbation_norm(x) <= self.epsilon + tol

    def project(self, x):
        """Euclidean projection of ``x`` onto the ball."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.center.shape:
            raise ValueError("x must have shape %s" % (self.center.shape,))
        d = x - self.center
        if self.norm == "l2":
            nrm = np.linalg.norm(d)
            if nrm <= self.epsilon:
                return x.copy()
            return self.center + (self.epsilon / nrm) * d
        if self.norm == "linf":
            return self.center + np.clip(d, -self.epsilon, self.epsilon)
        return self.center + project_l1_ball(d, self.epsilon)

