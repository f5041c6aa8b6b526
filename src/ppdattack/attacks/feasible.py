"""Norm-ball feasible sets and Euclidean projections onto them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .._fields import Checked, NonNegative

Norm = Literal["l1", "l2", "linf"]
NORMS = get_args(Norm)


def project_l1_ball(v, radius):
    """Euclidean projection of ``v`` onto the L1 ball of the given radius.

    Sort-and-threshold algorithm (Duchi et al., ICML 2008): project the
    absolute values onto the simplex of size ``radius`` and restore signs.
    O(p log p).  A (K, p) array is projected row by row, each row rounded as
    its own 1-D projection is.
    """
    v = np.asarray(v, dtype=float)
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    a = np.abs(v)
    inside = np.add.reduce(a, axis=-1, keepdims=True) <= radius
    if inside.all():
        return v.copy()
    if radius == 0:
        return np.where(inside, v, 0.0)
    u = np.sort(a, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    active = u * np.arange(1, v.shape[-1] + 1) > (css - radius)
    # The last active index per row.  Exactly, index 0 always qualifies; a
    # radius below the rounding of css[0] can leave none, and index 0 is then
    # the answer.
    rho = np.where(active.any(axis=-1), v.shape[-1] - 1 - np.argmax(active[..., ::-1], axis=-1),
                   0)[..., None]
    theta = (np.take_along_axis(css, rho, axis=-1) - radius) / (rho + 1.0)
    return np.where(inside, v, np.sign(v) * np.maximum(a - theta, 0.0))


@dataclass(frozen=True)
class FeasibleSet(Checked):
    """Ball ``{x : ||x - center||_norm <= epsilon}`` with a projection operator.

    ``center`` is one point (p,), or K points (K, p): K balls of one radius
    and norm, one per attack instance, for attacks run in lockstep.
    """

    center: np.ndarray
    epsilon: NonNegative
    norm: Norm = "l2"

    def validate(self):
        center = np.asarray(self.center, dtype=float)
        if center.ndim not in (1, 2) or (center.ndim == 2 and not len(center)):
            raise ValueError("center must be a vector, or a (K, p) array of K >= 1 centres")
        if not np.all(np.isfinite(center)):
            raise ValueError("center must be finite")
        object.__setattr__(self, "center", center)

    @property
    def dim(self):
        return self.center.shape[-1]

    def perturbation_norm(self, x):
        """``||x - center||``, one per row for points (K, p)."""
        d = np.asarray(x, dtype=float) - self.center
        if self.norm == "l2":
            out = np.sqrt(np.vecdot(d, d))
        elif self.norm == "linf":
            out = np.abs(d).max(axis=-1, initial=0.0)
        else:
            out = np.abs(d).sum(axis=-1)
        return float(out) if out.ndim == 0 else out

    def contains(self, x, tol=1e-9):
        return self.perturbation_norm(x) <= self.epsilon + tol

    def project(self, x):
        """Euclidean projection of ``x`` onto the ball, one ball per row.

        ``x`` and the centre broadcast as rows of p: each row of ``x`` goes
        onto its ball, rounded as a one-point projection of that row is.  The
        L2 norm is ``sqrt(vecdot(d, d))``, which rounds as the 1-D
        ``np.linalg.norm`` does; ``norm(axis=-1)`` may not.
        """
        x = np.asarray(x, dtype=float)
        c = self.center
        if x.shape[-1:] != c.shape[-1:] or x.ndim > 2:
            raise ValueError("x must have shape (%d,) or (K, %d)" % (self.dim, self.dim))
        d = x - c
        if self.norm == "linf":
            return c + np.clip(d, -self.epsilon, self.epsilon)
        if self.norm == "l1":
            return c + project_l1_ball(d, self.epsilon)
        nrm = np.sqrt(np.vecdot(d, d))
        if d.ndim == 1:  # scalar arithmetic, at a third of the cost of the row form
            return x.copy() if nrm <= self.epsilon else c + (self.epsilon / nrm) * d
        far = (nrm > self.epsilon)[:, None]
        if not far.any():
            return x.copy()
        return np.where(far, c + (self.epsilon / np.where(far, nrm[:, None], 1.0)) * d, x)
