"""Target functionals g(x, y) whose predictive expectation the attack steers.

A functional maps a covariate vector ``x`` and outcome ``y`` to a vector of
dimension ``out_dim``.  The attack objective is the squared distance between
``E[g(x, y)]`` under the posterior predictive and a target vector.  Gradients
with respect to ``x`` (and, for the reparameterised estimator, ``y``) must be
supplied; for the common cases below they are zeros/ones/identity.

Batched evaluation: ``ys`` has one outcome per posterior draw, so ``value``
returns shape (m, out_dim).  ``grad_x`` may return (out_dim, dim) when the
gradient does not depend on ``y``, or (m, out_dim, dim) otherwise.  ``x`` is
one point (dim,), or K points (K, dim) for attack instances run in lockstep,
with ``ys`` in K equal blocks, block k drawn at x[k].
"""

from __future__ import annotations

import numpy as np

from .._fields import Count, _setting


class Functional:
    """User-defined functional from vectorised callables.

    Parameters
    ----------
    value_fn : callable(x, ys) -> (m, out_dim)
    out_dim : int
    grad_x_fn : callable(x, ys) -> (out_dim, dim) or (m, out_dim, dim), optional
        Defaults to zero (functional does not depend on x directly).
    grad_y_fn : callable(x, ys) -> (m, out_dim), optional
        Needed only by the reparameterised gradient path.
    """

    def __init__(self, value_fn, out_dim, grad_x_fn=None, grad_y_fn=None):
        self._value = value_fn
        self.out_dim = _setting(self, "out_dim", Count, out_dim)
        self._grad_x = grad_x_fn
        self._grad_y = grad_y_fn

    def value(self, x, ys):
        return np.asarray(self._value(x, ys), dtype=float)

    def grad_x(self, x, ys):
        if self._grad_x is None:
            return np.zeros((self.out_dim, np.shape(x)[-1]))
        return np.asarray(self._grad_x(x, ys), dtype=float)

    def grad_y(self, x, ys):
        if self._grad_y is None:
            raise NotImplementedError(
                "this functional does not define an outcome gradient"
            )
        return np.asarray(self._grad_y(x, ys), dtype=float)


def response_functional():
    """g(x, y) = y: steers the predictive mean of the response."""
    return Functional(
        value_fn=lambda x, ys: np.asarray(ys, dtype=float).reshape(-1, 1),
        out_dim=1,
        grad_y_fn=lambda x, ys: np.ones((np.asarray(ys).size, 1)),
    )


def onehot_functional(n_classes):
    """g(x, y) = one_hot(y): steers the vector of predictive class probabilities."""
    eye = np.eye(int(n_classes))

    def value(x, ys):
        ys = np.asarray(ys).astype(int).reshape(-1)
        if not np.logical_and.reduce((ys >= 0) & (ys < n_classes), axis=None):
            raise ValueError("class label out of range")
        return eye[ys]

    return Functional(
        value_fn=value,
        out_dim=int(n_classes),
    )


def covariate_functional(dim):
    """g(x, y) = x: a degenerate functional useful for sanity checks."""
    def value(x, ys):
        x = np.array(x, dtype=float, ndmin=2)  # each point once per outcome of its block
        return np.repeat(x, np.asarray(ys).shape[0] // len(x), axis=0)

    return Functional(
        value_fn=value,
        out_dim=int(dim),
        grad_x_fn=lambda x, ys: np.eye(int(dim)),
        grad_y_fn=lambda x, ys: np.zeros((np.asarray(ys).shape[0], int(dim))),
    )
