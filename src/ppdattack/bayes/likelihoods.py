"""Likelihood families with closed-form covariate gradients.

Every family implements, for a covariate vector ``x``, outcome(s) ``y`` and a
batch of posterior draws ``gamma`` (a :class:`~ppdattack.bayes.draws.DrawBatch`
of ``(beta, phi)`` rows):

* ``loglik``   -- log density/mass ``log pi(y | x, gamma_m)``, shape (m,)
* ``score_x``  -- gradient of ``loglik`` with respect to ``x``, shape (m, dim)
* ``sample_y`` -- one forward-sampled outcome per draw, shape (m,)

Every method takes a ``DrawBatch`` and returns one row per draw; a single draw
is a one-row batch.  ``y`` may be a scalar (evaluated under every draw) or
one value per draw.  Every family takes one point x (dim,) or K points
(K, dim) for K equal blocks of draws, block k at x[k], and then draws block
k's outcomes from the k-th of a list of K generators: K attack instances in
one call, each rounded and drawn as its one-point call.  A gray-box mixture
(``attacks.graybox.MixtureLikelihood``) takes one point.

``SmallBnn``, ``BernoulliLogit`` and ``FeatureSubsetModel`` are library-only:
no harness path, CLI config kind, benchmark workload or demo reaches them, and
only the tests exercise them.  The harness fits ``GaussianLinear`` (Gaussian
and NIG sweeps, gradient checks, gray-box study) and ``CategoricalSoftmax``
(entropy study).

Each outcome law is written once, as a module-level head the families (and
the attack targets) call on their per-draw outputs: ``normal_*`` on a mean
and variance, ``categorical_*`` on class logits.  A score head applies the
chain rule through the family's output Jacobian ``jac``.  ``BernoulliLogit``
keeps its own law, which nothing else uses.

Every softmax and log-normaliser in the library goes through this module's
:func:`logsumexp`, except one: the Metropolis log posterior of the entropy
experiment's bank fit (``harness.entropy.fit_softmax_bank``) writes its own
max-shifted normaliser over a batch of proposals, because its values only
feed accept decisions and round-off there, from the normaliser or the
batching, changes no bank.  ``scipy.special.logsumexp`` is generic over
array APIs; on the small arrays passed here (192 draws by 3 classes in the
attacks) it costs 80-100 us per call on a 2-vCPU Xeon host.  The local
version runs the same numpy operations in the same order as scipy's
real-input path (scipy 1.17.1), so its results are bit-identical on every
input and no sampled class changes.  It reduces a short axis (fewer than
eight entries, such as a class axis) as the leading axis of a contiguous
copy, where numpy's inner loop runs along the long axis instead of once per
row; below eight terms numpy sums left to right in either layout, so the
result is the same.  ``CategoricalSoftmax`` forms its (m, k) logits as one
2-D product over every draw's class rows and ``_sample_categorical`` takes
its cumulative sum down the leading axis of ``probs.T``, for the same
reason.  Both equal the stacked ``(m, k, dim) @ x`` and row-wise ``cumsum``
bit for bit at dim 2-7; from dim 8 the BLAS ``gemv`` kernel may round the
2-D product's last place differently.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator

from ..exceptions import UnsupportedModelError
from .draws import _by_instance

# Axes shorter than this are summed left to right by numpy in any layout.
_SHORT_AXIS = 8


def logsumexp(a, axis=None, keepdims=False):
    """``log(sum(exp(a)))`` over ``axis`` for a real array, computed stably.

    Mirrors ``scipy.special.logsumexp`` (scipy 1.17.1, real input, no
    weights) operation for operation: with ``m`` tied maxima and ``s`` the
    sum of ``exp(a - max)`` over the other entries, the result is
    ``log1p(s / m) + log(m) + max``; where that is not finite (an infinite
    maximum, an all ``-inf`` slice, a nan), the direct ``log(sum(exp(a)))``.
    A 0-d input is treated as 1-d, a 0-d result is returned as a scalar.
    The slices reduced must not be empty.

    An integer ``axis`` shorter than ``_SHORT_AXIS`` is reduced as the leading
    axis of a contiguous copy, so numpy's inner loop runs along the long axes
    and not once per slice.  Below that length numpy sums left to right in
    either layout, so the result is still bit for bit scipy's.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    shape, out_shape = a.shape, None
    if (isinstance(axis, (int, np.integer)) and -a.ndim <= axis < a.ndim
            and shape[axis] < _SHORT_AXIS):
        axis = int(axis) % a.ndim
        # the short axis first, the others in their order
        a = np.ascontiguousarray(a.transpose([axis] + [i for i in range(a.ndim) if i != axis]))
        out_shape = shape[:axis] + ((1,) if keepdims else ()) + shape[axis + 1:]
        axis = 0
    elif axis is None:
        axis = tuple(range(a.ndim))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # ufunc.reduce is what np.max/np.sum call, without their wrapper.
        a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
        tied = a == a_max
        m = np.add.reduce(tied, axis=axis, keepdims=True, dtype=float)
        s = np.add.reduce(np.exp(np.where(tied, -np.inf, a) - a_max), axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.add.reduce(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    if out_shape is not None:
        out = out.reshape(out_shape)
    elif not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _softmax(logits):
    """Row-wise softmax of an (m, k) logit array."""
    return np.exp(logits - logsumexp(logits, axis=1, keepdims=True))


def _check_points(x, dim, m):
    """One point (dim,), or K points (K, dim) for ``m`` draws in K equal blocks."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,) or x.ndim > 2 or (x.ndim == 2 and (not len(x) or m % len(x))):
        raise ValueError("x must have shape (%d,), or (K, %d) with K dividing the %d draws;"
                         " got %s" % (dim, dim, m, x.shape))
    return x


def _linear(A, x):
    """``A @ x``, or for K points the rows of ``A`` in K equal blocks, block k times x[k].

    The batched product rounds each block as the one-point product rounds it
    (both run BLAS ``gemv``); ``einsum`` would not.
    """
    if x.ndim == 1:
        return A @ x
    return np.matmul(A.reshape(len(x), -1, x.shape[1]), x[:, :, None]).ravel()


def _labels(y, m, n_classes):
    """Integer labels, one per draw, validated in one reduction."""
    y = np.asarray(y)
    kind = y.dtype.kind
    if kind == "f":
        ok = (y == np.floor(y)) & (y >= 0) & (y < n_classes)
    elif kind in "iu":
        ok = (y >= 0) & (y < n_classes)
    else:
        raise ValueError("class labels must be integers")
    if not np.logical_and.reduce(ok, axis=None):
        if kind == "f" and not np.logical_and.reduce(y == np.floor(y), axis=None):
            raise ValueError("class labels must be integers")
        raise ValueError("class label out of range [0, %d)" % n_classes)
    return np.broadcast_to(y.astype(int), (m,))


def _sample_categorical(probs, rng):
    """One inverse-CDF class draw per row of an (m, k) probability array, as floats.

    The cumulative sum runs down the leading axis of ``probs.T``: the same
    left-to-right sums as along each row, without a k-long inner loop per row.
    """
    u = _by_instance(rng, Generator.random, probs.shape[0])
    return (np.cumsum(probs.T, axis=0) < u).sum(axis=0).astype(float)


def normal_logpdf(y, mean, var):
    """Log density of ``y`` under N(mean, var), elementwise."""
    # The quadratic term may overflow to inf for tiny var; -inf is the
    # correct log density there, so silence the overflow warning.
    with np.errstate(over="ignore"):
        return -0.5 * np.log(2.0 * np.pi * var) - (np.asarray(y) - mean) ** 2 / (2.0 * var)


def normal_score(y, mean, var, jac):
    """x-gradient of :func:`normal_logpdf` given the (m, dim) Jacobian of ``mean``."""
    with np.errstate(over="ignore"):
        w = (np.asarray(y) - mean) / var
    return w[:, None] * jac


def normal_sample(mean, var, size, rng):
    """``size`` draws of N(mean, var) from one standard-normal block."""
    return mean + np.sqrt(var) * _by_instance(rng, Generator.standard_normal, size)


def categorical_logpmf(logits, y):
    """Log mass of integer labels ``y`` under the softmax of (m, k) ``logits``."""
    y = _labels(y, logits.shape[0], logits.shape[1])
    return logits[np.arange(logits.shape[0]), y] - logsumexp(logits, axis=1)


def categorical_score(logits, y, jac):
    """x-gradient of :func:`categorical_logpmf` given the (m, k, dim) logit Jacobian."""
    probs = _softmax(logits)
    y = _labels(y, logits.shape[0], logits.shape[1])
    return jac[np.arange(logits.shape[0]), y, :] - np.einsum("mk,mkp->mp", probs, jac)


class GaussianLinear:
    """Gaussian linear regression likelihood: y | x, gamma ~ N(beta^T x, phi)."""

    def __init__(self, dim):
        self.dim = int(dim)

    def loglik(self, x, y, gamma):
        x = _check_points(x, self.dim, len(gamma))
        return normal_logpdf(y, _linear(gamma.beta, x), gamma.phi)

    def score_x(self, x, y, gamma):
        x = _check_points(x, self.dim, len(gamma))
        return normal_score(y, _linear(gamma.beta, x), gamma.phi, gamma.beta)

    def sample_y(self, x, gamma, rng):
        x = _check_points(x, self.dim, len(gamma))
        return normal_sample(_linear(gamma.beta, x), gamma.phi, len(gamma), rng)


class BernoulliLogit:
    """Bernoulli likelihood with logit link: P(y=1 | x, gamma) = expit(beta^T x).

    ``expit`` is scipy's, imported on first use (as ``TPredictive.logpdf``
    imports ``gammaln``) so that importing the library does not load
    ``scipy.special``.
    """

    def __init__(self, dim):
        self.dim = int(dim)

    def _check_y(self, y, m):
        y = np.broadcast_to(np.asarray(y, dtype=float), (m,))
        if np.any((y != 0.0) & (y != 1.0)):
            raise ValueError("binary labels must be 0 or 1")
        return y

    def loglik(self, x, y, gamma):
        s = _linear(gamma.beta, _check_points(x, self.dim, len(gamma)))
        y = self._check_y(y, len(gamma))
        return y * s - np.logaddexp(0.0, s)

    def score_x(self, x, y, gamma):
        from scipy.special import expit

        s = _linear(gamma.beta, _check_points(x, self.dim, len(gamma)))
        y = self._check_y(y, len(gamma))
        return (y - expit(s))[:, None] * gamma.beta

    def sample_y(self, x, gamma, rng):
        from scipy.special import expit

        p = expit(_linear(gamma.beta, _check_points(x, self.dim, len(gamma))))
        return (_by_instance(rng, Generator.random, len(gamma)) < p).astype(float)


class CategoricalSoftmax:
    """Softmax classification with linear class logits ``W x``.

    The flattened parameter vector per draw is ``W.ravel()`` for a
    (n_classes, dim) weight matrix; labels are integers in [0, n_classes).
    """

    def __init__(self, dim, n_classes):
        self.dim = int(dim)
        self.n_classes = int(n_classes)
        if self.n_classes < 2:
            raise ValueError("need at least two classes")

    @property
    def n_params(self):
        return self.n_classes * self.dim

    def _weights(self, batch):
        if batch.beta.shape[1] != self.n_params:
            raise ValueError(
                "expected %d flattened weights per draw, got %d"
                % (self.n_params, batch.beta.shape[1])
            )
        return batch.beta.reshape(len(batch), self.n_classes, self.dim)

    def _logits(self, x, W):
        """(m, n_classes) logits ``W x``, one 2-D product over every draw's class rows."""
        x = _check_points(x, self.dim, len(W))
        return _linear(W.reshape(-1, self.dim), x).reshape(W.shape[:2])

    def class_probs(self, x, gamma):
        """Per-draw softmax class probabilities at ``x``."""
        return _softmax(self._logits(x, self._weights(gamma)))

    def loglik(self, x, y, gamma):
        return categorical_logpmf(self._logits(x, self._weights(gamma)), y)

    def score_x(self, x, y, gamma):
        W = self._weights(gamma)
        return categorical_score(self._logits(x, W), y, W)

    def sample_y(self, x, gamma, rng):
        return _sample_categorical(self.class_probs(x, gamma), rng)


class SmallBnn:
    """One-hidden-layer tanh network likelihood with closed-form x-gradients.

    ``likelihood='gaussian'`` models a scalar response y ~ N(f(x), phi);
    ``likelihood='categorical'`` uses the ``n_out`` network outputs as class
    logits.  The flattened parameter vector per draw is
    ``[W1.ravel(), b1, W2.ravel(), b2]`` with W1 (hidden, dim) and
    W2 (n_out, hidden).
    """

    def __init__(self, dim, hidden, likelihood="gaussian", n_out=None):
        self.dim = int(dim)
        self.hidden = int(hidden)
        if likelihood not in ("gaussian", "categorical"):
            raise ValueError("likelihood must be 'gaussian' or 'categorical'")
        self.likelihood = likelihood
        if likelihood == "gaussian":
            self.n_out = 1
        else:
            if n_out is None or n_out < 2:
                raise ValueError("categorical SmallBnn needs n_out >= 2")
            self.n_out = int(n_out)

    @property
    def n_params(self):
        h, p, o = self.hidden, self.dim, self.n_out
        return h * p + h + o * h + o

    def _unpack(self, batch):
        if batch.beta.shape[1] != self.n_params:
            raise ValueError(
                "expected %d flattened parameters per draw, got %d"
                % (self.n_params, batch.beta.shape[1])
            )
        m = len(batch)
        h, p, o = self.hidden, self.dim, self.n_out
        i = 0
        W1 = batch.beta[:, i : i + h * p].reshape(m, h, p)
        i += h * p
        b1 = batch.beta[:, i : i + h]
        i += h
        W2 = batch.beta[:, i : i + o * h].reshape(m, o, h)
        i += o * h
        b2 = batch.beta[:, i : i + o]
        return W1, b1, W2, b2

    def _forward(self, x, batch, jacobian=False):
        """Network outputs (m, n_out), and with ``jacobian`` their x-Jacobian (m, n_out, dim)."""
        X = _check_points(x, self.dim, len(batch)).reshape(-1, self.dim)
        W1, b1, W2, b2 = self._unpack(batch)
        m, h, p = W1.shape
        # block k at x[k], rounded as W1 @ x at one point (_linear on the flat W1 is not)
        pre = np.matmul(W1.reshape(len(X), m // len(X), h, p), X[:, None, :, None])
        hvals = np.tanh(pre.reshape(m, h) + b1)
        out = np.einsum("moh,mh->mo", W2, hvals) + b2
        if not jacobian:
            return out
        # d out_o / d x = W1^T diag(1 - h^2) W2_o
        gate = (1.0 - hvals**2)[:, None, :] * W2  # (m, o, h)
        return out, np.einsum("moh,mhp->mop", gate, W1)

    def loglik(self, x, y, gamma):
        out = self._forward(x, gamma)
        if self.likelihood == "gaussian":
            return normal_logpdf(y, out[:, 0], gamma.phi)
        return categorical_logpmf(out, y)

    def score_x(self, x, y, gamma):
        out, jac = self._forward(x, gamma, jacobian=True)
        if self.likelihood == "gaussian":
            return normal_score(y, out[:, 0], gamma.phi, jac[:, 0, :])
        return categorical_score(out, y, jac)

    def sample_y(self, x, gamma, rng):
        out = self._forward(x, gamma)
        if self.likelihood == "gaussian":
            return normal_sample(out[:, 0], gamma.phi, len(gamma), rng)
        return _sample_categorical(_softmax(out), rng)

    def random_init(self, rng, scale=0.5):
        """A flat parameter vector for starting an MCMC chain."""
        return scale * rng.standard_normal(self.n_params)


class FeatureSubsetModel:
    """Wrap a model that only sees a subset of the covariates.

    Used for gray-box attackers whose surrogate was fit on fewer features:
    likelihood evaluations restrict ``x`` to ``indices`` and covariate
    gradients are zero on the unseen coordinates.
    """

    def __init__(self, inner, indices, dim):
        self.inner = inner
        self.indices = np.asarray(indices, dtype=int)
        self.dim = int(dim)
        if self.indices.size != inner.dim:
            raise ValueError("indices must match the inner model dimension")
        if np.any(self.indices < 0) or np.any(self.indices >= dim):
            raise ValueError("indices out of range")

    def _seen(self, x, gamma):
        return _check_points(x, self.dim, len(gamma))[..., self.indices]

    def loglik(self, x, y, gamma):
        return self.inner.loglik(self._seen(x, gamma), y, gamma)

    def score_x(self, x, y, gamma):
        inner = self.inner.score_x(self._seen(x, gamma), y, gamma)
        full = np.zeros((inner.shape[0], self.dim))
        full[:, self.indices] = inner
        return full

    def sample_y(self, x, gamma, rng):
        return self.inner.sample_y(self._seen(x, gamma), gamma, rng)


def require_gaussian_linear(model):
    """Raise unless ``model`` is a plain Gaussian linear likelihood."""
    if not isinstance(model, GaussianLinear):
        raise UnsupportedModelError(
            "this operation needs a GaussianLinear likelihood, got %s"
            % type(model).__name__
        )
    return model
