"""Conjugate Bayesian linear regression: posterior updates and predictive forms.

Two conjugate families are provided:

* Normal--inverse-gamma (unknown noise variance): ``beta | sigma^2 ~
  N(mu0, sigma^2 * inv(Lambda0))`` and ``sigma^2 ~ InvGamma(a0, b0)``.  The
  posterior predictive at a covariate vector ``x`` is a Student t.
* Normal with known noise variance ``sigma^2``: ``beta ~ N(mu0, inv(Lambda0))``.
  The posterior predictive is Gaussian with a closed-form mean and variance,
  which is what makes exact attack oracles possible.

Both posteriors share one frozen base holding ``mu_n`` and ``Lambda_n``, the
covariance factor and the pair ``(x^T mu_n, x^T inv(Lambda_n) x)`` from which
both predictive forms are built, at one point or at K points.  Each posterior
gives its own predictive mean and variance through ``predictive_moments``;
``ppd_t_params`` gives the whole Student-t law, for sampling and scoring.

All solves against precision matrices go through a Cholesky factorisation; a
factorisation failure raises :class:`SingularPrecisionError` rather than
silently regularising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._fields import Checked, Positive
from ..exceptions import SingularPrecisionError


def _chol_spd(a, what):
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise SingularPrecisionError(
            "%s is not positive definite (degenerate prior + data)" % what
        ) from err


def _chol_solve(chol, b):
    # Solve (L L^T) x = b given the lower factor L.
    z = np.linalg.solve(chol, b)
    return np.linalg.solve(chol.T, z)


def spd_solve(a, b, what="precision matrix"):
    """Solve ``a @ x = b`` for symmetric positive definite ``a`` via Cholesky."""
    return _chol_solve(_chol_spd(a, what), b)


def spd_inverse(a, what="precision matrix"):
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    chol = _chol_spd(a, what)
    inv = _chol_solve(chol, np.eye(a.shape[0]))
    return (inv + inv.T) / 2.0


@dataclass(frozen=True)
class NigPrior(Checked):
    """Normal--inverse-gamma prior (mu0, Lambda0, a0, b0).

    ``Lambda0`` is a precision matrix (inverse covariance scale); ``a0, b0``
    are the inverse-gamma shape and scale of the noise variance.
    """

    mu0: np.ndarray
    lambda0: np.ndarray
    a0: Positive
    b0: Positive

    def validate(self):
        mu0 = np.asarray(self.mu0, dtype=float)
        lam = np.asarray(self.lambda0, dtype=float)
        if mu0.ndim != 1 or lam.shape != (mu0.size, mu0.size):
            raise ValueError("mu0 must be (p,) and lambda0 (p, p)")
        if not np.allclose(lam, lam.T):
            raise ValueError("lambda0 must be symmetric")
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "lambda0", lam)


@dataclass(frozen=True)
class _LinearPosterior:
    """Coefficient mean ``mu_n`` and precision ``Lambda_n`` of either conjugate posterior.

    One Cholesky factor of ``Lambda_n``, made at first use, serves every solve.
    """

    mu_n: np.ndarray
    lambda_n: np.ndarray

    @property
    def p(self):
        return self.mu_n.size

    @cached_property
    def _lambda_chol(self):
        return _chol_spd(self.lambda_n, "Lambda_n")

    def cov_chol(self):
        """Lower Cholesky factor of inv(Lambda_n)."""
        return np.linalg.cholesky(spd_inverse(self.lambda_n, "Lambda_n"))

    def cov_times(self, x):
        """``inv(Lambda_n) x`` at one point (p,), or row by row at K points (K, p).

        Each row is solved as its one-point solve is, bit for bit.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.p:
            raise ValueError("x must have shape (%d,) or (K, %d)" % (self.p, self.p))
        return _chol_solve(self._lambda_chol, x[..., None])[..., 0]

    def predictive_pair(self, x):
        """``(x^T mu_n, x^T inv(Lambda_n) x)`` at one point (p,), or per row at K points (K, p).

        ``vecdot`` rounds each row as the one-point product does; ``x @ mu_n``
        on (K, p) goes to a matrix-vector product, which may not.
        """
        sx = self.cov_times(x)
        return np.vecdot(x, self.mu_n), np.vecdot(x, sx)


@dataclass(frozen=True)
class NigPosterior(_LinearPosterior):
    """Normal--inverse-gamma posterior (mu_n, Lambda_n, a_n, b_n)."""

    a_n: float
    b_n: float

    def predictive_moments(self, x):
        """The Student-t predictive's ``(loc, scale * df / (df - 2))``, as :func:`ppd_t_params`
        has them, at one point (p,) or per row at K points (K, p); needs ``df > 2``."""
        loc, q = self.predictive_pair(x)
        df = 2.0 * self.a_n
        if df <= 2:
            raise ValueError("variance undefined for df <= 2")
        return loc, (self.b_n / self.a_n) * (1.0 + q) * df / (df - 2.0)


@dataclass(frozen=True)
class GaussianPosterior(_LinearPosterior, Checked):
    """Known-variance Gaussian posterior: beta ~ N(mu_n, inv(Lambda_n)), noise sigma2."""

    sigma2: Positive

    def predictive_moments(self, x):
        """The normal predictive's ``(x^T mu_n, x^T inv(Lambda_n) x + sigma2)``, at one
        point (p,) or per row at K points (K, p)."""
        loc, q = self.predictive_pair(x)
        return loc, q + self.sigma2


@dataclass(frozen=True)
class TPredictive(Checked):
    """Student-t predictive: ``df`` degrees of freedom, location ``loc``, and
    squared scale ``scale`` (so the density is that of loc + sqrt(scale) * T
    with T standard t).  Also serves as a Student-t adversarial target."""

    df: Positive
    loc: float
    scale: Positive

    def sample(self, size, rng):
        return self.loc + np.sqrt(self.scale) * rng.standard_t(self.df, size=size)

    def logpdf(self, y):
        from scipy.special import gammaln

        y = np.asarray(y, dtype=float)
        z2 = (y - self.loc) ** 2 / self.scale
        v = self.df
        return (
            gammaln((v + 1.0) / 2.0)
            - gammaln(v / 2.0)
            - 0.5 * np.log(v * np.pi * self.scale)
            - 0.5 * (v + 1.0) * np.log1p(z2 / v)
        )

    def variance(self):
        if self.df <= 2:
            raise ValueError("variance undefined for df <= 2")
        return self.scale * self.df / (self.df - 2.0)


def _design(p, X, y):
    """``X`` and ``y`` as float arrays, checked to be an (n, p) design and its n responses."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != p:
        raise ValueError("X must have shape (n, %d), got %s" % (p, X.shape))
    if y.shape != (X.shape[0],):
        raise ValueError("y must have shape (%d,), got %s" % (X.shape[0], y.shape))
    return X, y


def nig_update(prior: NigPrior, X, y) -> NigPosterior:
    """Conjugate normal--inverse-gamma update for linear regression.

    Parameters
    ----------
    prior : NigPrior
    X : ndarray, shape (n, p)
    y : ndarray, shape (n,)

    Returns
    -------
    NigPosterior
        With ``Lambda_n = Lambda0 + X^T X``,
        ``mu_n = inv(Lambda_n) (Lambda0 mu0 + X^T y)``,
        ``a_n = a0 + n/2`` and
        ``b_n = b0 + (y^T y + mu0^T Lambda0 mu0 - mu_n^T Lambda_n mu_n) / 2``.

    Notes
    -----
    ``n = 0`` (empty data) returns the prior unchanged, exactly.
    """
    X, y = _design(prior.mu0.size, X, y)
    n = X.shape[0]
    if n == 0:
        _chol_spd(prior.lambda0, "Lambda0")
        return NigPosterior(mu_n=prior.mu0.copy(), lambda_n=prior.lambda0.copy(),
                            a_n=prior.a0, b_n=prior.b0)

    lambda_n = prior.lambda0 + X.T @ X
    rhs = prior.lambda0 @ prior.mu0 + X.T @ y
    mu_n = spd_solve(lambda_n, rhs, "Lambda_n")
    a_n = prior.a0 + n / 2.0
    b_n = prior.b0 + 0.5 * (
        y @ y + prior.mu0 @ (prior.lambda0 @ prior.mu0) - mu_n @ (lambda_n @ mu_n)
    )
    return NigPosterior(mu_n=mu_n, lambda_n=lambda_n, a_n=a_n, b_n=float(b_n))


def ppd_t_params(post: NigPosterior, x) -> TPredictive:
    """Student-t posterior predictive parameters at covariate vector ``x``.

    Returns a :class:`TPredictive` with ``df = 2 a_n``, ``loc = x^T mu_n`` and
    squared scale ``(b_n / a_n) * (1 + x^T inv(Lambda_n) x)``.
    """
    loc, q = post.predictive_pair(x)
    return TPredictive(2.0 * post.a_n, float(loc), float((post.b_n / post.a_n) * (1.0 + q)))


def gaussian_update(mu0, lambda0, sigma2, X, y) -> GaussianPosterior:
    """Known-variance conjugate Gaussian update.

    ``Lambda_n = Lambda0 + X^T X / sigma2`` and
    ``mu_n = inv(Lambda_n) (Lambda0 mu0 + X^T y / sigma2)``.
    """
    mu0 = np.asarray(mu0, dtype=float)
    lambda0 = np.asarray(lambda0, dtype=float)
    p = mu0.size
    if lambda0.shape != (p, p):
        raise ValueError("lambda0 must be (p, p)")
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    X, y = _design(p, X, y)

    lambda_n = lambda0 + X.T @ X / sigma2
    mu_n = spd_solve(lambda_n, lambda0 @ mu0 + X.T @ y / sigma2, "Lambda_n")
    return GaussianPosterior(mu_n=mu_n, lambda_n=lambda_n, sigma2=float(sigma2))
