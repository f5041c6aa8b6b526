"""Container for posterior parameter draws.

Draws only ever travel in batches: a :class:`DrawBatch` holds one row per
draw, pairing a coefficient vector ``beta`` with a positive noise scale
``phi`` (the noise variance for Gaussian likelihoods; fixed to 1 for
classification families whose likelihood has no free scale).  A single draw
is a batch with one row; :meth:`DrawBatch.concat` joins batches in order,
which is how the multilevel gradient scores all of an iteration's draws at
once.

Draws are checked once, where they enter the program, not each time a batch
is built: :class:`~ppdattack.bayes.backends.SampleBank` checks its rows when
it is built, and :class:`~ppdattack.bayes.backends.ExactConjugate` checks its
posterior when it is built and each normal--inverse-gamma draw, whose
inverse-gamma ``phi`` can overflow.  Batches cut or joined from checked
batches need no further check, so the :class:`DrawBatch` constructor trusts
its input.
"""

from __future__ import annotations

import numpy as np


def _check_draws(beta, phi):
    """Raise ``ValueError`` unless every ``beta`` is finite and every ``phi``
    finite and positive."""
    if not np.isfinite(beta).all():
        raise ValueError("non-finite coefficient draws")
    if not (np.isfinite(phi).all() and np.all(phi > 0)):
        raise ValueError("noise variances must be finite and positive")


def _by_instance(rng, draw, size, *args):
    """``draw(rng, *args, size)``, or from a list of K generators (K attack
    instances) the first axis of ``size`` in K equal blocks, one per
    generator in list order, joined; ``ValueError`` if it does not split evenly.

    Every backend ``draw`` and likelihood ``sample_y`` draws through it.
    """
    if not isinstance(rng, list):
        return draw(rng, *args, size)
    rows, *tail = np.atleast_1d(size).tolist()
    n, rest = divmod(rows, len(rng))
    if rest:
        raise ValueError("%d rows do not split into %d equal blocks, one per generator"
                         % (rows, len(rng)))
    return np.concatenate([draw(r, *args, (n, *tail) if tail else n) for r in rng])


class DrawBatch:
    """A batch of posterior draws stored as arrays.

    The constructor coerces its input to float arrays but does not check the
    values: a hand-built batch with a non-finite ``beta`` or a non-positive
    ``phi`` is taken as it is.  Wrap such a batch in
    :class:`~ppdattack.bayes.backends.SampleBank` to have it checked.

    Parameters
    ----------
    beta : ndarray, shape (m, k)
        One coefficient vector per row; a 1-D vector is one row.
    phi : ndarray or float
        Noise variances, shape (m,) or a scalar broadcast to all rows.
    """

    def __init__(self, beta, phi=1.0):
        beta = np.asarray(beta, dtype=float)
        if beta.ndim != 2:
            beta = np.atleast_2d(beta)
        phi = np.asarray(phi, dtype=float)
        if phi.shape != beta.shape[:1]:
            phi = np.broadcast_to(phi, beta.shape[:1]).copy()
        self.beta = beta
        self.phi = phi

    def __len__(self):
        return self.beta.shape[0]

    def __getitem__(self, rows):
        """The draws selected by a slice or an index array, as a new batch."""
        return DrawBatch(self.beta[rows], self.phi[rows])

    @staticmethod
    def concat(batches):
        """The rows of ``batches`` one after another, as one batch."""
        return DrawBatch(np.concatenate([b.beta for b in batches]),
                         np.concatenate([b.phi for b in batches]))
