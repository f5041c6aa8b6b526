"""Container for posterior parameter draws.

Draws only ever travel in batches: a :class:`DrawBatch` holds one row per
draw, pairing a coefficient vector ``beta`` with a positive noise scale
``phi`` (the noise variance for Gaussian likelihoods; fixed to 1 for
classification families whose likelihood has no free scale).  A single draw
is a batch with one row; :meth:`DrawBatch.concat` joins batches in order,
which is how the multilevel gradient scores all of an iteration's draws at
once.
"""

from __future__ import annotations

import numpy as np


class DrawBatch:
    """A batch of posterior draws stored as arrays.

    Parameters
    ----------
    beta : ndarray, shape (m, k)
        One coefficient vector per row.
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
        if not np.isfinite(beta).all():
            raise ValueError("non-finite coefficient draws")
        if not (np.isfinite(phi).all() and (phi > 0).all()):
            raise ValueError("noise variances must be finite and positive")
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
