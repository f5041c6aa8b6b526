"""Container for posterior parameter draws.

Draws only ever travel in batches: a :class:`DrawBatch` holds one row per
draw, pairing a coefficient vector ``beta`` with a positive noise scale
``phi`` (the noise variance for Gaussian likelihoods; fixed to 1 for
classification families whose likelihood has no free scale).  A single draw
is a batch with one row.
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
        beta = np.atleast_2d(np.asarray(beta, dtype=float))
        phi = np.broadcast_to(np.asarray(phi, dtype=float), (beta.shape[0],)).copy()
        if not np.all(np.isfinite(beta)):
            raise ValueError("non-finite coefficient draws")
        if not np.all(np.isfinite(phi)) or np.any(phi <= 0):
            raise ValueError("noise variances must be finite and positive")
        self.beta = beta
        self.phi = phi

    def __len__(self):
        return self.beta.shape[0]

    def __getitem__(self, rows):
        """The draws selected by a slice or an index array, as a new batch."""
        return DrawBatch(self.beta[rows], self.phi[rows])

    def halves(self):
        """Split into (first half, second half) -- the antithetic coupling split."""
        m = len(self)
        if m % 2 != 0:
            raise ValueError("cannot halve a batch of odd size %d" % m)
        return self[: m // 2], self[m // 2 :]
