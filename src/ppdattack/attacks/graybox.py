"""Gray-box attacks through a model-averaged attacker view.

A gray-box attacker does not know the defender's model.  It holds an ensemble
of candidate models (each a likelihood family plus a posterior backend) with
prior weights, and attacks the Bayesian model average: every posterior draw
first samples a member index from the weights, then parameters from that
member's posterior, and outcomes from that member's likelihood.  The attack
algorithms themselves are reused unchanged: the gray-box attack is
``run_point_attack`` or ``run_ppd_attack`` with ``MixtureLikelihood(ensemble)``
as the model and ``MixtureBackend(ensemble)`` as the backend, whose draws carry
member tags.  Its trace reflects the attacker's beliefs; evaluate the final
point against the defender separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bayes.draws import DrawBatch


@dataclass(frozen=True)
class EnsembleMember:
    """One candidate model: a likelihood and a posterior draw backend."""

    likelihood: object
    backend: object


class ModelEnsemble:
    """Weighted collection of candidate models forming the attacker's view."""

    def __init__(self, members, weights=None):
        self.members = list(members)
        k = len(self.members)
        if k == 0:
            raise ValueError("ensemble must have at least one member")
        if weights is None:
            weights = np.full(k, 1.0 / k)
        weights = np.asarray(weights, dtype=float)
        if (weights.shape != (k,) or not np.isfinite(weights).all() or np.any(weights < 0)
                or abs(weights.sum() - 1.0) > 1e-9):
            raise ValueError("weights must be a probability vector over members")
        self.weights = weights

    def __len__(self):
        return len(self.members)


class TaggedBatch:
    """Draw batch whose rows belong to (possibly different) ensemble members.

    Stored as per-member sub-batches plus the member id of each row, in draw
    order, so slicing and concatenation preserve the sampling sequence (the
    multilevel estimator splits the concatenated draws of an iteration into
    per-level batches and their antithetic halves by row position).
    """

    def __init__(self, member_ids, sub_batches):
        self.member_ids = np.asarray(member_ids, dtype=int)
        self.sub = dict(sub_batches)  # member id -> DrawBatch, rows in draw order

    def __len__(self):
        return len(self.member_ids)

    def positions(self, k):
        """Row indices of member ``k``'s draws within the batch order."""
        return np.nonzero(self.member_ids == k)[0]

    def __getitem__(self, i):
        """The rows selected by a slice, as a new tagged batch in draw order."""
        ids = self.member_ids[i]
        subs = {}
        for k in np.unique(ids):
            rank = np.cumsum(self.member_ids == k) - 1  # each row's index in member k's sub-batch
            subs[k] = self.sub[k][rank[i][ids == k]]
        return TaggedBatch(ids, subs)

    @staticmethod
    def concat(batches):
        """The rows of ``batches`` one after another; each member's rows stay in draw order."""
        ids = np.concatenate([b.member_ids for b in batches])
        return TaggedBatch(ids, {k: DrawBatch.concat([b.sub[k] for b in batches if k in b.sub])
                                 for k in np.unique(ids).tolist()})


class MixtureBackend:
    """Draw (member, parameters) pairs: member from the weights, parameters
    from that member's own backend."""

    def __init__(self, ensemble: ModelEnsemble):
        self.ensemble = ensemble
        # The member CDF that ``rng.choice(k, p=weights)`` builds on every
        # call, built once: searching it with the same uniforms gives the
        # same ids and leaves the generator in the same state.
        cdf = np.cumsum(ensemble.weights)
        self._cdf = cdf / cdf[-1]

    def draw(self, count, rng):
        if count < 1:
            raise ValueError("count must be >= 1")
        ids = self._cdf.searchsorted(rng.random(count), side="right")
        counts = np.bincount(ids).tolist()
        # Members draw in ascending id, each once, with all of its rows.
        subs = {k: self.ensemble.members[k].backend.draw(n_k, rng)
                for k, n_k in enumerate(counts) if n_k}
        return TaggedBatch(ids, subs)


class MixtureLikelihood:
    """Dispatch likelihood evaluations to the member that produced each draw."""

    def __init__(self, ensemble: ModelEnsemble):
        self.ensemble = ensemble

    def _dispatch(self, method, tagged: TaggedBatch, x, y=None, rng=None, width=()):
        """Each member's ``method(x, y, sub)``, or ``method(x, sub, rng)`` without
        ``y``, on its own rows in ``tagged.sub`` order, scattered back to them."""
        m = len(tagged)
        out = np.empty((m, *width))
        if y is not None:
            y = np.broadcast_to(np.asarray(y, dtype=float), (m,))
        for k, sub in tagged.sub.items():
            pos = tagged.positions(k)
            fn = getattr(self.ensemble.members[k].likelihood, method)
            out[pos] = fn(x, sub, rng) if y is None else fn(x, y[pos], sub)
        return out

    def loglik(self, x, y, tagged):
        return self._dispatch("loglik", tagged, x, y)

    def score_x(self, x, y, tagged):
        return self._dispatch("score_x", tagged, x, y, width=np.shape(x))

    def sample_y(self, x, tagged, rng):
        return self._dispatch("sample_y", tagged, x, rng=rng)
