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
point against the defender separately.  A gray-box attack takes one point.

A batch holding one member's rows only, as every batch of a one-member
ensemble does, goes straight to that member: the mixture likelihood passes
it the sub-batch, outcomes and generator with no scatter back to the rows,
and a slice cuts the sub-batch without counting members.  A one-member
backend tags its rows without searching the weights, though it still draws
their uniforms.  The results are the general path's bit for bit.
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
    order, so slicing and concatenation preserve the sampling sequence.  The
    multilevel estimator slices nothing: ``delta_level`` scores a whole batch
    and finds each level's rows and halves by row offsets.  The one slicer is
    the one-point path of the point attack's ``_joint_sample``, which keeps
    the Jacobian's rows of one joint draw; the ppd objective estimate
    concatenates copies of a batch.
    """

    def __init__(self, member_ids, sub_batches):
        self.member_ids = np.asarray(member_ids, dtype=int)
        self.sub = dict(sub_batches)  # member id -> DrawBatch, rows in draw order

    def __len__(self):
        return len(self.member_ids)

    def positions(self, k):
        """Row indices of member ``k``'s draws within the batch order."""
        return np.nonzero(self.member_ids == k)[0]

    def __getitem__(self, rows):
        """The rows of a step-1 slice, as a new tagged batch in draw order.

        Member k's rows in the slice are a contiguous run of its sub-batch,
        starting after its rows before the slice, so each is a view.
        """
        if not isinstance(rows, slice):
            raise TypeError("a tagged batch takes step-1 slices only, not %s" % type(rows).__name__)
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise ValueError("a tagged batch slices with step 1 only")
        ids = self.member_ids[start:stop]
        if len(self.sub) == 1:  # one member's rows: the slice's rows are its rows
            (k, sub), = self.sub.items()
            return TaggedBatch(ids, {k: sub[start:stop]} if stop > start else {})
        counts = np.bincount(ids).tolist()
        before = np.bincount(self.member_ids[:start], minlength=len(counts)).tolist()
        return TaggedBatch(ids, {k: self.sub[k][before[k]:before[k] + n_k]
                                 for k, n_k in enumerate(counts) if n_k})

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
        u = rng.random(count)
        if len(self.ensemble) == 1:  # every row is member 0's; u only keeps the stream
            return TaggedBatch(np.zeros(count, dtype=int),
                               {0: self.ensemble.members[0].backend.draw(count, rng)})
        ids = self._cdf.searchsorted(u, side="right")
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
        ``y``, on its own rows in ``tagged.sub`` order, scattered back to them.

        A batch holding one member's rows goes to that member as it is, with
        no scatter: its result is already in row order.
        """
        m = len(tagged)
        if y is not None:
            y = np.asarray(y, dtype=float)
            if y.shape != (m,):  # a scalar, or a wrong length, which raises here
                y = np.broadcast_to(y, (m,))
        if len(tagged.sub) == 1:
            (k, sub), = tagged.sub.items()
            fn = getattr(self.ensemble.members[k].likelihood, method)
            return fn(x, sub, rng) if y is None else fn(x, y, sub)
        out = np.empty((m, *width))
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
