"""Toy-scale predictive-entropy attacks on a softmax classifier.

The testbed is a 2-D Gaussian-blob classification problem: one blob per class
arranged on a circle, plus out-of-distribution (OOD) blobs placed further out
between the class directions.  A linear softmax classifier gets a Gaussian
prior on its weights and a random-walk Metropolis posterior, frozen into a
``SampleBank``.

Attacks reuse the point-attack machinery with the one-hot functional, whose
predictive expectation is the vector of posterior-predictive class
probabilities:

* entropy inflation on in-distribution points targets the uniform vector
  (1/p, ..., 1/p);
* entropy deflation on OOD points targets the one-hot vector of the clean
  modal class.

Each epsilon's n_id + n_ood attacks run as one lockstep ``run_point_attack``
call, and each readout as one ``predictive_probs`` call over all points.
Every attack and readout keeps its own generator and draws what it would
alone, in the same order, so the records equal those of attacks run one at
a time, bit for bit.  The epsilon = 0 column draws no attack.

``entropy_experiment`` emits per-instance predictive-entropy records along
the epsilon grid and a selective-prediction accuracy curve (retain the
fraction ``f`` of lowest-entropy inputs, score accuracy; OOD inputs count as
errors whenever retained).  The epsilon = 0 column doubles as the clean
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attacks.feasible import FeasibleSet
from ..attacks.functionals import onehot_functional
from ..attacks.point import PointAttackProblem, run_point_attack
from ..bayes.backends import McmcChain, SampleBank
from ..bayes.likelihoods import CategoricalSoftmax
from .config import EntropySpec
from .sep import SepRecord


def class_directions(n_classes, rotation_deg=0.0):
    """Unit vectors at evenly spaced angles in the plane."""
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    angles = angles + np.deg2rad(rotation_deg)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _blob_points(spec: EntropySpec, radius, labels, rng, rotation_deg=0.0):
    """One point per label, ``blob_sd`` noise around its class centre at ``radius``."""
    centers = np.zeros((spec.n_classes, spec.dim))
    centers[:, :2] = radius * class_directions(spec.n_classes, rotation_deg)
    return centers[labels] + spec.blob_sd * rng.standard_normal((len(labels), spec.dim))


def make_blob_data(spec: EntropySpec, rng):
    """Training covariates and labels: one Gaussian blob per class."""
    y = np.repeat(np.arange(spec.n_classes), spec.n_per_class)
    return _blob_points(spec, spec.blob_radius, y, rng), y


def make_eval_points(spec: EntropySpec, rng):
    """Held-out labelled ID points and unlabelled OOD points."""
    y_id = np.arange(spec.n_id) % spec.n_classes
    X_id = _blob_points(spec, spec.blob_radius, y_id, rng)
    X_ood = _blob_points(spec, spec.ood_radius, np.arange(spec.n_ood) % spec.n_classes, rng,
                         rotation_deg=spec.ood_rotation_deg)
    return X_id, y_id, X_ood


def fit_softmax_bank(spec: EntropySpec, X, y, rng):
    """Random-walk Metropolis posterior over flattened softmax weights.

    The log likelihood is a linear term plus the log normaliser.  The sum of
    the observed-class logits is ``w @ s``, where ``s`` holds each class's sum
    of its training rows, flattened and computed once.  The normaliser is a
    plain max-shifted log-sum-exp over the class axis of the logits.  The
    log posterior is batched, as ``adaptive_rwm`` calls it: k proposals are
    scored as one (k * n_classes, dim) @ (dim, n) product.  This is the one
    log normaliser in the library that does not go through ``logsumexp``:
    the sampler reads the log posterior only through ``log(u) < lp' - lp``,
    and neither its proposals nor its step-size adaptation see the value, so
    a log posterior that differs by round-off (below 1e-12 here), from the
    normaliser or from the batching, gives the same bank.
    """
    n_classes, dim = spec.n_classes, spec.dim
    X = np.asarray(X, dtype=float)
    Xt = X.T  # (dim, n)
    y = np.asarray(y, dtype=int)
    s = np.zeros((n_classes, dim))
    np.add.at(s, y, X)
    s = s.ravel()
    inv_two_var = 0.5 / spec.prior_sd**2

    def log_post(w):  # (k, n_classes * dim) -> (k,)
        logits = (w.reshape(-1, dim) @ Xt).reshape(len(w), n_classes, -1)  # (k, n_classes, n)
        a_max = np.maximum.reduce(logits, axis=1)
        log_norm = np.log(np.add.reduce(np.exp(logits - a_max[:, None]), axis=1)) + a_max
        return w @ s - np.add.reduce(log_norm, axis=1) - inv_two_var * np.add.reduce(w * w, axis=1)

    chain = McmcChain(
        log_post, np.zeros(n_classes * dim), step=spec.chain_step,
        burn_in=spec.chain_burn_in, thin=spec.chain_thin,
    )
    bank = SampleBank(chain.draw(spec.bank_size, rng))
    return bank, chain.last_accept_rate


def predictive_probs(model, backend, x, n, rng):
    """Monte-Carlo posterior-predictive class probabilities at ``x``.

    ``x`` is one point with one generator, or K points (K, p) with a list of
    K generators (the same generator may repeat): point k's ``n`` draws come
    from the k-th, in point order, in one backend draw and one ``class_probs`` call.
    """
    x = np.asarray(x, dtype=float)
    k = 1 if x.ndim == 1 else len(x)
    probs = model.class_probs(x, backend.draw(k * n, rng)).reshape(k, n, -1).mean(axis=1)
    return probs[0] if x.ndim == 1 else probs


def entropy_of(probs):
    """Shannon entropy in nats over the last axis, with 0 * log 0 = 0: a float
    for one probability vector, an array for rows.  A negative or nan entry
    gives nan."""
    p = np.asarray(probs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(p == 0.0, 0.0, p * np.log(p)).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def selective_accuracy(entropies, correct, retention):
    """Accuracy over the ``retention`` fraction of lowest-entropy inputs."""
    entropies = np.asarray(entropies, dtype=float)
    correct = np.asarray(correct, dtype=float)
    k = max(1, int(np.ceil(retention * entropies.size)))
    order = np.argsort(entropies, kind="stable")
    return float(correct[order[:k]].mean())


def _attack(spec, model, backend, points, targets, eps, rngs):
    """Final points of the lockstep attacks of ``points`` towards ``targets``."""
    if eps == 0.0:  # each feasible set is the singleton {x0}
        return points
    prob = PointAttackProblem(
        g=onehot_functional(spec.n_classes), g_star=targets, model=model,
        feasible=FeasibleSet(center=points, epsilon=eps, norm=spec.norm),
        eta=spec.eta, T=spec.T, N=spec.N, M=spec.M, eta_decay=spec.eta_decay,
    )
    return run_point_attack(prob, backend, rngs).final_x


@dataclass
class EntropyResult:
    records: list
    id_mean_entropy: dict   # eps -> mean ID entropy
    ood_mean_entropy: dict  # eps -> mean OOD entropy
    selective: dict         # (eps, retention) -> accuracy
    ln_p: float
    accept_rate: float
    eps_grid: list


def entropy_experiment(spec: EntropySpec) -> EntropyResult:
    """Run inflation/deflation attacks along the epsilon grid and score them."""
    model = CategoricalSoftmax(spec.dim, spec.n_classes)
    ss = np.random.SeedSequence((int(spec.seed), 5150))
    rng_data, rng_eval_pts, rng_chain, rng_modal = (
        np.random.default_rng(c) for c in ss.spawn(4)
    )
    X, y = make_blob_data(spec, rng_data)
    X_id, y_id, X_ood = make_eval_points(spec, rng_eval_pts)
    bank, accept_rate = fit_softmax_bank(spec, X, y, rng_chain)

    p = spec.n_classes
    # Deflation target per OOD point: one-hot of its clean modal class.
    modal = np.argmax(predictive_probs(model, bank, X_ood, spec.entropy_draws,
                                       [rng_modal] * spec.n_ood), axis=1)
    # Inflation on ID points, deflation on unlabelled OOD points, as one set of instances.
    points = np.vstack([X_id, X_ood])
    targets = np.vstack([np.full((spec.n_id, p), 1.0 / p), np.eye(p)[modal]])
    tasks = [(0, "id", i, y_id[i]) for i in range(spec.n_id)] + [
        (1, "ood", i, None) for i in range(spec.n_ood)]  # (kind, name, index, label)

    grid = [float(e) for e in spec.eps_grid]
    records = []
    mean_entropy = {"id": {}, "ood": {}}
    selective = {}
    for ei, eps in enumerate(grid):
        # Per instance, one generator for its attack and one for its readout.
        gens = [[np.random.default_rng(c) for c in np.random.SeedSequence(
            (int(spec.seed), 31337, ei, kind, i)).spawn(2)] for kind, _, i, _ in tasks]
        x_adv = _attack(spec, model, bank, points, targets, eps, [g[0] for g in gens])
        probs = predictive_probs(model, bank, x_adv, spec.entropy_draws, [g[1] for g in gens])
        pool_entropy = entropy_of(probs)
        # an accepted OOD input is always an error
        pool_correct = [float(label is not None and np.argmax(q) == label)
                        for q, (_, _, _, label) in zip(probs, tasks)]
        for (_, name, i, _), h in zip(tasks, pool_entropy.tolist()):
            records.append(SepRecord(eps, i, "sgd", "predictive-entropy-" + name, h))
        mean_entropy["id"][eps] = float(np.mean(pool_entropy[:spec.n_id]))
        mean_entropy["ood"][eps] = float(np.mean(pool_entropy[spec.n_id:]))
        for f in spec.retention_grid:
            acc = selective_accuracy(pool_entropy, pool_correct, float(f))
            selective[(eps, float(f))] = acc
            records.append(SepRecord(eps, 0, "sgd", "selective-accuracy-%g" % f, acc))

    return EntropyResult(
        records=records, id_mean_entropy=mean_entropy["id"],
        ood_mean_entropy=mean_entropy["ood"], selective=selective, ln_p=float(np.log(p)),
        accept_rate=accept_rate, eps_grid=grid,
    )
