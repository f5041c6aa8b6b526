"""Gradient-estimator validation against closed-form oracles.

On the conjugate Gaussian testbed every gradient the attack loops consume has
an analytic counterpart:

* point objective J(x) = (E[y|x] - G*)^2 with E[y|x] = x @ mu_n, so
  grad J = 2 (x @ mu_n - G*) mu_n;
* cross-entropy objective -E_{pi_A}[log ppd(y|x)], whose gradient equals the
  closed-form gradient of KL(pi_A || ppd(x)).

``validate_gradients`` replicates each stochastic estimator many times, forms
per-coordinate z-scores of the replicate mean against the oracle, and reports
pass/fail at a configurable |z| threshold.  A deliberately biased variant
(the two factors of the product estimator fed from one shared batch, at a
small batch size) serves as a negative control: validation only counts if the
broken estimator is actually flagged.  The control is aimed at the clean
predictive mean, where the true gradient is zero.  Its bias
2 Cov(mu_hat, grad mu_hat) does not depend on the target, but the spread of
its replicates grows with (mu - target)^2, and at the positives' target it
would hide the bias.

Replicates are computed in chunks of ``CHUNK``: each chunk draws its
randomness as blocks for all its replicates and then scores it in one pass.
The score and reparameterised estimators share one joint sample per chunk
(one ``backend.draw``, one ``sample_y``) and the residual mu - G* formed
from it, each estimator's Jacobian read from the same draws and outcomes:
common random numbers.  Each estimator's replicates are still iid and each
z-test is still an exact test of its own mean; the two tests are
correlated, not biased.  The control's shared-batch chunk draws its own
joint sample, and an MLMC chunk draws three blocks: its outcomes, its
levels, and one ``backend.draw`` for its posterior rows.  The replicates are iid whatever the chunk size, but which
numbers they are depends on it, so ``CHUNK`` is part of the gradient-check
spec: changing it changes the samples, and the samples CSV with them.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace

import numpy as np

from ..analytic import kl_normal_ppd_grad
from ..attacks.feasible import FeasibleSet
from ..attacks.functionals import response_functional
from ..attacks.point import (PointAttackProblem, _gradient, _joint_sample, grad_J,
                             reparam_grad_mu)
from ..attacks.ppd import NormalAppd, mlmc_grad
from ..attacks.trace import format_float, write_csv
from .config import GradCheckSpec
from .data import gen_synthetic
from .predictor import fit_predictor
from .sep import aim_at_mean, mlmc_config

POSITIVE_ESTIMATORS = ("score", "reparam", "mlmc")
CONTROL_ESTIMATOR = "score-shared-batch"
# Replicates per estimator call: large enough that per-call overhead vanishes,
# small enough that a chunk's draws and scores stay within the memory of
# the per-replicate loop.  Every estimator's samples depend on it.
CHUNK = 250
CSV_SLICE = 1000  # replicates converted to Python floats at a time in the samples CSV


@dataclass(frozen=True)
class EstimatorCheck:
    """z-test of one estimator's replicate mean against one oracle coordinate."""

    estimator: str
    role: str  # "positive" or "control"
    coordinate: int
    replicates: int
    mean: float
    analytic: float
    se: float
    z: float
    within_threshold: bool


@dataclass
class GradCheckReport:
    checks: list
    z_threshold: float
    samples: dict  # estimator -> (replicates, dim) array of gradient draws
    oracles: dict  # estimator -> (dim,) analytic gradient
    control_included: bool

    @property
    def positives_ok(self):
        return all(c.within_threshold for c in self.checks if c.role == "positive")

    @property
    def control_detected(self):
        control = [c for c in self.checks if c.role == "control"]
        if not control:
            return None
        return any(not c.within_threshold for c in control)

    @property
    def passed(self):
        if not self.positives_ok:
            return False
        if self.control_included and self.control_detected is not True:
            return False
        return True


def _checks_for(estimator, role, draws, oracle, threshold):
    reps = draws.shape[0]
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
    out = []
    for j in range(draws.shape[1]):
        sj = float(se[j])
        zj = (float(mean[j]) - float(oracle[j])) / sj if sj > 0 else np.inf
        out.append(
            EstimatorCheck(
                estimator=estimator, role=role, coordinate=j, replicates=reps,
                mean=float(mean[j]), analytic=float(oracle[j]), se=sj, z=float(zj),
                within_threshold=bool(abs(zj) <= threshold),
            )
        )
    return out


def _replicated(estimate, reps):
    """``reps`` replicate gradients from ``estimate(k)`` calls of at most CHUNK each."""
    return np.concatenate([estimate(min(CHUNK, reps - i)) for i in range(0, reps, CHUNK)])


def _point_replicated(prob, x0, backend, rng, reps):
    """Score and reparameterised gradients, ``reps`` each, from one joint sample
    per chunk: common random numbers, each estimator's replicates still iid."""
    def both(k):
        # A chunk's sample is freed before the next chunk draws its own.
        sample = _joint_sample(prob, x0, backend, rng, k)
        return _gradient(prob, x0, sample, prob.g_star, None, reparam_grad_mu)[1:]

    score, reparam = zip(*(both(min(CHUNK, reps - i)) for i in range(0, reps, CHUNK)))
    return np.concatenate(score), np.concatenate(reparam)


def validate_gradients(spec: GradCheckSpec) -> GradCheckReport:
    """Replicate every estimator on the conjugate testbed and z-test the means."""
    ss = np.random.SeedSequence((int(spec.seed), 90210))
    # The reparameterised estimator reads the score estimator's samples; its
    # child is spawned, unused, so the MLMC and control streams stay put.
    rng_data, rng_score, _rng_reparam, rng_mlmc, rng_control = (
        np.random.default_rng(c) for c in ss.spawn(5)
    )
    train = gen_synthetic(spec.n, spec.beta, spec.sigma2, rng_data)
    fitted = fit_predictor(spec.model(), train)
    post, model, backend = fitted.posterior, fitted.likelihood, fitted.backend
    x0 = aim_at_mean(post.mu_n, spec.clean_mean)
    feasible = FeasibleSet(center=x0, epsilon=1.0, norm="l2")

    m0, v0 = post.predictive_moments(x0)
    point_oracle = 2.0 * (m0 - spec.target) * post.mu_n
    appd = NormalAppd(mean=m0, var=spec.appd_var_factor * v0)
    mlmc_oracle = kl_normal_ppd_grad(appd, post, x0)

    prob = PointAttackProblem(
        g=response_functional(), g_star=np.array([spec.target]), model=model,
        feasible=feasible, N=spec.N, M=spec.M,
    )
    cfg_m = mlmc_config(spec.mlmc, feasible)

    reps = spec.replicates
    score, reparam = _point_replicated(prob, x0, backend, rng_score, reps)
    samples = {
        "score": score,
        "reparam": reparam,
        "mlmc": _replicated(
            lambda k: mlmc_grad(model, x0, appd, cfg_m, backend, rng_mlmc, k)[0], reps),
    }
    oracles = {"score": point_oracle, "reparam": point_oracle, "mlmc": mlmc_oracle}

    checks = []
    for name in POSITIVE_ESTIMATORS:
        checks.extend(_checks_for(name, "positive", samples[name], oracles[name], spec.z_threshold))

    if spec.include_control:
        # Aimed at the clean predictive mean, where the true gradient is zero.
        prob_ctrl = replace(prob, g_star=np.array([m0]), N=spec.control_batch,
                            M=spec.control_batch)
        ctrl_oracle = np.zeros_like(point_oracle)
        ctrl = _replicated(
            lambda k: grad_J(prob_ctrl, x0, backend, rng_control, k, shared_batch=True), reps)
        samples[CONTROL_ESTIMATOR] = ctrl
        oracles[CONTROL_ESTIMATOR] = ctrl_oracle
        checks.extend(_checks_for(CONTROL_ESTIMATOR, "control", ctrl, ctrl_oracle, spec.z_threshold))

    return GradCheckReport(
        checks=checks, z_threshold=spec.z_threshold, samples=samples,
        oracles=oracles, control_included=spec.include_control,
    )


def write_gradcheck_csv(report: GradCheckReport, path):
    """Summary table: estimator, role, coordinate, replicates, mean, analytic, se, z, within_threshold."""
    write_csv(path, ["estimator", "role", "coordinate", "replicates", "mean",
                     "analytic", "se", "z", "within_threshold"],
              ([c.estimator, c.role, c.coordinate, c.replicates]
               + [format_float(v) for v in (c.mean, c.analytic, c.se, c.z)]
               + [int(c.within_threshold)] for c in report.checks))


def _csv_cell(text):
    """``text`` as ``csv.writer`` writes it as one cell of several: quoted, its
    quotes doubled, if it holds a comma, a quote or a line break."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def write_gradcheck_samples_csv(report: GradCheckReport, path):
    """Histogram data: one row per (estimator, replicate, coordinate) gradient sample.

    The matching analytic value is repeated per row so a plotting script can
    draw the reference line without joining against the summary table.  The
    bytes are those ``csv.writer`` writes for these rows: the estimator name
    is quoted as it quotes a cell, a float is written as its repr (``%r`` of
    a Python float), and rows end in ``\r\n``.

    The file is built from whole columns, ``CSV_SLICE`` replicates at a time,
    not row by row.  A row is five pieces: ``name,``, the replicate,
    ``,j,``, the value and ``,analytic_j\r\n``.  The values come from one
    ``repr`` map over the block, the replicates from one ``str`` map, and
    the other pieces are repeated strings.  Extended-slice assignment puts
    the values into every fifth place of one list, and coordinate j's
    replicates and constants into every 5q-th place of q coordinates; the
    list is written with one join.
    """
    with open(path, "w", newline="") as fh:
        fh.write("estimator,replicate,coordinate,value,analytic\r\n")
        for name, arr in report.samples.items():
            arr = np.asarray(arr, dtype=float)
            lead, stride = _csv_cell(name) + ",", 5 * arr.shape[1]
            tails = [",%s\r\n" % format_float(v) for v in report.oracles[name]]
            if len(tails) != arr.shape[1]:
                raise ValueError("estimator %r has %d coordinates but %d analytic values"
                                 % (name, arr.shape[1], len(tails)))
            for start in range(0, arr.shape[0], CSV_SLICE):
                block = arr[start:start + CSV_SLICE]
                reps = len(block)
                replicates = list(map(str, range(start, start + reps)))
                pieces = [lead] * (5 * block.size)
                pieces[3::5] = map(float.__repr__, block.ravel().tolist())
                for j, tail in enumerate(tails):
                    pieces[5 * j + 1::stride] = replicates
                    pieces[5 * j + 2::stride] = [",%d," % j] * reps
                    pieces[5 * j + 4::stride] = [tail] * reps
                fh.write("".join(pieces))


def run_gradcheck(spec: GradCheckSpec, write_samples=True):
    """Validate, write ``gradcheck.csv`` (and samples CSV) into the output dir."""
    report = validate_gradients(spec)
    os.makedirs(spec.output_dir, exist_ok=True)
    write_gradcheck_csv(report, os.path.join(spec.output_dir, "gradcheck.csv"))
    if write_samples:
        write_gradcheck_samples_csv(
            report, os.path.join(spec.output_dir, "gradcheck_samples.csv")
        )
    return report
