"""The benchmark's span targets still name library code, and still fire.

``perfbench/tracer.py`` wraps library functions and methods by module and
attribute name, and raises ``TraceTargetError`` for a name that no longer
resolves.  Installing it here makes a rename or removal of a wrapped name
fail this suite, not only the benchmark.  Running every workload at its tiny
size under the tracer makes a refactor that stops calling a traced name fail
here too.

The entropy workload's attacks run in lockstep: the counts below pin one
forward and score pass per lockstep iteration, and its output digests, taken
before the attacks were batched, pin that batching changed no number.  Every
workload's output digest is pinned at seed 0, tiny and bench size, so a
change that moves a number fails here, not only in the benchmark.
"""

import math
import sys
from collections import Counter
from pathlib import Path

import pytest

from ppdattack.bayes.backends import _PREFETCH
from ppdattack.bayes.likelihoods import GaussianLinear
from ppdattack.harness import gradcheck

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _perfbench(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return __import__(name)
    finally:
        sys.path.remove(PERFBENCH)


def test_benchmark_trace_targets_resolve():
    tracer = _perfbench("tracer")
    original = GaussianLinear.loglik
    t = tracer.Tracer()
    try:
        t.install()
    except tracer.TraceTargetError as err:
        pytest.fail("benchmark span target missing: %s" % err)
    finally:
        t.uninstall()
    assert GaussianLinear.loglik is original


@pytest.mark.parametrize("name", ["ppd-sweep", "gradcheck", "entropy", "graybox"])
def test_workload_fires_every_required_span(name, tmp_path):
    tracer, workloads = _perfbench("tracer"), _perfbench("workloads")
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(0, "tiny", str(tmp_path))
    with tracer.Tracer() as t:
        workload.run(inputs)
    missing = set(workload.spans) - {s.name for s in t.spans}
    assert not missing, "spans that never fired: %s" % sorted(missing)


def test_gradcheck_draws_and_scores_per_chunk(tmp_path, monkeypatch):
    tracer, workloads = _perfbench("tracer"), _perfbench("workloads")
    workload = workloads.WORKLOADS["gradcheck"]
    spec = workload.build(0, "tiny", str(tmp_path))
    monkeypatch.setattr(gradcheck, "CHUNK", 30)
    with tracer.Tracer() as t:
        workload.run(spec)
    calls = Counter(s.name for s in t.spans)
    # Per chunk there is one backend draw and one sample_y for the joint
    # sample the score and reparameterised estimators share, and one of each
    # for the control.  An MLMC chunk draws all its replicates' levels in one
    # call and all their pairs' rows in one backend draw.
    assert spec.replicates == 100
    chunks = 4  # 100 replicates in chunks of 30
    assert calls["bayes.backends.ExactConjugate.draw"] == 3 * chunks
    assert calls["attacks.ppd.level_sample"] == chunks
    assert calls["bayes.likelihoods.GaussianLinear.sample_y"] == 2 * chunks
    assert calls["bayes.likelihoods.GaussianLinear.loglik"] == chunks  # MLMC only
    assert calls["bayes.likelihoods.GaussianLinear.score_x"] == 3 * chunks  # score, control, MLMC
    # One residual for both positives' gradients, one for the control's.
    assert calls["attacks.point.estimate_mu"] == 2 * chunks


def test_ppd_sweep_draws_once_per_iteration(tmp_path):
    tracer, workloads = _perfbench("tracer"), _perfbench("workloads")
    workload = workloads.WORKLOADS["ppd-sweep"]
    cfg = workload.build(0, "tiny", str(tmp_path))
    with tracer.Tracer() as t:
        workload.run(cfg)
    calls = Counter(s.name for s in t.spans)
    # One attacked cell (eps = 2; the eps = 0 cell returns x0 undrawn); each
    # iteration draws all B * R levels in one call and their rows in another.
    T = cfg.attack.mlmc.T
    assert calls["attacks.ppd.level_sample"] == T
    assert calls["bayes.backends.ExactConjugate.draw"] == T


def test_graybox_draws_and_scores_once_per_iteration(tmp_path):
    tracer, workloads = _perfbench("tracer"), _perfbench("workloads")
    workload = workloads.WORKLOADS["graybox"]
    inputs = workload.build(0, "tiny", str(tmp_path))
    with tracer.Tracer() as t:
        workload.run(inputs)
    calls = Counter(s.name for s in t.spans)
    # Each (seed, eps) cell runs a white-box attack on the defender's
    # ExactConjugate and a gray-box one on a one-member MixtureBackend over
    # another ExactConjugate, both for T iterations.
    T = inputs["kwargs"]["T"]
    cells = len(inputs["seeds"]) * len(inputs["kwargs"]["eps_grid"])
    assert (cells, T) == (2, 5)
    attacks = 2 * cells
    # Each attack draws once per iteration and once for the final residual,
    # estimates mu from each draw and scores once per iteration.
    assert calls["attacks.graybox.MixtureBackend.draw"] == cells * (T + 1)
    assert calls["bayes.backends.ExactConjugate.draw"] == attacks * (T + 1)
    assert calls["bayes.likelihoods.GaussianLinear.sample_y"] == attacks * (T + 1)
    assert calls["attacks.point.estimate_mu"] == attacks * (T + 1)
    assert calls["attacks.point.estimate_grad_mu"] == attacks * T
    assert calls["bayes.likelihoods.GaussianLinear.score_x"] == attacks * T
    # Gray box: sample_y and its dispatch per draw, a score dispatch per iteration.
    assert calls["attacks.graybox.MixtureLikelihood.dispatch"] == cells * (3 * T + 2)
    # A batch per draw, and the Jacobian's rows cut from it once per
    # iteration; the final residual's N rows are used uncut.  A tagged cut
    # also cuts its member's DrawBatch.
    assert calls["attacks.graybox.TaggedBatch.init"] == cells * (2 * T + 1)
    assert calls["bayes.draws.DrawBatch.init"] == attacks * (2 * T + 1)


def test_entropy_bank_fit_calls_no_logsumexp(tmp_path):
    tracer, workloads = _perfbench("tracer"), _perfbench("workloads")
    workload = workloads.WORKLOADS["entropy"]
    spec = workload.build(0, "tiny", str(tmp_path))
    with tracer.Tracer() as t:
        workload.run(spec)
    spans = t.spans

    def under_bank_fit(span):
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == "harness.fit_softmax_bank":
                return True
        return False

    # The Metropolis log posterior has its own max-shifted normaliser; the
    # attack loop's softmaxes are the only logsumexp calls.
    lse = [s for s in spans if s.name == "bayes.likelihoods.logsumexp"]
    assert lse and not any(under_bank_fit(s) for s in lse)
    # One evaluation at the initial state, then one per run of up to
    # _PREFETCH proposals: a run ends at its first acceptance, so the count
    # lies between one call per _PREFETCH steps and one call per step.
    calls = Counter(s.name for s in spans)
    steps = spec.chain_burn_in + spec.bank_size * spec.chain_thin
    assert steps == 700
    assert 1 + math.ceil(steps / _PREFETCH) <= calls["bayes.backends.log_post"] <= steps


def _entropy_traced(tmp_path):
    tracer, workloads = _perfbench("tracer"), _perfbench("workloads")
    workload = workloads.WORKLOADS["entropy"]
    spec = workload.build(0, "tiny", str(tmp_path))
    with tracer.Tracer() as t:
        workload.run(spec)
    return workload, spec, t.spans


def test_entropy_attacks_score_once_per_lockstep_iteration(tmp_path):
    workload, spec, spans = _entropy_traced(tmp_path)
    calls = Counter(s.name for s in spans)
    attacked = sum(1 for e in spec.eps_grid if e > 0.0)  # eps = 0 draws no attack
    # one lockstep call per eps over all K = n_id + n_ood points
    assert calls["attacks.point.run_point_attack"] == attacked
    # one score pass over all K instances' rows per iteration, not one per instance
    assert calls["bayes.likelihoods.CategoricalSoftmax.score_x"] == attacked * spec.T
    # one outcome draw per iteration and one for the final residual
    assert calls["bayes.likelihoods.CategoricalSoftmax.sample_y"] == attacked * (spec.T + 1)
    # one bank draw from the K instances' generators per iteration and one for
    # the final residual, each instance's rows from its own generator
    in_attacks = [s for s in spans if s.name == "bayes.backends.SampleBank.draw"
                  and spans[s.parent].name == "attacks.point.run_point_attack"]
    assert len(in_attacks) == attacked * (spec.T + 1)
    # readouts: the modal pass and each eps's pass draw every point's rows in
    # one bank draw and score them in one class_probs call
    readouts = 1 + len(spec.eps_grid)
    assert calls["bayes.backends.SampleBank.draw"] == len(in_attacks) + readouts
    assert calls["bayes.likelihoods.CategoricalSoftmax.class_probs"] == (
        attacked * (spec.T + 1) + 1 + len(spec.eps_grid))
    missing = set(workload.spans) - set(calls)
    assert not missing, "spans that never fired: %s" % sorted(missing)


# SHA-256 of the entropy records in the benchmark's digest format, as the
# attacks gave them one at a time before they ran in lockstep.
ENTROPY_DIGESTS = {
    ("tiny", 0): "6af6e93b5b3939d1e90ba1de0b58ffd98e55938c89b32fe39187d68f3426ac0c",
    ("bench", 0): "053e666532a30505401d3dae7b431850300d0b072575b7b94da8e0c48ae4ae99",
}


def _digest(name, size, seed, tmp_path):
    workload = _perfbench("workloads").WORKLOADS[name]
    inputs = workload.build(seed, size, str(tmp_path))
    return workload.check(inputs, workload.run(inputs), []).digest


@pytest.mark.parametrize("size, seed", sorted(ENTROPY_DIGESTS))
def test_entropy_records_match_their_digest(size, seed, tmp_path):
    assert _digest("entropy", size, seed, tmp_path) == ENTROPY_DIGESTS[size, seed]


# SHA-256 of the graybox records in the benchmark's digest format, as the
# gray-box attacks gave them when every batch went through the scatter.
GRAYBOX_DIGESTS = {
    ("tiny", 0): "65ad47a61d5a6720bc7454649b58ac45c5598386b04d9a96e5e6cb3a7c8038db",
    ("bench", 0): "0331df067d8de38655be2ab21e5a021ab3e8f2a72b1cf8fbaf6edf484639d87a",
}


@pytest.mark.parametrize("size, seed", sorted(GRAYBOX_DIGESTS))
def test_graybox_records_match_their_digest(size, seed, tmp_path):
    assert _digest("graybox", size, seed, tmp_path) == GRAYBOX_DIGESTS[size, seed]


# SHA-256 of the gradcheck summary and samples CSVs, the reparameterised rows
# read from the score estimator's joint samples.  The score, MLMC and control
# sample arrays are also pinned on their own (tests/test_harness.py).
GRADCHECK_DIGESTS = {
    ("tiny", 0): "79845a8f2f05d152c8d02e022d090475333581c8fa9dadd8b13ab9d85d1ac5e7",
    ("bench", 0): "bfc4df13e0e8cf756ea0d69faaf234ebb3b92d7ea1b0e67084ff6767b0b74a9d",
}


@pytest.mark.parametrize("size, seed", sorted(GRADCHECK_DIGESTS))
def test_gradcheck_records_match_their_digest(size, seed, tmp_path):
    assert _digest("gradcheck", size, seed, tmp_path) == GRADCHECK_DIGESTS[size, seed]


# SHA-256 of the ppd-sweep records: the MLMC distribution attack's numbers.
PPD_SWEEP_DIGESTS = {
    ("tiny", 0): "cb8a56d8c797caaa209ecc6b6e97b2c4979cf4f0628466a12c28d849ed171da4",
    ("bench", 0): "24c44050193106de491e7cf65b35ea2919705133c2eae411a4f5ba8e7f0cdd28",
}


@pytest.mark.parametrize("size, seed", sorted(PPD_SWEEP_DIGESTS))
def test_ppd_sweep_records_match_their_digest(size, seed, tmp_path):
    assert _digest("ppd-sweep", size, seed, tmp_path) == PPD_SWEEP_DIGESTS[size, seed]
