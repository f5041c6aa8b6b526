"""The benchmark's span targets still name library code, and still fire.

``perfbench/tracer.py`` wraps library functions and methods by module and
attribute name, and raises ``TraceTargetError`` for a name that no longer
resolves.  Installing it here makes a rename or removal of a wrapped name
fail this suite, not only the benchmark.  Running every workload at its tiny
size under the tracer makes a refactor that stops calling a traced name fail
here too.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

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
    # The known-variance testbed's backend and likelihood draw only standard
    # normals, so per chunk there is one backend draw for each of the score,
    # reparameterised and control estimators and one for all MLMC replicates'
    # pairs; the three point estimators draw their outcomes with one sample_y.
    assert spec.replicates == 100
    chunks = 4  # 100 replicates in chunks of 30
    assert calls["bayes.backends.ExactConjugate.draw"] == 4 * chunks
    assert calls["bayes.likelihoods.GaussianLinear.sample_y"] == 3 * chunks
    assert calls["bayes.likelihoods.GaussianLinear.loglik"] == chunks  # MLMC only
    assert calls["bayes.likelihoods.GaussianLinear.score_x"] == 3 * chunks  # score, control, MLMC


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
    # one evaluation at the initial state, then one per proposal
    calls = Counter(s.name for s in spans)
    assert calls["bayes.backends.log_post"] == (
        1 + spec.chain_burn_in + spec.bank_size * spec.chain_thin) == 701
