"""The benchmark's span targets still name library code, and still fire.

``perfbench/tracer.py`` wraps library functions and methods by module and
attribute name, and raises ``TraceTargetError`` for a name that no longer
resolves.  Installing it here makes a rename or removal of a wrapped name
fail this suite, not only the benchmark.  Running every workload at its tiny
size under the tracer makes a refactor that stops calling a traced name fail
here too.
"""

import sys
from pathlib import Path

import pytest

from ppdattack.bayes.likelihoods import GaussianLinear

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
