"""The benchmark's span targets still name library code.

``perfbench/tracer.py`` wraps library functions and methods by module and
attribute name, and raises ``TraceTargetError`` for a name that no longer
resolves.  Installing it here makes a rename or removal of a wrapped name
fail this suite, not only the benchmark.
"""

import sys
from pathlib import Path

import pytest

from ppdattack.bayes.likelihoods import GaussianLinear

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def test_benchmark_trace_targets_resolve():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    original = GaussianLinear.loglik
    t = tracer.Tracer()
    try:
        t.install()
    except tracer.TraceTargetError as err:
        pytest.fail("benchmark span target missing: %s" % err)
    finally:
        t.uninstall()
    assert GaussianLinear.loglik is original
