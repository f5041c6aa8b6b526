"""Span tracing of the library from outside it.

The tracer replaces the library's functions and methods named in ``TARGETS``
with wrappers that record one span per call: name, parent span, start, end,
and an optional per-call detail (a draw count, bytes written, ...).  Spans
are kept in memory and written out when the benchmark ends.  The library
itself is not modified on disk and none of its code is instrumented.

A function is replaced under every name any ``ppdattack`` module holds it by
(``from .point import run_point_attack`` in three harness modules, for
instance), so a re-import cannot silently bypass a span.  A target that no
longer resolves raises ``TraceTargetError``: a rename or move must be followed
by an edit of ``TARGETS``, never by a silent zero.

The wrappers draw no random numbers and do not alter arguments or results,
so a traced run must produce bit-identical outputs; the benchmark checks
this through its output digests.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref


class TraceTargetError(RuntimeError):
    """A declared span target does not exist in the library."""


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _draw_count(args, kwargs, result):
    return int(_arg(args, kwargs, 1, "count"))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _ppd_expected_draws(args, kwargs, result):
    from ppdattack.attacks.ppd import expected_samples_per_iter

    config = _arg(args, kwargs, 2, "config")
    return config.T, expected_samples_per_iter(config) * config.T


def _mlmc_expected_draws(args, kwargs, result):
    from ppdattack.attacks.ppd import expected_samples_per_iter

    return 1, expected_samples_per_iter(_arg(args, kwargs, 3, "config"))


def _point_iterations(args, kwargs, result):
    return len(result.objectives)


# (span name, module, attribute path, detail hook).  The first dotted parts of
# a span name are the layer: the library module that owns the code.
TARGETS = (
    ("harness.run_sep", "ppdattack.harness.sep", "run_sep", None),
    ("harness.prepare", "ppdattack.harness.sep", "prepare_experiment", None),
    ("harness.entropy_experiment", "ppdattack.harness.entropy", "entropy_experiment", None),
    ("harness.fit_softmax_bank", "ppdattack.harness.entropy", "fit_softmax_bank", None),
    ("harness.run_gradcheck", "ppdattack.harness.gradcheck", "run_gradcheck", None),
    ("harness.compare_graybox_residuals", "ppdattack.harness.sep",
     "compare_graybox_residuals", None),
    ("harness.csv", "ppdattack.harness.sep", "write_sep_csv", _file_bytes),
    ("harness.csv", "ppdattack.harness.gradcheck", "write_gradcheck_csv", _file_bytes),
    ("harness.csv", "ppdattack.harness.gradcheck", "write_gradcheck_samples_csv", _file_bytes),
    ("attacks.ppd.run_ppd_attack", "ppdattack.attacks.ppd", "run_ppd_attack",
     _ppd_expected_draws),
    ("attacks.ppd.mlmc_grad", "ppdattack.attacks.ppd", "mlmc_grad", _mlmc_expected_draws),
    ("attacks.ppd.level_sample", "ppdattack.attacks.ppd", "_sample_level", None),
    ("attacks.ppd.delta_level", "ppdattack.attacks.ppd", "delta_level", None),
    ("attacks.ppd.ratio_grad", "ppdattack.attacks.ppd", "ratio_grad", None),
    ("attacks.point.run_point_attack", "ppdattack.attacks.point", "run_point_attack",
     _point_iterations),
    ("attacks.point.estimate_mu", "ppdattack.attacks.point", "estimate_mu", None),
    ("attacks.point.estimate_grad_mu", "ppdattack.attacks.point", "estimate_grad_mu", None),
    ("attacks.point.reparam_grad_mu", "ppdattack.attacks.point", "reparam_grad_mu", None),
    ("attacks.point.grad_J", "ppdattack.attacks.point", "grad_J", None),
    ("attacks.feasible.project", "ppdattack.attacks.feasible", "FeasibleSet.project", None),
    ("attacks.graybox.MixtureBackend.draw", "ppdattack.attacks.graybox",
     "MixtureBackend.draw", None),
    ("attacks.graybox.TaggedBatch.init", "ppdattack.attacks.graybox",
     "TaggedBatch.__init__", None),
    ("attacks.graybox.MixtureLikelihood.dispatch", "ppdattack.attacks.graybox",
     "MixtureLikelihood._dispatch", None),
    ("attacks.graybox.MixtureLikelihood.dispatch", "ppdattack.attacks.graybox",
     "MixtureLikelihood.sample_y", None),
    ("bayes.backends.ExactConjugate.draw", "ppdattack.bayes.backends",
     "ExactConjugate.draw", _draw_count),
    ("bayes.backends.SampleBank.draw", "ppdattack.bayes.backends", "SampleBank.draw",
     _draw_count),
    ("bayes.backends.McmcChain.draw", "ppdattack.bayes.backends", "McmcChain.draw",
     _draw_count),
    # No span of its own: the sampler loop stays in McmcChain.draw's self time
    # and each log-posterior evaluation becomes a LOG_POST span.
    (None, "ppdattack.bayes.backends", "adaptive_rwm", None),
    ("bayes.draws.DrawBatch.init", "ppdattack.bayes.draws", "DrawBatch.__init__", None),
    ("bayes.conjugate.gaussian_update", "ppdattack.bayes.conjugate", "gaussian_update", None),
    ("bayes.likelihoods.logsumexp", "ppdattack.bayes.likelihoods", "logsumexp", None),
) + tuple(
    ("bayes.likelihoods.GaussianLinear.%s" % m, "ppdattack.bayes.likelihoods",
     "GaussianLinear.%s" % m, None)
    for m in ("loglik", "score_x", "sample_y")
) + tuple(
    ("bayes.likelihoods.CategoricalSoftmax.%s" % m, "ppdattack.bayes.likelihoods",
     "CategoricalSoftmax.%s" % m, None)
    for m in ("loglik", "score_x", "sample_y", "class_probs")
)

LOG_POST = "bayes.backends.log_post"
LEAF_BACKENDS = ("bayes.backends.ExactConjugate.draw", "bayes.backends.SampleBank.draw",
                 "bayes.backends.McmcChain.draw")
# CategoricalSoftmax methods that each run one forward pass (logits = W x),
# mapped to the position of ``gamma`` in their arguments; ``sample_y`` runs
# its pass through ``class_probs``.
_FORWARD = {"CategoricalSoftmax.class_probs": 2, "CategoricalSoftmax.loglik": 3,
            "CategoricalSoftmax.score_x": 3}


class Span:
    __slots__ = ("name", "parent", "start", "end", "detail")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.detail = None


class Tracer:
    """Records spans from wrappers installed around the library's code.

    Use as a context manager: entering installs the wrappers, leaving restores
    the originals.  ``spans`` accumulates until ``reset``.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._forwards = weakref.WeakKeyDictionary()
        self.scored_forwards = []  # forward passes seen by each scored batch

    def reset(self):
        self.spans = []
        self.scored_forwards = []

    def _wrap(self, name, fn, detail=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            spans = self.spans
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if detail is not None:
                span.detail = detail(args, kwargs, result)
            return result

        return wrapper

    def _count_forward(self, gamma_index, scored):
        from ppdattack.bayes.draws import DrawBatch

        def detail(args, kwargs, result):
            batch = _arg(args, kwargs, gamma_index, "gamma")
            if isinstance(batch, DrawBatch):
                n = self._forwards.get(batch, 0) + 1
                self._forwards[batch] = n
                if scored:
                    self.scored_forwards.append(n)

        return detail

    def _trace_log_post(self, fn):
        @functools.wraps(fn)
        def wrapper(log_post, *args, **kwargs):
            return fn(self._wrap(LOG_POST, log_post), *args, **kwargs)

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, path, detail in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if path in _FORWARD:
                detail = self._count_forward(_FORWARD[path], path.endswith("score_x"))
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or attr not in vars(owner):
                    raise TraceTargetError("%s.%s not found" % (module_name, path))
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(name, original, detail))
                self._patches.append((owner, attr, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                raise TraceTargetError("%s.%s not found" % (module_name, path))
            if name is None:
                wrapper = self._trace_log_post(original)
            else:
                wrapper = self._wrap(name, original, detail)
            if getattr(original, "__module__", "").startswith("ppdattack"):
                holders = [m for n, m in sorted(sys.modules.items())
                           if n.split(".")[0] == "ppdattack" and m is not None]
            else:  # a foreign helper is traced only where the named module calls it
                holders = [module]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def write_spans(spans, path):
    """Spans as CSV: index, parent, name, start_s, duration_s, detail."""
    t0 = spans[0].start if spans else 0.0
    with open(path, "w") as fh:
        fh.write("index,parent,name,start_s,duration_s,detail\n")
        for i, s in enumerate(spans):
            detail = "" if s.detail is None else str(s.detail).replace(",", ";")
            fh.write("%d,%d,%s,%.9f,%.9f,%s\n" % (i, s.parent, s.name, s.start - t0,
                                                  s.end - s.start, detail))


def summarize(spans):
    """Per span name: calls, total (inclusive) seconds, self seconds, details.

    Self time is a span's duration minus the time its direct children cover;
    children of one span never overlap because the benchmark is single
    threaded.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "durations": [], "details": []})
        dur = s.end - s.start
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child[i]
        row["durations"].append(dur)
        if s.detail is not None:
            row["details"].append(s.detail)
    return out


def draws_under(spans, ancestor):
    """Posterior draws made by leaf backends below a span named ``ancestor``."""
    under = [False] * len(spans)
    total = 0
    for i, s in enumerate(spans):
        p = s.parent
        under[i] = p >= 0 and (under[p] or spans[p].name == ancestor)
        if under[i] and s.name in LEAF_BACKENDS:
            total += s.detail
    return total
