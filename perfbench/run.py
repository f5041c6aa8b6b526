#!/usr/bin/env python3
"""Benchmark entry point: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a source checkout (``src/ppdattack`` must exist)::

    python3 perfbench/run.py --workload ppd-sweep --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24

One invocation measures one workload in one process, with the BLAS and
OpenMP thread pools pinned to one thread.  It

1. times ``SETUP_PROBES`` fresh interpreters from start until ``ppdattack``
   is imported and the workload's inputs are built (``setup_s``, median);
2. warms up with one call at the tiny size;
3. repeats the workload's main call, untraced, for ``--seconds`` seconds
   (half of them with ``--trace 1``) and reports the per-call median wall
   and CPU time, normalised to the host's reference speed (below);
4. with ``--trace 1``, repeats the call with the span tracer installed for
   the other half and reports per-layer metrics (per-call medians), the
   tracing overhead, and whether every span the workload must fire fired.

Why the times are normalised: on a shared 2-core host the co-tenants' load
changes the speed of identical work by up to 2x for seconds to minutes at a
time, so the raw median of one ppd-sweep run moved between 2.0 and 3.3 s
from one run to the next.  While a call runs, a timer interrupts it every
20 ms to time a fixed reference kernel of small numpy operations (about 3%
of the call).  A call's time, less the kernel's, is scaled by
``REF_KERNEL_S / mean kernel time during the call``: seconds at the speed
the kernel has on a quiet host.  Over ten runs per workload on a 2-vCPU
Intel Xeon host, the interquartile range of these medians was 2.8-4.0% of
their median, against 31% for ppd-sweep's raw fastest call.  Setup probes
are scaled by the kernel timed in the probe right after it is ready.  The
report line keeps every raw time and kernel time.

Every call's output passes through the workload's oracle gates and must
reproduce the first call's digest; traced calls must reproduce it too.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON report with the
environment, seeds, gates, digests and notes.  Outputs and span dumps go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("ppd-sweep", "entropy", "gradcheck", "graybox")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
              "ok_frac": "fraction"}

_LIKELIHOOD_METHODS = {"GaussianLinear": ("loglik", "score_x", "sample_y"),
                       "CategoricalSoftmax": ("loglik", "score_x", "sample_y", "class_probs")}
# Spans reported by call count and by self time.
_CALLS = ("attacks.ppd.ratio_grad", "bayes.backends.ExactConjugate.draw",
          "bayes.backends.SampleBank.draw", "bayes.backends.log_post",
          "attacks.feasible.project") + tuple(
    "bayes.likelihoods.%s.%s" % (fam, m) for fam, ms in _LIKELIHOOD_METHODS.items() for m in ms)
_SELF = ("attacks.ppd.ratio_grad", "attacks.ppd.delta_level", "attacks.ppd.level_sample",
         "bayes.backends.ExactConjugate.draw",
         "bayes.backends.SampleBank.draw", "bayes.backends.McmcChain.draw",
         "bayes.likelihoods.logsumexp", "attacks.point.estimate_mu",
         "attacks.point.estimate_grad_mu", "attacks.point.reparam_grad_mu",
         "attacks.point.grad_J", "attacks.feasible.project",
         "attacks.graybox.MixtureBackend.draw", "attacks.graybox.TaggedBatch.init",
         "attacks.graybox.MixtureLikelihood.dispatch", "bayes.conjugate.gaussian_update",
         "harness.prepare", "harness.fit_softmax_bank", "harness.csv") + tuple(
    "bayes.likelihoods.%s.%s" % (fam, m) for fam, ms in _LIKELIHOOD_METHODS.items() for m in ms)


def _per_layer_units():
    units = {}
    for name in _CALLS:
        units[name + ".calls"] = "count"
    for name in _SELF:
        units[name + ".self_s"] = "s"
    units.update({
        "bayes.draws.DrawBatch.inits": "count",
        "bayes.draws.DrawBatch.self_s": "s",
        "attacks.ppd.iter_ms": "ms",
        "attacks.ppd.draw_cost_ratio": "ratio",
        "bayes.draws.inits_per_draw_call": "ratio",
        "bayes.backends.ExactConjugate.draw.draws_per_s": "1/s",
        "bayes.backends.SampleBank.draw.draws_per_s": "1/s",
        "bayes.likelihoods.forward_per_batch": "ratio",
        "attacks.point.iter_ms": "ms",
        "attacks.point.attack_s.p50": "s",
        "attacks.point.attack_s.p90": "s",
        "harness.csv.bytes": "bytes",
        "harness.sep.failed_cells": "count",
        "harness.sep.stalled_cells": "count",
        "harness.gradcheck.control_flagged": "count",
        "bench.trace_overhead_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()


def pin_environment():
    """One BLAS/OpenMP thread, set before numpy loads; children inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)


def _percentile(values, q):
    """Nearest-rank percentile."""
    vals = sorted(values)
    if not vals:
        return 0.0
    k = max(0, min(len(vals) - 1, int(-(-q * len(vals) // 100)) - 1))
    return vals[k]


def layer_metrics(spans, scored_forwards):
    """Per-layer metrics of one traced call, from its spans."""
    from tracer import LEAF_BACKENDS, draws_under, summarize

    s = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "details": []}

    def row(name):
        return s.get(name, empty)

    m = {}
    for name in _CALLS:
        m[name + ".calls"] = row(name)["calls"]
    for name in _SELF:
        m[name + ".self_s"] = row(name)["self_s"]
    m["bayes.draws.DrawBatch.inits"] = row("bayes.draws.DrawBatch.init")["calls"]
    m["bayes.draws.DrawBatch.self_s"] = row("bayes.draws.DrawBatch.init")["self_s"]

    ppd = row("attacks.ppd.run_ppd_attack")
    iterations = sum(t for t, _ in ppd["details"])
    m["attacks.ppd.iter_ms"] = 1e3 * ppd["total_s"] / iterations if iterations else 0.0
    expected = sum(e for _, e in ppd["details"] + row("attacks.ppd.mlmc_grad")["details"])
    consumed = draws_under(spans, "attacks.ppd.delta_level")
    m["attacks.ppd.draw_cost_ratio"] = consumed / expected if expected else 0.0

    leaf_calls = sum(row(n)["calls"] for n in LEAF_BACKENDS)
    m["bayes.draws.inits_per_draw_call"] = (
        m["bayes.draws.DrawBatch.inits"] / leaf_calls if leaf_calls else 0.0)
    for backend in ("ExactConjugate", "SampleBank"):
        r = row("bayes.backends.%s.draw" % backend)
        m["bayes.backends.%s.draw.draws_per_s" % backend] = (
            sum(r["details"]) / r["total_s"] if r["total_s"] else 0.0)
    m["bayes.likelihoods.forward_per_batch"] = (
        statistics.fmean(scored_forwards) if scored_forwards else 0.0)

    point = row("attacks.point.run_point_attack")
    iterations = sum(point["details"])
    m["attacks.point.iter_ms"] = 1e3 * point["total_s"] / iterations if iterations else 0.0
    m["attacks.point.attack_s.p50"] = _percentile(point["durations"], 50)
    m["attacks.point.attack_s.p90"] = _percentile(point["durations"], 90)

    csv_rows = row("harness.csv")
    m["harness.csv.bytes"] = sum(csv_rows["details"])
    return m


def _timed_call(workload, inputs):
    """One main call; its wall and CPU seconds raw and at the quiet-host speed."""
    from speed import SpeedProbe

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with SpeedProbe() as probe:
            w0, c0 = time.perf_counter(), time.process_time()
            output = workload.run(inputs)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    times = {"wall": probe.normalize(wall), "cpu": probe.normalize(cpu), "wall_raw": wall,
             "kernel_s": statistics.fmean(probe.samples)}
    return output, list(caught), times


def measure(workload, inputs, seconds, tracer=None):
    """Repeat the main call for ``seconds``; one record per call.

    The first call always runs; a later one starts only if, at the previous
    call's raw duration, it would end before the deadline.
    """
    calls = []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.reset()
        output, caught, times = _timed_call(workload, inputs)
        rec = dict(times, warnings=sorted({str(w.message) for w in caught}))
        if tracer is not None:
            rec["spans"] = tracer.spans
            rec["layers"] = layer_metrics(tracer.spans, tracer.scored_forwards)
            rec["fired"] = {s.name for s in tracer.spans}
            tracer.reset()  # the oracle below calls traced code too
        rec["outcome"] = workload.check(inputs, output, caught)
        calls.append(rec)
        if time.perf_counter() + rec["wall_raw"] > deadline:
            return calls


def setup_times(name, seed, count=SETUP_PROBES):
    """Seconds from spawning a fresh interpreter until it has imported the
    library and built the workload's inputs, once per probe: raw, and scaled
    by the reference kernel the probe times right after it is ready."""
    from speed import REF_KERNEL_S

    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != "ready" or code != 0 or len(rest) != 1:
            raise RuntimeError("setup probe failed (exit %s, output %r)" % (code, line))
        raw.append(elapsed)
        scaled.append(elapsed * REF_KERNEL_S / float(rest[0]))
    return raw, scaled


def environment(seed):
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (deps.get("name"), deps.get("version"))
    except Exception:  # numpy builds differ in what show_config exposes
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
        "loadavg": list(os.getloadavg()), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit, "seed": seed,
    }


def run_workload(name, seed, seconds, trace, probes=SETUP_PROBES, size="bench", inputs=None):
    """Measure one workload; returns (result, report) as printed by ``main``."""
    import resource

    import workloads

    wl = workloads.WORKLOADS[name]
    outdir = OUT / ("%s-seed%d" % (name, seed))
    outdir.mkdir(parents=True, exist_ok=True)
    setup_raw, setup = setup_times(name, seed, probes) if probes else ([0.0], [0.0])
    if inputs is None:
        inputs = wl.build(seed, size, str(outdir))
    warm_dir = OUT / ("%s-warmup" % name)
    warm_dir.mkdir(parents=True, exist_ok=True)
    _timed_call(wl, wl.build(seed, "tiny", str(warm_dir)))

    plain = measure(wl, inputs, seconds / 2.0 if trace else seconds)
    traced = []
    coverage_ok = True
    if trace:
        from tracer import Tracer, write_spans

        with Tracer() as tracer:
            traced = measure(wl, inputs, seconds / 2.0, tracer)
        write_spans(traced[-1]["spans"], outdir / "spans.csv")
        for c in traced[:-1]:
            del c["spans"]
        missing = sorted(set(wl.spans) - set.intersection(*(c["fired"] for c in traced)))
        coverage_ok = not missing

    digest = plain[0]["outcome"].digest
    attempted = failed = 0
    for c in plain + traced:
        o = c["outcome"]
        attempted += o.attempted
        failed += o.attempted if o.digest != digest else o.failed
    gates_ok = all(c["outcome"].gates_ok for c in plain + traced)
    digests_ok = all(c["outcome"].digest == digest for c in plain + traced)
    correct = gates_ok and digests_ok and coverage_ok and failed == 0

    wall = statistics.median(c["wall"] for c in plain)
    if trace:
        metrics = {k: statistics.median(c["layers"][k] for c in traced)
                   for k in traced[0]["layers"]}
        for key in ("failed_cells", "stalled_cells"):
            metrics["harness.sep." + key] = statistics.median(
                c["outcome"].notes.get(key, 0) for c in traced)
        metrics["harness.gradcheck.control_flagged"] = statistics.median(
            c["outcome"].notes.get("control_flagged", 0) for c in traced)
        metrics["bench.trace_overhead_s"] = statistics.median(c["wall"] for c in traced) - wall
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": statistics.median(c["cpu"] for c in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    result = {
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    last = (traced or plain)[-1]["outcome"]
    report = {
        "workload": name, "why": wl.why, "trace": bool(trace), "size": size,
        "environment": environment(seed),
        "calls": {"untraced": len(plain), "traced": len(traced)},
        "calls_untraced": [{k: c[k] for k in ("wall", "cpu", "wall_raw", "kernel_s")}
                           for c in plain],
        "calls_traced": [{k: c[k] for k in ("wall", "cpu", "wall_raw", "kernel_s")}
                         for c in traced],
        "setup_s": setup, "setup_raw_s": setup_raw,
        "gates": last.gates, "gates_ok": gates_ok, "digest": digest, "digests_ok": digests_ok,
        "coverage_ok": coverage_ok, "notes": last.notes,
        "warnings": sorted({w for c in plain + traced for w in c["warnings"]}),
    }
    if trace:
        report["missing_spans"] = missing
    return result, report


def _print_result(result, report):
    print("workload %s  correct=%s  attempted=%d  failed=%d" % (
        report["workload"], result["correct"], result["attempted"], result["failed"]))
    print("gates: " + ", ".join("%s=%s" % kv for kv in report["gates"].items()))
    for k, v in result["metrics"].items():
        print("  %-58s %14.6g %s" % (k, v["value"], v["unit"]))
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps(result), flush=True)


def _run_all(args):
    """Every workload, each in its own process; prints each result and a table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = (json.loads(lines[-1]), json.loads(lines[-2]))
    print("\n%-10s %-8s %s" % ("workload", "correct", "gates"))
    for name, (res, rep) in results.items():
        print("%-10s %-8s %s" % (name, res["correct"], rep["gates"]))
    summary = {
        "correct": all(r["correct"] for r, _ in results.values()),
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": {"%s.%s" % (n, k): v for n, (r, _) in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "ppdattack" / "__init__.py").is_file():
        print("error: %s/ppdattack not found; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    pin_environment()
    if args.probe_setup:
        import workloads

        workloads.WORKLOADS[args.workload].build(args.seed, "bench", str(OUT / "probe"))
        print("ready", flush=True)
        from speed import SpeedProbe

        probe = SpeedProbe()
        for _ in range(60):
            probe.kernel()
        print(repr(statistics.fmean(probe.samples)))
        return 0
    if args.workload == "all":
        return _run_all(args)
    result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _print_result(result, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
