"""Smoke tests of the benchmark itself, at the tiny workload size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [m["name"] for s in ("workloads", "end_to_end", "per_layer") for m in SPEC[s]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for s in ("end_to_end", "per_layer") for m in SPEC[s])
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert 1 <= SPEC["run_seconds"] <= 60 and SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_prints_the_declared_metrics(name, trace):
    result, report = run.run_workload(name, seed=0, seconds=0.0, trace=trace, probes=1,
                                      size="tiny")
    section = "per_layer" if trace else "end_to_end"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units(section)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert report["digests_ok"]
    if trace:
        assert report["coverage_ok"], report["missing_spans"]


def test_failing_sweep_cell_shows_in_ok_frac(monkeypatch):
    # Every attacked cell of the sweep raises inside run_sep, which turns the
    # error into a warning and a missing cell; the eps = 0 cell attacks nothing.
    from ppdattack.harness import sep

    def broken_attack(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(sep, "run_ppd_attack", broken_attack)
    result, report = run.run_workload("ppd-sweep", seed=0, seconds=0.0, trace=0, probes=0,
                                      size="tiny")
    assert report["notes"]["missing_cells"] == 1
    assert report["notes"]["failure_warnings"] == 1
    assert result["failed"] >= 1 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_stalled_attack_is_counted_not_failed(monkeypatch):
    # An attack that ends where it began is a weak attack, not a wrong output.
    from types import SimpleNamespace

    from ppdattack.harness import sep

    def stalled_attack(model, appd, config, backend, rng):
        return SimpleNamespace(final_x=config.feasible.center.copy())

    monkeypatch.setattr(sep, "run_ppd_attack", stalled_attack)
    result, report = run.run_workload("ppd-sweep", seed=0, seconds=0.0, trace=0, probes=0,
                                      size="tiny")
    assert report["notes"]["stalled_cells"] == 1
    assert report["gates_ok"] and result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_tracer_restores_the_library_and_rejects_unknown_targets(monkeypatch):
    from ppdattack.attacks import point
    from ppdattack.harness import entropy
    from ppdattack.bayes.draws import DrawBatch

    original, init = point.run_point_attack, DrawBatch.__init__
    with tracer.Tracer():
        assert entropy.run_point_attack is point.run_point_attack is not original
        assert DrawBatch.__init__ is not init
    assert entropy.run_point_attack is point.run_point_attack is original
    assert DrawBatch.__init__ is init

    bogus = ("attacks.point.gone", "ppdattack.attacks.point", "no_such_function", None)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (bogus,))
    t = tracer.Tracer()
    with pytest.raises(tracer.TraceTargetError):
        t.install()
    t.uninstall()
    assert point.run_point_attack is original


def test_cli_last_line_is_the_result():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "graybox",
                          "--seed", "1", "--seconds", "0", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")


def test_exits_nonzero_without_the_library():
    bare = run.OUT / "test-bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "graybox",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
