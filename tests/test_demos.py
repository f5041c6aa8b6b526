"""The demos still run: each is imported from ``demos/`` and its ``main()`` called."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _demo(name):
    spec = importlib.util.spec_from_file_location("demo_" + name, DEMOS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gradient_checks_demo_passes(capsys):
    _demo("gradient_checks").main()
    out = capsys.readouterr().out
    assert "validation PASSED" in out
    assert "reparameterized route" in out


# The demos below build their specs in Python, so each spec checks itself as
# it is built.  entropy_uncertainty (about 3.5 s) and graybox_and_baselines
# (about 2 s) are left out to keep the suite fast.

def test_conjugate_posteriors_demo_runs(capsys):
    _demo("conjugate_posteriors").main()
    assert "known-variance posterior on the full data:" in capsys.readouterr().out


def test_distribution_attack_demo_runs(capsys):
    _demo("distribution_attack").main()
    assert "covariate geometry at n=1000, eps=2" in capsys.readouterr().out


def test_point_attack_sep_demo_runs(capsys, tmp_path, monkeypatch):
    demo = _demo("point_attack_sep")
    monkeypatch.setattr(demo, "OUT_DIR", str(tmp_path))
    demo.main()
    assert "wrote %s" % (tmp_path / "sep_summary.csv") in capsys.readouterr().out
