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
