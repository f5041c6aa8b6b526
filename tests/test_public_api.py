"""Export lists name only what the packages define.

A name removed from a module but left in its package's ``__all__`` breaks
``from <package> import *`` for every user; these checks make it break the
suite instead.  The last check keeps scipy off the import path.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = ["ppdattack", "ppdattack.attacks", "ppdattack.bayes", "ppdattack.harness"]
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, "%s.__all__ names undefined %s" % (name, missing)


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_are_unique(name):
    exports = importlib.import_module(name).__all__
    duplicates = sorted({n for n in exports if exports.count(n) > 1})
    assert not duplicates, "%s.__all__ repeats %s" % (name, duplicates)


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_succeeds(name):
    namespace = {}
    exec("from %s import *" % name, namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


def test_import_does_not_load_scipy():
    # scipy.special is most of a cold start; the library imports it only in
    # TPredictive.logpdf and BernoulliLogit's score_x and sample_y.  A fresh interpreter, since the suite imports scipy.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, ppdattack, ppdattack.harness, ppdattack.harness.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]", "importing ppdattack loaded " + out.strip()
