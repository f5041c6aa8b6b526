"""Export lists name only what the packages define.

A name removed from a module but left in its package's ``__all__`` breaks
``from <package> import *`` for every user; these checks make it break the
suite instead.
"""

import importlib

import pytest

PACKAGES = ["ppdattack", "ppdattack.attacks", "ppdattack.bayes", "ppdattack.harness"]


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
