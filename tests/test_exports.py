"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import mdcrt

# importing __main__ would run the command line
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(mdcrt.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"mdcrt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from mdcrt import *", namespace)
    assert "lattices_equal" in namespace
