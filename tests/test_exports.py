"""Every exported name resolves and every import is used, so a deletion
cannot leave a stale export or a dead import."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _unused_imports(path):
    """Module-level imports of ``path`` that nothing in it references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_src_has_no_unused_imports():
    paths = [p for p in Path(mdcrt.__file__).parent.glob("*.py")
             if p.name != "__init__.py"]
    assert paths
    assert [u for p in sorted(paths) for u in _unused_imports(p)] == []
