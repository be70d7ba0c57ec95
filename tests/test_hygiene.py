"""Source hygiene: no unused imports in the package, no modules in `__all__`."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import otmix

PACKAGE = Path(otmix.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced afterwards."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scanner_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == ["b", "os"]
    assert unused_imports("import numpy as np\nx = np.pi\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_all_lists_no_module():
    modules = [n for n in otmix.__all__ if isinstance(getattr(otmix, n), ModuleType)]
    assert modules == []
    assert "sem_fit" in otmix.__all__ and "coclustering" not in otmix.__all__
