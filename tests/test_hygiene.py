"""Source hygiene: no unused imports in the package, no modules in `__all__`,
and the benchmark's tracer still finds, wraps and restores every function it
traces."""

import ast
import importlib.util
import sys
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


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _otmix_bindings() -> dict:
    """Every module-level name of the loaded otmix modules, plus the one method
    the tracer patches on a class."""
    bindings = {(name, attr): value for name, module in list(sys.modules.items())
                if name == "otmix" or name.startswith("otmix.")
                for attr, value in vars(module).items()}
    bindings["Responsibilities.__post_init__"] = otmix.Responsibilities.__post_init__
    return bindings


def test_every_traced_name_exists(tracing):
    missing = [f"{home.__name__}.{name}" for _, home, name, *_ in tracing.TRACED
               if not callable(getattr(home, name, None))]
    assert missing == []


def test_tracer_patches_each_home_and_uninstall_restores(tracing):
    before = _otmix_bindings()
    originals = [getattr(home, name) for _, home, name, *_ in tracing.TRACED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sites = tracer.patched_sites()
        for (_, home, name, *_), original in zip(tracing.TRACED, originals):
            assert f"{home.__name__}.{name}" in sites
            assert getattr(home, name).__wrapped__ is original
    finally:
        tracer.uninstall()
    after = _otmix_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
