"""Source hygiene: no unused imports in the package, scipy imported only inside
the functions that use it, no modules in `__all__`, and the benchmark's tracer
still finds, wraps and restores every function it traces."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
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


def scipy_import_sites(source: str) -> list[tuple[str, bool]]:
    """(imported scipy name, whether the import sits inside a function body)."""
    tree = ast.parse(source)
    nested = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        else:
            continue
        sites += [(name, id(node) in nested) for name in names]
    return sites


def test_scanner_sees_scipy_imports():
    source = ("import scipy.linalg\nimport numpy\n"
              "def f():\n    from scipy.special import xlogy\n    return xlogy\n")
    assert scipy_import_sites(source) == [("scipy.linalg", False), ("scipy.special.xlogy", True)]


def test_scipy_imported_once_per_name_inside_a_function():
    # a module-level scipy import would be most of what `import otmix` costs each process
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in scipy_import_sites(path.read_text())]
    assert sites, "the scanner found no scipy import at all"
    assert [name for name, nested in sites if not nested] == []
    assert [name for name, count in Counter(name for name, _ in sites).items() if count > 1] == []


LAZY_IMPORT_PROBE = """
import json, sys
import otmix, otmix.cli
import numpy as np
lazy = ("scipy.optimize", "scipy.special")
after_import = [m for m in lazy if m in sys.modules]
spec = otmix.VarianceSpec.shared(1.0)
truth = otmix.MixtureParams(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]), spec, np.full(3, 1 / 3))
fitted = otmix.MixtureParams(truth.locations[[2, 0, 1]] + 0.1, spec, truth.weights)
y = np.arange(24.0).reshape(6, 4) % 5
otmix.vem_fit(y, 2, 2, otmix.random_block_init(6, 4, 2, 2, 0), otmix.FitConfig())
after_vem = [m for m in sys.modules if m.split(".")[0] == "scipy"]
value = otmix.center_error(fitted, truth)
print(json.dumps({"after_import": after_import, "after_vem": after_vem, "value": value,
                  "after_score": [m for m in lazy if m in sys.modules]}))
"""


def test_import_loads_no_scipy_until_first_score():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", LAZY_IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    probe = json.loads(out)
    assert probe["after_import"] == []
    assert probe["after_vem"] == []
    assert probe["value"] == pytest.approx(0.02, rel=1e-12)
    assert "scipy.optimize" in probe["after_score"]


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
