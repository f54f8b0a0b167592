"""Every public name resolves: each module's ``__all__``, the package's imports,
and each library function the benchmark's tracer wraps by name."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import saddle_escape

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("schedules", "objectives", "spectral", "methods", "lyapunov_perron", "harness_cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"saddle_escape.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(pathlib.Path(saddle_escape.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert {module for module, _ in imports} == set(MODULES)
    for module, attr in imports:
        assert getattr(saddle_escape, attr) is \
            getattr(importlib.import_module(f"saddle_escape.{module}"), attr)


def test_every_traced_function_exists():
    # perfbench's tracer wraps library functions by (module, name); it is
    # loaded by path and only read here, nothing is installed
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTION_SPANS
    for module, attr, _ in tracer.FUNCTION_SPANS:
        assert callable(getattr(importlib.import_module(f"saddle_escape.{module}"), attr)), \
            (module, attr)
