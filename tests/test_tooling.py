"""Checks on the source tree itself: no unused imports, runtime imports only
from numpy, scipy and the standard library, the benchmark's span names
still name public functions of the package, and the pytest configuration
reports a failing property test as a failure."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "baryreduce"
# __init__.py imports names only to re-export them
SOURCES = sorted([*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unused]


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport numpy.linalg\nfrom a import b as c\n") == [
        "line 1: os", "line 2: numpy", "line 3: c"]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set:
    """Top-level names of the modules that ``source`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_runtime_imports_are_numpy_scipy_or_stdlib():
    allowed = {*sys.stdlib_module_names, "numpy", "scipy", "baryreduce"}
    for path in sorted(PACKAGE.glob("*.py")):
        assert imported_modules(path.read_text()) <= allowed, path.name
    assert imported_modules("import a.b\nfrom c.d import e\nfrom . import f\n") == {"a", "c"}


def test_runtime_dependencies_are_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert sorted(re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower() for dep in deps) == [
        "numpy", "scipy"]


def _span_names() -> list:
    """The literal span names of ``bench/layers.py``, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text())
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("CALLS_AND_SELF", "SELF_ONLY", "MAP_MAKERS")
                for t in node.targets):
            names.extend(ast.literal_eval(node.value))
    return names


def test_bench_span_lists_are_read():
    assert len(_span_names()) >= 15


@pytest.mark.parametrize("name", _span_names())
def test_bench_span_is_a_public_function_of_its_module(name):
    module_name, _, function = name.partition(".")
    module = importlib.import_module(f"baryreduce.{module_name}")
    obj = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__


def test_failing_property_test_is_reported(tmp_path):
    """Under the project's warning filters a failing ``@given`` test is an
    ordinary failure with its falsifying example, not an INTERNALERROR."""
    pytest.importorskip("hypothesis")
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_always_fails(x):\n"
        "    assert x != x\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
