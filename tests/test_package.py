"""The package surface that scripts outside the library rely on: the
demos run to completion, every name the benchmark imports exists, and
no check in the package is an `assert` that `python -O` strips."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powersemi

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(powersemi.__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def benchmark_api():
    """The API tuple of bench/workloads.py, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets if isinstance(t, ast.Name)] \
                == ["API"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/workloads.py defines no API tuple")


def test_benchmark_api_is_exported():
    api = benchmark_api()
    assert api
    assert [name for name in api if not hasattr(powersemi, name)] == []


def test_package_has_no_assert_statements():
    """Re-checks of proved facts raise errors that survive python -O."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "powersemi").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
