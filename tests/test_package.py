"""Package-level checks: the public name list, the import layering between
modules, and the demos running end to end."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import countcsp

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_all_lists_api_names_only():
    assert len(set(countcsp.__all__)) == len(countcsp.__all__)
    for name in countcsp.__all__:
        assert not isinstance(getattr(countcsp, name), types.ModuleType), name


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / "countcsp" / (module + ".py")).read_text())


def _package_imports(module: str) -> dict:
    """{sibling module: names imported from it} over every relative import
    in src/countcsp/<module>.py, function bodies included."""
    out: dict = {}
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                for alias in node.names:
                    out.setdefault(alias.name, set())
            else:
                out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def test_the_oracle_depends_on_relations_only():
    assert set(_package_imports("oracle")) <= {"relations"}
    for module in ("frames", "maltsev", "relations"):
        assert "oracle" not in _package_imports(module), module
    # counting binds two oracle names that the benchmark's tracer test reads
    # through it, and calls neither.
    passthrough = {"balance_matrix", "enumerate_solutions"}
    assert _package_imports("counting").get("oracle", set()) <= passthrough
    used = {n.id for n in ast.walk(_tree("counting")) if isinstance(n, ast.Name)}
    assert not passthrough & used


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
