"""The public surface: ``facpca.__all__`` against what the demos and README import."""

import ast
import importlib
import pathlib
import re

import pytest

import facpca

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# retired from the package: each was called only by tests or a demo
REMOVED = {
    "correlation": "facpca.stats",
    "optimal_plane_angle": "facpca.varimax",
    "pc_variable_determination": "facpca.pipeline",
    "project": "facpca.pipeline",
    "verify_artifact": "facpca.pipeline",
}


def _names_from_facpca(source: str) -> set[str]:
    """Every name a ``from facpca import ...`` statement in ``source`` imports."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "facpca"
        for alias in node.names
    }


def test_all_is_distinct_and_resolves():
    assert len(facpca.__all__) == len(set(facpca.__all__))
    assert [name for name in facpca.__all__ if not hasattr(facpca, name)] == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_are_public(path):
    assert _names_from_facpca(path.read_text(encoding="utf-8")) <= set(facpca.__all__)


def test_readme_imports_are_public():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    names = set().union(*map(_names_from_facpca, blocks))
    assert "Analysis" in names
    assert names <= set(facpca.__all__)


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    assert name not in facpca.__all__
    assert not hasattr(facpca, name)
    assert not hasattr(importlib.import_module(REMOVED[name]), name)
