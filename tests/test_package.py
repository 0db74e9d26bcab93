"""The package's public surface: ``activemc.__all__`` against what ``__init__`` imports
and what the README's examples import."""

import ast
import re
import types
from pathlib import Path

import activemc


def test_every_export_resolves():
    missing = [name for name in activemc.__all__ if not hasattr(activemc, name)]
    assert missing == []


def test_exports_sorted_without_duplicates():
    assert activemc.__all__ == sorted(set(activemc.__all__))


def test_every_public_import_is_exported():
    # submodules are attributes of the package too, but not exports
    public = {name for name, value in vars(activemc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(activemc.__all__)) == []


def test_exports_are_the_readme_imports():
    # the README's python blocks, read as the CI "README examples" step runs them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    imported = {alias.name for node in ast.walk(ast.parse("\n".join(blocks)))
                if isinstance(node, ast.ImportFrom) and node.module == "activemc"
                for alias in node.names}
    assert sorted(imported) == activemc.__all__
