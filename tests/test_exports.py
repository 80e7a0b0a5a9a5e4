"""Every exported name resolves, and the package re-exports only what its modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pwmdp

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(pwmdp.__path__, prefix="pwmdp.")
    if info.name != "pwmdp.__main__"  # running it starts the CLI
)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(pwmdp.__file__).read_text(encoding="utf-8"))
    imported = [
        (f"pwmdp.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    stale = [
        f"{module}.{name}"
        for module, name in imported
        if name not in importlib.import_module(module).__all__
    ]
    assert not stale, f"pwmdp/__init__.py imports names outside their module's __all__: {stale}"
