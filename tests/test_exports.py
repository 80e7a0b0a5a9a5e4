"""Every exported name resolves, the package re-exports only what its modules export,
and every name the benchmark's span tracer reads resolves in pwmdp."""

import ast
import importlib
import importlib.util
import pkgutil
import types
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


def _bench_spans():
    path = Path(__file__).parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_names_the_span_tracer_reads_resolve():
    # the traced bench looks these up on every run; a rename must fail here, not only there
    spans = _bench_spans()
    for module, name in spans.TRACED_CLASSES:
        assert isinstance(getattr(importlib.import_module(f"pwmdp.{module}"), name), type)
    for key in spans._HOOKS:
        module, name = key.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"pwmdp.{module}"), name)
        # the tracer wraps public functions only, under this span name
        assert isinstance(fn, types.FunctionType) and not name.startswith("_")
        assert spans._span_name(fn) == key
