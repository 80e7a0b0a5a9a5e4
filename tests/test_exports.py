"""Every exported name resolves, each package exports exactly its modules' __all__,
every name the benchmark's span tracer reads resolves in pwmdp, and the benchmark's
reference floors run on the operators' return types."""

import importlib
import importlib.util
import pkgutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import pwmdp
from pwmdp.harness.config import config_from_dict

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(pwmdp.__path__, prefix="pwmdp.")
    if info.name != "pwmdp.__main__"  # running it starts the CLI
)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


# each package re-exports these modules, in this order
PACKAGES = {
    "pwmdp": ("adaptive", "bocd", "context", "mdp", "operators"),
    "pwmdp.harness": ("certify", "config", "experiment", "io", "sweeps"),
}


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_exactly_its_modules_all(package):
    pkg = importlib.import_module(package)
    modules = [importlib.import_module(f"{package}.{name}") for name in PACKAGES[package]]
    expected = [entry for module in modules for entry in module.__all__]
    assert pkg.__all__ == expected
    assert len(set(expected)) == len(expected), f"{package}.__all__ repeats a name"
    moved = [
        f"{module.__name__}.{entry}"
        for module in modules
        for entry in module.__all__
        if getattr(pkg, entry) is not getattr(module, entry)
    ]
    assert not moved, f"{package} binds these names to other objects: {moved}"
    submodules = {info.name for info in pkgutil.iter_modules(pkg.__path__)}
    extra = [
        name
        for name, value in vars(pkg).items()
        if not name.startswith("_")
        and name not in expected
        and not (name in submodules and value is sys.modules.get(f"{package}.{name}"))
    ]
    assert not extra, f"{package} binds public names outside its modules' __all__: {extra}"


def _bench_module(name: str):
    path = Path(__file__).parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their annotations through it
    spec.loader.exec_module(module)
    return module


def test_names_the_span_tracer_reads_resolve():
    # the traced bench looks these up on every run; a rename must fail here, not only there
    spans = _bench_module("spans")
    for module, name in spans.TRACED_CLASSES:
        assert isinstance(getattr(importlib.import_module(f"pwmdp.{module}"), name), type)
    for key in spans._HOOKS:
        module, name = key.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"pwmdp.{module}"), name)
        # the tracer wraps public functions only, under this span name
        assert isinstance(fn, types.FunctionType) and not name.startswith("_")
        assert spans._span_name(fn) == key


def test_bench_reference_floors_run_on_a_partitioned_config():
    # the bench checks every trace row against these floors, built from
    # mode_fixed_point(...).q_star through projection_error
    workloads = _bench_module("workloads")
    config = config_from_dict({"partition": [[0, 1, 2], [3, 4, 5]], "noise_sigma": 0.01})
    params, sigma = config.operator_params, config.noise_sigma
    floors = workloads._envelope_floors(config)
    assert len(floors) == len(config.models)
    for model, floor in zip(config.models, floors):
        # independent oracle: value iteration, then each block's largest deviation from its mean
        q = np.zeros((6, 3))
        for _ in range(5000):
            v = q.max(axis=1)
            q = model.reward + params.gamma * (model.kernel @ v - params.lambda_epi * model.gamma_epi)
        eps_proj = max(np.abs(q[b] - q[b].mean(axis=0)).max() for b in ([0, 1, 2], [3, 4, 5]))
        assert floor == pytest.approx((eps_proj + sigma) / (1.0 - params.gamma), rel=1e-6)
        assert floor > sigma / (1.0 - params.gamma)
