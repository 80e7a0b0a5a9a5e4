"""Span tracer for pwmdp's public functions, and the per-layer metrics drawn from it.

The tracer measures pwmdp from outside: while active it replaces every
public function of every loaded ``pwmdp`` module with a timing wrapper, in
each module namespace that binds it (modules import names directly, so
patching only the defining module would miss calls from ``experiment`` and
``certify``). The constructors of the validated value types are wrapped on
the class, which catches construction through classmethods too. The twelve
certification suites are timed by wrapping ``certify.SUITES``. Everything
is restored on exit.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out with :meth:`Tracer.save`. A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import array
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

# Constructors whose validation cost is a per-layer metric (module, class).
TRACED_CLASSES = (
    ("mdp", "QFunction"),
    ("bocd", "RunLengthBelief"),
    ("bocd", "JointBelief"),
)

ADAPTIVE_FUNCTIONS = ("surprise", "ema_update", "lambda_w", "beta_eff", "update_surprise_ema")
CONTEXT_LOSSES = ("consistency_loss", "diversity_loss", "context_loss")
SUITE_NAMES = (
    "contraction_certificate",
    "blackwell_identities",
    "sharp_threshold",
    "detection_delay_table",
    "simplex_preservation",
    "safety_monotonicity",
    "error_budget",
    "regime_perturbation",
    "piecewise_three_phase",
    "context_losses",
    "shared_critic_equivalence",
    "reproducibility",
)

# Every per-layer metric: (name, unit, better, what it should move).
# "moves" names the end-to-end metric and workload a change in this layer
# is expected to move; BENCHMARK.json carries the first three fields.
PER_LAYER = [
    ("mdp.QFunction.calls", "count", "lower", "op_s_p50 on certify; light on piecewise_large"),
    ("mdp.QFunction.self_s", "s", "lower", "op_s_p50 on certify; light on piecewise_large"),
    ("mdp.sup_dist.calls", "count", "lower", "op_s_p50 on certify"),
    ("mdp.sup_dist.self_s", "s", "lower", "op_s_p50 on certify"),
    ("operators.apply_mode_operator.calls", "count", "lower", "work_per_s on piecewise_large and certify"),
    ("operators.apply_mode_operator.self_s", "s", "lower", "work_per_s on piecewise_large and certify"),
    ("operators.apply_mode_operator.us_per_call", "us", "lower", "work_per_s on piecewise_large and certify"),
    ("operators.mixture_backup.calls", "count", "lower", "work_per_s on piecewise_large and certify"),
    ("operators.mixture_backup.self_s", "s", "lower", "work_per_s on piecewise_large and certify"),
    ("operators.apply_mixture_operator.calls", "count", "lower", "work_per_s on piecewise_large and certify"),
    ("operators.apply_mixture_operator.self_s", "s", "lower", "work_per_s on piecewise_large and certify"),
    ("operators.mixture.zero_weight_frac", "frac", "lower", "work_per_s on piecewise_large; no change on certify"),
    ("operators.backup_flops", "flop", "lower", "work_per_s on piecewise_large (computed count)"),
    ("operators.backup_bytes", "B", "lower", "work_per_s on piecewise_large (computed count)"),
    ("operators.solve_fixed_point.calls", "count", "lower", "work_per_s on piecewise_large; op_s_p50 on certify"),
    ("operators.solve_fixed_point.self_s", "s", "lower", "work_per_s on piecewise_large; op_s_p50 on certify"),
    ("operators.solve_fixed_point.iters", "count", "lower", "work_per_s on piecewise_large; op_s_p50 on certify"),
    ("operators.estimate_lipschitz.calls", "count", "lower", "op_s_p50 on certify"),
    ("operators.estimate_lipschitz.self_s", "s", "lower", "op_s_p50 on certify"),
    ("operators.project.calls", "count", "lower", "work_per_s on piecewise_large"),
    ("operators.project.self_s", "s", "lower", "work_per_s on piecewise_large"),
    ("bocd.bocd_step.calls", "count", "lower", "op_s_p50 on certify; no change on piecewise_large"),
    ("bocd.bocd_step.self_s", "s", "lower", "op_s_p50 on certify; no change on piecewise_large"),
    ("bocd.bocd_step.us_per_call", "us", "lower", "op_s_p50 on certify; no change on piecewise_large"),
    ("bocd.joint_step.calls", "count", "lower", "op_s_p50 on certify; no change on piecewise_large"),
    ("bocd.joint_step.self_s", "s", "lower", "op_s_p50 on certify; no change on piecewise_large"),
    ("bocd.joint_step.us_per_call", "us", "lower", "op_s_p50 on certify; no change on piecewise_large"),
    ("bocd.bayes_update.calls", "count", "lower", "op_s_p50 on certify"),
    ("bocd.bayes_update.self_s", "s", "lower", "op_s_p50 on certify"),
    ("bocd.cluster_assign.calls", "count", "lower", "none: only the joint detector calls it, and no workload runs it"),
    ("bocd.cluster_assign.self_s", "s", "lower", "none: only the joint detector calls it, and no workload runs it"),
    ("bocd.RunLengthBelief.calls", "count", "lower", "op_s_p50 on certify"),
    ("bocd.RunLengthBelief.self_s", "s", "lower", "op_s_p50 on certify"),
    ("bocd.JointBelief.calls", "count", "lower", "op_s_p50 on certify"),
    ("bocd.JointBelief.self_s", "s", "lower", "op_s_p50 on certify"),
    ("adaptive.calls", "count", "lower", "op_s_p50 on piecewise_large; light on certify"),
    ("adaptive.self_s", "s", "lower", "op_s_p50 on piecewise_large; light on certify"),
    ("context.fit_linear_context.self_s", "s", "lower", "op_s_p50 on certify"),
    ("context.losses.self_s", "s", "lower", "op_s_p50 on certify"),
    ("harness.run_piecewise.self_s", "s", "lower", "op_s_p50 on piecewise_large; light on certify"),
    *[
        (f"harness.certify.{suite}.s", "s", "lower", "op_s_p50 on certify")
        for suite in SUITE_NAMES
    ],
    ("harness.run_threshold_sweep.self_s", "s", "lower", "op_s_p50 on certify"),
    ("harness.config_from_dict.self_s", "s", "lower", "setup_s on piecewise_large"),
    ("harness.io.self_s", "s", "lower", "op_s_p50 on piecewise_large; light on certify"),
    ("harness.io.bytes", "B", "lower", "op_s_p50 on piecewise_large; light on certify"),
    ("trace.overhead_s", "s", "lower", "none: the cost of tracing itself"),
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_mixture(counters, weights):
    w = np.asarray(weights, dtype=float)
    counters["mixture_modes"] += w.size
    counters["mixture_zero"] += int(np.count_nonzero(w == 0.0))


def _hook_mode_backup(counters, args, kwargs, result):
    counters["backup_elems"] += _arg(args, kwargs, 0, "model").kernel.size


def _hook_mixture_backup(counters, args, kwargs, result):
    _count_mixture(counters, _arg(args, kwargs, 1, "weights"))


def _hook_mixture_via_shared(counters, args, kwargs, result):
    belief = _arg(args, kwargs, 1, "belief")
    _count_mixture(counters, getattr(belief, "weights", belief))


def _hook_fixed_point(counters, args, kwargs, result):
    counters["fp_iters"] += result.iterations


def _hook_emit_trace(counters, args, kwargs, result):
    counters["io_bytes"] += os.path.getsize(result)


# Counters recorded where the work happens, after the wrapped call returns.
_HOOKS = {
    "operators.apply_mode_operator": _hook_mode_backup,
    "operators.mixture_backup": _hook_mixture_backup,
    "operators.apply_mixture_via_shared": _hook_mixture_via_shared,
    "operators.solve_fixed_point": _hook_fixed_point,
    "harness.io.emit_trace": _hook_emit_trace,
}


def _span_name(obj) -> str:
    return f"{obj.__module__.removeprefix('pwmdp.')}.{obj.__qualname__}"


class Tracer:
    """Context manager that records a span for every call into pwmdp's public API."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: defaultdict = defaultdict(int)
        self._stack = [-1]
        self._restore: list = []

    def _wrap(self, fn, name):
        span_id = self._name_ids.setdefault(name, len(self.names))
        if span_id == len(self.names):
            self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock, counters = self._stack, time.perf_counter, self.counters
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(span_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        try:
            self._patch()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _patch(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == "pwmdp" or n.startswith("pwmdp.")
        ]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("pwmdp"):
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self._wrap(value, _span_name(value))
                self._restore.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)])
        certify = sys.modules["pwmdp.harness.certify"]
        self._restore.append((certify, "SUITES", certify.SUITES))
        certify.SUITES = tuple(wrapped[id(suite)] for suite in certify.SUITES)
        for module_name, class_name in TRACED_CLASSES:
            cls = getattr(sys.modules[f"pwmdp.{module_name}"], class_name)
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(cls.__init__, f"{module_name}.{class_name}")

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def profile(self) -> "Profile":
        return Profile(self)

    def save(self, path) -> None:
        """Write every span (name table, name id, parent index, start, end) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Profile:
    """Per-span-name call counts, self times and inclusive times of one traced run."""

    def __init__(self, tracer: Tracer):
        name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        duration = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(
            tracer.start, dtype=np.float64
        )
        n_spans, n_names = name_id.size, len(tracer.names)
        children = np.bincount(parent + 1, weights=duration, minlength=n_spans + 1)[1:]
        self_time = duration - children
        calls = np.bincount(name_id, minlength=n_names)
        self_s = np.bincount(name_id, weights=self_time, minlength=n_names)
        incl_s = np.bincount(name_id, weights=duration, minlength=n_names)
        self._calls = {n: int(calls[i]) for i, n in enumerate(tracer.names)}
        self._self = {n: float(self_s[i]) for i, n in enumerate(tracer.names)}
        self._incl = {n: float(incl_s[i]) for i, n in enumerate(tracer.names)}
        self.counters = dict(tracer.counters)

    def calls(self, *names) -> int:
        return sum(self._calls.get(n, 0) for n in names)

    def self_s(self, *names) -> float:
        return sum(self._self.get(n, 0.0) for n in names)

    def self_s_under(self, prefix) -> float:
        return sum(t for n, t in self._self.items() if n.startswith(prefix))

    def incl_s(self, name) -> float:
        return self._incl.get(name, 0.0)

    def us_per_call(self, name) -> float:
        calls = self.calls(name)
        return 1e6 * self.self_s(name) / calls if calls else 0.0


def layer_metrics(profile: Profile) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, which needs an untraced run."""
    p = profile
    out: dict[str, float] = {}
    for layer, fn in (
        ("mdp", "QFunction"),
        ("mdp", "sup_dist"),
        ("operators", "apply_mode_operator"),
        ("operators", "mixture_backup"),
        ("operators", "apply_mixture_operator"),
        ("operators", "solve_fixed_point"),
        ("operators", "estimate_lipschitz"),
        ("operators", "project"),
        ("bocd", "bocd_step"),
        ("bocd", "joint_step"),
        ("bocd", "bayes_update"),
        ("bocd", "cluster_assign"),
        ("bocd", "RunLengthBelief"),
        ("bocd", "JointBelief"),
    ):
        name = f"{layer}.{fn}"
        out[f"{name}.calls"] = p.calls(name)
        out[f"{name}.self_s"] = p.self_s(name)
    for name in ("operators.apply_mode_operator", "bocd.bocd_step", "bocd.joint_step"):
        out[f"{name}.us_per_call"] = p.us_per_call(name)
    modes = p.counters.get("mixture_modes", 0)
    out["operators.mixture.zero_weight_frac"] = (
        p.counters.get("mixture_zero", 0) / modes if modes else 0.0
    )
    elems = p.counters.get("backup_elems", 0)
    out["operators.backup_flops"] = 2 * elems
    out["operators.backup_bytes"] = 8 * elems
    out["operators.solve_fixed_point.iters"] = p.counters.get("fp_iters", 0)
    adaptive = [f"adaptive.{fn}" for fn in ADAPTIVE_FUNCTIONS]
    out["adaptive.calls"] = p.calls(*adaptive)
    out["adaptive.self_s"] = p.self_s(*adaptive)
    out["context.fit_linear_context.self_s"] = p.self_s("context.fit_linear_context")
    out["context.losses.self_s"] = p.self_s(*[f"context.{fn}" for fn in CONTEXT_LOSSES])
    out["harness.run_piecewise.self_s"] = p.self_s("harness.experiment.run_piecewise")
    for suite in SUITE_NAMES:
        out[f"harness.certify.{suite}.s"] = p.incl_s(f"harness.certify.suite_{suite}")
    out["harness.run_threshold_sweep.self_s"] = p.self_s("harness.sweeps.run_threshold_sweep")
    out["harness.config_from_dict.self_s"] = p.self_s("harness.config.config_from_dict")
    out["harness.io.self_s"] = p.self_s_under("harness.io.")
    out["harness.io.bytes"] = p.counters.get("io_bytes", 0)
    return out


# Metrics that must repeat exactly between two traced runs of the same input.
EXACT_METRICS = tuple(
    name
    for name, unit, _, _ in PER_LAYER
    if unit in ("count", "flop", "B", "frac") or name.endswith(".iters")
)
