"""Benchmark workloads: inputs generated from the workload seed, the operation, its checks.

Each operation is one call of the user's entry point,
``pwmdp.harness.cli.main(argv)``, in process. ``prepare`` is the set-up a
user pays before the first operation (for piecewise: writing the config and
resolving it with ``config_from_dict``); ``check`` verifies one operation's
output and returns the work it did.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pwmdp.harness.config import MetastabilityWarning, config_from_dict
from pwmdp.harness.io import read_trace
from pwmdp.operators import error_floor, mode_fixed_point, projection_error

# Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "certify": "the 12-suite gate on tables with S<=8: per-call Python overhead dominates "
    "(QFunction validation, ~350k mode backups, 1e5 belief updates)",
    "piecewise_large": "S=200 A=8 piecewise run with partition and noise: kernel arithmetic "
    "dominates, 3/4 of mode backups at zero weight; bocd is negligible",
}

# Envelope slack: the run's own fixed points are solved to 1e-10, and that
# offset can accumulate by 1/(1-gamma) along the trace.
ENVELOPE_TOL = 1e-7


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


@dataclass
class Prepared:
    workload: str
    seed: int
    argv: list
    config: object = None
    floors: list = field(default_factory=list)
    reference: bytes | None = None


def _dwells(rng, n_segments: int, total: int, minimum: int) -> list[int]:
    """Random segment lengths, each >= minimum, summing exactly to total."""
    extra = rng.multinomial(total - n_segments * minimum, np.full(n_segments, 1.0 / n_segments))
    return [int(minimum + e) for e in extra]


def _schedule(rng, n_modes: int, n_segments: int, total: int, minimum: int) -> list:
    modes = [int(rng.integers(n_modes))]
    while len(modes) < n_segments:
        modes.append(int(rng.choice([m for m in range(n_modes) if m != modes[-1]])))
    return [[m, d] for m, d in zip(modes, _dwells(rng, n_segments, total, minimum))]


def piecewise_large_config(seed: int) -> dict:
    rng = np.random.default_rng((seed, 2))
    order = rng.permutation(200)
    return {
        "seed": int(rng.integers(2**31)),
        "n_states": 200,
        "n_actions": 8,
        "modes": [{"seed": int(s)} for s in rng.integers(2**31, size=4)],
        "schedule": _schedule(rng, 4, 4, 400, 60),
        "operator": {"gamma": 0.9, "lambda_epi": 0.01, "kappa": 0.0},
        "partition": [[int(order[i]), int(order[i + 1])] for i in range(0, 200, 2)],
        "noise_sigma": 0.01,
        "format": "csv",
    }


CONFIGS = {"piecewise_large": piecewise_large_config}
WORKLOADS = tuple(WHY)


def prepare(workload: str, seed: int, workdir: Path) -> Prepared:
    """Build the workload's inputs from the seed (the user's set-up)."""
    if workload == "certify":
        return Prepared(workload, seed, ["certify", "--seed", str(seed)])
    raw = CONFIGS[workload](seed)
    path = Path(workdir) / f"{workload}-{seed}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", MetastabilityWarning)
        config = config_from_dict(raw)
    return Prepared(workload, seed, ["piecewise", "--config", str(path)], config=config)


def operation_argv(prepared: Prepared, out_dir: Path) -> list:
    return [*prepared.argv, "--out", str(out_dir)]


def check(prepared: Prepared, out_dir: Path) -> int:
    """Verify one operation's output; return its work (instances or iterations)."""
    if prepared.workload == "certify":
        data = _same_bytes(prepared, Path(out_dir) / "certification.json")
        report = json.loads(data)
        if report["passed"] is not True or len(report["suites"]) != 12:
            raise CheckFailed(f"certification did not pass: {report['suites']}")
        return sum(int(s["tested_instances"]) for s in report["suites"])
    path = Path(out_dir) / "trace.csv"
    _same_bytes(prepared, path)
    rows = read_trace(path).rows
    _check_trace(prepared, rows)
    return len(rows)


def _same_bytes(prepared: Prepared, path: Path) -> bytes:
    data = path.read_bytes()
    if prepared.reference is None:
        prepared.reference = data
    elif data != prepared.reference:
        raise CheckFailed(f"{path.name} differs from the first operation's output")
    return data


def _envelope_floors(config) -> list[float]:
    params = config.operator_params
    floors = []
    for model in config.models:
        fp = mode_fixed_point(model, params, tol=1e-12)
        if not fp.converged:
            raise CheckFailed("reference fixed point did not converge")
        eps_proj = 0.0 if config.partition is None else projection_error(fp.q_star, config.partition)
        floors.append(error_floor(eps_proj, config.noise_sigma, params.gamma))
    return floors


def _check_trace(prepared: Prepared, rows) -> None:
    """One finite row per scheduled iteration, each inside the error-budget envelope.

    After each detection window the backup uses the active regime, so
    err_t <= gamma**(t - anchor) * err_anchor + (eps_proj + sigma) / (1 - gamma).
    """
    config = prepared.config
    if len(rows) != config.schedule.total_iterations:
        raise CheckFailed(f"{len(rows)} rows for {config.schedule.total_iterations} iterations")
    for row in rows:
        values = (row.xi, row.h_bar, row.entropy, row.lambda_w, row.beta_eff, row.err)
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite value in row {row.iter}")
    if not prepared.floors:
        prepared.floors = _envelope_floors(config)
    gamma = config.operator_params.gamma
    seg_start = 0
    for k, (mode, dwell) in enumerate(config.schedule.segments):
        seg_end = seg_start + dwell
        anchor = seg_start if k == 0 else min(seg_start + config.detection_steps, seg_end)
        for t in range(anchor, seg_end):
            if rows[t].true_mode != mode:
                raise CheckFailed(f"row {t} reports mode {rows[t].true_mode}, schedule says {mode}")
            bound = gamma ** (t - anchor) * rows[anchor].err + prepared.floors[mode]
            if rows[t].err > bound + ENVELOPE_TOL:
                raise CheckFailed(f"row {t}: err {rows[t].err!r} above envelope {bound!r}")
        seg_start = seg_end
