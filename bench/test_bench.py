"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pwmdp.harness.certify as certify  # noqa: E402
import pwmdp.harness.experiment as experiment  # noqa: E402
import pwmdp.mdp as mdp  # noqa: E402
import pwmdp.operators as operators  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pwmdp.harness.experiment import run_piecewise  # noqa: E402


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        entry[:3] for entry in spans.PER_LAYER
    ]


def test_inputs_follow_the_seed_and_keep_their_size():
    make = workloads.CONFIGS["piecewise_large"]
    assert make(4) == make(4)
    assert make(4) != make(5)
    for seed in range(20):
        raw = make(seed)
        dwells = [d for _, d in raw["schedule"]]
        modes = [m for m, _ in raw["schedule"]]
        assert sum(dwells) == 400
        assert min(dwells) >= 60
        assert all(a != b for a, b in zip(modes, modes[1:]))


def test_tracer_restores_every_binding():
    originals = (
        operators.apply_mode_operator,
        experiment.apply_mixture_operator,
        certify.SUITES,
        mdp.QFunction.__init__,
    )
    with spans.Tracer():
        assert experiment.apply_mixture_operator is not originals[1]
        assert experiment.apply_mixture_operator.__wrapped__ is originals[1]
    assert (
        operators.apply_mode_operator,
        experiment.apply_mixture_operator,
        certify.SUITES,
        mdp.QFunction.__init__,
    ) == originals


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_traced_runs_repeat_every_count(name, tmp_path):
    runner = run.Runner(workloads.prepare(name, 3, tmp_path), tmp_path)
    layers = []
    for _ in range(2):
        tracer = spans.Tracer()
        runner.operation(tracer)
        layers.append(spans.layer_metrics(tracer.profile()))
    assert runner.failed == 0
    first, second = layers
    assert set(first) | {"trace.overhead_s"} == {entry[0] for entry in spans.PER_LAYER}
    assert {n: first[n] for n in spans.EXACT_METRICS} == {n: second[n] for n in spans.EXACT_METRICS}
    assert first["operators.apply_mode_operator.calls"] > 0
    assert first["operators.backup_flops"] > 0


def test_checks_reject_wrong_output(tmp_path):
    prepared = workloads.prepare("piecewise_large", 2, tmp_path)
    rows = list(run_piecewise(prepared.config).rows)
    workloads._check_trace(prepared, rows)
    late = rows[-1]
    rows[-1] = dataclasses.replace(late, err=late.err + 1.0 + 2 * max(prepared.floors))
    with pytest.raises(workloads.CheckFailed, match="envelope"):
        workloads._check_trace(prepared, rows)
    with pytest.raises(workloads.CheckFailed, match="rows"):
        workloads._check_trace(prepared, rows[:-1])

    (tmp_path / "trace.csv").write_text("first")
    workloads._same_bytes(prepared, tmp_path / "trace.csv")
    (tmp_path / "trace.csv").write_text("second")
    with pytest.raises(workloads.CheckFailed, match="differs"):
        workloads._same_bytes(prepared, tmp_path / "trace.csv")


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
