"""pwmdp benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload {certify,piecewise_large} \
        --seed N --seconds S --trace {0,1}

Every operation is one in-process call of ``pwmdp.harness.cli.main(argv)``
on inputs generated from ``--seed``, repeated with the same inputs until
``--seconds`` have passed, and at least three times: the byte-identity
checks need a second output to compare, and a certify operation takes
20-30 s, so fewer would leave its median to one or two slow stretches of
a shared host.
Load comes from this one process, in a closed loop, with BLAS threads
capped at the CPU count.

``--trace 0`` reports the end-to-end metrics: setup_s (median of fresh
interpreters importing pwmdp and building the inputs), op_s_p50, work_per_s
and peak_rss_mb. ``--trace 1`` spends half the time untraced and half traced
and reports every per-layer metric of ``spans.PER_LAYER``. Operations that
exit non-zero, raise or fail their checks count as failed. The last stdout
line is the JSON result; the line before it records the environment. The
run record (and, traced, the spans) is written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_OPS = 3
SETUP_REPEATS = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit); all are "lower is better" except work_per_s.
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))
WORK_UNIT = {"certify": "instances/s", "piecewise_large": "iterations/s"}


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPU count (before numpy loads); return the CPU count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import pwmdp

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "pwmdp": pwmdp.__version__,
        "git_commit": commit,
        "machine": platform.machine(),
        "seed": seed,
    }


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """One set-up in a fresh interpreter, timed inside it."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs and checks operations of one prepared workload."""

    def __init__(self, prepared, workdir: Path):
        from pwmdp.harness.cli import main as pwmdp_main

        self.main = pwmdp_main
        self.prepared = prepared
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def operation(self, tracer=None) -> tuple[float, int]:
        """Run one operation; return its wall seconds and the work done (0 if it failed)."""
        import workloads

        out_dir = self.workdir / f"op{self.attempted}"
        out_dir.mkdir()
        argv = workloads.operation_argv(self.prepared, out_dir)
        self.attempted += 1
        error = None
        with contextlib.redirect_stdout(io.StringIO()), tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                code = self.main(argv)
                if code != 0:
                    error = f"exit code {code}"
            except SystemExit as exc:
                error = f"exit {exc.code}"
            except Exception:  # an operation that raises is a failed operation
                error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
        work = 0
        if error is None:
            try:
                work = workloads.check(self.prepared, out_dir)
            except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
                error = f"check failed: {exc}"
        shutil.rmtree(out_dir, ignore_errors=True)
        if error is not None:
            self.failed += 1
            print(f"operation {self.attempted} failed: {error}", file=sys.stderr)
        return elapsed, work

    def repeat(self, seconds: float, min_ops: int, traced: bool = False, between=None):
        """Closed loop: operations back to back for ``seconds``, at least ``min_ops`` of them.

        No operation starts once the last one, repeated, would end past the
        deadline. ``between(fraction_elapsed)`` runs before each operation
        and once at the end (with 1.0), outside the timed region.
        """
        import spans

        times, works, tracers = [], [], []
        t_start = time.perf_counter()
        while len(times) < min_ops or time.perf_counter() - t_start + times[-1] <= seconds:
            if between is not None:
                between((time.perf_counter() - t_start) / seconds)
            tracer = spans.Tracer() if traced else None
            elapsed, work = self.operation(tracer)
            times.append(elapsed)
            works.append(work)
            if traced:
                tracers.append(tracer)
        if between is not None:
            between(1.0)
        return times, works, tracers


def end_to_end(runner: Runner, args, workdir: Path) -> tuple[dict, dict]:
    setups = []

    def set_up(fraction: float) -> None:
        # Spread the fresh-interpreter set-ups over the run, so that their
        # median, like the operations', spans the whole measured interval.
        while len(setups) < min(SETUP_REPEATS, 1 + int(fraction * SETUP_REPEATS)):
            setups.append(setup_seconds(args.workload, args.seed, workdir))

    times, works, _ = runner.repeat(args.seconds, MIN_OPS, between=set_up)
    values = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "work_per_s": sum(works) / sum(times),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"setup_s": setups, "op_s": times, "work": works}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, detail


def per_layer(runner: Runner, args) -> tuple[dict, dict]:
    import spans

    plain, _, _ = runner.repeat(args.seconds / 2, 1)
    traced, _, tracers = runner.repeat(args.seconds / 2, 1, traced=True)
    layers = [spans.layer_metrics(t.profile()) for t in tracers]
    for other in layers[1:]:
        moved = [n for n in spans.EXACT_METRICS if other[n] != layers[0][n]]
        if moved:
            runner.failed += 1
            print(f"traced counts did not repeat: {moved}", file=sys.stderr)
    values = {
        name: (layers[0][name] if name in spans.EXACT_METRICS
               else statistics.median(layer[name] for layer in layers))
        for name in layers[0]
    }
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracers[0].save(spans_dir / f"{args.workload}-seed{args.seed}.npz")
    units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
    detail = {
        "op_s_untraced": plain,
        "op_s_traced": traced,
        "moves": {name: moves for name, _, _, moves in spans.PER_LAYER},
    }
    return {name: {"value": values[name], "unit": units[name]} for name, *_ in spans.PER_LAYER}, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="pwmdp benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(WORK_UNIT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pwmdp" / "__init__.py").is_file():
        print(f"error: pwmdp sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        prepared = workloads.prepare(args.workload, args.seed, workdir)
        runner = Runner(prepared, workdir)
        if args.trace:
            metrics, detail = per_layer(runner, args)
        else:
            metrics, detail = end_to_end(runner, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed, nproc)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {"workload": args.workload, "trace": args.trace, "env": env, **result, "detail": detail}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    shown = "  ".join(f"{n}={m['value']:.6g} {m['unit']}" for n, m in metrics.items())
    if not args.trace:
        shown = shown.replace(" 1/s", f" {WORK_UNIT[args.workload]}")
        shown += f"  (op samples n={len(detail['op_s'])})"
    print(f"{args.workload} seed={args.seed}: {shown}  "
          f"failed_frac={runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted})")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
