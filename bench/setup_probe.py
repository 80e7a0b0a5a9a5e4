"""Set-up cost in a fresh interpreter: import pwmdp, then build one workload's inputs.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR
Prints the elapsed seconds as its last line.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pwmdp.harness.cli  # noqa: E402,F401  the user's entry point and all it imports
import workloads  # noqa: E402

workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - t0)
