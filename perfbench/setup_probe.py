"""One set-up measurement in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds taken to import kerrspec (with numpy and scipy) and build
the workload's inputs: its sweep plan, or its config file under WORKDIR.
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports kerrspec)

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.perf_counter() - _start))
