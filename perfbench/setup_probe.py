"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src dir> <workload> <seed>

Times importing momentflow (and the CLI the workloads drive) plus building
the workload's inputs from the seed. Prints that time and then the median
duration of the speed reference kernel, run afterwards in this interpreter,
both in seconds.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import momentflow  # noqa: E402,F401
import momentflow.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.make_inputs(sys.argv[2], int(sys.argv[3]))
elapsed = time.perf_counter() - start

import speed  # noqa: E402

print(repr(elapsed), repr(speed.reference_median()))
