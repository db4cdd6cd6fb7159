"""Print the set-up time of one workload, measured in this interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py starts this several times, because the package imports, numpy
included, can be timed only once per process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

if __name__ == "__main__":
    t0 = time.perf_counter()
    workloads.setup(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter() - t0)
