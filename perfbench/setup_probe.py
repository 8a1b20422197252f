"""Time one workload's set-up in a fresh process and print it in seconds.

Measures from ``import mdcrt`` through building the workload's cases and
warming the library's lazy caches, which a CLI user pays on every run.
Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

if __name__ == "__main__":
    start = time.perf_counter()
    import mdcrt  # noqa: F401  (the import is part of the measured set-up)
    import workloads

    workloads.WORKLOADS[sys.argv[1]]()
    print(repr(time.perf_counter() - start))
