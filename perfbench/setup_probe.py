"""One set-up, timed from outside by run.py: import qndsim and build a job's inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>
with the source tree's ``src`` directory on PYTHONPATH.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    import workloads

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.WORKLOADS[name]
    workload.inputs(workload.draw(seed), workdir, workloads.FULL)
