#!/usr/bin/env python3
"""Append one benchmark record of this checkout to a BENCH_*.json trajectory file.

Usage (from anywhere; qndsim is imported from this checkout's src/):
    python scripts/bench.py BENCH_31.json --label change

The file holds {"records": [...]}; the record is appended, so a parent record and a
change record made one after the other on one machine sit side by side.  Every time is
in seconds and every memory figure in MB (2**20 bytes).  BLAS pools are pinned to one
thread, here and in every child process, as perfbench/run.py pins them.  A record holds:

  layers          perfbench/scaling.py's `layer_table()` (vacuum signal and probe,
                  phi = pi/4, N in {512, 2048, 8192}, timeit autorange per call)
  pairs           `_LatticeRoute.pair` on the same inputs and sizes (the layers time
                  `fidelity_pair` already, as `state_fidelity` and `distribution_fidelity`);
                  the route is built once, as a sweep builds it once for all its points
  joint           the tracemalloc peak of `beam_splitter_transform` mixing a cat (2, 0.25)
                  and vacuum at phi = 0.7, as tests/test_chain.py's readout inputs, and of
                  the joint state's `norm()`, `marginal(1)` and `marginal(2)`, N in
                  {768, 2048}
  import          `import qndsim.cli` in a fresh process: the process's wall time and
                  peak RSS (its own VmHWM), medians of 5 processes
  cli_fresh       chain, a 20-step numeric sweep, a numeric cat optimize and validate
                  --suite all, each the median wall time of 5 fresh processes
  cli_in_process  `qndsim.cli.main` on perfbench/workloads.py's sweep and search argv
                  (seed 1), the first call and the median of the next ones
  control         a pure-Python loop, so that records made at different times can be
                  read as ratios of it
  machine, git    nproc, the Python, numpy and scipy versions; the commit, whether the
                  tracked files differ from it, and a digest of src/qndsim/*.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
os.environ.update({name: "1" for name in BLAS_ENV})  # before numpy loads its BLAS
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import qndsim  # noqa: E402
import qndsim.cli  # noqa: E402
from qndsim.kernel import _LatticeRoute  # noqa: E402

FRESH_RUNS = 5
IN_PROCESS_RUNS = 200
WORKLOAD_SEED = 1
JOINT_SIZES = (768, 2048)
JOINT_PHI = 0.7
CLI_COMMANDS = {
    "chain": ["chain", "--phi", "0.7854", "--probe-var", "0.25", "--outcome", "sample:1000",
              "--seed", "7"],
    "sweep": ["sweep", "--mode", "numeric", "--steps", "20", "--x-min", "0.2", "--x-max", "4"],
    "optimize": ["optimize", "--mode", "numeric", "--signal", "cat:1.8,0.2025", "--phi", "0.7"],
    "validate": ["validate", "--suite", "all"],
}
# Fresh processes are timed with no subprocess timeout: with one, Popen.wait polls at
# intervals of up to 50 ms, and the wall times land on that step.
# The child's own peak RSS is its VmHWM: Linux carries the spawning process's high-water
# mark across exec into the child's ru_maxrss, so that would read this process's peak.
IMPORT_PROBE = (
    "import qndsim.cli; "
    "print(next(int(line.split()[1]) for line in open('/proc/self/status') "
    "if line.startswith('VmHWM:')) / 1024.0)"
)


def autorange_s(call) -> float:
    number, total = timeit.Timer(call).autorange()
    return total / number


def pairs() -> dict[str, float]:
    """`_LatticeRoute.pair` on scaling.py's inputs, per call."""
    import scaling

    out = {}
    for n in scaling.SIZES:
        grid = qndsim.auto_grid([scaling.VACUUM], n_points=n)
        route = _LatticeRoute(qndsim.build_gaussian(scaling.VACUUM, grid))
        width = scaling.VACUUM.sigma / np.tan(scaling.PHI)
        # the key keeps the module that held the route before kernel.py, so that records
        # made before and after it compare
        out[f"fidelity._LatticeRoute.pair.N{n}.s"] = autorange_s(lambda: route.pair(width))
    return out


def traced_peak_mb(call):
    """call()'s result, and the peak of the memory it traced, in MB."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def joint() -> dict[str, float]:
    """Peaks of mixing a cat and vacuum into a joint state, and of its reductions."""
    cat = qndsim.CatSpec(2.0, 0.25)
    vacuum = qndsim.GaussianSpec(0.0, qndsim.VACUUM_VARIANCE)
    out = {}
    for n in JOINT_SIZES:
        policy = qndsim.GridPolicy(n_points=n)
        signal = qndsim.build_state(cat, policy.grid_for([cat]))
        probe = qndsim.build_gaussian(vacuum, policy.grid_for([vacuum]))
        state, peak = traced_peak_mb(
            lambda: qndsim.beam_splitter_transform(signal, probe, JOINT_PHI)
        )
        out[f"chain.beam_splitter_transform.N{n}.peak_mb"] = peak
        for name, call in (("norm", state.norm), ("marginal1", lambda: state.marginal(1)),
                           ("marginal2", lambda: state.marginal(2))):
            out[f"chain.JointWaveFunction.{name}.N{n}.peak_mb"] = traced_peak_mb(call)[1]
    return out


def import_cost() -> dict[str, float]:
    walls, rss = [], []
    for _ in range(FRESH_RUNS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                              capture_output=True, text=True)
        walls.append(perf_counter() - start)
        rss.append(float(proc.stdout))
    return {"wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss)}


def cli_fresh(workdir: Path) -> dict[str, float]:
    out = {}
    for name, argv in CLI_COMMANDS.items():
        walls = []
        for i in range(FRESH_RUNS):
            cmd = [sys.executable, "-m", "qndsim.cli", *argv, "--out", str(workdir / f"{name}{i}")]
            start = perf_counter()
            subprocess.run(cmd, check=True, capture_output=True)
            walls.append(perf_counter() - start)
        out[f"{name}_s"] = statistics.median(walls)
    return out


def cli_in_process(workdir: Path) -> dict[str, float]:
    """`qndsim.cli.main` on a workload's argv, each call into a fresh output directory."""
    import workloads

    out = {}
    for name in ("sweep", "search"):
        workload = workloads.WORKLOADS[name]
        params = workload.draw(WORKLOAD_SEED)
        times = []
        for _ in range(1 + IN_PROCESS_RUNS):
            argv = workload.inputs(params, workdir, workloads.FULL)["argv"]
            start = perf_counter()
            code = qndsim.cli.main(argv)
            times.append(perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"{name} argv exited {code}: {argv}")
        out[f"{name}.first_s"] = times[0]
        out[f"{name}.median_s"] = statistics.median(times[1:])
    return out


def control_s() -> float:
    """Median of 5 runs of a fixed pure-Python loop."""
    loop = "total = 0\nfor i in range(1_000_000):\n    total += i * i"
    return statistics.median(timeit.repeat(loop, number=1, repeat=5))


def git_state() -> dict:
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((SRC / "qndsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "sha": git("rev-parse", "HEAD"),
        "tracked_files_modified": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


def machine() -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_env": {name: os.environ[name] for name in BLAS_ENV},
    }


def record(label: str) -> dict:
    from scaling import layer_table

    table, refused = layer_table()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        return {
            "label": label,
            "machine": machine(),
            "git": git_state(),
            "control_s": control_s(),
            "layers": table,
            "layers_refused": refused,
            "pairs": pairs(),
            "joint": joint(),
            "import": import_cost(),
            "cli_fresh": cli_fresh(workdir),
            "cli_in_process": cli_in_process(workdir),
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="trajectory file; the record is appended")
    parser.add_argument("--label", required=True, help="what the record measures, e.g. parent")
    args = parser.parse_args(argv)
    trajectory = json.loads(args.out.read_text()) if args.out.exists() else {"records": []}
    trajectory["records"].append(record(args.label))
    args.out.write_text(json.dumps(trajectory, indent=1, sort_keys=True) + "\n")
    print(f"appended record {args.label!r} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
