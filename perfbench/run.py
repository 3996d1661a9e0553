"""The qndsim benchmark: one workload, run as a closed loop from one process.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {search,sweep,readout} --seed N \
        --seconds S --trace {0,1}

The load is one closed-loop caller in one process: the next job starts
only after the previous one has returned, for S seconds (at least one job).
The program is imported from ``src/`` of the checkout; nothing is
installed.  The run is single-threaded: ``QND_SIM_THREADS`` is unset and
BLAS thread pools are pinned to one thread (the inherited values are
recorded).  Inputs are drawn from the seed (see workloads.py), and every job
checks its results against a reference.

--trace 0 measures the end-to-end metrics, with no tracing installed:
  setup_s      median wall time of fresh processes that import qndsim and
               build one job's inputs
  job_s.p50    median wall time of one job (set-up excluded)
  job_s.tail   the highest percentile with at least ten jobs beyond it; below
               100 jobs that is under p90, and the slowest job is given
  items_per_s  items completed per second of summed job time
  peak_rss_mb  peak resident memory of this process
  fail_ratio   failed items over attempted items (printed, and carried by
               the result line's "failed" and "attempted")

BENCHMARK.json gates setup_s, items_per_s and peak_rss_mb.  job_s.p50 and
job_s.tail are printed and recorded but are not gates: with 3 to 11 jobs a
run they are single order statistics (the middle and the slowest job).  On
a shared 2-vCPU VM whose speed moved by up to 1.7x between runs, for
minutes at a time, they spread across ten runs by 0.3 of their median;
items_per_s, the same job time averaged over the run, spread less.

--trace 1 measures the per-layer metrics: the layer scaling table of
scaling.py, then pairs of one untraced and one traced job on the same
inputs for S seconds.  Per-layer values are per traced job (the median over
the traced jobs; counts repeat exactly), and trace.overhead_ratio is the
traced job_s.p50 over the untraced one.  BENCHMARK.json lists the counts,
the times every workload exercises and the scaling table; the self times of
layers only some workloads call (staged pipeline, sampling, beam splitter,
F, G, ensemble, optimize, cli) would read a constant 0 s on the others, so
they are printed and recorded but left out of the result line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are those
BENCHMARK.json lists for the mode, with its units.  The full record (run
metadata, every job, every span) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# Thread pools of the BLAS builds numpy may load, pinned to one thread for the
# run.  With one thread per core, OpenBLAS's worker spins on the second core
# of a 2-core machine: the process then burns two cores for no speed-up, and
# job times swing about twice as much from run to run.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
LOAD = "closed loop: one caller in one process; the next job starts when the previous returns"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "sweep", "readout"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    Below 10 * TAIL_BEYOND samples that percentile lies under p90 (with 11
    samples it is p9, the fastest job), so the slowest job is returned as
    percentile 100 instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 10 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def metadata(args: argparse.Namespace, params: dict, inherited: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "params": params,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": LOAD,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env_inherited": inherited["blas"],
        "blas_env": {name: os.environ[name] for name in BLAS_ENV},
        "QND_SIM_THREADS_inherited": inherited["QND_SIM_THREADS"],
        "QND_SIM_THREADS": None,  # unset for the run: the CLI's default, one worker
        "git_sha": git_sha(ROOT),
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall times of SETUP_RUNS fresh processes, each importing qndsim and building inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(workdir)]
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def run_job(workload, params: dict, workdir: Path, span, last_items: int) -> dict:
    """One job on fresh inputs; a job that raises fails as many items as the last one had."""
    from workloads import FULL, JobResult

    job = workload.inputs(params, workdir, FULL)
    start = perf_counter()
    try:
        result = workload.run(job, span)
    except Exception:  # the loop must go on; the failure is counted and recorded
        result = JobResult(last_items, last_items, errors=[traceback.format_exc()])
    seconds = perf_counter() - start
    return {
        "seconds": seconds,
        "items": result.items,
        "failed": result.failed,
        "bytes_written": result.bytes_written,
        "warnings": result.warnings,
        "errors": result.errors[:5],
        "worst": {k: float(v) for k, v in result.worst.items()},
    }


def end_to_end(workload, args, params: dict, workdir: Path) -> tuple[list[dict], dict, dict]:
    from workloads import no_span

    setup = measure_setup(args.workload, args.seed, workdir)
    jobs: list[dict] = []
    start = perf_counter()
    while not jobs or perf_counter() - start < args.seconds:
        jobs.append(run_job(workload, params, workdir, no_span, jobs[-1]["items"] if jobs else 1))
    times = [j["seconds"] for j in jobs]
    tail_s, tail_pct = tail(times)
    completed = sum(j["items"] - j["failed"] for j in jobs)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail_s,
        "items_per_s": completed / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_runs_s": setup,
        "job_samples": len(times),
        "job_s.tail_percentile": tail_pct,
    }
    return jobs, metrics, notes


def per_layer(workload, args, params: dict, workdir: Path) -> tuple[list[dict], dict, dict]:
    from scaling import layer_table
    from tracer import Tracer
    from workloads import no_span

    table, refused = layer_table()
    tracer = Tracer()
    jobs: list[dict] = []
    summaries: list[dict] = []
    spans: list[dict] = []
    start = perf_counter()
    while not jobs or perf_counter() - start < args.seconds:
        last = jobs[-1]["items"] if jobs else 1
        jobs.append(run_job(workload, params, workdir, no_span, last) | {"traced": False})
        with tracer:
            tracer.reset()
            jobs.append(run_job(workload, params, workdir, tracer.span, last) | {"traced": True})
        summary = tracer.summary()
        summary["cli.bytes_written"] = jobs[-1]["bytes_written"]
        summaries.append(summary)
        spans.append(
            {
                name: {
                    "calls": tracer.calls[name],
                    "total_s": tracer.total_s[name],
                    "self_s": tracer.self_s[name],
                }
                for name in sorted(tracer.calls)
            }
        )
    untraced = [j["seconds"] for j in jobs if not j["traced"]]
    traced = [j["seconds"] for j in jobs if j["traced"]]
    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics.update(table)
    notes = {
        "refused": refused,
        "traced_jobs": len(traced),
        "counts_repeat_across_traced_jobs": all(
            s[k] == summaries[0][k] for s in summaries for k in s if not k.endswith("_s")
        ),
        "spans_per_traced_job": spans,
    }
    return jobs, metrics, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qndsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} needs src/qndsim and BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    inherited = {
        "blas": {name: os.environ.get(name) for name in BLAS_ENV},
        "QND_SIM_THREADS": os.environ.pop("QND_SIM_THREADS", None),
    }
    os.environ.update({name: "1" for name in BLAS_ENV})  # before numpy loads its BLAS

    import qndsim
    from workloads import WORKLOADS

    if not Path(qndsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: qndsim was imported from {qndsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    params = workload.draw(args.seed)
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        measure = per_layer if args.trace else end_to_end
        jobs, metrics, notes = measure(workload, args, params, Path(tmp))

    attempted = sum(j["items"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    record = {
        "meta": metadata(args, params, inherited),
        "metrics": metrics,
        "fail_ratio": failed / attempted,
        "notes": notes,
        "jobs": jobs,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}, seed {args.seed}: {LOAD}")
    print(f"inputs {json.dumps(params, sort_keys=True)}")
    for name, value in metrics.items():
        unit = units.get(name, "s" if name.endswith(("_s", ".s")) else "count")
        print(f"  {name:48s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':48s} {failed / attempted:.6g} ({failed} of {attempted} items)")
    if not args.trace:
        print(
            f"  {notes['job_samples']} jobs timed; job_s.tail is percentile "
            f"{notes['job_s.tail_percentile']:.4g}; setup_s is the median of {SETUP_RUNS} processes"
        )
    warned = sum(len(j["warnings"]) for j in jobs)
    if warned:
        print(f"  {warned} warnings recorded, not counted as failures")
    for job in jobs:
        for error in job["errors"]:
            print(f"  failed: {error.strip()}")
    print(f"  record: {out.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
