"""Tests of the benchmark itself: smoke jobs, exact counts, tracer, refusal.

Run from the root of the checkout:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import qndsim.fidelity  # noqa: E402
import run  # noqa: E402
import scaling  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = (
    "grids.spline_points",
    "chain.conditional_output.calls",
    "optimize.pair_evals",
    "cli.bytes_written",
)
SEED = 5


def traced_smoke_job(name, workdir):
    workload = workloads.WORKLOADS[name]
    job = workload.inputs(workload.draw(SEED), workdir, workloads.SMOKE)
    with tracer.Tracer() as tr:
        result = workload.run(job, tr.span)
    return result, tr.summary() | {"cli.bytes_written": result.bytes_written}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_job_passes_its_checks_and_counts_repeat(name, tmp_path):
    first, counts = traced_smoke_job(name, tmp_path)
    second, again = traced_smoke_job(name, tmp_path)
    assert first.items > 0 and first.failed == 0, first.errors
    assert second.failed == 0, second.errors
    assert {k: counts[k] for k in EXACT_COUNTS} == {k: again[k] for k in EXACT_COUNTS}
    assert counts["grids.spline_points"] > 0
    assert counts["chain.conditional_output.calls"] > 0


def test_search_counts_pairs_as_the_report_does(tmp_path):
    result, counts = traced_smoke_job("search", tmp_path)
    assert counts["optimize.pair_evals"] == result.items  # TradeOffReport.evaluations
    assert 0.0 < counts["optimize.distinct_x_ratio"] <= 1.0
    assert counts["cli.bytes_written"] > 0


def test_tracer_wraps_every_namespace_and_restores_it():
    homodyne = qndsim.fidelity.homodyne_distribution
    state_fidelity = qndsim.cli.state_fidelity
    assert homodyne is qndsim.chain.homodyne_distribution
    spec = qndsim.GaussianSpec(0.0, 0.25)
    grid = qndsim.auto_grid([spec], n_points=256)
    signal, probe = qndsim.build_gaussian(spec, grid), qndsim.build_gaussian(spec, grid)
    with tracer.Tracer() as tr:
        assert qndsim.fidelity.homodyne_distribution is not homodyne
        assert qndsim.cli.state_fidelity is not state_fidelity
        qndsim.fidelity.distribution_fidelity(signal, probe, 0.7, n_outcomes=64)
    assert qndsim.fidelity.homodyne_distribution is homodyne
    assert qndsim.cli.state_fidelity is state_fidelity
    assert tr.calls["fidelity.distribution_fidelity"] == 1
    assert tr.edges[("fidelity.distribution_fidelity", "chain.homodyne_distribution")] == 1
    assert tr.interp_builds == 2  # the probe's spline in homodyne, the signal's for G
    assert tr.spline_points == 64 * 256 + 64
    total = tr.total_s["fidelity.distribution_fidelity"]
    assert 0.0 < tr.self_s["fidelity.distribution_fidelity"] < total


def test_every_declared_per_layer_metric_is_computed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    computed = set(tracer.Tracer().summary()) | {"cli.bytes_written", "trace.overhead_ratio"}
    for n in scaling.SIZES:
        for name in scaling._cases(512):
            computed |= {f"{name}.N{n}.s", f"{name}.N{n}.refused"}
    assert {m["name"] for m in spec["per_layer"]} <= computed


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(i) for i in range(11)]) == (10.0, 100.0)  # never p9
    samples = [float(i) for i in range(1, 201)]
    value, percentile = run.tail(samples)
    assert percentile == 95.0 and value == 190.0
    assert sum(s > value for s in samples) == 10


def test_refuses_without_the_program(tmp_path):
    root = BENCH.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns(".*", "results", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "readout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],  # fmt: skip
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
