"""The benchmark's three workloads: seeded inputs, one job, and its checks.

A job is one workload iteration; an item is the workload's unit of work:

  search   an (F, G) pair evaluated by ``qndsim optimize --mode numeric``
  sweep    an (F, G) pair written by ``qndsim sweep --mode numeric``
  readout  one conditioned outcome of the chain run shot by shot

Inputs are drawn from the benchmark seed once per run.  Every job builds
fresh input objects from those values, so nothing cached on a
``WaveFunction`` (its spline evaluator) carries over from one job to the
next.  Each job also checks its results against a reference, using only
tolerances that ``tests/test_acceptance.py`` already pins; an item fails if
it raises or misses its tolerance.  Program functions are always looked up
through their module at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager

import numpy as np

import qndsim
import qndsim.cli

# Tolerances pinned by the acceptance suite.
FG_CLOSED_FORM_TOL = 1e-3  # criterion 3: numeric F, G vs the Gaussian closed forms
F_ROUTES_TOL = 1e-3  # F by state_fidelity, the transfer kernel and the ensemble
STAGED_L2_TOL = 1e-6  # criterion 4: staged pipeline vs closed-form output
NORM_TOL = 1e-9  # criterion 8: norm of every conditioned state
JOINT_NORM_TOL = 1e-6  # criterion 8: norm of the two-mode state
DENSITY_INTEGRAL_TOL = 1e-8  # criterion 8: integral of the outcome density

SEARCH_BRACKET = (0.2, 5.0)  # the optimize command's default --x-min, --x-max
SEARCH_SHAPE = 4.0  # cat separation over component sigma
READOUT_GRID_N = 2048
READOUT_HALFSPAN = 12.0  # holds every stage of the staged pipeline for all drawn inputs
READOUT_JOINT_N = 768
READOUT_JOINT_READINGS = 3
VACUUM = qndsim.GaussianSpec(mean=0.0, variance=qndsim.VACUUM_VARIANCE)

Span = Callable[[str], ContextManager]


def no_span(name: str) -> ContextManager:
    return contextlib.nullcontext()


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one job. FULL is the benchmark; SMOKE keeps its tests short."""

    search_grid_n: int = 1024  # the optimize command's default --grid-n
    sweep_steps: int = 20
    sweep_grid_n: int = 2048  # the sweep command's default --grid-n
    sweep_outcome_nodes: int = 1024  # the sweep command's default --outcome-nodes
    readout_draws: int = 100_000
    readout_conditioned: int = 1500


FULL = Sizes()
SMOKE = Sizes(
    search_grid_n=512,
    sweep_steps=3,
    sweep_grid_n=512,
    sweep_outcome_nodes=256,
    readout_draws=1000,
    readout_conditioned=20,
)


@dataclass
class JobResult:
    """What one job did: items attempted and failed, plus notes for the record."""

    items: int
    failed: int
    warnings: list[str] = field(default_factory=list)
    bytes_written: int = 0
    errors: list[str] = field(default_factory=list)
    worst: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[int], dict]  # seed -> parameter values
    inputs: Callable[[dict, Path, Sizes], dict]  # fresh input objects for one job
    run: Callable[[dict, Span], JobResult]  # one job, checks included


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _written(out_dir: Path) -> int:
    """Bytes of the numeric outputs a CLI run lists in its manifest."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return sum((out_dir / name).stat().st_size for name in manifest["outputs"])


def _run_cli(argv: list[str]) -> tuple[int, list[str]]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = qndsim.cli.main(argv)
    return code, [f"{w.category.__name__}: {w.message}" for w in caught]


# ---------------------------------------------------------------------------
# search: numeric optimize of a cat signal through the CLI


def _search_draw(seed: int) -> dict:
    # The search is scale-invariant: scaling the cat scales its grids and
    # outcome grids alike, and x is dimensionless.  Drawing the scale with the
    # shape held at separation = SEARCH_SHAPE * sigma keeps the work per job
    # (evaluations, non-null outcomes) the same for every seed.  Separation
    # and variance drawn independently from [1.5, 2.5] x [0.15, 0.35] moved
    # it by up to 20%.
    rng = random.Random(seed)
    separation = _uniform(rng, 1.55, 2.35)
    return {
        "separation": separation,
        "component_variance": (separation / SEARCH_SHAPE) ** 2,  # in [0.150, 0.345]
        "phi": _uniform(rng, 0.6, 0.9),
    }


def _search_inputs(params: dict, workdir: Path, sizes: Sizes) -> dict:
    out = Path(tempfile.mkdtemp(dir=workdir))
    argv = [
        "optimize",
        "--mode", "numeric",
        "--signal", f"cat:{params['separation']!r},{params['component_variance']!r}",
        "--phi", repr(params["phi"]),
        "--grid-n", str(sizes.search_grid_n),
        "--out", str(out),
    ]  # fmt: skip
    return {"argv": argv, "out": out, "grid_n": sizes.search_grid_n, **params}


def _search_run(job: dict, span: Span) -> JobResult:
    code, caught = _run_cli(job["argv"])
    if code != 0:
        return JobResult(1, 1, caught, errors=[f"optimize exited {code}"])
    report = json.loads((job["out"] / "report.json").read_text())
    result = JobResult(report["evaluations"], 0, caught, _written(job["out"]))
    lo, hi = SEARCH_BRACKET
    x_m, x_e = report["x_m"], report["x_e"]
    if not all(math.isfinite(v) and lo <= v <= hi for v in (x_m, x_e)):
        result.errors.append(f"x_m={x_m} or x_e={x_e} outside [{lo}, {hi}]")
    else:
        # Rebuild the report's signal and its x_m probe the way the optimize
        # command does, then recompute F there by two independent routes.
        phi, n = job["phi"], job["grid_n"]
        spec = qndsim.CatSpec(job["separation"], job["component_variance"])
        signal = qndsim.build_state(spec, qndsim.GridPolicy(n).grid_for([spec]))
        sigma_p = x_m * math.sqrt(signal.variance()) * math.tan(phi)
        pspec = qndsim.GaussianSpec(0.0, sigma_p**2)
        probe = qndsim.build_gaussian(pspec, qndsim.auto_grid([pspec], n_points=n))
        f_transfer = qndsim.state_fidelity_via_transfer(signal, phi, pspec.sigma)
        rho = qndsim.output_ensemble(signal, probe, phi, n_outcomes=max(256, n // 2))
        with span("fidelity.DensityMatrixGrid.expectation"):
            f_ensemble = rho.expectation(signal)
        gap = max(abs(report["F_at_xm"] - f_transfer), abs(report["F_at_xm"] - f_ensemble))
        result.worst["F_route_gap"] = gap
        if not gap <= F_ROUTES_TOL:
            result.errors.append(f"F at x_m disagrees across routes by {gap:.3e}")
    if result.errors:
        result.failed = result.items
    return result


# ---------------------------------------------------------------------------
# sweep: numeric sweep of a Gaussian signal through the CLI


def _sweep_draw(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "variance": _uniform(rng, 0.1, 0.4),
        "phi": _uniform(rng, 0.6, 0.9),
        "x_min": _uniform(rng, 0.1, 0.3),
        "x_max": _uniform(rng, 4.0, 5.0),
    }


def _sweep_inputs(params: dict, workdir: Path, sizes: Sizes) -> dict:
    out = Path(tempfile.mkdtemp(dir=workdir))
    argv = [
        "sweep",
        "--mode", "numeric",
        "--steps", str(sizes.sweep_steps),
        "--x-min", repr(params["x_min"]),
        "--x-max", repr(params["x_max"]),
        "--signal", f"gaussian:0,{params['variance']!r}",
        "--phi", repr(params["phi"]),
        "--grid-n", str(sizes.sweep_grid_n),
        "--outcome-nodes", str(sizes.sweep_outcome_nodes),
        "--out", str(out),
    ]  # fmt: skip
    return {"argv": argv, "out": out, "steps": sizes.sweep_steps}


def _sweep_run(job: dict, span: Span) -> JobResult:
    steps = job["steps"]
    code, caught = _run_cli(job["argv"])
    if code != 0:
        return JobResult(steps, steps, caught, errors=[f"sweep exited {code}"])
    rows = np.loadtxt(job["out"] / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
    result = JobResult(steps, 0, caught, _written(job["out"]))
    if len(rows) != steps:
        result.failed = steps
        result.errors.append(f"sweep.csv has {len(rows)} rows, expected {steps}")
        return result
    worst = 0.0
    for x, f_val, g_val, _ in rows:
        gap = max(
            abs(f_val - qndsim.gaussian_state_fidelity(x)),
            abs(g_val - qndsim.gaussian_distribution_fidelity(x)),
        )
        worst = max(worst, gap)
        if not gap <= FG_CLOSED_FORM_TOL:
            result.failed += 1
            result.errors.append(f"x={x}: |dF| or |dG| = {gap:.3e}")
    result.worst["FG_closed_form_gap"] = worst
    return result


# ---------------------------------------------------------------------------
# readout: the chain shot by shot at library level


def _readout_draw(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "separation": _uniform(rng, 1.5, 2.5),
        "component_variance": _uniform(rng, 0.15, 0.35),
        "phi": _uniform(rng, 0.6, 0.9),
        "sample_seed": rng.randrange(2**63),
    }


def _readout_inputs(params: dict, workdir: Path, sizes: Sizes) -> dict:
    spec = qndsim.CatSpec(params["separation"], params["component_variance"])
    policy = qndsim.GridPolicy(n_points=READOUT_GRID_N, halfspan=READOUT_HALFSPAN)
    small = qndsim.GridPolicy(n_points=READOUT_JOINT_N)
    return {
        "signal": qndsim.build_state(spec, policy.grid_for([spec])),
        "probe": qndsim.build_gaussian(VACUUM, policy.grid_for([VACUUM])),
        "signal_small": qndsim.build_state(spec, small.grid_for([spec])),
        "probe_small": qndsim.build_gaussian(VACUUM, small.grid_for([VACUUM])),
        "draws": sizes.readout_draws,
        "conditioned": sizes.readout_conditioned,
        **params,
    }


def _l2(a, b) -> float:
    return math.sqrt(float(a.grid.weights @ np.abs(a.amplitudes - b.amplitudes) ** 2))


def _readout_run(job: dict, span: Span) -> JobResult:
    chain = qndsim.chain
    signal, probe, phi = job["signal"], job["probe"], job["phi"]
    result = JobResult(job["conditioned"], 0)
    dist = chain.homodyne_distribution(signal, probe, phi)
    integral_gap = abs(dist.total() - 1.0)
    draws = chain.sample_outcomes(dist, job["draws"], job["sample_seed"])
    worst_l2 = worst_norm = 0.0
    for x0 in draws[: job["conditioned"]]:
        x0 = float(x0)
        try:
            closed = chain.conditional_output(signal, probe, phi, x0)
            staged = chain.conditional_state_raw(signal, probe, phi, x0)
            staged = chain.feedback_displace(staged, x0, phi)
            staged = chain.output_squeeze(staged, phi)
        except qndsim.QndSimError as err:
            result.failed += 1
            result.errors.append(f"x0={x0}: {type(err).__name__}: {err}")
            continue
        l2 = _l2(staged, closed)
        norm_gap = max(abs(closed.norm() - 1.0), abs(staged.norm() - 1.0))
        worst_l2, worst_norm = max(worst_l2, l2), max(worst_norm, norm_gap)
        if not (l2 <= STAGED_L2_TOL and norm_gap <= NORM_TOL):
            result.failed += 1
            result.errors.append(f"x0={x0}: staged L2 {l2:.3e}, norm gap {norm_gap:.3e}")

    joint = chain.beam_splitter_transform(job["signal_small"], job["probe_small"], phi)
    joint_gap = abs(joint.norm() - 1.0)
    slice_gap = 0.0
    for x0 in draws[:READOUT_JOINT_READINGS]:
        with span("chain.JointWaveFunction.conditioned_on_mode2"):
            sliced = joint.conditioned_on_mode2(-float(x0) * math.sin(phi))
        slice_gap = max(slice_gap, abs(sliced.norm() - 1.0))
    result.worst.update(
        staged_l2=worst_l2,
        norm_gap=max(worst_norm, slice_gap),
        joint_norm_gap=joint_gap,
        density_integral_gap=integral_gap,
    )
    if not (
        integral_gap <= DENSITY_INTEGRAL_TOL
        and joint_gap <= JOINT_NORM_TOL
        and slice_gap <= NORM_TOL
    ):
        result.errors.append(
            f"density integral gap {integral_gap:.3e}, joint norm gap {joint_gap:.3e}, "
            f"mode-2 slice norm gap {slice_gap:.3e}"
        )
        result.failed = result.items
    return result


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search", _search_draw, _search_inputs, _search_run),
        Workload("sweep", _sweep_draw, _sweep_inputs, _sweep_run),
        Workload("readout", _readout_draw, _readout_inputs, _readout_run),
    )
}
