"""The checks that ``qndsim validate`` runs, each held once.

A check compares one measured number with a threshold.  Checks that share a
setup form a group, whose function returns one number per check, in order.
Acceptance criteria 4-8 read the same numbers through `measured`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import (
    beam_splitter_transform, conditional_output, conditional_state_raw, feedback_displace,
    homodyne_distribution, output_squeeze,
)
from .grids import GaussianSpec, Grid, WaveFunction, auto_grid, build_gaussian, overlap

SIGNAL = GaussianSpec(mean=0.0, variance=0.25)  # vacuum-width signal of every check
QUARTER_PI = math.pi / 4  # tan(phi) = 1


@dataclass(frozen=True)
class Check:
    name: str
    threshold: float
    comparison: str = "<="  # ">=" where larger is better

    def result(self, measured: float) -> dict:
        larger_ok = self.comparison == ">="
        passed = measured >= self.threshold if larger_ok else measured <= self.threshold
        return {"name": self.name, "passed": bool(passed), "measured": float(measured),
                "threshold": float(self.threshold), "comparison": self.comparison}


@dataclass(frozen=True)
class CheckGroup:
    """Checks measured together: `measure()` returns one value per check, in order."""

    suite: str
    measure: Callable[[], tuple[float, ...]]
    checks: tuple[Check, ...]


REGISTRY: list[CheckGroup] = []


def _group(suite: str, *checks: Check):
    def register(measure: Callable[[], tuple[float, ...]]):
        REGISTRY.append(CheckGroup(suite, measure, checks))
        return measure

    return register


def _build(spec: GaussianSpec, n_points: int = 2048) -> WaveFunction:
    return build_gaussian(spec, auto_grid([spec], n_points=n_points))


def _gaussian_density(x: np.ndarray, mean: float, variance: float) -> np.ndarray:
    return np.exp(-((x - mean) ** 2) / (2 * variance)) / math.sqrt(2 * math.pi * variance)


@_group("limits", Check("vacuum_convolution_l1", 1e-6),
        Check("vacuum_convolution_variance", 1e-4))
def vacuum_convolution() -> tuple[float, ...]:
    """Vacuum probe: p is the signal density blurred by 1/(4 tan^2), N(0, 1/2)."""
    p = homodyne_distribution(_build(SIGNAL), _build(SIGNAL), QUARTER_PI)
    oracle = _gaussian_density(p.grid.points, 0.0, 0.5)
    return float(p.grid.weights @ np.abs(p.density - oracle)), abs(p.variance() - 0.5)


@_group("limits", Check("squeezed_limit_l1", 0.02),
        Check("squeezed_limit_conditional_std", 0.02 * SIGNAL.sigma),
        Check("squeezed_limit_conditional_center", 0.02 * SIGNAL.sigma))
def squeezed_limit() -> tuple[float, ...]:
    """Filter width 1e-4 sigma_s^2: p tracks |psi_s|^2, outputs collapse onto x0."""
    filter_var = 1e-4 * SIGNAL.variance
    signal = _build(SIGNAL, n_points=4096)
    probe = _build(GaussianSpec(0.0, filter_var * math.tan(QUARTER_PI) ** 2))
    p = homodyne_distribution(signal, probe, QUARTER_PI, n_outcomes=2048)
    intrinsic = _gaussian_density(p.grid.points, 0.0, SIGNAL.variance)
    worst_std = worst_center = 0.0
    for x0 in (-0.4, 0.0, 0.3):
        conditional = conditional_output(signal, probe, QUARTER_PI, x0)
        worst_std = max(worst_std, math.sqrt(conditional.variance()))
        worst_center = max(worst_center, abs(conditional.mean() - x0))
    return float(p.grid.weights @ np.abs(p.density - intrinsic)), worst_std, worst_center


@_group("limits", Check("antisqueezed_limit_variance_rel", 0.01),
        Check("antisqueezed_limit_overlap_sq", 0.99, ">="))
def antisqueezed_limit() -> tuple[float, ...]:
    """Filter width 1e4 sigma_s^2: outcomes flatten and outputs track the input."""
    probe_var = 1e4 * SIGNAL.variance * math.tan(QUARTER_PI) ** 2
    signal = _build(SIGNAL)
    probe = _build(GaussianSpec(0.0, probe_var))
    p = homodyne_distribution(signal, probe, QUARTER_PI)
    expected_var = probe_var / math.tan(QUARTER_PI) ** 2
    min_overlap_sq = 1.0
    for x0 in np.linspace(-2 * SIGNAL.sigma, 2 * SIGNAL.sigma, 9):
        conditional = conditional_output(signal, probe, QUARTER_PI, float(x0))
        min_overlap_sq = min(min_overlap_sq, abs(overlap(signal, conditional)) ** 2)
    return abs(p.variance() - expected_var) / expected_var, min_overlap_sq


@_group("pipeline", Check("pipeline_vs_closed_form_l2", 1e-6))
def pipeline_equivalence() -> tuple[float, ...]:
    """Staged pipeline vs closed-form output over 3 phases x 3 probes x 3 outcomes."""
    grid = Grid(-20.0, 20.0, 8192)
    signal = build_gaussian(SIGNAL, grid)
    worst = 0.0
    for phi in (0.5, QUARTER_PI, 1.1):
        for probe_var in (0.05, 0.25, 1.0):
            probe = build_gaussian(GaussianSpec(0.0, probe_var), grid)
            for x0 in (-1.0, 0.3, 1.5):
                staged = conditional_state_raw(signal, probe, phi, x0)
                staged = output_squeeze(feedback_displace(staged, x0, phi), phi)
                diff = staged.amplitudes - conditional_output(signal, probe, phi, x0).amplitudes
                worst = max(worst, math.sqrt(float(grid.weights @ np.abs(diff) ** 2)))
    return (worst,)


@_group("pipeline", Check("beam_splitter_norm", 1e-6), Check("homodyne_density_integral", 1e-8),
        Check("conditional_output_norm", 1e-9))
def normalization() -> tuple[float, ...]:
    """The joint state keeps unit norm; p integrates to 1; outputs are normalized."""
    specs = [GaussianSpec(0.2, 0.15), GaussianSpec(-0.1, 0.6)]
    grid = auto_grid(specs, n_points=768)
    signal, probe = build_gaussian(specs[0], grid), build_gaussian(specs[1], grid)
    worst_joint = max(abs(beam_splitter_transform(signal, probe, phi).norm() - 1.0)
                      for phi in (0.3, QUARTER_PI, 1.2))
    signal = _build(SIGNAL)
    worst_integral = worst_norm = 0.0
    for probe_var in (0.05, 0.25, 4.0):
        probe = _build(GaussianSpec(0.0, probe_var))
        p = homodyne_distribution(signal, probe, QUARTER_PI)
        worst_integral = max(worst_integral, abs(p.total() - 1.0))
        for x0 in (-0.5, 0.0, 0.8):
            conditional = conditional_output(signal, probe, QUARTER_PI, x0)
            worst_norm = max(worst_norm, abs(conditional.norm() - 1.0))
    return worst_joint, worst_integral, worst_norm


def measured(group: str) -> dict[str, float]:
    """Check name -> measured value for the registry group measured by function `group`."""
    (entry,) = [g for g in REGISTRY if g.measure.__name__ == group]
    return {c.name: value for c, value in zip(entry.checks, entry.measure(), strict=True)}


def run(suite: str) -> list[dict]:
    """Measure every check of `suite` ("limits", "pipeline" or "all"), in registry order."""
    groups = [g for g in REGISTRY if suite in ("all", g.suite)]
    return [c.result(v) for g in groups for c, v in zip(g.checks, g.measure(), strict=True)]
