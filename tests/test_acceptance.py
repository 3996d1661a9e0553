"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line; run with `pytest tests/test_acceptance.py -v -s`
to see them all.  Tolerances are pinned here, not tuned elsewhere.
"""

import math
import time

import numpy as np
from scipy.stats import norm

import qndsim as q
from qndsim import checks

VACUUM = q.GaussianSpec(0.0, 0.25)
SIGMA_S = 0.5
QUARTER_PI = math.pi / 4

# Criteria 4-8 measure through `qndsim.checks`, the registry `qndsim validate` runs,
# and assert these tolerances: upper bounds, except OVERLAP's lower bound.
OVERLAP = "antisqueezed_limit_overlap_sq"
PINNED = {
    "pipeline_vs_closed_form_l2": 1e-6,
    "squeezed_limit_l1": 0.02,
    "squeezed_limit_conditional_std": 0.02 * SIGMA_S,
    "squeezed_limit_conditional_center": 0.02 * SIGMA_S,
    OVERLAP: 0.99,
    "antisqueezed_limit_variance_rel": 0.01,
    "vacuum_convolution_l1": 1e-6,
    "vacuum_convolution_variance": 1e-4,
    "beam_splitter_norm": 1e-6,
    "homodyne_density_integral": 1e-8,
    "conditional_output_norm": 1e-9,
}


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def build(spec, n_points=2048):
    return q.build_gaussian(spec, q.auto_grid([spec], n_points=n_points))


def probe_for_ratio(x, n_points=2048, phi=QUARTER_PI):
    return build(q.GaussianSpec(0.0, (x * SIGMA_S * math.tan(phi)) ** 2), n_points)


def test_criterion_1_optimal_trade_off():
    start = time.perf_counter()
    rep = q.gaussian_trade_off_report(tol=1e-4)
    elapsed = time.perf_counter() - start
    ok = (
        abs(rep.x_m - 1.2) <= 0.05
        and abs(rep.F_at_xm - 0.86) <= 0.01
        and abs(rep.G_at_xm - 0.91) <= 0.01
        and elapsed < 1.0
    )
    report(
        "criterion 1: optimal trade-off",
        ok,
        f"x_m={rep.x_m:.5f} F={rep.F_at_xm:.5f} G={rep.G_at_xm:.5f} ({elapsed:.3f}s)",
    )


def test_criterion_2_equal_fidelity_point():
    start = time.perf_counter()
    x_e = q.equal_fidelity_point(1.0, 2.0, 1e-6)
    elapsed = time.perf_counter() - start
    f_val = q.gaussian_state_fidelity(x_e)
    g_val = q.gaussian_distribution_fidelity(x_e)
    ok = (
        abs(x_e - 1.3) <= 0.1
        and abs(f_val - 0.88) <= 0.01
        and abs(g_val - 0.88) <= 0.01
        and elapsed < 1.0
    )
    report(
        "criterion 2: equal-fidelity point",
        ok,
        f"x_e={x_e:.5f} F=G={f_val:.5f} ({elapsed:.3f}s)",
    )


def test_criterion_3_closed_vs_numeric_fidelities():
    start = time.perf_counter()
    worst_f = worst_g = 0.0
    signal = build(VACUUM)
    for x in (0.25, 0.5, 1.0, 2.0, 4.0):
        probe = probe_for_ratio(x)
        worst_f = max(
            worst_f,
            abs(q.state_fidelity(signal, probe, QUARTER_PI) - q.gaussian_state_fidelity(x)),
        )
        worst_g = max(
            worst_g,
            abs(
                q.distribution_fidelity(signal, probe, QUARTER_PI)
                - q.gaussian_distribution_fidelity(x)
            ),
        )
    elapsed = time.perf_counter() - start
    ok = worst_f < 1e-3 and worst_g < 1e-3 and elapsed < 30.0
    report(
        "criterion 3: closed vs numeric fidelities",
        ok,
        f"max|dF|={worst_f:.2e} max|dG|={worst_g:.2e} ({elapsed:.1f}s, n=2048)",
    )


def report_measured(name, group, max_seconds=math.inf):
    """One registry group's measurements against their PINNED tolerances."""
    start = time.perf_counter()
    m = checks.measured(group)
    elapsed = time.perf_counter() - start
    ok = elapsed < max_seconds and all(
        value > PINNED[key] if key == OVERLAP else value < PINNED[key] for key, value in m.items()
    )
    report(name, ok, " ".join(f"{k}={v:.3g}" for k, v in m.items()) + f" ({elapsed:.1f}s)")


def test_criterion_4_pipeline_equivalence():
    report_measured("criterion 4: pipeline equivalence (3x3x3)", "pipeline_equivalence", 10.0)


def test_criterion_5_projective_limit():
    report_measured("criterion 5: projective limit", "squeezed_limit")


def test_criterion_6_non_destructive_limit():
    report_measured("criterion 6: non-destructive limit", "antisqueezed_limit")


def test_criterion_7_vacuum_probe_convolution():
    report_measured("criterion 7: vacuum-probe convolution", "vacuum_convolution")


def test_criterion_8_unitarity_and_normalization():
    report_measured("criterion 8: unitarity and normalization", "normalization")


def test_registry_is_no_looser_than_pinned_tolerances():
    registry = {c.name: c for group in checks.REGISTRY for c in group.checks}
    assert registry.keys() == PINNED.keys()
    for name, tol in PINNED.items():
        check = registry[name]
        lower = name == OVERLAP
        assert check.comparison == (">=" if lower else "<="), name
        assert check.threshold >= tol if lower else check.threshold <= tol, name


def test_criterion_9_monte_carlo_consistency():
    start = time.perf_counter()
    signal = build(VACUUM)
    probe = build(VACUUM)
    p = q.homodyne_distribution(signal, probe, QUARTER_PI)
    n = 100_000
    draws = q.sample_outcomes(p, n, seed=7)
    again = q.sample_outcomes(p, n, seed=7)
    identical = np.array_equal(draws, again)
    ordered = np.sort(draws)
    cdf = norm.cdf(ordered, scale=math.sqrt(0.5))
    ranks = np.arange(1, n + 1) / n
    ks = max(np.abs(cdf - ranks).max(), np.abs(cdf - (ranks - 1.0 / n)).max())
    elapsed = time.perf_counter() - start
    ok = identical and ks < 1.63 / math.sqrt(n) and elapsed < 5.0
    report(
        "criterion 9: Monte Carlo consistency",
        ok,
        f"KS={ks:.4f} (<{1.63 / math.sqrt(n):.4f}) identical_streams={identical} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_10_output_ensemble_consistency():
    signal = build(VACUUM, n_points=1024)
    probe = build(VACUUM, n_points=1024)
    rho = q.output_ensemble(signal, probe, QUARTER_PI)
    fidelity = q.state_fidelity(signal, probe, QUARTER_PI)
    expect_err = abs(rho.expectation(signal) - fidelity)
    trace_err = abs(rho.trace() - 1.0)
    min_eig = rho.min_eigenvalue()
    ok = expect_err < 1e-4 and trace_err < 1e-6 and min_eig >= -1e-8
    report(
        "criterion 10: output ensemble consistency",
        ok,
        f"|<s|rho|s>-F|={expect_err:.2e} |tr-1|={trace_err:.2e} min_eig={min_eig:.2e}",
    )


def test_criterion_11_non_gaussian_property_suite():
    cat_spec = q.CatSpec(2.0, 0.25)
    cat = q.build_cat(2.0, 0.25, q.auto_grid([cat_spec], n_points=2048))
    sigma_cat = math.sqrt(cat.variance())
    # filter widths spanning two decades around the cat's overall spread
    widths = sigma_cat * np.logspace(-1.0, 1.0, 9)
    f_vals, g_vals = [], []
    for w in widths:
        probe = build(q.GaussianSpec(0.0, (w * math.tan(QUARTER_PI)) ** 2), n_points=1024)
        f_vals.append(q.state_fidelity(cat, probe, QUARTER_PI))
        g_vals.append(q.distribution_fidelity(cat, probe, QUARTER_PI))
    f_vals, g_vals = np.array(f_vals), np.array(g_vals)
    totals = f_vals + g_vals
    monotone = bool(np.all(np.diff(f_vals) >= 0) and np.all(np.diff(g_vals) <= 0))
    peak = int(np.argmax(totals))
    interior = bool(
        0 < peak < len(totals) - 1
        and totals[0] < totals[peak]
        and totals[-1] < totals[peak]
    )
    ok = monotone and interior
    report(
        "criterion 11: non-Gaussian property suite",
        ok,
        f"F monotone up / G monotone down={monotone} interior_max_at_w="
        f"{widths[peak] / sigma_cat:.2f}*sigma (F+G={totals[peak]:.4f})",
    )
