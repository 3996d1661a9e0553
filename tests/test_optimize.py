"""Trade-off optimizers: golden section, bisection, phase tuning, numeric curves."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qndsim as q
import qndsim.fidelity
import qndsim.optimize
from qndsim.cli import main
from qndsim.errors import (
    BracketError,
    DegeneratePhaseError,
    InvalidParameterError,
    NonFiniteObjectiveError,
    NoSignChangeError,
)
from qndsim.fidelity import fidelity_pair
from qndsim.optimize import _bisect

# refined operating points pinned by an independent golden-section/bisection
# run at tolerance 1e-12 (regression anchors; the published rounding is the
# looser 1.2 / 1.3 with percentages)
X_M_REFINED = 1.1958180795364757
X_E_REFINED = 1.3301474934151543
F_AT_XE_REFINED = 0.8829875404562083
FG_MAX = 1.7697223891222402

VACUUM = q.GaussianSpec(0.0, 0.25)
QUARTER_PI = math.pi / 4


def closed_sum(x):
    return q.gaussian_state_fidelity(x) + q.gaussian_distribution_fidelity(x)


def test_trade_off_at_optimum_region():
    pair = q.trade_off(1.2)
    assert pair.F == pytest.approx(0.8615497903412858, abs=1e-12)
    assert pair.G == pytest.approx(0.90816856696589, abs=1e-12)
    assert pair.f_plus_g == pytest.approx(1.7697183573071757, abs=1e-12)


def test_trade_off_at_unity():
    pair = q.trade_off(1.0)
    assert pair.f_plus_g == pytest.approx(1.7593056225097894, abs=1e-12)


def test_trade_off_small_x_limit():
    pair = q.trade_off(1e-4)
    assert pair.F < 1e-3
    assert pair.G > 1.0 - 1e-9
    assert abs(pair.f_plus_g - 1.0) < 1e-3
    with pytest.raises(InvalidParameterError):
        q.trade_off(0.0)


def test_maximize_quadratic():
    x_star, value = q.maximize_trade_off(lambda x: -((x - 2.0) ** 2), 0.0, 5.0, 1e-4)
    assert abs(x_star - 2.0) < 1e-4
    assert value == pytest.approx(0.0, abs=1e-8)


def test_maximize_closed_trade_off():
    x_m, total = q.maximize_trade_off(closed_sum, 0.05, 20.0, 1e-4)
    assert abs(x_m - 1.2) < 0.05  # published rounding
    assert abs(x_m - X_M_REFINED) < 1e-3  # regression anchor
    assert total == pytest.approx(FG_MAX, abs=1e-9)


def test_maximize_is_stable_under_tol_halving():
    x_coarse, _ = q.maximize_trade_off(closed_sum, 0.05, 20.0, 1e-4)
    x_fine, _ = q.maximize_trade_off(closed_sum, 0.05, 20.0, 5e-5)
    assert abs(x_coarse - x_fine) < 1e-4


def test_maximize_brackets_and_objective_errors():
    with pytest.raises(BracketError):
        q.maximize_trade_off(closed_sum, 2.0, 1.0, 1e-4)
    with pytest.raises(BracketError):
        q.maximize_trade_off(closed_sum, 1.0, 1.0, 1e-4)
    with pytest.raises(NonFiniteObjectiveError):
        q.maximize_trade_off(lambda x: float("nan"), 0.0, 1.0, 1e-4)
    with pytest.raises(InvalidParameterError):
        q.maximize_trade_off(closed_sum, 0.1, 1.0, 0.0)


def test_maximize_rejects_tolerance_below_float_resolution():
    with pytest.raises(InvalidParameterError, match="tolerance"):
        q.maximize_trade_off(closed_sum, 0.05, 20.0, 1e-20)
    with pytest.raises(InvalidParameterError, match="tolerance inf"):
        q.maximize_trade_off(closed_sum, 0.05, 20.0, math.inf)
    finest = 64.0 * sys.float_info.epsilon * 20.0
    x_m, _ = q.maximize_trade_off(closed_sum, 0.05, 20.0, finest)  # terminates
    assert abs(x_m - X_M_REFINED) < 1e-6


def test_maximize_refines_every_scan_peak():
    # four maxima of height 1 on the scan; each is refined, and the best comes back
    x_star, value = q.maximize_trade_off(lambda x: math.sin(5.0 * x), 0.0, 5.0, 1e-4)
    assert abs(value - 1.0) < 1e-8
    assert min(abs(x_star - (0.1 + 0.4 * k) * math.pi) for k in range(4)) < 1e-4


def test_trade_off_report_takes_the_best_refined_maximum():
    def multimodal_pair(x):  # F + G = 1 + sin(5 x): several maxima; F - G = x - 2
        return q.FidelityPair(F=0.5 * (1.0 + math.sin(5.0 * x) + x - 2.0),
                              G=0.5 * (1.0 + math.sin(5.0 * x) - x + 2.0))

    report = qndsim.optimize._trade_off_report(multimodal_pair, 0.2, 5.0, 1e-4)
    assert abs(report.F_at_xm + report.G_at_xm - 2.0) < 1e-8
    assert abs(report.x_e - 2.0) <= 0.5e-4


def test_maximize_returns_an_end_maximum_exactly():
    assert q.maximize_trade_off(lambda x: x, 0.2, 5.0, 1e-3) == (5.0, 5.0)
    assert q.maximize_trade_off(lambda x: -x, 0.2, 5.0, 1e-3) == (0.2, -0.2)
    # an end maximum (0.5 at x = 5) below an interior one (1 at x = 1): the interior wins
    x_star, value = q.maximize_trade_off(
        lambda x: math.exp(-((x - 1.0) ** 2)) + 0.5 * math.exp(-2.0 * (x - 5.0) ** 2),
        0.0, 5.0, 1e-6)
    assert abs(x_star - 1.0) < 1e-6
    assert abs(value - 1.0) < 1e-12


def test_equal_fidelity_point_location():
    x_e = q.equal_fidelity_point(1.0, 2.0, 1e-6)
    assert abs(x_e - 1.3) < 0.1  # published rounding
    assert abs(x_e - X_E_REFINED) < 1e-4  # regression anchor
    f_val = q.gaussian_state_fidelity(x_e)
    g_val = q.gaussian_distribution_fidelity(x_e)
    assert abs(f_val - g_val) < 1e-6
    assert abs(f_val - 0.88) < 0.01
    assert abs(f_val - F_AT_XE_REFINED) < 1e-5
    # F - G is exactly 0.0 at one float, so even tol = 1e-18 converges
    x_exact = q.equal_fidelity_point(1.0, 2.0, 1e-18)
    assert q.gaussian_state_fidelity(x_exact) == q.gaussian_distribution_fidelity(x_exact)
    # a bracket end where F - G is exactly 0 is the root
    assert q.equal_fidelity_point(x_exact, 2.0, 1e-6) == x_exact
    assert q.equal_fidelity_point(1.0, x_exact, 1e-6) == x_exact


def test_equal_fidelity_point_bracket_errors():
    with pytest.raises(BracketError):
        q.equal_fidelity_point(2.0, 1.0, 1e-6)
    with pytest.raises(NoSignChangeError):
        q.equal_fidelity_point(2.0, 3.0, 1e-6)
    with pytest.raises(InvalidParameterError, match="tolerance"):
        q.equal_fidelity_point(0.5, 3.0, math.inf)  # would return the first midpoint, 1.75


def test_bisection_of_a_jump_stops_on_bracket_width():
    # a sign change with no root: |f| = 1 everywhere, so only the bracket width can stop it
    def step(x):
        return -1.0 if x < 1.0 / 3.0 else 1.0

    for tol in (0.5, 1e-3, 1e-12):
        assert abs(_bisect(step, 0.0, 1.0, tol) - 1.0 / 3.0) <= tol
    # below the float spacing, it stops where the midpoint rounds onto a bracket end
    assert abs(_bisect(step, 0.0, 1.0, 0.0) - 1.0 / 3.0) <= math.ulp(1.0 / 3.0)


def test_tune_phase_balanced_case():
    assert q.tune_phase(1.0, 1.0, 1.0) == pytest.approx(QUARTER_PI, abs=1e-15)
    # slightly anti-squeezed probe at the optimum keeps the interferometer balanced
    assert q.tune_phase(0.5, 0.6, 1.2) == pytest.approx(QUARTER_PI, abs=1e-12)


def test_tune_phase_round_trip():
    for sigma_s, sigma_p, target in ((0.5, 0.8, 1.7), (1.0, 0.2, 0.4), (2.0, 2.0, 1.0)):
        phi = q.tune_phase(sigma_s, sigma_p, target)
        assert abs(sigma_p / (sigma_s * math.tan(phi)) - target) < 1e-12


def test_tune_phase_errors():
    with pytest.raises(InvalidParameterError):
        q.tune_phase(0.0, 1.0, 1.0)
    for args in ((math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)):
        with pytest.raises(InvalidParameterError, match="must be positive"):
            q.tune_phase(*args)
    with pytest.raises(DegeneratePhaseError):
        q.tune_phase(1.0, 1.0, 1e7)


def test_gaussian_trade_off_report():
    report = q.gaussian_trade_off_report(tol=1e-4)
    assert abs(report.x_m - 1.2) < 0.05
    assert abs(report.F_at_xm - 0.86) < 0.01
    assert abs(report.G_at_xm - 0.91) < 0.01
    assert abs(report.x_e - 1.3) < 0.1
    assert abs(report.F_at_xe - 0.88) < 0.01
    assert report.evaluations > 64
    assert report.tolerance == 1e-4
    assert abs(report.x_e - X_E_REFINED) <= report.tolerance / 2  # the final bracket's midpoint
    residual = abs(
        q.gaussian_state_fidelity(report.x_e) - q.gaussian_distribution_fidelity(report.x_e)
    )
    assert residual < report.tolerance


def test_numeric_curve_matches_closed_forms():
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=1024))
    xs = [0.5, 1.0, 2.0]
    pairs = q.numeric_trade_off_curve(signal, xs, QUARTER_PI)
    for x, pair in zip(xs, pairs):
        assert abs(pair.F - q.gaussian_state_fidelity(x)) < 1e-3
        assert abs(pair.G - q.gaussian_distribution_fidelity(x)) < 1e-3


def test_numeric_curve_attributes_failures_to_points():
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=512))
    with pytest.raises(InvalidParameterError, match="point 1"):
        q.numeric_trade_off_curve(signal, [0.25, -1.0], QUARTER_PI)


def test_numeric_curve_maps_each_ratio_to_its_gaussian_probe():
    phi = 0.7
    cat_spec = q.CatSpec(1.8, 0.2025)
    signal = q.build_cat(1.8, 0.2025, q.auto_grid([cat_spec], n_points=512))
    sigma_s = math.sqrt(signal.variance())
    xs = [0.5, 1.2]
    pairs = q.numeric_trade_off_curve(signal, xs, phi)
    for x, pair in zip(xs, pairs):
        spec = q.GaussianSpec(0.0, (x * sigma_s * math.tan(phi)) ** 2)
        probe = q.build_gaussian(spec, q.auto_grid([spec], n_points=512))
        probe_route = fidelity_pair(signal, probe, phi)
        # the filter route against the lattice route of the x probe: 5.3e-10 in F, 1.2e-9 in G
        assert abs(pair.F - probe_route.F) < 1e-8
        assert abs(pair.G - probe_route.G) < 1e-8


# 0.01: filter width 0.005, below the signal grid step 0.039
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 0.01])
def test_numeric_curve_refuses_ratios_naming_the_point(bad):
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=256))
    with pytest.raises(InvalidParameterError, match=r"point 1 \(filter ratio"):
        q.numeric_trade_off_curve(signal, [1.0, bad], QUARTER_PI)


def test_numeric_curve_preserves_order():
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=512))
    xs = [2.0, 0.5]  # deliberately out of sorted order
    pairs = q.numeric_trade_off_curve(signal, xs, QUARTER_PI)
    assert pairs[0].F > pairs[1].F  # wider filter keeps the state closer


@pytest.mark.slow
def test_numeric_optimum_matches_closed_form():
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=1024))
    report = q.numeric_trade_off_report(signal, QUARTER_PI, lo=0.6, hi=2.5, tol=2e-3)
    assert abs(report.x_m - X_M_REFINED) < 0.02
    assert abs(report.x_e - X_E_REFINED) < 0.05


def test_numeric_report_computes_each_pair_once(monkeypatch):
    widths = []
    pair = qndsim.fidelity._LatticeRoute.pair

    def counting(route, width):
        widths.append(width)
        return pair(route, width)

    monkeypatch.setattr(qndsim.fidelity._LatticeRoute, "pair", counting)
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=256))
    report = q.numeric_trade_off_report(signal, QUARTER_PI, tol=1e-2)
    assert len(widths) == report.evaluations
    assert len(set(widths)) == len(widths)


def numeric_report(spec):
    signal = q.build_state(spec, q.auto_grid([spec], n_points=512))
    return signal, q.numeric_trade_off_report(signal, 0.7)


def test_cat_optimize_finds_the_global_maximum(tmp_path):
    # the 64-point scan sees two peaks, (0.276, 1.348529) and (1.343, 1.349143); refined,
    # the lower one is the higher: (0.2349, 1.3533348) against (1.3726, 1.3492331)
    out = tmp_path / "cat"
    assert main(["optimize", "--mode", "numeric", "--signal", "cat:1.95,0.23", "--phi", "0.7",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["F_at_xm"] + report["G_at_xm"] - 1.353335) < 1e-6
    assert abs(report["x_m"] - 0.235) < 1e-3


# phi stays fixed: the filter route reads only the ratio x.
@given(separation=st.floats(1.5, 2.1), variance=st.floats(0.12, 0.23))
@example(1.95, 0.23)  # two scan peaks, and the lower one is the global maximum
@settings(max_examples=15, deadline=None, derandomize=True)
def test_cat_report_is_at_least_a_fine_scan(separation, variance):
    signal, report = numeric_report(q.CatSpec(separation, variance))
    xs = np.linspace(0.2, 5.0, 2048)
    scan = max(pair.f_plus_g for pair in q.numeric_trade_off_curve(signal, xs, 0.7))
    assert report.F_at_xm + report.G_at_xm >= scan - 1e-6


@given(mean=st.floats(-1e4, 1e4), variance=st.floats(0.05, 4.0))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_gaussian_report_does_not_depend_on_the_mean(mean, variance):
    _, centred = numeric_report(q.GaussianSpec(0.0, variance))
    _, shifted = numeric_report(q.GaussianSpec(mean, variance))
    assert abs(shifted.x_m - centred.x_m) <= shifted.tolerance
    assert abs(shifted.x_e - centred.x_e) <= shifted.tolerance


# x = sigma_p / (sigma_s tan phi) is dimensionless: scaling every width by lambda (cat
# separation by lambda, variance by lambda^2) scales sigma_s and the auto grid alike
@given(separation=st.floats(0.0, 3.0), variance=st.floats(0.05, 1.0), scale=st.floats(0.05, 20.0))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_cat_report_is_scale_invariant(separation, variance, scale):
    _, unit = numeric_report(q.CatSpec(separation, variance))
    _, scaled = numeric_report(q.CatSpec(scale * separation, scale**2 * variance))
    assert abs(scaled.x_m - unit.x_m) <= scaled.tolerance
    assert abs(scaled.x_e - unit.x_e) <= scaled.tolerance


@given(separation=st.floats(0.0, 3.0), variance=st.floats(0.05, 1.0),
       scale=st.sampled_from([0.1, 0.5, 3.0, 17.0, 1e3]))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_cat_curve_is_scale_invariant(separation, variance, scale):
    xs = np.linspace(0.3, 5.0, 8)

    def curve(spec):
        return q.numeric_trade_off_curve(q.build_state(spec, q.auto_grid([spec], n_points=512)),
                                         xs, 0.7)

    unit = curve(q.CatSpec(separation, variance))
    scaled = curve(q.CatSpec(scale * separation, scale**2 * variance))
    for a, b in zip(unit, scaled):
        assert abs(a.F - b.F) <= 1e-13
        assert abs(a.G - b.G) <= 1e-13
