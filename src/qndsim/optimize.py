"""Scalar optimizers for the fidelity trade-off and phase tuning.

The sum F + G is not constant along the filter ratio x, so there is a
best operating point.  Closed-form Gaussian fidelities make that a cheap
1-D search; non-Gaussian signals go through the numeric fidelities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BracketError,
    InvalidParameterError,
    NonFiniteObjectiveError,
    NoSignChangeError,
    QndSimError,
)
from .fidelity import _check_ratio, gaussian_distribution_fidelity, gaussian_state_fidelity
from .grids import WaveFunction
from .kernel import FidelityPair, _LatticeRoute, check_phase

GOLDEN_SECTION = (math.sqrt(5.0) - 1.0) / 2.0
DEFAULT_BRACKET = (0.05, 20.0)
COARSE_SCAN_POINTS = 64


@dataclass(frozen=True)
class TradeOffReport:
    """Trade-off optimum and F = G point; evaluations counts distinct (F, G) computations."""

    x_m: float
    F_at_xm: float
    G_at_xm: float
    x_e: float
    F_at_xe: float
    evaluations: int
    tolerance: float


def trade_off(x: float) -> FidelityPair:
    """Closed-form (F, G) at filter ratio x."""
    return FidelityPair(F=gaussian_state_fidelity(x), G=gaussian_distribution_fidelity(x))


def maximize_trade_off(
    objective: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Best of the golden-section refined maxima of a coarse scan, and its objective value.

    A 64-point scan of [lo, hi] (step (hi - lo) / 63) finds the local maxima: each point
    that beats its left neighbour and is not below its right one, an end against its one
    neighbour.  Golden section shrinks the bracket of scan neighbours around each to at most
    tol; the refined midpoints and the two ends compete, so an end maximum comes back as
    exactly lo or hi.  A peak narrower than the scan step can hide between scan points.
    """
    if not lo < hi:
        raise BracketError(f"invalid bracket [{lo}, {hi}]: need lo < hi")
    resolvable = 64.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    if not resolvable <= tol < math.inf:
        raise InvalidParameterError(
            f"tolerance {tol} must be finite and at least {resolvable:.3g}, the float "
            f"resolution on [{lo}, {hi}]"
        )
    xs = np.linspace(lo, hi, COARSE_SCAN_POINTS)
    vals = np.array([objective(float(x)) for x in xs], dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        bad = float(xs[np.nonzero(~np.isfinite(vals))[0][0]])
        raise NonFiniteObjectiveError(f"objective is not finite at x={bad}")
    padded = np.concatenate(([-np.inf], vals, [-np.inf]))
    peaks = np.flatnonzero((vals > padded[:-2]) & (vals >= padded[2:]))
    candidates = [(float(xs[0]), float(vals[0])), (float(xs[-1]), float(vals[-1]))]
    for i in peaks:
        a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
        x_star = _golden_section(objective, a, b, tol)
        candidates.append((x_star, float(objective(x_star))))
    return max(candidates, key=lambda candidate: candidate[1])


def _golden_section(objective: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Midpoint of the golden-section bracket around a maximum of [a, b], once b - a <= tol."""
    c = b - GOLDEN_SECTION * (b - a)
    d = a + GOLDEN_SECTION * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_SECTION * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_SECTION * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


def _bisect(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """x_e, the F = G crossing, as a root of fn = F - G between lo and hi: an end or
    midpoint where fn is exactly 0, or the midpoint of the first bracket no wider than tol
    or that no float splits."""
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise NoSignChangeError(
            f"no sign change on [{lo}, {hi}]: F - G, zero at x_e (the F = G crossing), is "
            f"{f_lo:.6g} at x={lo} and {f_hi:.6g} at x={hi}"
        )
    a, b, f_a = lo, hi, f_lo
    while True:
        mid = 0.5 * (a + b)
        if b - a <= tol or mid in (a, b):
            return mid
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_a < 0.0) == (f_mid < 0.0):
            a, f_a = mid, f_mid
        else:
            b = mid


def equal_fidelity_point(lo: float, hi: float, tol: float) -> float:
    """Bisection root of the closed-form F - G, to a final bracket no wider than tol."""
    if not lo < hi:
        raise BracketError(f"invalid bracket [{lo}, {hi}]: need lo < hi")
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tolerance must be positive and finite, got {tol}")
    return _bisect(
        lambda x: gaussian_state_fidelity(x) - gaussian_distribution_fidelity(x), lo, hi, tol
    )


def tune_phase(sigma_s: float, sigma_p: float, x_target: float) -> float:
    """Phase realizing x_target = sigma_p / (sigma_s tan phi) for fixed widths."""
    if not (sigma_s > 0 and sigma_p > 0 and x_target > 0):  # NaN fails too
        raise InvalidParameterError(
            f"sigma_s, sigma_p and x_target must be positive, got "
            f"({sigma_s}, {sigma_p}, {x_target})"
        )
    phi = math.atan(sigma_p / (sigma_s * x_target))
    check_phase(phi)
    return phi


def numeric_trade_off_curve(
    signal: WaveFunction, xs: Sequence[float], phi: float
) -> list[FidelityPair]:
    """Numeric (F, G) for one signal across a list of filter ratios x.

    Ratio x stands for the Gaussian probe of variance (x sigma_s tan phi)^2, with sigma_s
    the signal's numeric standard deviation, so non-Gaussian signals work.  That probe acts
    on the signal as one Gaussian filter of width x sigma_s, so no probe and no outcome
    grid is built: the filter route transforms the signal once and filters it per x.
    Points evaluate in input order; a failure at point i re-raises the underlying error
    with the index and x attached.
    """
    check_phase(phi)
    route, sigma_s = _LatticeRoute(signal), math.sqrt(signal.variance())
    return [_ratio_pair(route, sigma_s, x, point=i) for i, x in enumerate(xs)]


def _ratio_pair(
    route: _LatticeRoute, sigma_s: float, x: float, point: int | None = None
) -> FidelityPair:
    """(F, G) of `route` at filter ratio x (width x sigma_s); a failure names x, and the
    curve's point index when one is given."""
    try:
        _check_ratio(x)
        return route.pair(float(x) * sigma_s)
    except QndSimError as err:
        where = f"filter ratio {x}"
        if point is not None:
            where = f"trade-off point {point} ({where})"
        raise type(err)(f"{where}: {err}") from err


def _trade_off_report(
    pair_at: Callable[[float], FidelityPair], lo: float, hi: float, tol: float
) -> TradeOffReport:
    """F + G maximum and F = G crossing; x_m, x_e, lo and hi recur, so pair_at runs once per x."""
    pairs: dict[float, FidelityPair] = {}

    def pair(x: float) -> FidelityPair:
        if x not in pairs:
            pairs[x] = pair_at(x)
        return pairs[x]

    x_m, _ = maximize_trade_off(lambda x: pair(x).f_plus_g, lo, hi, tol)
    x_e = _bisect(lambda x: (lambda p: p.F - p.G)(pair(x)), lo, hi, tol)
    best, crossing = pair(x_m), pair(x_e)
    return TradeOffReport(
        x_m=x_m,
        F_at_xm=best.F,
        G_at_xm=best.G,
        x_e=x_e,
        F_at_xe=crossing.F,
        evaluations=len(pairs),
        tolerance=tol,
    )


def gaussian_trade_off_report(
    lo: float = DEFAULT_BRACKET[0],
    hi: float = DEFAULT_BRACKET[1],
    tol: float = 1e-4,
) -> TradeOffReport:
    """Locate the F + G maximum and the F = G crossing of the closed forms."""
    return _trade_off_report(trade_off, lo, hi, tol)


def numeric_trade_off_report(
    signal: WaveFunction,
    phi: float,
    lo: float = 0.2,
    hi: float = 5.0,
    tol: float = 1e-3,
) -> TradeOffReport:
    """Trade-off report driven by the numeric fidelities of `numeric_trade_off_curve`, one
    point per x the search asks for; the signal is transformed once, and no probe or
    outcome grid is built."""
    check_phase(phi)
    route, sigma_s = _LatticeRoute(signal), math.sqrt(signal.variance())
    return _trade_off_report(lambda x: _ratio_pair(route, sigma_s, x), lo, hi, tol)
