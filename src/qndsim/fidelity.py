"""Information-gain versus state-disturbance figures for the chain.

Two global fidelities are tracked:

  F = int p(x) |<psi_s|psi_x>|^2 dx    (state fidelity: how close the
      conditional outputs stay to the input, on average over outcomes)
  G = ( int sqrt(p(x)) |psi_s(x)| dx )^2   (distribution fidelity: squared
      Bhattacharyya coefficient between the outcome density and the
      intrinsic quadrature density)

For Gaussian signal and probe both collapse to closed forms in the single
ratio x = sigma_p / (sigma_s tan phi).

F and G come from the lattice route, and rho (`output_ensemble`) from the outcome pass,
whose <psi_s|rho|psi_s> checks F independently of it; `kernel`'s docstring derives both
from the one kernel K(x0, y) = psi_p(tan phi (y - x0)) they share.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .grids import Distribution, WaveFunction, amplitude_interpolator
from .kernel import (
    NULL_OUTCOME_DENSITY,
    DensityMatrixGrid,
    FidelityPair,
    _check_filter_width,
    _checked_unit,
    _LatticeRoute,
    _outcome_pass,
    check_phase,
)

OUTCOME_NODES = 1024
OUTCOME_MASS_SLACK = 2e-2  # tolerated |trapezoid of |psi_s|^2 on the outcome grid - 1|


def fidelity_pair(signal: WaveFunction, probe: WaveFunction, phi: float) -> FidelityPair:
    """F, the outcome-averaged overlap of the conditional outputs with the input, and G, the
    squared Bhattacharyya coefficient between p(x0) and |psi_s(x)|^2, for any probe: the
    lattice route `_LatticeRoute.probe_pair`, with no outcome grid."""
    return _LatticeRoute(signal).probe_pair(probe, phi)


def state_fidelity(signal: WaveFunction, probe: WaveFunction, phi: float) -> float:
    """State fidelity F, the outcome-averaged overlap with the input: `fidelity_pair(...).F`."""
    return fidelity_pair(signal, probe, phi).F


def distribution_fidelity(signal: WaveFunction, probe: WaveFunction, phi: float) -> float:
    """Distribution fidelity G between p(x0) and |psi_s(x)|^2: `fidelity_pair(...).G`."""
    return fidelity_pair(signal, probe, phi).G


def _check_ratio(x: float) -> None:
    """Refuse a filter ratio x that is not positive with 2 x^2 finite."""
    if not (x > 0 and math.isfinite(2.0 * x * x)):
        raise InvalidParameterError(f"filter ratio x must be positive with 2 x^2 finite, got {x}")


def gaussian_state_fidelity(x: float) -> float:
    """Closed-form F = sqrt(2) x / sqrt(1 + 2 x^2) for Gaussian signal and probe.

    Rounding can land one ulp above 1 for large x; `_checked_unit` clamps it, as on the
    numeric route.
    """
    _check_ratio(x)
    return _checked_unit(math.sqrt(2.0) * x / math.sqrt(1.0 + 2.0 * x * x))


def gaussian_distribution_fidelity(x: float) -> float:
    """Closed-form G = 2 sqrt(1 + x^2) / (2 + x^2) for Gaussian signal and probe, through
    `_checked_unit` like F."""
    _check_ratio(x)
    return _checked_unit(2.0 * math.sqrt(1.0 + x * x) / (2.0 + x * x))


def transfer_function(y1, y2, phi: float, sigma_p: float):
    """Gaussian-probe transfer kernel exp(-tan^2 phi (y1 - y2)^2 / (8 sigma_p^2))."""
    if sigma_p <= 0:
        raise InvalidParameterError(f"probe width sigma_p must be positive, got {sigma_p}")
    diff = np.asarray(y1, dtype=np.float64) - np.asarray(y2, dtype=np.float64)
    return np.exp(-(math.tan(phi) ** 2) * diff**2 / (8.0 * sigma_p**2))


def state_fidelity_via_transfer(signal: WaveFunction, phi: float, sigma_p: float) -> float:
    """State fidelity as a double quadrature against the transfer kernel.

    F = int int |psi_s(y')|^2 |psi_s(y'')|^2 T(y', y'') dy' dy'', valid for a
    Gaussian probe of wavefunction-density width sigma_p; the signal can be
    anything.  T depends on y' - y'' alone, so the quadrature is summed over lags against
    the autocorrelation of the signal mass: T is evaluated on the N lags, not on an
    N x N grid.  Cross-checks the lattice route and the output ensemble.
    """
    check_phase(phi)
    route = _LatticeRoute(signal)
    return _checked_unit(route.state_fidelity(transfer_function(route.lags, 0.0, phi, sigma_p)))


def output_ensemble(
    signal: WaveFunction,
    probe: WaveFunction,
    phi: float,
    n_outcomes: int = OUTCOME_NODES,
) -> DensityMatrixGrid:
    """Outcome-averaged output state rho(x, x') = int p(x0) psi_x0(x) psi_x0*(x') dx0.

    Held as its generator: psi_s, the kernel vector kappa and the outcome weights t w / Z
    from one outcome pass; trace and <psi|rho|psi> are FFT correlations of kappa, and only
    `rows` (behind `min_eigenvalue`) forms the M' x N factor.  Raises InvalidParameterError
    unless the probe filter (width sigma_p / tan phi) spans a signal grid step and the
    outcome grid's trapezoid of |psi_s|^2 is 1 within OUTCOME_MASS_SLACK.
    """
    check_phase(phi)
    t = math.tan(phi)
    _check_filter_width(math.sqrt(probe.variance()) / t, signal.grid.step)
    ogrid, p_raw, kappa, stride = _outcome_pass(signal, probe, phi, n_outcomes)
    mass = float(ogrid.weights @ np.abs(amplitude_interpolator(signal)(ogrid.points)) ** 2)
    if abs(mass - 1.0) > OUTCOME_MASS_SLACK:
        raise InvalidParameterError(
            f"outcome grid (step {ogrid.step:.3g}) integrates |psi_s|^2 to {mass:.3g}, not "
            f"1 +/- {OUTCOME_MASS_SLACK}: rho is not resolved; use more outcome nodes"
        )
    density = Distribution.normalized(ogrid, p_raw).density
    z = float(ogrid.weights @ p_raw)
    weight = np.where(density > NULL_OUTCOME_DENSITY, t * ogrid.weights / z, 0.0)
    return DensityMatrixGrid(signal.grid, signal.amplitudes, kappa, stride, weight)
