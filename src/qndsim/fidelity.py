"""Information-gain versus state-disturbance figures for the chain.

Two global fidelities are tracked:

  F = int p(x) |<psi_s|psi_x>|^2 dx    (state fidelity: how close the
      conditional outputs stay to the input, on average over outcomes)
  G = ( int sqrt(p(x)) |psi_s(x)| dx )^2   (distribution fidelity: squared
      Bhattacharyya coefficient between the outcome density and the
      intrinsic quadrature density)

For Gaussian signal and probe both collapse to closed forms in the single
ratio x = sigma_p / (sigma_s tan phi).

Everything resolved by outcome comes from one kernel over outcomes x0 and
signal points y, K(x0, y) = psi_p(tan phi (y - x0)), with t = tan phi, w
the quadrature weights and m = |psi_s|^2 w the signal mass:

  outcome density   p(x0) = t sum_y |K(x0, y)|^2 m(y),   Z = int p dx0, one FFT correlation
  output ensemble   rho(x, x') = psi_s(x) psi_s*(x') (t / Z) int K(x0, x) K*(x0, x') dx0,
                    held as its generator: psi_s, K and the weights t w / Z, so
                    <psi|rho|psi> = sum_x0 (t w / Z) |sum_y K psi_s conj(w psi)|^2 and
                    tr rho = int p / Z over non-null x0 are FFT correlations like p;
                    only its spectrum forms the factor rows sqrt(t w / Z) psi_s(x) K(x0, x)
  state fidelity    F = <psi_s|rho|psi_s>, since p(x0) |<psi_s|psi_x0>|^2 = t |sum_y K m|^2
  distribution fid. G = ( int sqrt(p(x0) / Z) |psi_s(x0)| dx0 )^2 on the same outcomes

One outcome pass (`chain._outcome_pass`) gives the lattice-aligned outcome grid, p, and K
as one vector kappa with its outcome stride; `_outcome_figures` reads G and rho's weights
off it, and F is read off rho.  Outcomes with normalized density at most
NULL_OUTCOME_DENSITY are left out of F and rho.  F, G and rho raise InvalidParameterError
rather than return values the grids cannot resolve, or raw F, G off [0, 1] by UNIT_SLACK.

For a Gaussian probe the chain acts on m as one Gaussian filter of width sigma_f =
sigma_p / tan phi, so the filter route (`_GaussianFilter`, behind the trade-off curve and
the transfer route) needs no probe and no outcome grid.  On the signal grid (step h, N
points), with c(d) = sum_i m_i m_(i+d) and p and c by FFT on 2N points (nothing wraps):

  state fidelity    F = sum_d c(d) exp(-(d h)^2 / (8 sigma_f^2))
  outcome density   p_i = sum_j m_j N(y_i - y_j; sigma_f^2)
  its total         Z = sum m (1 + 2 sum_(j>=1) exp(-2 pi^2 sigma_f^2 j^2 / h^2))
  distribution fid. G = ( sum_i w_i sqrt(p_i / Z) |psi_s(y_i)| )^2

Z is p's trapezoid sum over the whole lattice, by Poisson summation: p's tails may leave
the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chain import NULL_OUTCOME_DENSITY, _outcome_pass, _row_sums, check_phase
from .errors import GridMismatchError, InvalidParameterError
from .grids import Distribution, Grid, WaveFunction, amplitude_interpolator

OUTCOME_NODES = 1024
OUTCOME_MASS_SLACK = 2e-2  # tolerated |trapezoid of |psi_s|^2 on the outcome grid - 1|
UNIT_SLACK = 1e-9  # raw F and G may leave [0, 1] by this much before they are clamped


@dataclass(frozen=True)
class FidelityPair:
    """State fidelity F and distribution fidelity G at one operating point."""

    F: float
    G: float

    @property
    def f_plus_g(self) -> float:
        return self.F + self.G


def _checked_unit(value: float) -> float:
    """A raw fidelity clamped to [0, 1]; raises if it is off by more than UNIT_SLACK, or NaN."""
    if not -UNIT_SLACK <= value <= 1.0 + UNIT_SLACK:
        raise InvalidParameterError(f"raw fidelity {value!r} is outside [0, 1] by > {UNIT_SLACK}")
    return min(max(value, 0.0), 1.0)


def _check_filter_width(width: float, step: float) -> None:
    """Refuse a probe filter (width sigma_p / tan phi) narrower than the signal grid step."""
    if width < step:
        raise InvalidParameterError(
            f"probe filter width {width:.3g} is below the signal grid step {step:.3g}: "
            "F and G are not resolved; use a finer signal grid"
        )


def _outcome_figures(
    signal: WaveFunction, probe: WaveFunction, phi: float, n_outcomes: int
) -> tuple[float, DensityMatrixGrid]:
    """Raw G and the output ensemble rho from one outcome pass; raises
    InvalidParameterError unless the probe filter (width sigma_p / tan phi) spans a signal
    grid step and the outcome grid's trapezoid of |psi_s|^2 is 1 within OUTCOME_MASS_SLACK."""
    check_phase(phi)
    t = math.tan(phi)
    _check_filter_width(math.sqrt(probe.variance()) / t, signal.grid.step)
    ogrid, p_raw, kappa, stride = _outcome_pass(signal, probe, phi, n_outcomes)
    s_abs = np.abs(amplitude_interpolator(signal)(ogrid.points))
    mass = float(ogrid.weights @ s_abs**2)
    if abs(mass - 1.0) > OUTCOME_MASS_SLACK:
        raise InvalidParameterError(
            f"outcome grid (step {ogrid.step:.3g}) integrates |psi_s|^2 to {mass:.3g}, not "
            f"1 +/- {OUTCOME_MASS_SLACK}: F and G are not resolved; use more outcome nodes"
        )
    density = Distribution.normalized(ogrid, p_raw).density
    z = float(ogrid.weights @ p_raw)
    weight = np.where(density > NULL_OUTCOME_DENSITY, t * ogrid.weights / z, 0.0)
    coeff = float(ogrid.weights @ (np.sqrt(density) * s_abs))
    return coeff * coeff, DensityMatrixGrid(signal.grid, signal.amplitudes, kappa, stride, weight)


def fidelity_pair(
    signal: WaveFunction,
    probe: WaveFunction,
    phi: float,
    n_outcomes: int = OUTCOME_NODES,
) -> FidelityPair:
    """F, the outcome-averaged overlap of the conditional outputs with the input, and G, the
    squared Bhattacharyya coefficient between p(x0) and |psi_s(x)|^2, from one outcome pass:
    F = <psi_s|rho|psi_s> of the output ensemble.  Null outcomes are skipped in F (their
    weight is negligible by construction)."""
    g_raw, rho = _outcome_figures(signal, probe, phi, n_outcomes)
    return FidelityPair(F=_checked_unit(rho.expectation(signal)), G=_checked_unit(g_raw))


def state_fidelity(
    signal: WaveFunction,
    probe: WaveFunction,
    phi: float,
    n_outcomes: int = OUTCOME_NODES,
) -> float:
    """State fidelity F, the outcome-averaged overlap with the input: `fidelity_pair(...).F`."""
    return fidelity_pair(signal, probe, phi, n_outcomes).F


def distribution_fidelity(
    signal: WaveFunction,
    probe: WaveFunction,
    phi: float,
    n_outcomes: int = OUTCOME_NODES,
) -> float:
    """Distribution fidelity G between p(x0) and |psi_s(x)|^2: `fidelity_pair(...).G`,
    without reading F off rho."""
    return _checked_unit(_outcome_figures(signal, probe, phi, n_outcomes)[0])


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
    N x N grid.  Cross-checks the outcome-integral route.
    """
    check_phase(phi)
    route = _GaussianFilter(signal)
    return _checked_unit(route.state_fidelity(transfer_function(route.lags, 0.0, phi, sigma_p)))


class _GaussianFilter:
    """The filter route: a signal's mass m = |psi_s|^2 w transformed once (its rfft on 2N
    points and its autocorrelation c), then read per filter width sigma_f by `pair`."""

    def __init__(self, signal: WaveFunction):
        grid, n = signal.grid, signal.grid.n_points
        s_abs = np.abs(signal.amplitudes)
        mass = s_abs**2 * grid.weights
        self.step, self.lags = grid.step, np.arange(n) * grid.step  # d h, d = 0 .. N - 1
        self.mass_total, self.weighted_abs = float(mass.sum()), grid.weights * s_abs
        self.mass_hat = np.fft.rfft(mass, 2 * n)
        self.autocorrelation = np.fft.irfft(np.abs(self.mass_hat) ** 2, 2 * n)[:n]

    def state_fidelity(self, transfer: np.ndarray) -> float:
        """Raw F = sum_d c(d) T(d h) over the lags -(N - 1) .. N - 1, T given for d >= 0."""
        c = self.autocorrelation
        return float(2.0 * (c @ transfer) - c[0] * transfer[0])

    def pair(self, width: float) -> FidelityPair:
        """F and G through a Gaussian filter of width sigma_f, refused below one grid step."""
        _check_filter_width(width, self.step)
        scaled_sq = np.square(self.lags / width)
        kernel = np.exp(-0.5 * scaled_sq) / (width * math.sqrt(2.0 * math.pi))
        lagged = np.concatenate((kernel, [0.0], kernel[:0:-1]))  # lags 0 .. N - 1, 1 - N .. -1
        p = np.fft.irfft(self.mass_hat * np.fft.rfft(lagged), lagged.size)[: kernel.size]
        # Z: for s = sigma_f / h >= 1 the Poisson terms j >= 2 (below 1e-34) leave
        # 1 + 2 exp(-2 pi^2 s^2) unchanged; s s past the float range is inf, whose exp is 0
        s = width / self.step
        z = self.mass_total * (1.0 + 2.0 * math.exp(-2.0 * math.pi**2 * s * s))
        p = np.maximum(p, 0.0)  # FFT roundoff can dip p's far tails below 0
        coeff = float(self.weighted_abs @ np.sqrt(p / z))
        f_raw = self.state_fidelity(np.exp(-0.125 * scaled_sq))
        return FidelityPair(F=_checked_unit(f_raw), G=_checked_unit(coeff * coeff))


@dataclass(frozen=True, eq=False)
class DensityMatrixGrid:
    """The outcome-averaged output ensemble rho(x, x') on a grid, held as its generator:
    rho(x, x') = sum_j weight_j psi_s(x) K(x0_j, x) conj(psi_s(x') K(x0_j, x')), with
    K(x0_j, y_i) = kappa[i + stride (M - 1 - j)] over the M outcomes and weight_j = t w_j / Z
    (0 where p is null).  Hermitian by construction; no matrix over x, x' is stored."""

    grid: Grid
    amplitudes: np.ndarray  # psi_s
    kappa: np.ndarray
    stride: int
    weight: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """rho's factor, formed on each call: one row sqrt(t w / Z) psi_s(x) K(x0, x) per
        non-null outcome, so that rho = rows^T conj(rows)."""
        live = self.weight > 0.0
        rows = sliding_window_view(self.kappa, self.grid.n_points)[:: -self.stride][live]
        rows *= self.amplitudes
        rows *= np.sqrt(self.weight[live])[:, None]
        return rows

    def trace(self) -> float:
        """sum_j weight_j sum_x |K(x0_j, x)|^2 m(x), m = |psi_s|^2 w, by one correlation."""
        mass = np.abs(self.amplitudes) ** 2 * self.grid.weights
        sums = _row_sums(np.abs(self.kappa) ** 2, mass, self.stride, self.weight.size)
        return float(self.weight @ sums.real)

    def expectation(self, wf: WaveFunction) -> float:
        """<psi| rho |psi> by double trapezoidal quadrature: sum_j weight_j |sum_x K(x0_j, x)
        psi_s(x) conj(w psi)(x)|^2, by one correlation."""
        if wf.grid != self.grid:
            raise GridMismatchError("expectation needs the state on the kernel's grid")
        product = self.amplitudes * np.conj(self.grid.weights * wf.amplitudes)
        sums = _row_sums(self.kappa, product, self.stride, self.weight.size)
        return float(self.weight @ np.abs(sums) ** 2)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of W^(1/2) rho W^(1/2) (W = quadrature weights).

        This symmetrized form is the discretization of the kernel as an
        operator on L2 of the grid, so its spectrum is real.  It is B^T conj(B) for
        B = rows W^(1/2); with fewer rows M' than points N its nonzero eigenvalues are
        those of the smaller B B^H, and the N - M' others are exact zeros.
        """
        b = self.rows * np.sqrt(self.grid.weights)
        m, n = b.shape
        if m < n:
            return min(float(np.linalg.eigvalsh(b @ b.conj().T)[0]), 0.0)
        return float(np.linalg.eigvalsh(b.T @ b.conj())[0])


def output_ensemble(
    signal: WaveFunction,
    probe: WaveFunction,
    phi: float,
    n_outcomes: int = OUTCOME_NODES,
) -> DensityMatrixGrid:
    """Outcome-averaged output state rho(x, x') = int p(x0) psi_x0(x) psi_x0*(x') dx0.

    Held as its generator: psi_s, the kernel vector kappa and the outcome weights t w / Z;
    trace and <psi|rho|psi> are FFT correlations of kappa, and only `rows` (behind
    `min_eigenvalue`) forms the M' x N factor.  Raises InvalidParameterError on grids that
    cannot resolve the probe filter, as F does.
    """
    return _outcome_figures(signal, probe, phi, n_outcomes)[1]
