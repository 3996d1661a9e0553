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
  distribution fid. G = ( int sqrt(p(x0) / Z) |psi_s(x0)| dx0 )^2

With u = t (x' - x0), t int K(x0, x) K*(x0, x') dx0 = R(t (x - x')), where R(d) = int
psi_p(u + d) psi_p*(u) du is the probe's amplitude autocorrelation; so rho(x, x') =
psi_s(x) psi_s*(x') R(t (x - x')) / Z, and F and G need no outcome grid.  The lattice
route (`_LatticeRoute`) puts the outcomes on the signal grid's lattice (step h, N points)
and transforms m once: its rfft on 2N points and its autocorrelation c(d) = sum_i m_i
m_(i+d) (nothing wraps).  Any probe is sampled once, kappa(e) = psi_p(e t h), on every
lattice lag e its grid reaches, and then, by Wiener-Khinchin and one FFT correlation each,

  outcome density   p_i = sum_j m_j P(j - i),  P(d) = t |kappa(d)|^2
  autocorrelation   R(d) = t h sum_e kappa(e + d) kappa*(e),  Z' = R(0) = h sum_d P(d)
  state fidelity    F = sum_d c(d) Re R(d) / Z'
  its total         Z = Z' sum m
  distribution fid. G = ( sum_i w_i sqrt(p_i / Z) |psi_s(y_i)| )^2

These are the outcome sums at outcome stride 1, exactly.  Z is p's trapezoid sum over the
whole lattice, so p's tails may leave the grid.  Z' is the lattice sum of the sampled
probe, not its norm 1, so that p / Z integrates to 1 on the lattice whatever the spline
error of |psi_p|^2.  For a Gaussian probe the chain acts on m as one Gaussian filter of
width sigma_f = sigma_p / tan phi, and P, R and Z' are analytic (`_LatticeRoute.pair`,
behind the trade-off curve and report; the transfer route instead sums the transfer
kernel over the lags in `_LatticeRoute.state_fidelity`), so no probe is built:

  P(d) = N(d h; sigma_f^2),  Z' = 1 + 2 sum_(j>=1) exp(-2 pi^2 sigma_f^2 j^2 / h^2)
  (Poisson summation), and F's R(d) / Z' is the continuum's exp(-(d h)^2 / (8 sigma_f^2));
  the lattice's differs by at most 4 exp(-2 pi^2 sigma_f^2 / h^2), 1.1e-8 at sigma_f = h.

`output_ensemble` keeps an outcome grid: one outcome pass (`chain._outcome_pass`) gives the
lattice-aligned grid, p, and K as one vector kappa with its outcome stride, so its
<psi_s|rho|psi_s> is a check of F independent of the lattice route.  Outcomes with
normalized density at most NULL_OUTCOME_DENSITY are left out of rho.  F, G and rho raise
InvalidParameterError rather than return values the grids cannot resolve, or raw F, G off
[0, 1] by UNIT_SLACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chain import NULL_OUTCOME_DENSITY, _kernel_samples, _outcome_pass, _row_sums, check_phase
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
            f"probe filter width {width:.3g} is below the signal grid step {step:.3g}, "
            "so it is not resolved; use a finer signal grid"
        )


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


class _LatticeRoute:
    """The lattice route: a signal's mass m = |psi_s|^2 w transformed once (its rfft on 2N
    points and its autocorrelation c), then read per Gaussian filter width by `pair` and
    per probe by `probe_pair`; both hand P, R and Z' to `_figures`."""

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

    def _figures(self, lagged: np.ndarray, f_raw: float, z_lattice: float) -> FidelityPair:
        """F and G from raw F, Z' = h sum_d P(d) and, in `lagged` (2N entries), P(-l) at the
        circular lags l = 0 .. N - 1, (a zero), 1 - N .. -1."""
        spectrum = np.fft.rfft(lagged)
        np.multiply(self.mass_hat, spectrum, out=spectrum)
        p = np.fft.irfft(spectrum, lagged.size)[: self.lags.size]
        np.maximum(p, 0.0, out=p)  # FFT roundoff can dip p's far tails below 0
        np.divide(p, self.mass_total * z_lattice, out=p)
        coeff = float(self.weighted_abs @ np.sqrt(p, out=p))
        return FidelityPair(F=_checked_unit(f_raw), G=_checked_unit(coeff * coeff))

    def pair(self, width: float) -> FidelityPair:
        """F and G through a Gaussian filter of width sigma_f, refused below one grid step.
        Every step runs in place in one 2N buffer: (d h / sigma_f)^2 in its first half,
        F's transfer in its second, then P at the lags 0 .. N - 1, 1 - N .. -1."""
        _check_filter_width(width, self.step)
        n = self.lags.size
        lagged = np.empty(2 * n)
        head, tail = lagged[:n], lagged[n:]
        np.square(np.divide(self.lags, width, out=head), out=head)
        np.exp(np.multiply(head, -0.125, out=tail), out=tail)  # R(d) / Z', d = 0 .. N - 1
        f_raw = self.state_fidelity(tail)
        np.exp(np.multiply(head, -0.5, out=head), out=head)
        np.divide(head, width * math.sqrt(2.0 * math.pi), out=head)  # P(d) = P(-d)
        tail[0] = 0.0
        tail[1:] = head[:0:-1]
        # Z': for s = sigma_f / h >= 1 the Poisson terms j >= 2 (below 1e-34) leave
        # 1 + 2 exp(-2 pi^2 s^2) unchanged; s s past the float range is inf, whose exp is 0
        s = width / self.step
        z_lattice = 1.0 + 2.0 * math.exp(-2.0 * math.pi**2 * s * s)
        return self._figures(lagged, f_raw, z_lattice)

    def probe_pair(self, probe: WaveFunction, phi: float) -> FidelityPair:
        """F and G of any probe at phi, refused when its filter sigma_p / tan phi is below
        one grid step: kappa(e) = psi_p(e t h) is sampled once, on every lattice lag e the
        probe's grid reaches and on the lags |e| < N that P is read at; R transforms the
        reached lags alone."""
        check_phase(phi)
        t, h, n = math.tan(phi), self.step, self.lags.size
        _check_filter_width(math.sqrt(probe.variance()) / t, h)
        lowest = math.ceil(probe.grid.x_min / (t * h))  # the first lag the probe's grid reaches
        first = min(lowest, 1 - n)
        # N - 1 zero lags past the last one reached, so that R's lags d < N do not wrap
        last = max(math.floor(probe.grid.x_max / (t * h)) + n - 1, n - 1)
        kappa = _kernel_samples(probe, t, h, first, last - first + 1)
        kappa_hat = np.fft.fft(kappa[lowest - first :], 1 << (last - lowest).bit_length())
        kappa_hat *= kappa_hat.conj()
        r = np.fft.ifft(kappa_hat)[:n].real * (t * h)  # Re R(d), d = 0 .. N - 1
        z_lattice = r[0]
        f_raw = self.state_fidelity(np.divide(r, z_lattice, out=r))
        # |kappa(d)|, d = 1 - N .. N - 1, formed in order: numpy's abs of a reversed view
        # takes its scalar hypot, whose last bits differ
        modulus = np.abs(kappa[1 - n - first : n - first])
        lagged = np.empty(2 * n)
        lagged[:n] = modulus[n - 1 :: -1]
        lagged[n] = 0.0
        lagged[n + 1 :] = modulus[: n - 1 : -1]
        np.multiply(t, np.square(lagged, out=lagged), out=lagged)  # P(-l) = t |kappa(-l)|^2
        return self._figures(lagged, f_raw, z_lattice)


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
        rows = rows.astype(np.result_type(rows, self.amplitudes), copy=False)
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
