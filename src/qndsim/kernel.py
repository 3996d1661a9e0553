"""The one kernel behind the outcome density, the fidelities and the output ensemble.

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

The output ensemble keeps an outcome grid: one outcome pass (`_outcome_pass`) gives the
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

from .errors import DegeneratePhaseError, GridMismatchError, InvalidParameterError
from .grids import Grid, WaveFunction, amplitude_interpolator

PHASE_MARGIN = 1e-6  # sin(phi) and cos(phi) must both exceed this
NULL_OUTCOME_DENSITY = 1e-12  # conditioning below this density is meaningless
OUTCOME_SPAN_SIGMAS = 8.0
UNIT_SLACK = 1e-9  # raw F and G may leave [0, 1] by this much before they are clamped


def check_phase(phi: float) -> None:
    """Reject phases where either interferometer port coupling degenerates."""
    if not (math.isfinite(phi) and math.sin(phi) > PHASE_MARGIN and math.cos(phi) > PHASE_MARGIN):
        raise DegeneratePhaseError(
            f"phi={phi} is degenerate: need sin(phi) > {PHASE_MARGIN} and "
            f"cos(phi) > {PHASE_MARGIN}, i.e. phi strictly inside (0, pi/2)"
        )


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


def outcome_grid(
    signal: WaveFunction,
    probe: WaveFunction,
    phi: float,
    n_points: int | None = None,
) -> Grid:
    """Outcome nodes y_0 + (o + k j) h on the signal lattice (x_min y_0, step h, integer o,
    possibly negative), covering mean +/- OUTCOME_SPAN_SIGMAS combined sigma.

    n_points (default: the signal's) sets k = max(1, round(r / h)), r the step of n_points
    nodes over the span, capped so that k h is within the filter width sigma_p / tan phi,
    which p and rho must resolve.  The node count follows from span and k: rarely n_points.
    """
    check_phase(phi)
    t = math.tan(phi)
    center = signal.mean() - probe.mean() / t
    halfspan = OUTCOME_SPAN_SIGMAS * math.sqrt(signal.variance() + probe.variance() / t**2)
    lo, hi = center - halfspan, center + halfspan
    requested = Grid(lo, hi, signal.grid.n_points if n_points is None else n_points)
    y0, h = signal.grid.x_min, signal.grid.step
    filter_width = math.sqrt(probe.variance()) / t
    k = max(1, min(round(requested.step / h), math.floor(filter_width / h)))
    first = math.floor((lo - y0) / h)
    last = first + k * math.ceil(((hi - y0) / h - first) / k)
    return Grid(y0 + first * h, y0 + last * h, (last - first) // k + 1)


def _row_sums(values: np.ndarray, mass: np.ndarray, k: int, rows: int) -> np.ndarray:
    """Row j < rows: sum_i values[i + k (rows - 1 - j)] mass[i], by one FFT correlation at
    the power of two >= len(values) (nothing wraps); with values = kappa, K @ mass without
    forming K.  The mass may be complex: its transform is conj(fft(conj(mass)))."""
    size = 1 << (values.size - 1).bit_length()
    mass_hat = np.conj(np.fft.fft(np.conj(mass), size))
    return np.fft.ifft(np.fft.fft(values, size) * mass_hat)[k * (rows - 1) :: -k]


def _kernel_samples(probe: WaveFunction, t: float, h: float, first: int, size: int) -> np.ndarray:
    """kappa[e] = psi_p(t h (first + e)) for e < size, read by an FFT at the power of two
    >= size.  Refuses, before anything is allocated, an FFT numpy cannot index; first and
    size are Python ints."""
    bits = (size - 1).bit_length()
    if np.dtype(np.complex128).itemsize << bits > np.iinfo(np.intp).max:
        raise InvalidParameterError(
            f"probe filter width {math.sqrt(probe.variance()) / t:.3g} needs a kernel of about "
            f"2**{bits} points at the signal grid step {h:.3g}, more than numpy can index"
        )
    return amplitude_interpolator(probe)((np.arange(size) + first) * (t * h))


def _outcome_pass(
    signal: WaveFunction, probe: WaveFunction, phi: float, n_outcomes: int | None
) -> tuple[Grid, np.ndarray, np.ndarray, int]:
    """The one kernel pass behind p and rho, on `outcome_grid(n_points=n_outcomes)`.

    kappa[e] = psi_p(tan(phi) h (e - o - k (M - 1))) on the signal lattice (step h), so
    K(x0_j, y_i) = psi_p(tan(phi) (y_i - x0_j)) = kappa[i + k (M - 1 - j)].  Returns the
    grid, p_raw = t sum_y |K|^2 m (m = |psi_s|^2 w, one `_row_sums` correlation), kappa and
    the outcome stride k.
    """
    ogrid = outcome_grid(signal, probe, phi, n_points=n_outcomes)
    y0, h, n, m = signal.grid.x_min, signal.grid.step, signal.grid.n_points, ogrid.n_points
    k = round(ogrid.step / h)
    last = round((ogrid.x_min - y0) / h) + k * (m - 1)
    t = math.tan(phi)
    kappa = _kernel_samples(probe, t, h, -last, n + k * (m - 1))  # `_row_sums` transforms it
    mass = np.abs(signal.amplitudes) ** 2 * signal.grid.weights
    return ogrid, t * _row_sums(np.abs(kappa) ** 2, mass, k, m).real, kappa, k


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
        power = t * np.abs(kappa[1 - n - first : n - first]) ** 2  # P(d), d = 1 - N .. N - 1
        lagged = np.concatenate((power[n - 1 :: -1], [0.0], power[: n - 1 : -1]))
        return self._figures(lagged, self.state_fidelity(r / r[0]), r[0])


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
