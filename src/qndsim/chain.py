"""The measurement chain: two-mode mixing, homodyne statistics, conditioning,
feedback displacement, output squeezing, and outcome sampling.

Stage by stage, for interferometer phase phi (c = cos phi, s = sin phi,
t = tan phi) and an inferred outcome x0:

  joint state      A(y1, y2) = psi_s(y1 c - y2 s) psi_p(y1 s + y2 c)
  outcome density  p(x0) = t * int |psi_s(y)|^2 |psi_p(t (y - x0))|^2 dy
  conditioning     phi_x0(y)  ~ psi_s(y c + x0 s^2) psi_p(y s - x0 c s),
                   p(x0) = s * sum_y w |phi_x0|^2 before renormalizing
  displacement     by d = x0 s t
  squeezing        axis rescale by c, i.e. psi(y) -> psi(y / c) / sqrt(c)
  net effect       psi_x0(x) ~ psi_s(x) psi_p((x - x0) t)

All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import (
    DegeneratePhaseError,
    GridTooNarrowError,
    InvalidParameterError,
    NullOutcomeError,
)
from .grids import (
    Distribution,
    Grid,
    SPLINE_CHUNK,
    WaveFunction,
    _splines_at,
    amplitude_interpolator,
)

PHASE_MARGIN = 1e-6  # sin(phi) and cos(phi) must both exceed this
NULL_OUTCOME_DENSITY = 1e-12  # conditioning below this density is meaningless
SUPPORT_CUTOFF = 1e-8  # relative amplitude defining the numerical support
OUTCOME_SPAN_SIGMAS = 8.0


def check_phase(phi: float) -> None:
    """Reject phases where either interferometer port coupling degenerates."""
    if not (math.isfinite(phi) and math.sin(phi) > PHASE_MARGIN and math.cos(phi) > PHASE_MARGIN):
        raise DegeneratePhaseError(
            f"phi={phi} is degenerate: need sin(phi) > {PHASE_MARGIN} and "
            f"cos(phi) > {PHASE_MARGIN}, i.e. phi strictly inside (0, pi/2)"
        )


@dataclass(frozen=True, eq=False)
class JointWaveFunction:
    """Two-mode amplitude matrix A[i, j] over grid1 x grid2."""

    grid1: Grid
    grid2: Grid
    amplitudes: np.ndarray

    def norm(self) -> float:
        prob = np.abs(self.amplitudes) ** 2
        return math.sqrt(float(self.grid1.weights @ (prob @ self.grid2.weights)))

    def marginal(self, mode: int) -> Distribution:
        """Quadrature density of one mode with the other integrated out."""
        prob = np.abs(self.amplitudes) ** 2
        if mode == 1:
            return Distribution.normalized(self.grid1, prob @ self.grid2.weights)
        if mode == 2:
            return Distribution.normalized(self.grid2, self.grid1.weights @ prob)
        raise InvalidParameterError(f"mode must be 1 or 2, got {mode}")

    def conditioned_on_mode2(self, reading: float) -> WaveFunction:
        """Mode-1 state after a sharp mode-2 projection at the given reading: the slice
        `CubicSpline(grid2.points, A, axis=1)(reading)` of the amplitude matrix, bit for
        bit, renormalized on grid1.  A reading outside grid2 (beyond its covers() slack)
        raises GridTooNarrowError; a slice of mass sum w1 |slice|^2 at most
        NULL_OUTCOME_DENSITY raises NullOutcomeError.
        """
        if not self.grid2.covers(reading, reading):
            raise GridTooNarrowError(
                f"mode-2 reading {reading} lies outside the grid "
                f"[{self.grid2.x_min}, {self.grid2.x_max}]"
            )
        vals = _splines_at(self.grid2, self.amplitudes, reading)
        mass = float(self.grid1.weights @ np.abs(vals) ** 2)
        if mass <= NULL_OUTCOME_DENSITY:
            raise NullOutcomeError(
                f"mode-2 reading {reading} leaves a slice of mass {mass:.3e}, "
                f"at most {NULL_OUTCOME_DENSITY}"
            )
        return WaveFunction._scaled(self.grid1, vals, mass)


@dataclass(frozen=True)
class Outcome:
    """One homodyne event mapped back to the inferred signal quadrature.

    raw_X is the actual detector reading; the inferred value is
    x0 = -raw_X / sin(phi).
    """

    x0: float
    raw_X: float
    density_at_x0: float


def make_outcome(dist: Distribution, x0: float, phi: float) -> Outcome:
    check_phase(phi)
    dens = float(np.interp(x0, dist.grid.points, dist.density, left=0.0, right=0.0))
    return Outcome(x0=float(x0), raw_X=-float(x0) * math.sin(phi), density_at_x0=dens)


def beam_splitter_transform(
    signal: WaveFunction, probe: WaveFunction, phi: float
) -> JointWaveFunction:
    """Mix signal and probe: A(y1, y2) = psi_s(y1 c - y2 s) psi_p(y1 s + y2 c).

    The output grids span the bounding box of the rotated input rectangle on
    max(n_signal, n_probe) points each; with c, s > 0 the rotated support lies
    inside it.  Inputs are cubic-interpolated at the rotated arguments, one row
    block (at most SPLINE_CHUNK points, so one evaluator chunk) at a time, into a
    matrix of the inputs' result dtype: float64 for two real states.  The output is
    deliberately not renormalized; norm preservation within 1e-6 is part of the
    contract and is what the tests check.
    """
    check_phase(phi)
    c, s = math.cos(phi), math.sin(phi)
    n = max(signal.grid.n_points, probe.grid.n_points)
    out_grid1 = Grid(signal.grid.x_min * c + probe.grid.x_min * s,
                     signal.grid.x_max * c + probe.grid.x_max * s, n)
    out_grid2 = Grid(-signal.grid.x_max * s + probe.grid.x_min * c,
                     -signal.grid.x_min * s + probe.grid.x_max * c, n)
    s_eval = amplitude_interpolator(signal)
    p_eval = amplitude_interpolator(probe)
    y2 = out_grid2.points[None, :]
    amp = np.empty((n, n), dtype=np.result_type(signal.amplitudes, probe.amplitudes))
    step = max(1, SPLINE_CHUNK // n)  # rows per block
    for start in range(0, n, step):
        y1 = out_grid1.points[start : start + step, None]
        block = amp[start : start + step]
        block[...] = s_eval(y1 * c - y2 * s)
        block *= p_eval(y1 * s + y2 * c)
    return JointWaveFunction(out_grid1, out_grid2, amp)


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


def homodyne_distribution(
    signal: WaveFunction,
    probe: WaveFunction,
    phi: float,
    n_outcomes: int | None = None,
) -> Distribution:
    """Density of the inferred outcome x0 = -X / sin(phi).

    p(x0) = tan(phi) * int |psi_s(y)|^2 |psi_p(tan(phi) (y - x0))|^2 dy on
    `outcome_grid(n_points=n_outcomes)` (default: the signal's node count), from the
    one outcome pass (no joint state).
    """
    ogrid, p_raw, *_ = _outcome_pass(signal, probe, phi, n_outcomes)
    return Distribution.normalized(ogrid, p_raw)


def _conditioned(grid: Grid, vals: np.ndarray, jacobian: float, x0: float) -> WaveFunction:
    """vals renormalized on grid; refuses when p(x0) = jacobian * sum w |vals|^2 is null."""
    norm_sq = float(grid.weights @ np.abs(vals) ** 2)
    p_x0 = jacobian * norm_sq
    if p_x0 <= NULL_OUTCOME_DENSITY:
        raise NullOutcomeError(
            f"outcome density p(x0)={p_x0:.3e} at x0={x0} is below {NULL_OUTCOME_DENSITY}"
        )
    return WaveFunction._scaled(grid, vals, norm_sq)


def _moved(state: WaveFunction, scale: float, shift: float, what: str) -> WaveFunction:
    """psi((y - shift) / scale) / sqrt(scale) on the state's grid, renormalized; refuses when
    the moved support (|amplitude| >= SUPPORT_CUTOFF times the peak) leaves the grid."""
    mag = np.abs(state.amplitudes)
    idx = np.nonzero(mag >= SUPPORT_CUTOFF * mag.max())[0]
    lo, hi = (float(state.grid.points[i]) * scale + shift for i in (idx[0], idx[-1]))
    if not state.grid.covers(lo, hi):
        raise GridTooNarrowError(
            f"{what} support [{lo}, {hi}] leaves the grid "
            f"[{state.grid.x_min}, {state.grid.x_max}]"
        )
    evaluate = amplitude_interpolator(state)
    # times the reciprocal, as numpy divides a complex array by a real scalar
    vals = evaluate((state.grid.points - shift) / scale) * (1.0 / math.sqrt(scale))
    return WaveFunction.normalized(state.grid, vals)


def conditional_state_raw(
    signal: WaveFunction,
    probe: WaveFunction,
    phi: float,
    x0: float,
    out_grid: Grid | None = None,
) -> WaveFunction:
    """Kept-mode state right after the mode-2 projection, before any feedback.

    phi_x0(y) ~ psi_s(y cos phi + x0 sin^2 phi) psi_p(y sin phi - x0 cos phi sin phi),
    renormalized on the target grid (the signal grid unless one is given).  With
    u = y cos phi + x0 sin^2 phi the probe factor is psi_p(tan phi (u - x0)) and
    dy = du / cos phi, so p(x0) = sin phi sum w |phi_x0|^2 on the target grid; a null
    p(x0) raises NullOutcomeError.  A state the target grid cuts off (an edge amplitude of
    at least SUPPORT_CUTOFF times the peak) raises GridTooNarrowError.
    """
    check_phase(phi)
    c, s = math.cos(phi), math.sin(phi)
    grid = out_grid or signal.grid
    y = grid.points
    s_eval = amplitude_interpolator(signal)
    p_eval = amplitude_interpolator(probe)
    vals = s_eval(y * c + x0 * s * s) * p_eval(y * s - x0 * c * s)
    state = _conditioned(grid, vals, s, x0)
    if state.edge_leak() >= SUPPORT_CUTOFF:
        raise GridTooNarrowError(
            f"conditioned state at x0={x0} is cut off by the grid [{grid.x_min}, {grid.x_max}]: "
            f"its edge amplitude is {state.edge_leak():.3e} of its peak"
        )
    return state


def feedback_displace(state: WaveFunction, x0: float, phi: float) -> WaveFunction:
    """Shift the state by d = x0 sin(phi) tan(phi) along the quadrature axis."""
    check_phase(phi)
    return _moved(state, 1.0, x0 * math.sin(phi) * math.tan(phi), "displaced")


def output_squeeze(state: WaveFunction, phi: float) -> WaveFunction:
    """Squeeze by rescaling the quadrature axis by cos(phi).

    With e^r = cos(phi), position kets map |y> -> e^(r/2) |e^r y>, so the
    wavefunction transforms as psi(y) -> psi(y / cos phi) / sqrt(cos phi),
    renormalized after interpolation.
    """
    check_phase(phi)
    return _moved(state, math.cos(phi), 0.0, "rescaled")


def conditional_output(
    signal: WaveFunction, probe: WaveFunction, phi: float, x0: float
) -> WaveFunction:
    """Closed-form conditional output psi_x0(x) ~ psi_s(x) psi_p((x - x0) tan phi).

    Equals the three-stage pipeline (conditioning, displacement, squeezing)
    and lives on the signal grid; p(x0) = tan phi sum w |psi_x0|^2 before renormalizing.
    """
    check_phase(phi)
    t = math.tan(phi)
    vals = signal.amplitudes * amplitude_interpolator(probe)(t * (signal.grid.points - x0))
    return _conditioned(signal.grid, vals, t, x0)


def _check_indexable(count: int, what: str) -> None:
    """Refuse, before anything is allocated, `count` float64 values numpy cannot index."""
    size = np.dtype(np.float64).itemsize * count
    if size > np.iinfo(np.intp).max:
        raise InvalidParameterError(
            f"{what} {count} needs an array of {size} bytes, more than numpy can index"
        )


def sample_outcomes(dist: Distribution, count: int, seed: int) -> np.ndarray:
    """Deterministic inverse-transform draws from the trapezoidal CDF.

    Generator: numpy PCG64 seeded with `seed` (via default_rng); each uniform
    u in [0, 1) is mapped through the piecewise-linear inverse of the
    cumulative trapezoid of the density.  Fixed seed, fixed stream.

    On a flat run of the CDF (intervals without mass) a uniform equal to the run's
    value maps to the run's last point.  Besides the count-long result, the working
    memory is the count uniforms.  A count whose draws numpy cannot index is refused
    before anything is allocated.
    """
    if count <= 0:
        raise InvalidParameterError(f"sample count must be positive, got {count}")
    _check_indexable(count, "sample count")
    x, y = dist.grid.points, dist.density
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))
    return np.interp(np.random.default_rng(seed).random(count), cdf / cdf[-1], x)
