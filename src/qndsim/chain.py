"""The measurement chain: two-mode mixing, homodyne statistics, conditioning,
feedback displacement, output squeezing, and outcome sampling.

Stage by stage, for interferometer phase phi (c = cos phi, s = sin phi,
t = tan phi) and an inferred outcome x0:

  joint state      A(y1, y2) = psi_s(y1 c - y2 s) psi_p(y1 s + y2 c)
  outcome density  p(x0) = t * int |psi_s(y)|^2 |psi_p(t (y - x0))|^2 dy
  conditioning     phi_x0(y)  ~ psi_s(y c + x0 s^2) psi_p(y s - x0 c s)
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
    _hermite_coefficients,
    _spline_slopes,
    amplitude_interpolator,
)

PHASE_MARGIN = 1e-6  # sin(phi) and cos(phi) must both exceed this
NULL_OUTCOME_DENSITY = 1e-12  # conditioning below this density is meaningless
SUPPORT_CUTOFF = 1e-8  # relative amplitude defining the numerical support
OUTCOME_SPAN_SIGMAS = 8.0


def check_phase(phi: float) -> None:
    """Reject phases where either interferometer port coupling degenerates."""
    if not (math.sin(phi) > PHASE_MARGIN and math.cos(phi) > PHASE_MARGIN):
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

    def _row_blocks(self) -> range:
        """Starts of the row blocks: at most SPLINE_CHUNK points of the matrix each."""
        return range(0, self.grid1.n_points, max(1, SPLINE_CHUNK // self.grid2.n_points))

    def conditioned_on_mode2(self, reading: float) -> WaveFunction:
        """Mode-1 state after a sharp mode-2 projection at the given reading.

        Every row of the amplitude matrix is fitted with scipy's not-a-knot spline along
        mode 2 (one multi-column zgtsv solve per row block, from numpy's bundled OpenBLAS
        as in `_spline_slopes`), only the reading's interval is formed, and the resulting
        slice is renormalized.  The slice equals
        `CubicSpline(grid2.points, A, axis=1)(reading)` bit for bit: the same interval
        (half-open, the last one closed, the end ones extended by the covers() slack)
        and PPoly's sum c3 + c2 s + c1 s^2 + c0 (s^2 s).  A slice of mass
        sum w1 |slice|^2 at most NULL_OUTCOME_DENSITY raises NullOutcomeError.
        """
        if not self.grid2.covers(reading, reading):
            raise GridTooNarrowError(
                f"mode-2 reading {reading} lies outside the grid "
                f"[{self.grid2.x_min}, {self.grid2.x_max}]"
            )
        knots = self.grid2.points
        i = min(max(int(np.searchsorted(knots, reading, side="right")) - 1, 0), knots.size - 2)
        u = reading - knots[i]
        u2 = u * u
        vals = np.empty(self.grid1.n_points, dtype=np.complex128)
        blocks = self._row_blocks()
        for start in blocks:
            columns = self.amplitudes[start : start + blocks.step].T
            s, slope = _spline_slopes(knots, columns)
            c0, c1, c2, c3 = _hermite_coefficients(
                knots[i + 1] - knots[i], columns[i], s[i], s[i + 1], slope[i]
            )
            vals[start : start + blocks.step] = c3 + c2 * u + c1 * u2 + c0 * (u2 * u)
        mass = float(self.grid1.weights @ np.abs(vals) ** 2)
        if mass <= NULL_OUTCOME_DENSITY:
            raise NullOutcomeError(
                f"mode-2 reading {reading} leaves a slice of mass {mass:.3e}, "
                f"at most {NULL_OUTCOME_DENSITY}"
            )
        return WaveFunction.normalized(self.grid1, vals)


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


def _support_bounds(wf: WaveFunction) -> tuple[float, float]:
    """Interval where |amplitude| exceeds SUPPORT_CUTOFF times the peak."""
    mag = np.abs(wf.amplitudes)
    idx = np.nonzero(mag >= SUPPORT_CUTOFF * mag.max())[0]
    return float(wf.grid.points[idx[0]]), float(wf.grid.points[idx[-1]])


def beam_splitter_transform(
    signal: WaveFunction, probe: WaveFunction, phi: float
) -> JointWaveFunction:
    """Mix signal and probe: A(y1, y2) = psi_s(y1 c - y2 s) psi_p(y1 s + y2 c).

    The output grids span the bounding box of the rotated input rectangle on
    max(n_signal, n_probe) points each; with c, s > 0 the rotated support lies
    inside it.  Inputs are cubic-interpolated at the rotated arguments, one row
    block (at most SPLINE_CHUNK points, so one evaluator chunk) at a time.  The
    output is deliberately not renormalized; norm preservation within 1e-6 is
    part of the contract and is what the tests check.
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
    amp = np.empty((out_grid1.n_points, out_grid2.n_points), dtype=np.complex128)
    joint = JointWaveFunction(out_grid1, out_grid2, amp)
    blocks = joint._row_blocks()
    for start in blocks:
        y1 = out_grid1.points[start : start + blocks.step, None]
        block = amp[start : start + blocks.step]
        block[...] = s_eval(y1 * c - y2 * s)
        block *= p_eval(y1 * s + y2 * c)
    return joint


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
    which p and F must resolve.  The node count follows from span and k: rarely n_points.
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


def _row_sums(values: np.ndarray, mass_hat: np.ndarray, k: int, rows: int) -> np.ndarray:
    """Row j < rows: sum_i values[i + k (rows - 1 - j)] mass[i], by one FFT correlation;
    with values = kappa, K @ mass without forming K.

    mass_hat = conj(fft(conj(mass), size)), for a real mass conj(fft(mass, size)), with size
    a power of two >= len(values) (no wrap-around); the caller transforms the mass once for
    all its sums.
    """
    return np.fft.ifft(np.fft.fft(values, mass_hat.size) * mass_hat)[k * (rows - 1) :: -k]


def _outcome_pass(
    signal: WaveFunction, probe: WaveFunction, phi: float, n_outcomes: int | None
) -> tuple[Grid, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The one kernel pass behind p, F, G and rho, on `outcome_grid(n_points=n_outcomes)`.

    kappa[e] = psi_p(tan(phi) h (e - o - k (M - 1))) on the signal lattice (step h), so
    K(x0_j, y_i) = psi_p(tan(phi) (y_i - x0_j)) = kappa[i + k (M - 1 - j)].  Returns the
    grid, p_raw = t sum_y |K|^2 m and A = sum_y K m (m = |psi_s|^2 w, both by FFT
    correlation against one transform of m), kappa, the outcome stride k and the FFT size
    that `_row_sums` correlates kappa at.
    """
    ogrid = outcome_grid(signal, probe, phi, n_points=n_outcomes)
    y0, h, n, m = signal.grid.x_min, signal.grid.step, signal.grid.n_points, ogrid.n_points
    k = round(ogrid.step / h)
    last = round((ogrid.x_min - y0) / h) + k * (m - 1)
    t = math.tan(phi)
    size = n + k * (m - 1)  # Python ints: checked before numpy sees them
    fft_size = 1 << (size - 1).bit_length()
    if fft_size * np.dtype(np.complex128).itemsize > np.iinfo(np.intp).max:
        raise InvalidParameterError(
            f"probe filter width {math.sqrt(probe.variance()) / t:.3g} needs a kernel of about "
            f"2**{(size - 1).bit_length()} points at the signal grid step {h:.3g}, more than "
            "numpy can index"
        )
    kappa = amplitude_interpolator(probe)((np.arange(size) - last) * (t * h))
    mass = np.abs(signal.amplitudes) ** 2 * signal.grid.weights
    mass_hat = np.conj(np.fft.fft(mass, fft_size))
    p_raw = t * _row_sums(np.abs(kappa) ** 2, mass_hat, k, m).real
    return ogrid, p_raw, _row_sums(kappa, mass_hat, k, m), kappa, k, fft_size


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


def _filtered_outcome(
    signal: WaveFunction, probe: WaveFunction, phi: float, x0: float
) -> np.ndarray:
    """Unnormalized psi_s(y) K(x0, y) on the signal grid; raises if p(x0) is null."""
    t = math.tan(phi)
    p_eval = amplitude_interpolator(probe)
    vals = signal.amplitudes * p_eval(t * (signal.grid.points - x0))
    p_x0 = t * float(signal.grid.weights @ np.abs(vals) ** 2)
    if p_x0 <= NULL_OUTCOME_DENSITY:
        raise NullOutcomeError(
            f"outcome density p(x0)={p_x0:.3e} at x0={x0} is below {NULL_OUTCOME_DENSITY}"
        )
    return vals


def conditional_state_raw(
    signal: WaveFunction,
    probe: WaveFunction,
    phi: float,
    x0: float,
    out_grid: Grid | None = None,
) -> WaveFunction:
    """Kept-mode state right after the mode-2 projection, before any feedback.

    phi_x0(y) ~ psi_s(y cos phi + x0 sin^2 phi) psi_p(y sin phi - x0 cos phi sin phi),
    renormalized on the target grid (the signal grid unless one is given).
    """
    check_phase(phi)
    _filtered_outcome(signal, probe, phi, x0)
    c, s = math.cos(phi), math.sin(phi)
    grid = out_grid or signal.grid
    y = grid.points
    s_eval = amplitude_interpolator(signal)
    p_eval = amplitude_interpolator(probe)
    vals = s_eval(y * c + x0 * s * s) * p_eval(y * s - x0 * c * s)
    return WaveFunction.normalized(grid, vals)


def feedback_displace(state: WaveFunction, x0: float, phi: float) -> WaveFunction:
    """Shift the state by d = x0 sin(phi) tan(phi) along the quadrature axis."""
    check_phase(phi)
    d = x0 * math.sin(phi) * math.tan(phi)
    lo, hi = _support_bounds(state)
    if not state.grid.covers(lo + d, hi + d):
        raise GridTooNarrowError(
            f"displaced support [{lo + d}, {hi + d}] leaves the grid "
            f"[{state.grid.x_min}, {state.grid.x_max}]; the displaced support must fit the grid"
        )
    evaluate = amplitude_interpolator(state)
    return WaveFunction.normalized(state.grid, evaluate(state.grid.points - d))


def output_squeeze(state: WaveFunction, phi: float) -> WaveFunction:
    """Squeeze by rescaling the quadrature axis by cos(phi).

    With e^r = cos(phi), position kets map |y> -> e^(r/2) |e^r y>, so the
    wavefunction transforms as psi(y) -> psi(y / cos phi) / sqrt(cos phi),
    renormalized after interpolation.
    """
    check_phase(phi)
    c = math.cos(phi)
    lo, hi = _support_bounds(state)
    if not state.grid.covers(lo * c, hi * c):
        raise GridTooNarrowError(
            f"rescaled support [{lo * c}, {hi * c}] leaves the grid "
            f"[{state.grid.x_min}, {state.grid.x_max}]"
        )
    evaluate = amplitude_interpolator(state)
    vals = evaluate(state.grid.points / c) / math.sqrt(c)
    return WaveFunction.normalized(state.grid, vals)


def conditional_output(
    signal: WaveFunction, probe: WaveFunction, phi: float, x0: float
) -> WaveFunction:
    """Closed-form conditional output psi_x0(x) ~ psi_s(x) psi_p((x - x0) tan phi).

    Equals the three-stage pipeline (conditioning, displacement, squeezing)
    and lives on the signal grid.
    """
    check_phase(phi)
    return WaveFunction.normalized(signal.grid, _filtered_outcome(signal, probe, phi, x0))


def sample_outcomes(dist: Distribution, count: int, seed: int) -> np.ndarray:
    """Deterministic inverse-transform draws from the trapezoidal CDF.

    Generator: numpy PCG64 seeded with `seed` (via default_rng); each uniform
    u in [0, 1) is mapped through the piecewise-linear inverse of the
    cumulative trapezoid of the density.  Fixed seed, fixed stream.
    """
    if count <= 0:
        raise InvalidParameterError(f"sample count must be positive, got {count}")
    x, y = dist.grid.points, dist.density
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))
    cdf = cdf / cdf[-1]
    u = np.random.default_rng(seed).random(count)
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, dist.grid.n_points - 2)
    gap = cdf[idx + 1] - cdf[idx]
    safe = np.where(gap > 0, gap, 1.0)
    frac = np.where(gap > 0, (u - cdf[idx]) / safe, 0.0)
    return dist.grid.points[idx] + frac * dist.grid.step
