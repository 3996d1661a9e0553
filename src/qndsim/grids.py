"""Uniform quadrature grids and discretized single-mode wavefunctions.

Conventions: the quadrature is x = (a^dag + a)/2, so the vacuum state has
quadrature-density variance 1/4.  A state's "variance" always means the
variance of its quadrature density |psi(x)|^2.  All integrals are
trapezoidal sums on uniform grids.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Callable, ClassVar, Iterable, NamedTuple, Union

import numpy as np

from . import _lapack
from .errors import GridMismatchError, GridTooNarrowError, InvalidParameterError

VACUUM_VARIANCE = 0.25

DEFAULT_GRID_POINTS = 2048
DEFAULT_SPAN_SIGMAS = 10.0
SPLINE_CHUNK = 2**16  # points per pass of a spline evaluation: bounds its temporaries


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D quadrature lattice; point k sits at x_min + k * step."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise InvalidParameterError(
                f"grid needs x_min < x_max, got [{self.x_min}, {self.x_max}]"
            )
        if self.n_points < 16:
            raise InvalidParameterError(f"grid needs n_points >= 16, got {self.n_points}")
        if not math.isfinite(self.step):  # an infinite bound gives an infinite step too
            raise InvalidParameterError(
                f"grid needs finite bounds and step, got [{self.x_min}, {self.x_max}]"
            )
        # Above 2**16 float spacings, rounding the points moves F and G by at most 1e-10
        # against the same state centred at 0 (8.3e-11 at 2**16.3 spacings; 1.3e-4 at
        # 2**2.3), and no two points are equal or out of order (that needs only 4).
        spacing = math.ulp(max(abs(self.x_min), abs(self.x_max)))
        if not self.step > 2**16 * spacing:
            raise InvalidParameterError(
                f"grid [{self.x_min}, {self.x_max}] x {self.n_points} has step {self.step:.3g}, "
                f"not above 2**16 times the float spacing {spacing:.3g} at its bounds"
            )

    @property
    def step(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        pts = self.x_min + self.step * np.arange(self.n_points)
        pts.flags.writeable = False
        return pts

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights matching `points`."""
        w = np.full(self.n_points, self.step)
        w[0] = w[-1] = 0.5 * self.step
        w.flags.writeable = False
        return w

    @cached_property
    def _spline_band(self) -> "_SplineBand":
        """The grid-only half of every spline fit on this grid, made at its first fit."""
        return _factor_spline_band(self)

    def covers(self, lo: float, hi: float) -> bool:
        """Whether [lo, hi] fits inside the grid, up to a relative slack."""
        pad = 1e-9 * (self.x_max - self.x_min)
        return self.x_min <= lo + pad and hi - pad <= self.x_max


@dataclass(frozen=True)
class GaussianSpec:
    """Mean and variance of a Gaussian quadrature density; both finite, the variance > 0.

    variance = 1/4 is the vacuum; smaller is squeezed, larger anti-squeezed.  The
    unnormalized amplitude is (2 pi v)^(-1/4) exp(-(x - mean)^2 / (4 v)).
    """

    kind: ClassVar[str] = "gaussian"
    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise InvalidParameterError(f"mean must be finite, got {self.mean}")
        if not 0 < self.variance < math.inf:
            raise InvalidParameterError(f"variance must be finite and > 0, got {self.variance}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    def _extent(self) -> tuple[float, float, float]:
        return self.mean, self.mean, self.sigma

    def _amplitude(self, x: np.ndarray) -> np.ndarray:
        v = self.variance
        return (2 * math.pi * v) ** -0.25 * np.exp(-((x - self.mean) ** 2) / (4 * v))


@dataclass(frozen=True)
class CatSpec:
    """Even superposition of two Gaussians centered at +/- separation, each of density
    variance v: amplitude exp(-(x - a)^2 / (4 v)) + exp(-(x + a)^2 / (4 v)), unnormalized.
    Both fields are finite, the separation >= 0 and v > 0.
    """

    kind: ClassVar[str] = "cat"
    separation: float
    component_variance: float

    def __post_init__(self) -> None:
        if not 0 < self.component_variance < math.inf:
            raise InvalidParameterError(
                f"component variance must be finite and > 0, got {self.component_variance}"
            )
        if not 0 <= self.separation < math.inf:
            raise InvalidParameterError(
                f"separation must be finite and >= 0, got {self.separation}"
            )

    @property
    def sigma(self) -> float:
        return math.sqrt(self.component_variance)

    def _extent(self) -> tuple[float, float, float]:
        return -self.separation, self.separation, self.sigma

    def _amplitude(self, x: np.ndarray) -> np.ndarray:
        a, v = self.separation, self.component_variance
        return np.exp(-((x - a) ** 2) / (4 * v)) + np.exp(-((x + a) ** 2) / (4 * v))


# A spec's _extent() is (lowest center, highest center, component width) and its
# _amplitude(x) the unnormalized wavefunction: all that build_state and GridPolicy read.
StateSpec = Union[GaussianSpec, CatSpec]


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Real or complex amplitudes on a grid, held at unit L2 norm; float64 for a real
    state, complex128 for a complex one.

    Every state of the chain is real in the x representation (squeezed vacua, Gaussian
    and cat signals, and each stage's real mixing, projection, shift and rescale), so
    it stays float64 from its builder on, with the bits of its complex128 form's real
    part: a complex product or division by a real number is part by part."""

    grid: Grid
    amplitudes: np.ndarray

    @classmethod
    def normalized(cls, grid: Grid, values: np.ndarray) -> "WaveFunction":
        dtype = np.complex128 if np.iscomplexobj(values) else np.float64
        amp = np.ascontiguousarray(values, dtype=dtype)
        if amp.shape != (grid.n_points,):
            raise InvalidParameterError(
                f"amplitude array of shape {amp.shape} does not match grid with "
                f"{grid.n_points} points"
            )
        return cls._scaled(grid, amp, float(grid.weights @ np.abs(amp) ** 2))

    @classmethod
    def _scaled(cls, grid: Grid, amp: np.ndarray, norm_sq: float) -> "WaveFunction":
        """amp, a grid-shaped float64 or complex128 array of squared norm norm_sq,
        normalized: times 1 / sqrt(norm_sq), which is how numpy divides a complex array
        by a real scalar (a real division would round differently)."""
        if not math.isfinite(norm_sq) or norm_sq <= 0.0:
            raise InvalidParameterError("cannot normalize a null or non-finite wavefunction")
        amp = amp * (1.0 / math.sqrt(norm_sq))
        amp.flags.writeable = False
        return cls(grid, amp)

    def norm(self) -> float:
        return math.sqrt(float(self.grid.weights @ np.abs(self.amplitudes) ** 2))

    def mean(self) -> float:
        return density(self).mean()

    def variance(self) -> float:
        return density(self).variance()

    def edge_leak(self) -> float:
        """Largest edge amplitude relative to the peak amplitude."""
        mag = np.abs(self.amplitudes)
        return float(max(mag[0], mag[-1]) / mag.max())


@dataclass(frozen=True, eq=False)
class Distribution:
    """Nonnegative density on a grid with unit trapezoidal integral."""

    grid: Grid
    density: np.ndarray

    @classmethod
    def normalized(cls, grid: Grid, values: np.ndarray) -> "Distribution":
        dens = np.ascontiguousarray(values, dtype=np.float64)
        if dens.shape != (grid.n_points,):
            raise InvalidParameterError(
                f"density array of shape {dens.shape} does not match grid with "
                f"{grid.n_points} points"
            )
        peak = float(dens.max(initial=0.0))
        if float(dens.min(initial=0.0)) < -1e-12 * max(peak, 1.0):
            raise InvalidParameterError("density has significantly negative values")
        dens = np.clip(dens, 0.0, None)
        total = float(grid.weights @ dens)
        if not math.isfinite(total) or total <= 0.0:
            raise InvalidParameterError("cannot normalize a null or non-finite density")
        dens = dens / total
        dens.flags.writeable = False
        return cls(grid, dens)

    def total(self) -> float:
        return float(self.grid.weights @ self.density)

    def mean(self) -> float:
        return float(self.grid.weights @ (self.grid.points * self.density))

    def variance(self) -> float:
        m = self.mean()
        return float(self.grid.weights @ ((self.grid.points - m) ** 2 * self.density))


def build_state(spec: StateSpec, grid: Grid) -> WaveFunction:
    """The spec's wavefunction on the grid, renormalized: the one state builder.  The grid
    must cover the spec's centers +/- 8 component widths, else GridTooNarrowError."""
    lowest, highest, width = spec._extent()
    lo, hi = lowest - 8 * width, highest + 8 * width
    if not grid.covers(lo, hi):
        raise GridTooNarrowError(
            f"grid [{grid.x_min}, {grid.x_max}] does not cover the {spec.kind} support "
            f"[{lo}, {hi}]"
        )
    return WaveFunction.normalized(grid, spec._amplitude(grid.points))


def build_gaussian(spec: GaussianSpec, grid: Grid) -> WaveFunction:
    """Gaussian wavefunction whose quadrature density is the normal density with the
    spec's mean and variance: `build_state` of the spec."""
    return build_state(spec, grid)


def build_cat(separation: float, component_variance: float, grid: Grid) -> WaveFunction:
    """Even superposition of two Gaussians at +/- separation: `build_state` of its CatSpec."""
    return build_state(CatSpec(separation, component_variance), grid)


def overlap(a: WaveFunction, b: WaveFunction) -> complex:
    """Inner product <a|b> by trapezoidal quadrature. Grids must be identical."""
    if a.grid != b.grid:
        raise GridMismatchError(
            f"overlap needs identical grids, got [{a.grid.x_min}, {a.grid.x_max}] x "
            f"{a.grid.n_points} vs [{b.grid.x_min}, {b.grid.x_max}] x {b.grid.n_points}"
        )
    # a complex dot for real states too: a real one sums in another order
    product = np.conj(a.amplitudes) * b.amplitudes
    return complex(a.grid.weights @ product.astype(np.complex128, copy=False))


def density(a: WaveFunction) -> Distribution:
    """Quadrature density |psi(x)|^2 of a wavefunction."""
    return Distribution(a.grid, np.abs(a.amplitudes) ** 2)


def photon_number_paper(sigma2: float) -> float:
    """Mean photon number (sigma2 + 1/sigma2 - 2) / 4 of a squeezed vacuum.

    This reproduces the printed formula verbatim; note it treats sigma2 = 1
    (not the vacuum value 1/4) as the zero-photon point.
    """
    if sigma2 <= 0:
        raise InvalidParameterError(f"sigma2 must be positive, got {sigma2}")
    return (sigma2 + 1.0 / sigma2 - 2.0) / 4.0


def auto_grid(specs: Iterable[StateSpec], n_points: int = DEFAULT_GRID_POINTS) -> Grid:
    """Grid covering every spec's centers plus DEFAULT_SPAN_SIGMAS of the widest state."""
    return GridPolicy(n_points).grid_for(specs)


@dataclass(frozen=True)
class GridPolicy:
    """How grids are sized when the caller does not supply one.

    By default the grid covers every spec's centers plus DEFAULT_SPAN_SIGMAS of
    the widest state; halfspan, when set, overrides that span and centers the
    grid on the midpoint of the states' centers.
    """

    n_points: int = DEFAULT_GRID_POINTS
    halfspan: float | None = None

    def grid_for(self, specs: Iterable[StateSpec]) -> Grid:
        specs = list(specs)
        if not specs:
            raise InvalidParameterError("a grid needs at least one state spec")
        los, his, sigmas = zip(*(s._extent() for s in specs))
        if self.halfspan is None:
            pad = DEFAULT_SPAN_SIGMAS * max(sigmas)
            return Grid(min(los) - pad, max(his) + pad, self.n_points)
        center = 0.5 * (min(los) + max(his))
        return Grid(center - self.halfspan, center + self.halfspan, self.n_points)


def parse_state_spec(text: str) -> StateSpec:
    """Parse 'gaussian:<mean>,<variance>' or 'cat:<separation>,<variance>'.

    Decimal fields go through float(), which rounds the literal exactly once.
    """
    kind, colon, rest = text.partition(":")
    parts = rest.split(",") if colon else []
    if len(parts) != 2:
        raise InvalidParameterError(
            f"bad state spec {text!r}: expected gaussian:<mean>,<variance> "
            "or cat:<separation>,<variance>"
        )
    try:
        first, second = float(parts[0]), float(parts[1])
    except ValueError:
        raise InvalidParameterError(f"bad numeric field in state spec {text!r}") from None
    for spec_type in (GaussianSpec, CatSpec):
        if kind == spec_type.kind:
            return spec_type(first, second)
    raise InvalidParameterError(f"unknown state kind {kind!r} in {text!r}")


def format_state_spec(spec: StateSpec) -> str:
    """The canonical text of a spec: parse_state_spec reads back an equal spec."""
    return f"{spec.kind}:" + ",".join(repr(field) for field in astuple(spec))


class _SplineBand(NamedTuple):
    """What every spline fit on a grid needs of the grid alone."""

    solve: Callable[[np.ndarray], np.ndarray]  # dgttrs against the factored not-a-knot band
    dx: np.ndarray  # the knot spacings
    inv_dx: np.ndarray  # 1 / dx: each division by a spacing is a product with it, as
    # numpy divides complex by real, so real and imaginary parts keep scipy's complex bits
    # evaluator tables, indexed by k = interval + 1: the knot s is measured from, and the
    # knot that decides between two neighbouring intervals.  k = 0 (below x_min, NaN) and
    # k = n (above x_max) are sentinels: zero coefficients, and s is clamped to 0 there.
    lower: np.ndarray
    upper: np.ndarray


def _factor_spline_band(grid: Grid) -> _SplineBand:
    """Factor the not-a-knot band of scipy's `CubicSpline` on the grid's knots by dgttrf."""
    x, n = grid.points, grid.n_points
    dx = np.diff(x)
    # the band: sub-, main and super-diagonal, with the not-a-knot end rows
    lower, diag, upper = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    diag[0], upper[0] = dx[1], x[2] - x[0]
    diag[-1], lower[-1] = dx[-2], x[-1] - x[-3]
    solve, info = _lapack.dgttrf(lower, diag, upper)
    if info:
        raise InvalidParameterError(f"spline system is singular (dgttrf info {info})")
    band = _SplineBand(
        solve,
        dx,
        1.0 / dx,
        np.concatenate(([grid.x_min], x[:-1], [np.inf])),
        np.concatenate(([grid.x_min], x[1:-1], [np.nextafter(grid.x_max, np.inf)], [np.inf])),
    )
    for array in band[1:]:
        array.flags.writeable = False
    return band


def _real_parts(values: np.ndarray) -> np.ndarray:
    """The real part of values, and its imaginary part when that is nonzero, stacked on a
    new first axis: a (1 or 2,) + values.shape float64 array (a view when 1)."""
    if not np.iscomplexobj(values):
        return values[np.newaxis]
    if not np.count_nonzero(values.imag):
        return values.real[np.newaxis]
    return np.stack((values.real, values.imag))


def _spline_slopes(grid: Grid, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knot derivatives and secant slopes of the not-a-knot cubic spline through
    (grid.points, y[..., i]), each of y's shape.

    y is real and holds one curve per row: its last axis runs along the grid, so a
    C-ordered stack of rows is, to LAPACK, a Fortran-ordered (n, rows) right-hand side.
    A complex curve is fitted as its real and imaginary parts (`_real_parts`).  This is
    scipy's complex `CubicSpline(x, y)` system, part by part and bit for bit: the same
    band and right-hand side.  numpy divides a complex array by a real one as a product
    with the reciprocal, (a + ib) / d = (a (1/d), b (1/d)), and multiplies it by a real
    one part by part, so each division by a spacing is a product with `inv_dx`; a real
    division, as scipy's fit of a real y makes, rounds differently.  The one thing
    complex arithmetic adds is the other part times a zero, which can flip the sign of
    a zero where one part is +/-0 and the other is not; the values are equal.

    The band depends on the knots alone, so the grid factors it once, at its first fit
    (LAPACK dgttrf, `Grid._spline_band`), and each call solves all rows by one dgttrs
    call of the band's `solve`; both come from the OpenBLAS bundled with numpy
    (`_lapack`).  When no row is interchanged, dgttrf + dgttrs repeat, part by part, the
    elimination of zgtsv, which `solve_banded((1, 1))` calls for complex y; the band of
    a uniform grid interchanges none (row 0 has |d| = |dl| = h, and later pivots tend to
    (2 + sqrt 3) h, more than the last row's 2 h).
    """
    band, x, n = grid._spline_band, grid.points, grid.n_points
    dx = band.dx
    slope = np.diff(y) * band.inv_dx
    rhs = np.empty(y.shape)  # C-ordered rows: the Fortran-ordered columns dgttrs solves in place
    inner = rhs[..., 1:-1]  # 3 (dx[1:] slope[:-1] + dx[:-1] slope[1:]), formed in place
    np.multiply(dx[1:], slope[..., :-1], out=inner)
    inner += dx[:-1] * slope[..., 1:]
    inner *= 3
    d = x[2] - x[0]
    rhs[..., 0] = (dx[0] + 2 * d) * dx[1] * slope[..., 0] + dx[0] ** 2 * slope[..., 1]
    rhs[..., 0] *= 1 / d
    d = x[-1] - x[-3]
    rhs[..., -1] = dx[-1] ** 2 * slope[..., -2] + (2 * d + dx[-1]) * dx[-2] * slope[..., -1]
    rhs[..., -1] *= 1 / d
    derivs = band.solve(rhs.reshape(-1, n).T)
    return derivs.T.reshape(y.shape), slope


def _hermite_coefficients(inv_h, y, s0, s1, slope) -> tuple[np.ndarray, ...]:
    """Cubic pieces c0 s^3 + c1 s^2 + c2 s + c3 (returned highest power first) of inverse
    width inv_h, left value y, end derivatives s0, s1 and secant slope, all real:
    `CubicHermiteSpline`'s formulas, its divisions by the width taken as products with
    inv_h, as numpy divides a complex array by a real one."""
    t = s0 + s1  # (s0 + s1 - 2 slope) inv_h, formed in place
    t -= 2 * slope
    t *= inv_h
    c1 = slope - s0  # (slope - s0) inv_h - t
    c1 *= inv_h
    c1 -= t
    return t * inv_h, c1, s0, y


def _splines_at(grid: Grid, rows: np.ndarray, x: float) -> np.ndarray:
    """The values at x of the not-a-knot splines through each row of rows (its last axis
    runs along the grid), in rows' dtype (float64 or complex128): `CubicSpline(grid.points,
    rows.astype(complex), axis=1)(x)` bit for bit, for x inside the grid or within its
    covers() slack of an end.

    The rows are fitted in blocks of at most SPLINE_CHUNK points, each block's real
    parts, plus its imaginary parts when it has any, by one dgttrs solve
    (`_spline_slopes`).  Only x's interval is formed, part by part: scipy's interval
    (half-open, the last one closed, the end ones extended) and PPoly's sum
    c3 + c2 s + c1 s^2 + c0 (s^2 s).
    """
    knots = grid.points
    i = min(max(int(np.searchsorted(knots, x, side="right")) - 1, 0), knots.size - 2)
    u = x - knots[i]
    u2 = u * u
    inv_h = grid._spline_band.inv_dx[i]
    vals = np.zeros(len(rows), dtype=rows.dtype)  # a block's zero imaginary part stays 0
    columns = vals.view(np.float64).reshape(len(rows), -1).T  # vals' real and imaginary parts
    step = max(1, SPLINE_CHUNK // grid.n_points)
    for start in range(0, len(rows), step):
        parts = _real_parts(rows[start : start + step])
        s, slope = _spline_slopes(grid, parts)
        c0, c1, c2, c3 = _hermite_coefficients(
            inv_h, parts[..., i], s[..., i], s[..., i + 1], slope[..., i]
        )
        for target, part in zip(columns, c3 + c2 * u + c1 * u2 + c0 * (u2 * u)):
            target[start : start + step] = part
    return vals


def amplitude_interpolator(wf: WaveFunction) -> Callable[..., np.ndarray]:
    """Cubic-spline evaluator for the amplitudes, zero outside the grid.

    `evaluate(x)` returns values of x's shape: float64 when the amplitudes have no
    nonzero imaginary part (one real spline), else complex128.  Points outside
    [x_min, x_max], NaN and +/-inf included, give 0.

    The spline is scipy's `CubicSpline` (not-a-knot) on the grid, fitted by
    `_spline_slopes` in real arithmetic: the real part of the amplitudes, and the
    imaginary part only when it is nonzero, are solved by one LAPACK dgttrs call
    against the band the grid factored once, from numpy's bundled OpenBLAS, no
    scipy.  Each part's c3, c2, c1 and c0 are written straight into one
    zero-padded float table, indexed as the grid's knot tables.  The values equal
    `CubicSpline.__call__` bit for bit: the same coefficients, the same interval
    (half-open, the last one closed), the same s = x - knot, and the same sum
    c3 + c2 s + c1 s^2 + c0 s^3 with s^3 = s^2 s.  Only the interval search is
    replaced: the knots are uniform, so (x - x_min) / step + 1/2 truncates to
    one of two neighbouring intervals, and one comparison with the knot between
    them decides.  Cast to complex128, a real spline's values are those of scipy's
    spline of the complex amplitudes, with an imaginary part of +0.

    Coefficients that overflow (a state so narrow that the grid step is near the
    floating-point range, e.g. a probe variance of 1e-300) raise
    InvalidParameterError naming the step.

    The evaluator is cached on the wavefunction (safe: amplitudes are
    immutable), so repeated conditioning against the same state is cheap.
    """
    cached = wf.__dict__.get("_cached_interpolator")
    if cached is not None:
        return cached
    grid, parts = wf.grid, _real_parts(wf.amplitudes)
    band, n = grid._spline_band, grid.n_points
    # per part, rows c3, c2, c1, c0 (constant term first), indexed as band.lower and upper
    tables = np.zeros((len(parts), 4, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        s, slope = _spline_slopes(grid, parts)
        pieces = _hermite_coefficients(band.inv_dx, parts[:, :-1], s[:, :-1], s[:, 1:], slope)
        for row, piece in zip(range(3, -1, -1), pieces):
            tables[:, row, 1:n] = piece
    if not np.isfinite(tables).all():
        raise InvalidParameterError(
            f"spline coefficients overflow at grid step {grid.step:.3g}: the state is "
            "too narrow for floating point; use a wider state or a coarser grid"
        )
    lo, lower, upper = grid.x_min, band.lower, band.upper
    inv_step = 1.0 / grid.step

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape, dtype=np.complex128 if len(tables) == 2 else np.float64)
        flat_x = x.reshape(-1)
        flat_out = out.reshape(-1).view(np.float64).reshape(-1, len(tables))  # one column a part
        # One allocation for all temporaries, reused chunk by chunk: several large
        # ones per call make glibc return the memory to the OS and fault it back in.
        work = np.empty((6, min(flat_x.size, SPLINE_CHUNK)))
        for start in range(0, flat_x.size, SPLINE_CHUNK):
            x_c = flat_x[start : start + SPLINE_CHUNK]
            out_c = flat_out[start : start + SPLINE_CHUNK]
            s, k, s2, s3, v, term = work[:, : x_c.size]
            k = k.view(np.intp)
            np.multiply(x_c, inv_step, out=s)
            s += 0.5 - lo * inv_step  # int(s) is k or k - 1; the upper knot decides
            np.minimum(s, n - 1.0, out=s)
            with np.errstate(invalid="ignore"):  # NaN and inf: the cast, and inf - inf
                np.copyto(k, s, casting="unsafe")  # NaN, -inf: negative, read as 0 by "clip"
                k += np.greater_equal(x_c, upper.take(k, mode="clip", out=s))
                np.subtract(x_c, lower.take(k, mode="clip", out=s), out=s)
            np.fmax(s, 0.0, out=s)  # 0 at the sentinels, NaN included; s >= 0 inside
            np.multiply(s, s, out=s2)
            np.multiply(s2, s, out=s3)
            for target, (c3, c2, c1, c0) in zip(out_c.T, tables):
                np.multiply(c2.take(k, mode="clip", out=v), s, out=v)
                v += c3.take(k, mode="clip", out=term)
                np.multiply(c1.take(k, mode="clip", out=term), s2, out=term)
                v += term
                np.multiply(c0.take(k, mode="clip", out=term), s3, out=term)
                np.add(v, term, out=target)
        return out

    wf.__dict__["_cached_interpolator"] = evaluate
    return evaluate
