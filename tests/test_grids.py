"""Grids, Gaussian/cat constructors, overlaps, densities, photon bookkeeping."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import qndsim as q
from qndsim import _lapack
from qndsim.errors import GridMismatchError, GridTooNarrowError, InvalidParameterError
from qndsim.grids import format_state_spec

from helpers import gaussian_amplitude

VACUUM = q.GaussianSpec(0.0, 0.25)


def test_grid_points_are_uniform():
    grid = q.Grid(-2.0, 2.0, 17)
    assert grid.step == pytest.approx(0.25)
    assert np.array_equal(grid.points, -2.0 + 0.25 * np.arange(17))
    assert grid.weights[0] == grid.weights[-1] == 0.5 * grid.step
    assert grid.weights[3] == grid.step


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        q.Grid(1.0, -1.0, 64)
    with pytest.raises(InvalidParameterError):
        q.Grid(-1.0, 1.0, 8)
    # a step of 0.0098 at a float spacing of 2: 11 distinct points of 2048
    with pytest.raises(InvalidParameterError, match=r"step 0\.00977, not above 2\*\*16 times "
                       r"the float spacing 2 at its bounds"):
        q.Grid(1e16 - 10, 1e16 + 10, 2048)


@given(
    x_min=st.floats(-1e17, 1e17),
    # the step, in float spacings at x_min: across the 2**16 bound, so that grids construct
    spacings=st.floats(2.0**15, 2.0**18),
    n=st.integers(16, 4096),
)
@settings(max_examples=200, deadline=None)
def test_every_grid_that_constructs_has_increasing_points(x_min, spacings, n):
    try:
        grid = q.Grid(x_min, x_min + spacings * math.ulp(x_min) * (n - 1), n)
    except InvalidParameterError:
        return
    assert (np.diff(grid.points) > 0).all()


@pytest.mark.parametrize("bounds", [(-math.inf, 0.0), (0.0, math.inf), (-1e308, 1e308)])
def test_grid_refuses_infinite_bounds_or_step(bounds):
    with pytest.raises(InvalidParameterError, match=r"finite bounds and step, got \["):
        q.Grid(*bounds, 16)


def test_vacuum_peak_amplitude():
    # odd point count puts x = 0 on the grid; peak is (pi/2)^(-1/4)
    vac = q.build_gaussian(VACUUM, q.Grid(-10.0, 10.0, 2049))
    peak = float(np.abs(vac.amplitudes).max())
    assert abs(peak - 0.8932438417380023) < 1e-9
    assert np.allclose(vac.amplitudes.imag, 0.0)


def test_vacuum_has_quarter_variance():
    vac = q.build_gaussian(VACUUM, q.auto_grid([VACUUM]))
    assert abs(vac.norm() - 1.0) < 1e-9
    assert abs(vac.variance() - q.VACUUM_VARIANCE) < 1e-9


def test_build_gaussian_rejects_narrow_grid():
    with pytest.raises(GridTooNarrowError):
        q.build_gaussian(q.GaussianSpec(0.0, 4.0), q.Grid(-5.0, 5.0, 256))


def test_gaussian_spec_rejects_nonpositive_variance():
    with pytest.raises(InvalidParameterError):
        q.GaussianSpec(0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        q.GaussianSpec(0.0, -1.0)


def test_cat_zero_separation_is_gaussian():
    grid = q.auto_grid([VACUUM])
    cat = q.build_cat(0.0, 0.25, grid)
    plain = q.build_gaussian(VACUUM, grid)
    assert np.allclose(cat.amplitudes, plain.amplitudes, atol=1e-12)


def test_cat_has_two_symmetric_peaks():
    spec = q.CatSpec(2.0, 0.25)
    cat = q.build_cat(2.0, 0.25, q.auto_grid([spec]))
    dens = np.abs(cat.amplitudes) ** 2
    interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
    peaks = cat.grid.points[1:-1][interior]
    assert len(peaks) == 2
    assert abs(peaks[0] + 2.0) < 0.05 and abs(peaks[1] - 2.0) < 0.05
    assert np.allclose(dens, dens[::-1], atol=1e-12)


def test_cat_grid_too_narrow():
    with pytest.raises(GridTooNarrowError):
        q.build_cat(6.0, 0.25, q.Grid(-5.0, 5.0, 256))


def test_overlap_self_is_unity():
    wf = q.build_gaussian(VACUUM, q.auto_grid([VACUUM]))
    assert abs(q.overlap(wf, wf) - 1.0) < 1e-12


def test_overlap_gaussian_offset_analytic():
    # <g(0, v)|g(d, v)> = exp(-d^2 / (8 v))
    d, v = 1.3, 0.35
    specs = [q.GaussianSpec(0.0, v), q.GaussianSpec(d, v)]
    grid = q.auto_grid(specs)
    value = q.overlap(q.build_gaussian(specs[0], grid), q.build_gaussian(specs[1], grid))
    assert abs(value - math.exp(-(d**2) / (8 * v))) < 1e-9


def test_overlap_nearly_disjoint_supports():
    cat_spec = q.CatSpec(6.0, 0.25)
    grid = q.auto_grid([VACUUM, cat_spec])
    vac = q.build_gaussian(VACUUM, grid)
    cat = q.build_cat(6.0, 0.25, grid)
    assert abs(q.overlap(vac, cat)) < 1e-3


def test_overlap_grid_mismatch():
    a = q.build_gaussian(VACUUM, q.Grid(-6.0, 6.0, 256))
    b = q.build_gaussian(VACUUM, q.Grid(-6.0, 6.0, 512))
    with pytest.raises(GridMismatchError):
        q.overlap(a, b)


def test_density_of_squeezed_state():
    spec = q.GaussianSpec(0.0, 0.05)
    dist = q.density(q.build_gaussian(spec, q.auto_grid([spec])))
    assert abs(dist.total() - 1.0) < 1e-8
    assert abs(dist.variance() - 0.05) < 1e-9
    assert dist.density.min() >= 0.0


def test_photon_number_printed_formula():
    assert q.photon_number_paper(1.0) == 0.0
    assert q.photon_number_paper(0.25) == pytest.approx(0.5625, abs=1e-12)
    # direct evaluation of (s + 1/s - 2)/4 at s = 0.01
    assert q.photon_number_paper(0.01) == pytest.approx(24.5025, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        q.photon_number_paper(0.0)
    with pytest.raises(InvalidParameterError):
        q.photon_number_paper(-2.0)


def test_parse_state_spec_round_trips():
    assert q.parse_state_spec("gaussian:0.5,0.25") == q.GaussianSpec(0.5, 0.25)
    assert q.parse_state_spec("cat:2,0.125") == q.CatSpec(2.0, 0.125)
    assert format_state_spec(q.parse_state_spec("gaussian:0,.25")) == "gaussian:0.0,0.25"
    for first, second in ((0.1 + 0.2, 1e-300), (-1e-300, 0.1 + 0.2), (0.0, 5e-324)):
        for spec in (q.GaussianSpec(first, second), q.CatSpec(abs(first), second)):
            assert q.parse_state_spec(format_state_spec(spec)) == spec
    for bad in (
        "gaussian", "gaussian:1", "ring:1,2", "gaussian:a,b", "gaussian:1,2,3",
        "cat:nan,0.2", "gaussian:inf,0.25", "gaussian:0,inf", "cat:inf,0.2", "cat:1,inf",
    ):
        with pytest.raises(InvalidParameterError):
            q.parse_state_spec(bad)


def test_overlap_grid_refinement_convergence():
    specs = [q.GaussianSpec(0.0, 0.3), q.GaussianSpec(0.7, 1e-3)]
    values = []
    for n in (2048, 4096):
        grid = q.auto_grid(specs, n_points=n)
        values.append(
            q.overlap(q.build_gaussian(specs[0], grid), q.build_gaussian(specs[1], grid))
        )
    assert abs(values[0] - values[1]) < 1e-6


def test_normalized_rejects_null_input():
    grid = q.Grid(-5.0, 5.0, 64)
    with pytest.raises(InvalidParameterError):
        q.WaveFunction.normalized(grid, np.zeros(64))
    with pytest.raises(InvalidParameterError):
        q.WaveFunction.normalized(grid, np.zeros(32))


def test_distribution_rejects_negative_density():
    grid = q.Grid(-5.0, 5.0, 64)
    values = np.ones(64)
    values[3] = -1.0
    with pytest.raises(InvalidParameterError):
        q.Distribution.normalized(grid, values)
    with pytest.raises(InvalidParameterError, match=r"shape \(32,\) does not match"):
        q.Distribution.normalized(grid, np.ones(32))
    with pytest.raises(InvalidParameterError, match="null or non-finite density"):
        q.Distribution.normalized(grid, np.zeros(64))


def test_auto_grid_spans_all_states():
    grid = q.auto_grid([q.GaussianSpec(-1.0, 0.25), q.CatSpec(3.0, 1.0)])
    assert grid.x_min <= -1.0 - 10 * 1.0 + 1e-12
    assert grid.x_max >= 3.0 + 10 * 1.0 - 1e-12
    with pytest.raises(InvalidParameterError, match="at least one state spec"):
        q.GridPolicy().grid_for([])


# the last knot x_min + 2047 step falls 8.9e-16 below x_max on the first grid
# (the spline extrapolates up to x_max) and 8.9e-16 above it on the second
@pytest.mark.parametrize("bounds", [(-7.3, 6.1), (-6.1, 5.7)])
@pytest.mark.parametrize("phase", [0.0, 1.3])  # 0: real amplitudes, no imaginary pass
# -1 with variance 0.01: the tails underflow to amplitudes of -0.0
@pytest.mark.parametrize("sign, variance", [(1.0, 0.4), (-1.0, 0.01)])
def test_interpolator_matches_cubic_spline_bitwise(bounds, phase, sign, variance):
    grid = q.Grid(*bounds, 2048)
    knots, lo, hi = grid.points, grid.x_min, grid.x_max
    # not normalized: the division would turn -0.0 into +0.0
    wf = q.WaveFunction(
        grid, sign * gaussian_amplitude(knots, 0.3, variance) * np.exp(1j * phase * knots)
    )
    x = np.concatenate(
        [
            knots,
            np.nextafter(knots, -np.inf),
            np.nextafter(knots, np.inf),
            [lo, hi],
            np.random.default_rng(7).uniform(lo - 2.0, hi + 2.0, 80_000),
        ]
    )  # more points than SPLINE_CHUNK: the evaluation runs in two chunks
    spline = CubicSpline(knots, wf.amplitudes)
    expected = np.where((x >= lo) & (x <= hi), spline(np.clip(x, lo, hi)), 0.0)
    evaluate = q.grids.amplitude_interpolator(wf)
    # phase 0: one real spline, whose float64 values equal scipy's complex ones cast back
    got = evaluate(x)
    assert got.dtype == (np.float64 if phase == 0.0 else np.complex128)
    got = got.astype(np.complex128)
    assert np.array_equal(got.view(np.float64), expected.view(np.float64))
    # 2-D input, as beam_splitter_transform passes
    out = evaluate(x[-40_000:].reshape(200, 200)).astype(np.complex128)
    assert out.shape == (200, 200)
    assert np.array_equal(out.ravel().view(np.float64), expected[-40_000:].view(np.float64))
    nonfinite = evaluate(np.array([np.nan, np.inf, -np.inf])).astype(np.complex128)
    assert np.array_equal(nonfinite.view(np.float64), np.zeros(6))


def bits(values):
    """The raw 64-bit words: unlike ==, tells -0.0 from +0.0."""
    return np.ascontiguousarray(values).view(np.uint64)


def recombined(real, imag):
    """The complex array of these parts, each kept bit for bit (real + 1j * imag is not)."""
    out = np.empty(real.shape, dtype=np.complex128)
    out.real, out.imag = real, imag
    return out


def fitted_coefficients(grid, y):
    """(4, n - 1, ...) coefficients, highest power first, from the in-repo fit of y's
    real and imaginary parts (axis 0 runs along the grid), recombined."""
    rows = np.moveaxis(y, 0, -1)  # the fit takes one curve per row
    parts = []
    for part in (rows.real, rows.imag):
        s, slope = q.grids._spline_slopes(grid, part)
        pieces = q.grids._hermite_coefficients(
            grid._spline_band.inv_dx, part[..., :-1], s[..., :-1], s[..., 1:], slope
        )
        parts.append(np.moveaxis(np.stack(pieces), -1, 1))
    return recombined(*parts)


@pytest.mark.parametrize("n", [64, 257, 2048, 8192])
@pytest.mark.parametrize("kind", ["cat", "chirped", "random"])
def test_spline_fit_matches_cubic_spline_coefficients_bitwise(n, kind):
    grid = q.Grid(-7.3, 6.1, n)
    x = grid.points
    if kind == "random":
        rng = np.random.default_rng(n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
    else:
        # negated narrow cat: tails that underflow to -0.0 (zero imaginary parts unchirped)
        y = -(gaussian_amplitude(x, 1.5, 0.01) + gaussian_amplitude(x, -1.5, 0.01))
        assert np.signbit(y[0]) and y[0] == 0.0
        y = y * np.exp(1j * 1.3 * x) if kind == "chirped" else y.astype(np.complex128)
    expected = CubicSpline(x, y).c
    assert np.array_equal(bits(fitted_coefficients(grid, y)), bits(expected))


@given(
    x_min=st.floats(-20.0, 20.0),
    width=st.floats(0.1, 60.0),
    n=st.integers(16, 4096),  # 16: the Grid minimum
    tails=st.tuples(st.floats(0.0, 0.4), st.floats(0.0, 0.4)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_spline_fit_matches_cubic_spline_bitwise_on_any_uniform_grid(
    x_min, width, n, tails, seed
):
    # dgttrf + dgttrs repeat zgtsv's elimination, part by part, only if no row is
    # interchanged
    grid = q.Grid(x_min, x_min + width, n)
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    head, tail = round(tails[0] * n), round(tails[1] * n)
    y[:head] = y[n - tail :] = complex(-0.0, -0.0)
    expected = CubicSpline(grid.points, y).c
    assert np.array_equal(bits(fitted_coefficients(grid, y)), bits(expected))


@pytest.mark.skipif(
    _lapack._DGTTRF is None or _lapack._DGTTRS is None,
    reason="numpy bundles no OpenBLAS here: scipy's dgttrf and dgttrs are the one path",
)
@pytest.mark.parametrize("n", [64, 257, 2048, 8192])
@pytest.mark.parametrize("nrhs", [1, 3, 85])
def test_spline_fit_is_bitwise_equal_on_the_bundled_and_scipy_zgtsv(monkeypatch, n, nrhs):
    # bundled dgttrf + dgttrs against scipy's dgttrf + dgttrs, and against the zgtsv
    # solve inside CubicSpline (its c[2] holds the knot derivatives), part by part
    rng = np.random.default_rng(n + nrhs)
    block = rng.normal(size=(nrhs, n)) + 1j * rng.normal(size=(nrhs, n))  # C-ordered rows
    # 1-D; a row block's parts, as conditioned_on_mode2 passes them (2 nrhs rows)
    curves = [q.grids._real_parts(block[0]), q.grids._real_parts(block)]
    bundled = [q.grids._spline_slopes(q.Grid(-7.3, 6.1, n), y)[0] for y in curves]
    x = q.Grid(-7.3, 6.1, n).points
    for y, s in zip((block[0], block), bundled):
        expected = CubicSpline(x, y, axis=-1).c[2]
        assert np.array_equal(bits(recombined(*s[..., :-1])), bits(np.moveaxis(expected, 0, -1)))
    # what a numpy without numpy.libs resolves
    monkeypatch.setattr(_lapack, "_DGTTRF", None)
    monkeypatch.setattr(_lapack, "_DGTTRS", None)
    for y, s in zip(curves, bundled):
        # a fresh grid: its band is factored by scipy's dgttrf too
        s_scipy, _ = q.grids._spline_slopes(q.Grid(-7.3, 6.1, n), y)
        assert s.shape == s_scipy.shape == y.shape
        assert np.array_equal(bits(s), bits(s_scipy))


def test_dgttrs_refuses_what_it_cannot_pass_as_pointers(monkeypatch):
    # a band's solve, on the bundled route and on scipy's, takes only a real (n, nrhs) rhs
    rhs = np.zeros((100, 1))
    for route in ("bundled", "scipy"):
        if route == "scipy":
            monkeypatch.setattr(_lapack, "_DGTTRF", None)
        solve = q.Grid(-3.0, 4.0, 100)._spline_band.solve  # a fresh grid: factored here
        for bad in (rhs[:-1], rhs.astype(complex), rhs[:, 0]):  # n - 1 rows, complex, 1-D
            with pytest.raises(ValueError, match="dgttrs needs"):
                solve(bad)
    for band in (([], [1.0], []), (np.ones(2), np.ones(4), np.ones(3))):  # n = 1; n - 2 values
        with pytest.raises(ValueError, match="dgttrf needs a band"):
            _lapack.dgttrf(*band)


def test_multi_column_fit_matches_cubic_spline_along_axis_1_bitwise():
    rng = np.random.default_rng(11)
    grid = q.Grid(-3.0, 4.0, 300)
    rows = rng.normal(size=(200, 300)) + 1j * rng.normal(size=(200, 300))
    expected = CubicSpline(grid.points, rows, axis=1).c  # (4, 299, 200)
    assert np.array_equal(bits(fitted_coefficients(grid, rows.T)), bits(expected))


def test_spline_band_is_factored_once_per_grid(monkeypatch):
    factored = []
    dgttrf = _lapack.dgttrf
    monkeypatch.setattr(_lapack, "dgttrf", lambda *band: factored.append(1) or dgttrf(*band))
    grid = q.Grid(-6.0, 6.0, 512)
    amps = q.build_gaussian(VACUUM, grid).amplitudes
    for _ in range(200):
        q.grids.amplitude_interpolator(q.WaveFunction(grid, amps))
    assert len(factored) == 1
    for count in (2, 3):
        equal = q.Grid(-6.0, 6.0, 512)
        assert equal == grid
        q.grids.amplitude_interpolator(q.WaveFunction(equal, amps))
        assert len(factored) == count


def test_repeated_spline_fits_do_not_grow_memory():
    grid = q.Grid(-12.0, 12.0, 2048)
    amps = q.build_cat(1.8, 0.2025, grid).amplitudes

    def fit(k, fresh_grids=False):
        for i in range(k):
            on = q.Grid(-12.0, 12.0 + i, 2048) if fresh_grids else grid
            q.grids.amplitude_interpolator(q.WaveFunction(on, amps))

    fit(10)
    tracemalloc.start()
    try:
        fit(10, fresh_grids=True)
        base = tracemalloc.get_traced_memory()[0]
        fit(1000)
        fit(100, fresh_grids=True)  # each grid's band goes with the grid
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # one fitted spline's real tables alone hold 4 x 2049 x 8 B = 64 KiB
    assert grown < 32 * 1024


def test_singular_spline_band_names_dgttrf(monkeypatch):
    # a grid's knots are distinct (Grid refuses a step within 2**16 float spacings), so a
    # singular band is what dgttrf reports: a nonzero info
    dgttrf = _lapack.dgttrf
    monkeypatch.setattr(_lapack, "dgttrf", lambda *band: (dgttrf(*band)[0], 3))
    grid = q.Grid(-3.0, 4.0, 16)
    with pytest.raises(InvalidParameterError, match=r"singular \(dgttrf info \d+\)"):
        q.grids.amplitude_interpolator(q.WaveFunction(grid, np.ones(16, dtype=complex)))


def test_grid_policy_halfspan_override():
    policy = q.GridPolicy(n_points=256, halfspan=4.0)
    grid = policy.grid_for([q.GaussianSpec(1.0, 0.25)])
    assert (grid.x_min, grid.x_max, grid.n_points) == (-3.0, 5.0, 256)


@given(mean=st.floats(-3, 3), variance=st.floats(1e-3, 4.0))
@settings(max_examples=40, deadline=None)
def test_gaussian_norm_and_edge_decay(mean, variance):
    spec = q.GaussianSpec(mean, variance)
    wf = q.build_gaussian(spec, q.auto_grid([spec], n_points=512))
    assert abs(wf.norm() - 1.0) < 1e-9
    assert wf.edge_leak() < 1e-6


@given(
    v1=st.floats(0.05, 2.0),
    v2=st.floats(0.05, 2.0),
    m2=st.floats(-1.5, 1.5),
    k=st.floats(-3.0, 3.0),
)
@settings(max_examples=30, deadline=None)
def test_overlap_conjugate_symmetry(v1, v2, m2, k):
    # one state carries a plane-wave phase so the conjugation is non-trivial
    specs = [q.GaussianSpec(0.0, v1), q.GaussianSpec(m2, v2)]
    grid = q.auto_grid(specs, n_points=512)
    a = q.build_gaussian(specs[0], grid)
    b_values = gaussian_amplitude(grid.points, m2, v2) * np.exp(1j * k * grid.points)
    b = q.WaveFunction.normalized(grid, b_values)
    assert abs(q.overlap(a, b) - q.overlap(b, a).conjugate()) < 1e-12
    assert abs(q.overlap(a, b)) <= 1.0 + 1e-9


@given(s=st.floats(1e-3, 1e3))
@settings(max_examples=60, deadline=None)
def test_photon_number_inversion_symmetry(s):
    assert abs(q.photon_number_paper(s) - q.photon_number_paper(1.0 / s)) < 1e-12


@given(separation=st.floats(0.0, 4.0), variance=st.floats(0.01, 1.0))
@settings(max_examples=30, deadline=None)
def test_cat_norm_property(separation, variance):
    spec = q.CatSpec(separation, variance)
    cat = q.build_cat(separation, variance, q.auto_grid([spec], n_points=512))
    assert abs(cat.norm() - 1.0) < 1e-9


def test_densities_integrate_to_one():
    for spec in (q.GaussianSpec(0.3, 0.7), q.GaussianSpec(-2.0, 0.02)):
        wf = q.build_gaussian(spec, q.auto_grid([spec]))
        dist = q.density(wf)
        assert abs(dist.total() - 1.0) < 1e-8
