"""Measurement-chain operations against analytic and cross-route oracles."""

import itertools
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.stats import norm

import qndsim as q
from qndsim import _lapack
from qndsim.errors import (
    DegeneratePhaseError,
    GridTooNarrowError,
    InvalidParameterError,
    NullOutcomeError,
)
from qndsim.grids import amplitude_interpolator

from helpers import gaussian_amplitude, gaussian_density, l1_distance, l2_distance

VACUUM = q.GaussianSpec(0.0, 0.25)
QUARTER_PI = math.pi / 4


def build(spec, grid):
    return q.build_gaussian(spec, grid)


def readout_inputs(n_points, chirp=0.0):
    """Cat signal (times exp(i chirp x)) and vacuum probe, as the readout benchmark uses."""
    spec = q.CatSpec(2.0, 0.25)
    policy = q.GridPolicy(n_points=n_points)
    grid = policy.grid_for([spec])
    cat = q.build_cat(spec.separation, spec.component_variance, grid)
    signal = q.WaveFunction(grid, cat.amplitudes * np.exp(1j * chirp * grid.points))
    return signal, build(VACUUM, policy.grid_for([VACUUM]))


def readout_joint_state(n_points, chirp=0.0):
    """The readout inputs mixed at phi = 0.7, as the readout benchmark does."""
    return q.beam_splitter_transform(*readout_inputs(n_points, chirp), 0.7)


# --- beam splitter -----------------------------------------------------------


def test_beam_splitter_identity_phase_equal_pair():
    # an equal-variance zero-mean pair is rotation invariant, so the tiny
    # phase must leave the product exactly (up to interpolation)
    spec = q.GaussianSpec(0.0, 0.17)
    grid = q.auto_grid([spec], n_points=512)
    pair = build(spec, grid)
    joint = q.beam_splitter_transform(pair, pair, 1e-4)
    expected = gaussian_amplitude(joint.grid1.points, 0.0, 0.17)[:, None] * gaussian_amplitude(
        joint.grid2.points, 0.0, 0.17
    )[None, :]
    dev = joint.amplitudes - expected
    l2 = math.sqrt(float(joint.grid1.weights @ (np.abs(dev) ** 2 @ joint.grid2.weights)))
    assert l2 < 1e-6
    assert abs(joint.norm() - 1.0) < 1e-6


def test_beam_splitter_identity_phase_marginals():
    specs = [q.GaussianSpec(0.0, 0.1), q.GaussianSpec(0.0, 0.5)]
    grid = q.auto_grid(specs, n_points=768)
    joint = q.beam_splitter_transform(build(specs[0], grid), build(specs[1], grid), 1e-4)
    m1, m2 = joint.marginal(1), joint.marginal(2)
    assert l1_distance(m1.grid, m1.density, gaussian_density(m1.grid.points, 0.0, 0.1)) < 1e-6
    assert l1_distance(m2.grid, m2.density, gaussian_density(m2.grid.points, 0.0, 0.5)) < 1e-6
    with pytest.raises(InvalidParameterError, match="mode must be 1 or 2, got 3"):
        joint.marginal(3)


def test_beam_splitter_swap_phase():
    specs = [q.GaussianSpec(0.0, 0.1), q.GaussianSpec(0.0, 0.5)]
    grid = q.auto_grid(specs, n_points=768)
    joint = q.beam_splitter_transform(
        build(specs[0], grid), build(specs[1], grid), math.pi / 2 - 1e-4
    )
    m1 = joint.marginal(1)
    assert l1_distance(m1.grid, m1.density, gaussian_density(m1.grid.points, 0.0, 0.5)) < 1e-5


def test_beam_splitter_vacuum_pair_invariant():
    grid = q.auto_grid([VACUUM], n_points=512)
    vac = build(VACUUM, grid)
    joint = q.beam_splitter_transform(vac, vac, QUARTER_PI)
    expected = gaussian_amplitude(joint.grid1.points, 0.0, 0.25)[:, None] * gaussian_amplitude(
        joint.grid2.points, 0.0, 0.25
    )[None, :]
    assert np.abs(joint.amplitudes - expected).max() < 1e-6


@pytest.mark.parametrize("chirp", [0.0, 1.3])  # 0: a real signal
def test_beam_splitter_row_blocks_match_one_shot_formula_bitwise(chirp):
    # 1000 rows: 62 row blocks of 16 and a last one of 8
    signal, probe = readout_inputs(1000, chirp)
    joint = q.beam_splitter_transform(signal, probe, 0.7)
    c, s = math.cos(0.7), math.sin(0.7)
    y1, y2 = joint.grid1.points[:, None], joint.grid2.points[None, :]
    expected = amplitude_interpolator(signal)(y1 * c - y2 * s) * amplitude_interpolator(probe)(
        y1 * s + y2 * c
    )
    got, expected = (a.astype(np.complex128) for a in (joint.amplitudes, expected))
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_beam_splitter_builds_row_blocks():
    # the one-shot formula peaked at 27 MB on this 768 x 768 state, row blocks of 2**16
    # points at 13.9 MB, and of 2**14 (21 rows) at 10.7 MB; the state is 9.4 MB
    signal, probe = readout_inputs(768)
    tracemalloc.start()
    try:
        q.beam_splitter_transform(signal, probe, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def random_joint(n1, n2, dtype):
    rng = np.random.default_rng([n1, n2])
    amp = rng.standard_normal((n1, n2)).astype(dtype)
    if dtype == np.complex128:
        amp.imag = rng.standard_normal((n1, n2))
    return q.JointWaveFunction(q.Grid(-5.0, 4.0, n1), q.Grid(-3.0, 6.0, n2), amp)


def assert_mass_matches_one_shot_products(joint):
    prob = np.abs(joint.amplitudes) ** 2
    w1, w2 = joint.grid1.weights, joint.grid2.weights
    assert np.array_equal(joint._mass(1).view(np.uint64), (prob @ w2).view(np.uint64))
    assert np.array_equal(joint._mass(2).view(np.uint64), (w1 @ prob).view(np.uint64))
    assert joint.norm() == math.sqrt(float(w1 @ (prob @ w2)))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape", [(768, 768), (1000, 1000), (37, 3000), (3000, 37)])
def test_joint_mass_blocks_match_one_shot_products_bitwise(shape, dtype):
    # blocks of 16 rows or columns at 768 and 1000; 3000 x 37 reduces 440 rows or 8
    # columns at a time.  Blocks of 12 broke the bits at 37 x 3000 and 3000 x 37.
    assert_mass_matches_one_shot_products(random_joint(*shape, dtype))


def test_joint_mass_of_the_readout_state_matches_one_shot_products_bitwise():
    assert_mass_matches_one_shot_products(readout_joint_state(768, 1.3))


@pytest.mark.parametrize("reduce", ["norm", "marginal1", "marginal2"])
def test_joint_reductions_form_no_full_probability_matrix(reduce):
    # |A|^2 whole is 4.7 MB on this 768 x 768 state; blocks of 16 rows or columns peak
    # at 0.2 MB
    joint = readout_joint_state(768, 1.3)
    call = joint.norm if reduce == "norm" else lambda: joint.marginal(int(reduce[-1]))
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


# --- homodyne ----------------------------------------------------------------


def test_homodyne_vacuum_probe_blurs_by_quarter_tan():
    # gaussian signal + vacuum probe at pi/4: outcome variance 1/4 + 1/4 = 1/2
    grid = q.auto_grid([VACUUM])
    p = q.homodyne_distribution(build(VACUUM, grid), build(VACUUM, grid), QUARTER_PI)
    assert abs(p.variance() - 0.5) < 1e-6
    assert abs(p.total() - 1.0) < 1e-8


def test_homodyne_matches_joint_marginal():
    # cross-route: direct quadrature vs the mode-2 marginal of the joint
    # state mapped through x0 = -X / sin(phi) with Jacobian sin(phi)
    specs = [q.GaussianSpec(0.0, 0.25), q.GaussianSpec(0.0, 0.4)]
    grid = q.auto_grid(specs, n_points=1024)
    signal, probe = build(specs[0], grid), build(specs[1], grid)
    phi = 0.9
    p = q.homodyne_distribution(signal, probe, phi)
    m2 = q.beam_splitter_transform(signal, probe, phi).marginal(2)
    spline = CubicSpline(m2.grid.points, m2.density)
    mapped = math.sin(phi) * spline(-p.grid.points * math.sin(phi))
    assert l1_distance(p.grid, p.density, mapped) < 1e-4


def test_homodyne_vacuum_probe_convolution_off_balance():
    # vacuum probe at phi != pi/4: blur variance is 1 / (4 tan^2 phi)
    phi = 0.6
    grid = q.auto_grid([VACUUM])
    p = q.homodyne_distribution(build(VACUUM, grid), build(VACUUM, grid), phi)
    blur = 1.0 / (4.0 * math.tan(phi) ** 2)
    oracle = gaussian_density(p.grid.points, 0.0, 0.25 + blur)
    assert l1_distance(p.grid, p.density, oracle) < 1e-6


def test_homodyne_cat_signal_analytic_convolution():
    # |cat|^2 is a three-Gaussian mixture (two peaks plus the overlap term),
    # so the vacuum-probe outcome density is the same mixture blurred
    sep, v = 2.0, 0.25
    cat_spec = q.CatSpec(sep, v)
    cat = q.build_cat(sep, v, q.auto_grid([cat_spec]))
    probe = build(VACUUM, q.auto_grid([VACUUM]))
    p = q.homodyne_distribution(cat, probe, QUARTER_PI)
    blur = 0.25  # vacuum probe, tan(pi/4) = 1
    cross = 2.0 * math.exp(-(sep**2) / (2.0 * v))
    mix = (
        gaussian_density(p.grid.points, sep, v + blur)
        + gaussian_density(p.grid.points, -sep, v + blur)
        + cross * gaussian_density(p.grid.points, 0.0, v + blur)
    ) / (2.0 + cross)
    assert l1_distance(p.grid, p.density, mix) < 1e-6


def test_homodyne_anti_squeezed_flattens():
    probe_var = 2500.0  # filter variance 1e4 * sigma_s^2 at tan(phi) = 1
    probe_spec = q.GaussianSpec(0.0, probe_var)
    p = q.homodyne_distribution(
        build(VACUUM, q.auto_grid([VACUUM])),
        build(probe_spec, q.auto_grid([probe_spec])),
        QUARTER_PI,
    )
    assert abs(p.variance() - probe_var) / probe_var < 0.01
    assert abs(p.mean()) < 0.1


@pytest.mark.parametrize("n_outcomes", [1023, 300, 64])  # strides k = 2, 9 and 41
def test_outcome_kernel_is_one_vector_and_matches_one_shot_kernel(n_outcomes):
    phi, t = 0.7, math.tan(0.7)
    cat, probe_spec = q.CatSpec(1.8, 0.2025), q.GaussianSpec(0.0, 0.3)
    signal = q.build_cat(1.8, 0.2025, q.auto_grid([cat], n_points=1024))
    probe = build(probe_spec, q.auto_grid([probe_spec], n_points=1024))

    ogrid, p_raw, kappa, k = q.chain._outcome_pass(signal, probe, phi, n_outcomes)
    assert ogrid == q.outcome_grid(signal, probe, phi, n_points=n_outcomes)
    assert kappa.shape == (1024 + k * (ogrid.n_points - 1),)  # one vector: K's rows overlap
    kernel = sliding_window_view(kappa, 1024)[::-k]
    y, x0 = signal.grid.points, ogrid.points
    one_shot = q.grids.amplitude_interpolator(probe)(t * (y[None, :] - x0[:, None]))
    # kappa's argument t h d and the one-shot t (y - x0) differ in the last bits:
    # 2.4e-15 at most here, against a kernel peak of 0.85
    assert np.abs(kernel - one_shot).max() < 1e-14

    mass = np.abs(signal.amplitudes) ** 2 * signal.grid.weights
    expected = q.Distribution.normalized(ogrid, t * (np.abs(one_shot) ** 2 @ mass))
    density = q.homodyne_distribution(signal, probe, phi, n_outcomes=n_outcomes).density
    assert np.array_equal(density, q.Distribution.normalized(ogrid, p_raw).density)
    # FFT correlation against the direct sum: 5e-16 at most, density peak 0.25
    assert np.abs(density - expected.density).max() < 1e-14
    # the complex row sums K @ m that <psi_s|rho|psi_s> squares: 7.8e-16 at most, peak 0.38
    amp = q.kernel._row_sums(kappa, mass, k, ogrid.n_points)
    assert np.abs(amp - one_shot @ mass).max() < 1e-14


@pytest.mark.parametrize(
    "signal_spec, probe_var, phi, n_outcomes",
    [
        (q.GaussianSpec(0.0, 0.25), 0.25, QUARTER_PI, None),  # k = 1, node count 2318
        (q.GaussianSpec(1.3, 0.1), 0.05, 0.4, 700),
        (q.CatSpec(1.8, 0.2025), 4.0, 1.1, 128),  # wide probe: nodes start below the grid
        (q.CatSpec(2.5, 0.05), 0.25, 1.35, 128),  # the filter width caps k at 24, not 68
    ],
)
def test_outcome_grid_lies_on_signal_lattice(signal_spec, probe_var, phi, n_outcomes):
    signal = q.build_state(signal_spec, q.auto_grid([signal_spec], n_points=2048))
    probe_spec = q.GaussianSpec(0.0, probe_var)
    probe = build(probe_spec, q.auto_grid([probe_spec], n_points=2048))
    ogrid = q.outcome_grid(signal, probe, phi, n_points=n_outcomes)
    h = signal.grid.step
    steps = (ogrid.points - signal.grid.x_min) / h
    assert np.abs(steps - np.round(steps)).max() < 1e-9
    k = round(ogrid.step / h)
    requested = (n_outcomes or 2048) - 1
    combined = math.sqrt(signal.variance() + probe.variance() / math.tan(phi) ** 2)
    filter_width = math.sqrt(probe.variance()) / math.tan(phi)
    assert k == max(1, min(round(2 * 8 * combined / requested / h), int(filter_width / h)))
    assert k * h <= filter_width
    center = signal.mean()
    assert ogrid.x_min <= center - 8 * combined and center + 8 * combined <= ogrid.x_max
    assert ogrid.x_max - ogrid.x_min < 16 * combined + 2 * k * h  # at most one stride over
    if n_outcomes is None:
        assert ogrid.n_points == 2318
    if probe_var == 4.0:
        assert ogrid.x_min < signal.grid.x_min


@pytest.mark.parametrize("route", [q.homodyne_distribution, q.output_ensemble])
def test_zero_outcome_nodes_raises_instead_of_taking_the_default(route):
    vac = build(VACUUM, q.auto_grid([VACUUM], n_points=256))
    with pytest.raises(InvalidParameterError, match="n_points >= 16, got 0"):
        route(vac, vac, QUARTER_PI, n_outcomes=0)


# An even signal and an even probe give an even p.  The outcome nodes sit on the signal
# lattice with stride k, so on a grid of odd N about 0 the nodes' mirrors -x0 are nodes
# or none is.  p is compared at node pairs only: interpolating it would be off by 7e-4.
@given(separation=st.floats(0.0, 3.0), component_variance=st.floats(0.05, 1.0),
       probe_var=st.floats(0.05, 4.0), phi=st.floats(0.2, 1.35),
       n_points=st.sampled_from([257, 513, 1025]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_even_cat_gives_an_even_outcome_density(separation, component_variance, probe_var,
                                               phi, n_points):
    spec, probe_spec = q.CatSpec(separation, component_variance), q.GaussianSpec(0.0, probe_var)
    signal = q.build_state(spec, q.auto_grid([spec], n_points=n_points))
    probe = build(probe_spec, q.auto_grid([probe_spec], n_points=n_points))
    p = q.homodyne_distribution(signal, probe, phi)
    nodes, step = p.grid.points, p.grid.step
    mirror = np.clip(np.rint((-nodes - p.grid.x_min) / step).astype(int), 0, nodes.size - 1)
    paired = np.abs(nodes[mirror] + nodes) <= 1e-6 * step
    assume(paired.any())
    assert np.max(np.abs(p.density - p.density[mirror])[paired]) <= 1e-14 * p.density.max()


def test_homodyne_degenerate_phase():
    grid = q.auto_grid([VACUUM])
    vac = build(VACUUM, grid)
    for phi in (0.0, math.pi / 2, 1.6, -0.3, math.inf, -math.inf):
        with pytest.raises(DegeneratePhaseError):
            q.homodyne_distribution(vac, vac, phi)


# --- conditioning ------------------------------------------------------------


def test_conditional_raw_matches_joint_slice():
    specs = [q.GaussianSpec(0.0, 0.25), q.GaussianSpec(0.0, 0.4)]
    grid = q.auto_grid(specs, n_points=1024)
    signal, probe = build(specs[0], grid), build(specs[1], grid)
    phi, x0 = 0.9, 0.7
    joint = q.beam_splitter_transform(signal, probe, phi)
    sliced = joint.conditioned_on_mode2(-x0 * math.sin(phi))
    raw = q.conditional_state_raw(signal, probe, phi, x0, out_grid=joint.grid1)
    assert l2_distance(sliced, raw) < 1e-5


def mode2_cut(joint, y_cut):
    """The joint state on its mode-2 knots up to y_cut: a reading at the cut grid's x_max
    carries mass, where the full grid's edge slices are null."""
    k = int(np.searchsorted(joint.grid2.points, y_cut))
    grid2 = q.Grid(joint.grid2.x_min, float(joint.grid2.points[k]), k + 1)
    amplitudes = np.ascontiguousarray(joint.amplitudes[:, : k + 1])
    return q.JointWaveFunction(joint.grid1, grid2, amplitudes)


def assert_slices_match_cubic_spline(joint):
    """Slices at a knot near -0.5, its nextafter, and grid2.x_max of the state cut at
    y2 = 2.8 equal CubicSpline's along mode 2, bit for bit."""
    cut = mode2_cut(joint, 2.8)
    knot = float(joint.grid2.points[np.searchsorted(joint.grid2.points, -0.5)])
    readings = ((joint, knot), (joint, np.nextafter(knot, np.inf)), (cut, cut.grid2.x_max))
    for state, reading in readings:
        spline = CubicSpline(state.grid2.points, state.amplitudes, axis=1)
        expected = q.WaveFunction.normalized(state.grid1, spline(reading)).amplitudes
        got = state.conditioned_on_mode2(reading).amplitudes
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("chirp", [0.0, 1.3])  # 0: zero imaginary parts
def test_conditioned_on_mode2_matches_cubic_spline_bitwise(chirp):
    # 300 rows: 5 row blocks of 54 and a last one of 30 (3 of 81 and one of 57 once cut)
    assert_slices_match_cubic_spline(readout_joint_state(300, chirp))


def test_conditioned_on_mode2_row_blocks_match_cubic_spline_bitwise():
    # 768 rows: 36 row blocks of 21 and a last one of 12 (24 of 31 and one of 24 once cut)
    assert_slices_match_cubic_spline(readout_joint_state(768, 1.3))


def test_spline_fits_solve_real_parts_by_one_dgttrs_call(monkeypatch):
    # a real state is fitted as one float64 column, a chirped one as its real and
    # imaginary parts; a mode-2 reading solves each row block's rows, or their two parts
    grid = q.Grid(-12.0, 12.0, 2048)
    cat = q.build_cat(1.8, 0.2025, grid)
    amplitude_interpolator(q.WaveFunction(grid, cat.amplitudes))  # factors the band
    tracemalloc.start()
    try:
        amplitude_interpolator(q.WaveFunction(grid, cat.amplitudes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024  # the complex fit peaked at 363 kB

    solved = []
    dgttrf = _lapack.dgttrf

    def recording(*band):
        solve, info = dgttrf(*band)

        def recorded(rhs):
            solved.append((rhs.shape[1], rhs.dtype))
            return solve(rhs)

        return recorded, info

    monkeypatch.setattr(_lapack, "dgttrf", recording)
    grid = q.Grid(-12.0, 12.0, 2048)  # a fresh grid: its band is factored after the patch
    cat = q.WaveFunction(grid, cat.amplitudes)
    chirped = q.WaveFunction(grid, cat.amplitudes * np.exp(1j * 1.3 * grid.points))
    for wf, parts in ((cat, 1), (chirped, 2)):
        solved.clear()
        amplitude_interpolator(wf)
        assert solved == [(parts, np.float64)]
    step = q.grids.SPLINE_CHUNK // 768  # rows per block
    for chirp, parts in ((0.0, 1), (1.3, 2)):
        joint = readout_joint_state(768, chirp)  # fresh grids
        solved.clear()
        joint.conditioned_on_mode2(-0.37)
        rows = [min(step, 768 - start) for start in range(0, 768, step)]  # 36 x 21 and 12
        assert solved == [(parts * r, np.float64) for r in rows]


def test_conditioned_on_mode2_forms_one_interval():
    # fitting whole coefficient arrays peaked at 117 MB on this 768 x 768 state, one
    # multi-column solve over all rows at 36 MB, row blocks of 2**16 points at 2.8 MB
    # and of 2**14 at 0.84 MB
    joint = readout_joint_state(768)
    tracemalloc.start()
    try:
        joint.conditioned_on_mode2(-0.37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_conditioned_on_mode2_null_slice():
    joint = readout_joint_state(768)
    message = re.escape(f"reading {joint.grid2.x_min} leaves a slice of mass ")
    with pytest.raises(NullOutcomeError, match=message):
        joint.conditioned_on_mode2(joint.grid2.x_min)


def test_conditioned_on_mode2_refuses_a_reading_off_grid2():
    joint = readout_joint_state(300)
    reading = joint.grid2.x_max + 1e-3
    with pytest.raises(GridTooNarrowError, match=re.escape(f"reading {reading} lies outside")):
        joint.conditioned_on_mode2(reading)


def test_conditional_raw_vacuum_pair_at_origin():
    # at pi/4 with vacuum pair and x0 = 0 the product collapses to a
    # zero-mean gaussian of the same variance
    grid = q.auto_grid([VACUUM])
    vac = build(VACUUM, grid)
    raw = q.conditional_state_raw(vac, vac, QUARTER_PI, 0.0)
    assert abs(raw.norm() - 1.0) < 1e-9
    assert abs(raw.mean()) < 1e-9
    assert abs(raw.variance() - 0.25) < 1e-9


def test_conditional_raw_null_outcome():
    squeezed = q.GaussianSpec(0.0, 2.5e-5)
    signal = build(VACUUM, q.auto_grid([VACUUM]))
    probe = build(squeezed, q.auto_grid([squeezed]))
    with pytest.raises(NullOutcomeError):
        q.conditional_state_raw(signal, probe, QUARTER_PI, 10.0)


def test_raw_and_closed_form_refuse_the_same_null_outcome():
    # the raw stage reads p(x0) = sin(phi) sum w |phi_x0|^2 off its own values, which equals
    # the closed form's tan(phi) sum w |psi_s K|^2; with tan(phi) it would read 1.74e-12
    vac = build(VACUUM, q.auto_grid([VACUUM]))
    reported = []
    for stage in (q.conditional_output, q.conditional_state_raw):
        with pytest.raises(NullOutcomeError) as err:
            stage(vac, vac, 1.2, 4.0)
        reported.append(re.search(r"p\(x0\)=(\S+) at x0=4.0", str(err.value)).group(1))
    assert reported == ["6.291e-13", "6.291e-13"]


def test_conditional_raw_refuses_state_cut_off_by_its_grid():
    # the signal factor centers near y = 8, past auto_grid's [-4.7, 5.3]: unchecked, the
    # renormalized raw state's last amplitude is 4.8% of its peak
    spec, probe_spec = q.GaussianSpec(0.3, 0.25), q.GaussianSpec(0.0, 1.0)
    signal = build(spec, q.auto_grid([spec]))
    probe = build(probe_spec, q.auto_grid([probe_spec]))
    with pytest.raises(GridTooNarrowError, match=r"x0=-3\.0 is cut off .* 4\.763e-02 of its peak"):
        q.conditional_state_raw(signal, probe, 1.2, -3.0)


# --- feedback displacement ---------------------------------------------------


def test_displace_zero_is_identity():
    grid = q.auto_grid([VACUUM])
    vac = build(VACUUM, grid)
    out = q.feedback_displace(vac, 0.0, 0.8)
    assert np.allclose(out.amplitudes, vac.amplitudes, atol=1e-12)


def test_displace_shifts_mean_by_x0_sin_tan():
    spec = q.GaussianSpec(-0.4, 0.3)
    wf = build(spec, q.auto_grid([spec]))
    phi, x0 = 0.8, 0.9
    shift = x0 * math.sin(phi) * math.tan(phi)
    out = q.feedback_displace(wf, x0, phi)
    assert abs(out.mean() - (-0.4 + shift)) < 1e-6
    assert abs(out.norm() - 1.0) < 1e-9


def test_displace_rejects_support_leaving_grid():
    spec = q.GaussianSpec(0.0, 0.25)
    wf = build(spec, q.Grid(-4.5, 4.5, 512))
    with pytest.raises(GridTooNarrowError):
        q.feedback_displace(wf, 4.0, 1.2)


def test_displaced_raw_matches_direct_pattern():
    # displacing the raw conditional state must land on the pattern
    # psi_s(y cos) psi_p(y sin - x0 tan), here evaluated from the analytic
    # gaussian forms rather than through the library interpolators
    sig_spec, probe_spec = q.GaussianSpec(0.0, 0.25), q.GaussianSpec(0.0, 0.3)
    grid = q.Grid(-15.0, 15.0, 4096)
    signal, probe = build(sig_spec, grid), build(probe_spec, grid)
    phi, x0 = 0.8, 0.9
    staged = q.feedback_displace(q.conditional_state_raw(signal, probe, phi, x0), x0, phi)
    y = grid.points
    pattern = gaussian_amplitude(y * math.cos(phi), 0.0, 0.25) * gaussian_amplitude(
        y * math.sin(phi) - x0 * math.tan(phi), 0.0, 0.3
    )
    expected = q.WaveFunction.normalized(grid, pattern)
    assert l2_distance(staged, expected) < 1e-6


# --- output squeezing --------------------------------------------------------


def test_squeeze_near_zero_phase_is_identity():
    grid = q.auto_grid([VACUUM])
    vac = build(VACUUM, grid)
    out = q.output_squeeze(vac, 1e-4)
    assert l2_distance(out, vac) < 1e-6


def test_squeeze_rejects_support_leaving_grid():
    spec = q.GaussianSpec(5.0, 0.1)
    wf = build(spec, q.Grid(1.0, 9.0, 512))
    with pytest.raises(GridTooNarrowError, match=r"rescaled support \[0\.833\d*, 2\.790\d*\]"):
        q.output_squeeze(wf, 1.2)


def test_squeeze_scales_variance_by_cos_squared():
    spec = q.GaussianSpec(0.0, 0.3)
    wf = build(spec, q.auto_grid([spec]))
    phi = 1.1
    out = q.output_squeeze(wf, phi)
    assert abs(out.variance() - 0.3 * math.cos(phi) ** 2) < 1e-6


def test_pipeline_equals_closed_form_single_combo():
    grid = q.Grid(-20.0, 20.0, 8192)
    signal = build(q.GaussianSpec(0.0, 0.25), grid)
    probe = build(q.GaussianSpec(0.0, 0.4), grid)
    phi, x0 = 0.9, -0.8
    staged = q.output_squeeze(
        q.feedback_displace(q.conditional_state_raw(signal, probe, phi, x0), x0, phi), phi
    )
    assert l2_distance(staged, q.conditional_output(signal, probe, phi, x0)) < 1e-6


def cubic_spline_evaluator(wf):
    """scipy's not-a-knot CubicSpline of the amplitudes, zero outside the grid.  The
    amplitudes go in as complex: scipy fits a real y by divisions where its complex fit,
    like the in-repo one, multiplies by reciprocals (see `_spline_slopes`)."""
    knots, lo, hi = wf.grid.points, wf.grid.x_min, wf.grid.x_max
    spline = CubicSpline(knots, wf.amplitudes.astype(np.complex128))
    return lambda x: np.where((x >= lo) & (x <= hi), spline(np.clip(x, lo, hi)), 0.0)


@pytest.mark.parametrize("x0", [-0.5, 0.3])
def test_staged_pipeline_matches_cubic_spline_stages_bitwise(x0):
    spec = q.CatSpec(1.8, 0.2025)
    policy = q.GridPolicy(n_points=2048, halfspan=12.0)
    signal = q.build_state(spec, policy.grid_for([spec]))
    probe = build(VACUUM, policy.grid_for([VACUUM]))
    phi = 0.7
    staged = q.output_squeeze(
        q.feedback_displace(q.conditional_state_raw(signal, probe, phi, x0), x0, phi), phi
    )
    # the same three stages, each spline from CubicSpline
    c, s = math.cos(phi), math.sin(phi)
    grid, y = signal.grid, signal.grid.points
    raw = q.WaveFunction.normalized(
        grid,
        cubic_spline_evaluator(signal)(y * c + x0 * s * s)
        * cubic_spline_evaluator(probe)(y * s - x0 * c * s),
    )
    shifted = q.WaveFunction.normalized(
        grid, cubic_spline_evaluator(raw)(y - x0 * math.sin(phi) * math.tan(phi))
    )
    squeezed = cubic_spline_evaluator(shifted)(y / c) / math.sqrt(c)
    expected = q.WaveFunction.normalized(grid, squeezed)
    got = staged.amplitudes.astype(np.complex128)
    assert np.array_equal(got.view(np.uint64), expected.amplitudes.view(np.uint64))


# --- conditional output (closed form) ----------------------------------------


def test_conditional_output_gaussian_moments():
    # psi_s(x) psi_p((x - x0) t) is the signal times a Gaussian of density variance
    # v_f = v_p / t^2 centred at x0; each state on its own auto grid, as the CLI builds them
    # (one shared grid cannot resolve the narrowest outputs: errors of 1.5e-5 there).
    # Worst errors here: 1.4e-11 (mean), 4.4e-11 (relative variance), 6.0e-12 (overlap^2).
    signals = [q.GaussianSpec(0.0, 0.25), q.GaussianSpec(0.7, 0.1), q.GaussianSpec(-1.2, 1.5)]
    probes = [q.GaussianSpec(0.0, v_p) for v_p in (0.0025, 0.25, 25.0)]
    for signal_spec, probe_spec in itertools.product(signals, probes):
        signal = build(signal_spec, q.auto_grid([signal_spec]))
        probe = build(probe_spec, q.auto_grid([probe_spec]))
        m_s, v_s = signal_spec.mean, signal_spec.variance
        for phi, x0 in itertools.product((0.3, QUARTER_PI, 1.2), (-0.8, 0.0, 0.5, 1.3)):
            case = (signal_spec, probe_spec.variance, phi, x0)
            out = q.conditional_output(signal, probe, phi, x0)
            v_f = probe_spec.variance / math.tan(phi) ** 2
            mean = (m_s * v_f + x0 * v_s) / (v_s + v_f)
            var = v_s * v_f / (v_s + v_f)
            overlap_sq = (2.0 * math.sqrt(v_s * var) / (v_s + var)
                          * math.exp(-((m_s - mean) ** 2) / (2.0 * (v_s + var))))
            assert abs(out.mean() - mean) < 1e-9, case
            assert abs(out.variance() - var) / var < 1e-9, case
            assert abs(abs(q.overlap(signal, out)) ** 2 - overlap_sq) < 1e-9, case
            assert abs(out.norm() - 1.0) < 1e-9, case


def test_conditional_output_projective_invariance():
    grid = q.auto_grid([VACUUM])
    signal = build(VACUUM, grid)
    probe = build(VACUUM, grid)
    reference = q.conditional_output(signal, probe, QUARTER_PI, 0.4)
    scaled_real = q.WaveFunction(grid, signal.amplitudes * 2.5)
    assert np.allclose(
        q.conditional_output(scaled_real, probe, QUARTER_PI, 0.4).amplitudes,
        reference.amplitudes,
        atol=1e-9,
    )
    scaled_complex = q.WaveFunction(grid, signal.amplitudes * (0.3 + 0.4j))
    out = q.conditional_output(scaled_complex, probe, QUARTER_PI, 0.4)
    assert abs(abs(q.overlap(out, reference)) - 1.0) < 1e-9


def test_conditional_output_null_outcome():
    squeezed = q.GaussianSpec(0.0, 2.5e-5)
    signal = build(VACUUM, q.auto_grid([VACUUM]))
    probe = build(squeezed, q.auto_grid([squeezed]))
    with pytest.raises(NullOutcomeError):
        q.conditional_output(signal, probe, QUARTER_PI, 10.0)


@pytest.mark.parametrize("mean", [1.0, 37.5, 1e4, 1e6])
def test_p_and_conditional_outputs_shift_with_the_signal_mean(mean):
    # gaussian:a,0.3 against gaussian:0,0.3: p on the same node count, shifted by a, and
    # psi_x0 at x0 + a; worst at a = 1e6: x_min 1.2e-10 off a, p 3.1e-12, psi 8.8e-11
    probe = build(VACUUM, q.auto_grid([VACUUM]))
    centred_spec, moved_spec = q.GaussianSpec(0.0, 0.3), q.GaussianSpec(mean, 0.3)
    centred = build(centred_spec, q.auto_grid([centred_spec]))
    moved = build(moved_spec, q.auto_grid([moved_spec]))
    p0 = q.homodyne_distribution(centred, probe, 0.7)
    pa = q.homodyne_distribution(moved, probe, 0.7)
    assert pa.grid.n_points == p0.grid.n_points
    assert abs(pa.grid.x_min - p0.grid.x_min - mean) <= 1e-9
    assert np.abs(pa.density - p0.density).max() <= 1e-9
    for x0 in (-0.5, 0.0, 0.8):
        out0 = q.conditional_output(centred, probe, 0.7, x0)
        outa = q.conditional_output(moved, probe, 0.7, x0 + mean)
        assert np.abs(outa.amplitudes - out0.amplitudes).max() <= 1e-9


def test_outcome_record_maps_reading():
    grid = q.auto_grid([VACUUM])
    p = q.homodyne_distribution(build(VACUUM, grid), build(VACUUM, grid), QUARTER_PI)
    event = q.make_outcome(p, 0.5, QUARTER_PI)
    assert event.raw_X == -0.5 * math.sin(QUARTER_PI)
    assert event.density_at_x0 == pytest.approx(gaussian_density(0.5, 0.0, 0.5), rel=1e-4)


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_outcome_entry_points_refuse_a_nonfinite_value_by_name(x0):
    # unchecked, a NaN x0 surfaces as Outcome(nan, nan, nan), as a null density at x0=nan
    # or as a mode-2 reading outside the grid
    grid = q.auto_grid([VACUUM])
    vac = build(VACUUM, grid)
    p = q.homodyne_distribution(vac, vac, 0.7)
    joint = readout_joint_state(300)
    calls = [
        ("outcome x0", lambda: q.make_outcome(p, x0, 0.7)),
        ("outcome x0", lambda: q.conditional_output(vac, vac, 0.7, x0)),
        ("outcome x0", lambda: q.conditional_state_raw(vac, vac, 0.7, x0)),
        ("outcome x0", lambda: q.feedback_displace(vac, x0, 0.7)),
        ("mode-2 reading", lambda: joint.conditioned_on_mode2(x0)),
    ]
    for what, call in calls:
        with pytest.raises(InvalidParameterError, match=re.escape(f"{what} must be finite, got {x0}")):
            call()


# --- sampling ----------------------------------------------------------------


@pytest.fixture(scope="module")
def vacuum_homodyne():
    grid = q.auto_grid([VACUUM])
    vac = q.build_gaussian(VACUUM, grid)
    return q.homodyne_distribution(vac, vac, QUARTER_PI)


def test_sampling_is_deterministic(vacuum_homodyne):
    a = q.sample_outcomes(vacuum_homodyne, 5000, seed=123)
    b = q.sample_outcomes(vacuum_homodyne, 5000, seed=123)
    assert np.array_equal(a, b)
    c = q.sample_outcomes(vacuum_homodyne, 5000, seed=124)
    assert not np.array_equal(a, c)


def test_sampling_passes_ks_against_exact_cdf(vacuum_homodyne):
    n = 100_000
    draws = np.sort(q.sample_outcomes(vacuum_homodyne, n, seed=7))
    cdf = norm.cdf(draws, scale=math.sqrt(0.5))
    ranks = np.arange(1, n + 1) / n
    ks = max(np.abs(cdf - ranks).max(), np.abs(cdf - (ranks - 1.0 / n)).max())
    assert ks < 1.63 / math.sqrt(n)


def test_sample_mean_within_four_sigma(vacuum_homodyne):
    n = 50_000
    draws = q.sample_outcomes(vacuum_homodyne, n, seed=11)
    assert abs(draws.mean() - vacuum_homodyne.mean()) < 4 * math.sqrt(0.5 / n)


def test_sampling_rejects_zero_count(vacuum_homodyne):
    with pytest.raises(InvalidParameterError):
        q.sample_outcomes(vacuum_homodyne, 0, seed=1)


def reference_cdf(dist):
    x, y = dist.grid.points, dist.density
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))
    return cdf / cdf[-1]


def reference_map(dist, u):
    """The inverse of the trapezoidal CDF at uniforms u, as one expression per step:
    interval idx = searchsorted(side="right") - 1, then a linear step into it."""
    cdf = reference_cdf(dist)
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, dist.grid.n_points - 2)
    gap = cdf[idx + 1] - cdf[idx]
    safe = np.where(gap > 0, gap, 1.0)
    frac = np.where(gap > 0, (u - cdf[idx]) / safe, 0.0)
    return dist.grid.points[idx] + frac * dist.grid.step


def reference_samples(dist, count, seed):
    return reference_map(dist, np.random.default_rng(seed).random(count))


@pytest.fixture(scope="module")
def sampled_densities():
    """A cat's homodyne density, and a density with stretches of zero mass (intervals
    whose CDF gap is 0)."""
    spec = q.CatSpec(1.8, 0.2025)
    cat = q.build_state(spec, q.auto_grid([spec]))
    probe = q.build_gaussian(VACUUM, q.auto_grid([VACUUM]))
    grid = q.Grid(-3.0, 3.0, 301)
    values = np.exp(-grid.points**2)
    values[:10] = values[50:120] = values[200:205] = values[-10:] = 0.0
    return q.homodyne_distribution(cat, probe, 0.7), q.Distribution.normalized(grid, values)


@pytest.mark.parametrize("count", [1, 7, 100_000])
def test_sampling_matches_reference_within_four_spacings(sampled_densities, count):
    # np.interp steps by the slope (x[i+1] - x[i]) / gap, the reference by the grid's
    # step: worst 2.0 spacings of max|x| over 300 seeds of 100 000 draws on each density
    massless = sampled_densities[1].density
    assert np.count_nonzero(massless[1:] + massless[:-1] == 0) == 9 + 69 + 4 + 9
    for dist in sampled_densities:
        bound = 4 * np.spacing(np.abs(dist.grid.points).max())
        for seed in (0, 7):
            got = q.sample_outcomes(dist, count, seed)
            expected = reference_samples(dist, count, seed)
            assert np.abs(got - expected).max() <= bound


def test_sampling_at_cdf_knots_matches_reference_bitwise(sampled_densities, monkeypatch):
    # every knot below 1 as a uniform: u = 0 on the leading zero mass, and u on a flat
    # run of the CDF, map to the run's last point, as searchsorted(side="right") - 1 does
    for dist in sampled_densities:
        cdf = reference_cdf(dist)
        knots = cdf[cdf < 1.0]
        with monkeypatch.context() as patch:
            uniforms = SimpleNamespace(random=lambda n: knots.copy())  # the map may write u
            patch.setattr(np.random, "default_rng", lambda seed: uniforms)
            got = q.sample_outcomes(dist, knots.size, seed=0)
        expected = reference_map(dist, knots)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_sampling_works_in_place(vacuum_homodyne):
    # besides the result: the uniforms np.interp maps (2.1 times the result's bytes);
    # an index array and a gather temporary of count entries each would reach 3.1
    q.sample_outcomes(vacuum_homodyne, 100_000, seed=3)
    tracemalloc.start()
    try:
        draws = q.sample_outcomes(vacuum_homodyne, 100_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * draws.nbytes


@pytest.mark.parametrize("count", [2**60, 10**20], ids=["2**60", "10**20"])
def test_sampling_refuses_a_count_numpy_cannot_index(vacuum_homodyne, count):
    # 2**60 float64 draws are 2**63 bytes, one more than numpy's largest index
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="more than numpy can index"):
            q.sample_outcomes(vacuum_homodyne, count, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
