"""Fidelity measures: closed forms, numeric quadratures, and the output ensemble."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qndsim as q
import qndsim.chain
import qndsim.fidelity
from qndsim.chain import NULL_OUTCOME_DENSITY
from qndsim.errors import GridMismatchError, InvalidParameterError
from qndsim.fidelity import fidelity_pair

VACUUM = q.GaussianSpec(0.0, 0.25)
QUARTER_PI = math.pi / 4
SIGMA_S = 0.5


def gaussian_pair(x, n_points=2048, phi=QUARTER_PI):
    """Signal at vacuum width plus the probe realizing filter ratio x."""
    probe_spec = q.GaussianSpec(0.0, (x * SIGMA_S * math.tan(phi)) ** 2)
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=n_points))
    probe = q.build_gaussian(probe_spec, q.auto_grid([probe_spec], n_points=n_points))
    return signal, probe


# --- closed forms -------------------------------------------------------------


def test_gaussian_state_fidelity_values():
    assert q.gaussian_state_fidelity(1.0) == pytest.approx(0.816496580927726, abs=1e-12)
    assert q.gaussian_state_fidelity(1.2) == pytest.approx(0.8615497903412858, abs=1e-12)
    assert abs(q.gaussian_state_fidelity(1e6) - 1.0) < 1e-9
    with pytest.raises(InvalidParameterError):
        q.gaussian_state_fidelity(0.0)
    with pytest.raises(InvalidParameterError):
        q.gaussian_state_fidelity(-1.0)


def test_gaussian_distribution_fidelity_values():
    assert q.gaussian_distribution_fidelity(1.0) == pytest.approx(0.9428090415820634, abs=1e-12)
    assert q.gaussian_distribution_fidelity(1.2) == pytest.approx(0.90816856696589, abs=1e-12)
    assert q.gaussian_distribution_fidelity(1e-6) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidParameterError):
        q.gaussian_distribution_fidelity(0.0)


@pytest.mark.parametrize("x", [9.5e153, 1e308, math.inf, math.nan])  # 2 x^2 overflows or is NaN
def test_closed_forms_refuse_ratios_they_cannot_evaluate(x):
    for closed_form in (q.gaussian_state_fidelity, q.gaussian_distribution_fidelity):
        with pytest.raises(InvalidParameterError, match="2 x\\^2 finite"):
            closed_form(x)


def test_closed_forms_on_lattice():
    xs = np.linspace(1e-3, 50.0, 1000)
    f_vals = np.array([q.gaussian_state_fidelity(float(x)) for x in xs])
    g_vals = np.array([q.gaussian_distribution_fidelity(float(x)) for x in xs])
    assert np.all(np.diff(f_vals) > 0)  # strictly increasing
    assert np.all(g_vals <= 1.0 + 1e-12)
    assert np.all(np.diff(g_vals[xs >= 1.0]) < 0)  # strictly decreasing past x = 1


def test_closed_forms_never_leave_unit_interval_up_to_1e153():
    # the raw quotients round to one ulp above 1 for many x >= 7e7
    for x in np.logspace(-3, 153, 20_000):
        assert 0.0 <= q.gaussian_state_fidelity(float(x)) <= 1.0
        assert 0.0 <= q.gaussian_distribution_fidelity(float(x)) <= 1.0


def test_transfer_function_basics():
    assert float(q.transfer_function(0.7, 0.7, 0.9, 0.5)) == 1.0
    assert float(q.transfer_function(0.3, -0.2, 0.9, 0.5)) == float(
        q.transfer_function(-0.2, 0.3, 0.9, 0.5)
    )
    assert float(q.transfer_function(1.0, 0.0, QUARTER_PI, 0.5)) == pytest.approx(
        math.exp(-0.5), abs=1e-12
    )
    with pytest.raises(InvalidParameterError):
        q.transfer_function(0.0, 1.0, 0.9, 0.0)


def test_transfer_function_built_in_place_bitwise():
    def one_expression(y1, y2, phi, sigma_p):
        diff = np.asarray(y1, dtype=np.float64) - np.asarray(y2, dtype=np.float64)
        return np.exp(-(math.tan(phi) ** 2) * diff**2 / (8.0 * sigma_p**2))

    for n in (1000, 1024):
        y = np.linspace(-6.3, 5.9, n)
        for phi, sigma_p in ((0.7, 0.5), (0.3, 0.1), (1.2, 2.0)):
            got = q.transfer_function(y[:, None], y[None, :], phi, sigma_p)
            expected = one_expression(y[:, None], y[None, :], phi, sigma_p)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_state_fidelity_via_transfer_forms_no_kernel_matrix():
    # N = 1024: one N x N kernel alone is 8.4 MB; summed over the N lags, no such array
    signal = q.build_cat(1.8, 0.2025, q.Grid(-6.0, 6.0, 1024))
    tracemalloc.start()
    try:
        q.state_fidelity_via_transfer(signal, 0.7, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# --- numeric quadratures vs closed forms --------------------------------------


def test_numeric_state_fidelity_matches_closed_at_unity():
    signal, probe = gaussian_pair(1.0)
    assert abs(q.state_fidelity(signal, probe, QUARTER_PI) - 0.816496580927726) < 1e-3


def test_numeric_distribution_fidelity_matches_closed_at_unity():
    signal, probe = gaussian_pair(1.0)
    assert abs(q.distribution_fidelity(signal, probe, QUARTER_PI) - 0.9428090415820634) < 1e-3


def test_state_fidelity_anti_squeezed_regime():
    signal, probe = gaussian_pair(10.0)
    assert q.state_fidelity(signal, probe, QUARTER_PI) > 1.0 - 1.0 / 400.0 - 1e-3


def test_state_fidelity_squeezed_regime():
    signal, probe = gaussian_pair(0.05)
    value = q.state_fidelity(signal, probe, QUARTER_PI)
    assert abs(value - math.sqrt(2.0) * 0.05) < 2e-3


def test_distribution_fidelity_squeezed_regime():
    signal, probe = gaussian_pair(0.05)
    assert q.distribution_fidelity(signal, probe, QUARTER_PI) >= 1.0 - 0.05**4 / 8.0 - 1e-3


def test_distribution_fidelity_anti_squeezed_regime():
    signal, probe = gaussian_pair(20.0)
    assert abs(q.distribution_fidelity(signal, probe, QUARTER_PI) - 0.1) < 5e-3


def test_state_fidelity_outcome_refinement_is_converged():
    signal, probe = gaussian_pair(1.0)
    coarse = q.state_fidelity(signal, probe, QUARTER_PI, n_outcomes=1024)
    fine = q.state_fidelity(signal, probe, QUARTER_PI, n_outcomes=2048)
    assert abs(coarse - fine) < 1e-4


@pytest.mark.parametrize(
    "route", [q.state_fidelity, q.distribution_fidelity, fidelity_pair, q.output_ensemble]
)
@pytest.mark.parametrize("x, unresolved", [(0.01, "filter width"), (100.0, "outcome grid")])
def test_unresolved_grids_raise(route, x, unresolved):
    # x = 0.01: filter 0.005 below the signal step 0.039; x = 100: outcome step 6.3, sigma_s 0.5
    signal, probe = gaussian_pair(x, n_points=256)
    with pytest.raises(InvalidParameterError, match=unresolved):
        route(signal, probe, QUARTER_PI, n_outcomes=128)


def test_fidelities_monotone_in_filter_width():
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=1024))
    f_vals, g_vals = [], []
    for x in (0.3, 0.7, 1.5, 3.0, 6.0):
        probe_spec = q.GaussianSpec(0.0, (x * SIGMA_S) ** 2)
        probe = q.build_gaussian(probe_spec, q.auto_grid([probe_spec], n_points=1024))
        f_vals.append(q.state_fidelity(signal, probe, QUARTER_PI, n_outcomes=512))
        g_vals.append(q.distribution_fidelity(signal, probe, QUARTER_PI, n_outcomes=512))
    assert np.all(np.diff(f_vals) > 0)
    assert np.all(np.diff(g_vals) < 0)


def test_fidelities_translation_invariant():
    phi = QUARTER_PI
    shifted_spec = q.GaussianSpec(1.7, 0.25)
    base_signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM]))
    shifted_signal = q.build_gaussian(shifted_spec, q.auto_grid([shifted_spec]))
    probe = q.build_gaussian(VACUUM, q.auto_grid([VACUUM]))
    assert abs(
        q.state_fidelity(base_signal, probe, phi) - q.state_fidelity(shifted_signal, probe, phi)
    ) < 1e-6
    assert abs(
        q.distribution_fidelity(base_signal, probe, phi)
        - q.distribution_fidelity(shifted_signal, probe, phi)
    ) < 1e-6


# --- transfer-function route ---------------------------------------------------


def test_via_transfer_matches_closed_form():
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM]))
    # x = 1 at phi = pi/4 means sigma_p = sigma_s
    value = q.state_fidelity_via_transfer(signal, QUARTER_PI, SIGMA_S)
    assert abs(value - 0.816496580927726) < 1e-4


def test_via_transfer_cross_checks_outcome_route():
    for phi, probe_var in ((0.6, 0.1), (QUARTER_PI, 0.25), (1.0, 0.8)):
        probe_spec = q.GaussianSpec(0.0, probe_var)
        signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM]))
        probe = q.build_gaussian(probe_spec, q.auto_grid([probe_spec]))
        direct = q.state_fidelity(signal, probe, phi)
        kernel = q.state_fidelity_via_transfer(signal, phi, math.sqrt(probe_var))
        assert abs(direct - kernel) < 1e-3


def test_via_transfer_cat_wide_kernel_saturates():
    spec = q.CatSpec(1.5, 0.25)
    cat = q.build_cat(1.5, 0.25, q.auto_grid([spec]))
    assert q.state_fidelity_via_transfer(cat, QUARTER_PI, 200.0) > 1.0 - 1e-3


# --- output ensemble -----------------------------------------------------------


def test_ensemble_anti_squeezed_approaches_pure_input():
    grid = q.auto_grid([VACUUM], n_points=1024)
    signal = q.build_gaussian(VACUUM, grid)
    wide_spec = q.GaussianSpec(0.0, 2500.0)
    probe = q.build_gaussian(wide_spec, q.auto_grid([wide_spec], n_points=1024))
    rho = q.output_ensemble(signal, probe, QUARTER_PI)
    pure = signal.amplitudes[:, None] * np.conj(signal.amplitudes)[None, :]
    assert np.abs(rho.rows.T @ rho.rows.conj() - pure).max() < 1e-2


def search_cat():
    """The benchmark search's check on its seed-1 cat: signal, probe at x_m, and phi."""
    spec, phi, x_m = q.CatSpec(1.657491395289921, 0.17170485784125808), 0.8542301210811698, 1.362
    grid = q.auto_grid([spec], n_points=1024)
    signal = q.build_cat(spec.separation, spec.component_variance, grid)
    probe_spec = q.GaussianSpec(0.0, (x_m * math.sqrt(signal.variance()) * math.tan(phi)) ** 2)
    probe = q.build_gaussian(probe_spec, q.auto_grid([probe_spec], n_points=1024))
    return signal, probe, phi


def search_cat_ensemble():
    """The search cat's ensemble on 512 outcomes: 406 non-null rows over 1024 points."""
    signal, probe, phi = search_cat()
    return signal, q.output_ensemble(signal, probe, phi, n_outcomes=512)


def chirped(wf, rate, slope):
    """wf times the chirp exp(i (rate x^2 + slope x)): complex, with wf's density."""
    x = wf.grid.points
    chirp = np.exp(1j * (rate * x * x + slope * x))
    return q.WaveFunction.normalized(wf.grid, wf.amplitudes * chirp)


def chirped_cat_ensemble():
    """Complex psi_s and K: the cat (1.8, 0.2025) and the vacuum probe under chirps.

    rho(x, x') = psi_s(x) psi_s*(x') R(x - x'), R the probe's autocorrelation; a pure chirp
    leaves R real, so the probe also gets a linear phase, which makes R complex.
    """
    spec = q.CatSpec(1.8, 0.2025)
    signal = chirped(q.build_cat(1.8, 0.2025, q.auto_grid([spec], n_points=1024)), 0.9, 0.3)
    probe = chirped(q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=1024)), 1.1, 1.3)
    return signal, q.output_ensemble(signal, probe, 0.7, n_outcomes=512)


def chirped_signal_ensemble():
    """Complex psi_s, real K: the chirped cat and the vacuum probe, held in float64."""
    spec = q.CatSpec(1.8, 0.2025)
    signal = chirped(q.build_cat(1.8, 0.2025, q.auto_grid([spec], n_points=1024)), 0.9, 0.3)
    probe = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=1024))
    return signal, q.output_ensemble(signal, probe, 0.7, n_outcomes=512)


def vacuum_ensemble():
    """Criterion 10's vacuum at N = 1024: 1064 non-null rows over 1024 points."""
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=1024))
    probe = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=1024))
    return signal, q.output_ensemble(signal, probe, QUARTER_PI)


@pytest.mark.parametrize(
    "make, shape",
    [
        (search_cat_ensemble, (406, 1024)),
        (vacuum_ensemble, (1064, 1024)),
        (chirped_cat_ensemble, (234, 1024)),
        (chirped_signal_ensemble, (234, 1024)),
    ],
)
def test_ensemble_factor_reads_as_its_dense_product(make, shape):
    signal, rho = make()
    assert rho.rows.shape == shape  # fewer rows than points, and more: both eigenvalue forms
    dense = rho.rows.T @ rho.rows.conj()
    w = signal.grid.weights
    root = np.sqrt(w)
    # psi = psi_s, and a complex psi whose chirp differs from any of psi_s
    for psi in (signal, chirped(signal, -1.7, 0.5)):
        v = w * psi.amplitudes
        assert abs(rho.expectation(psi) - np.real(np.conj(v) @ dense @ v)) < 1e-13
    assert abs(rho.trace() - w @ np.real(np.diagonal(dense))) < 1e-13
    dense_eig = np.linalg.eigvalsh(root[:, None] * dense * root[None, :])[0]
    assert abs(rho.min_eigenvalue() - dense_eig) < 1e-13


def ensemble_peak(signal, probe, phi, n_outcomes=qndsim.fidelity.OUTCOME_NODES):
    """tracemalloc peak of output_ensemble, expectation and trace; the splines are fitted
    beforehand, outside the measured window."""
    q.state_fidelity(signal, probe, phi, n_outcomes)
    tracemalloc.start()
    try:
        rho = q.output_ensemble(signal, probe, phi, n_outcomes)
        rho.expectation(signal)
        rho.trace()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ensemble_at_the_search_size_stays_small():
    # a copy of K's 406 non-null rows took 6.7 MB (10 MB with the trace); kappa and its
    # transforms peak at 0.53 MB
    assert ensemble_peak(*search_cat(), n_outcomes=512) < 2e6


def test_ensemble_of_a_cat_at_4096_points_stays_small():
    # the dense N x N product peaked at 299 MB here, a copy of its 468 x 4096 factor at
    # 31 MB (46 MB with the trace); kappa and its transforms peak at 1.2 MB
    spec = q.CatSpec(1.8, 0.2025)
    cat = q.build_cat(1.8, 0.2025, q.auto_grid([spec], n_points=4096))
    probe = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=4096))
    assert ensemble_peak(cat, probe, 0.7) < 4e6


def test_ensemble_at_8192_points_matches_state_fidelity():
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=8192))
    probe = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=512))
    rho = q.output_ensemble(signal, probe, QUARTER_PI, n_outcomes=256)
    fidelity = q.state_fidelity(signal, probe, QUARTER_PI, n_outcomes=256)
    assert abs(rho.expectation(signal) - fidelity) < 1e-12
    # F is <psi_s|rho|psi_s>, so the closed form at x = 1 is the independent reference:
    # sqrt(2/3), 5.5e-10 away on 256 outcomes
    assert abs(fidelity - math.sqrt(2.0 / 3.0)) < 1e-9


def test_ensemble_expectation_refuses_a_state_on_another_grid():
    signal, rho = search_cat_ensemble()
    # the same node count on a narrower span: without the check the sums would run
    other = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=signal.grid.n_points))
    assert other.grid != signal.grid
    with pytest.raises(GridMismatchError, match="on the kernel's grid"):
        rho.expectation(other)


# --- cat oracle ------------------------------------------------------------------


def cat_mixture(separation, component_variance):
    """A cat's density as sum_k c_k N(mu_k, v): the means mu, the weights c and its variance."""
    s, v = separation, component_variance
    mu = np.array([s, -s, 0.0])
    c = np.array([1.0, 1.0, 2.0 * math.exp(-s * s / (2.0 * v))])
    c /= c.sum()
    return mu, c, v + s * s * (c[0] + c[1])


def cat_oracle_state_fidelity(separation, component_variance, x):
    """Closed-form F of a cat at filter ratio x: with sigma_f = x sigma_s and
    a = 4 sigma_f^2 + 2 v, F = sum_kl c_k c_l sqrt(4 sigma_f^2 / a) exp(-(mu_k - mu_l)^2 / 2a)."""
    mu, c, variance = cat_mixture(separation, component_variance)
    four_filter_var = 4.0 * x * x * variance
    a = four_filter_var + 2.0 * component_variance
    gap = mu[:, None] - mu[None, :]
    return float(c @ (math.sqrt(four_filter_var / a) * np.exp(-(gap**2) / (2.0 * a))) @ c)


@pytest.mark.parametrize("x", [0.5, 1.0, 1.37, 2.0, 4.0])
@pytest.mark.parametrize(
    "separation, component_variance, phi",
    [(1.8, 0.2025, 0.7), (2.5, 0.05, 0.3), (0.0, 0.25, QUARTER_PI), (1.2, 0.4, 1.2)],
)
def test_cat_fidelity_matches_its_closed_form(separation, component_variance, phi, x):
    spec = q.CatSpec(separation, component_variance)
    cat = q.build_cat(separation, component_variance, q.auto_grid([spec], n_points=1024))
    _, _, variance = cat_mixture(separation, component_variance)
    probe_spec = q.GaussianSpec(0.0, x * x * variance * math.tan(phi) ** 2)
    probe = q.build_gaussian(probe_spec, q.auto_grid([probe_spec], n_points=1024))
    oracle = cat_oracle_state_fidelity(separation, component_variance, x)
    pair = fidelity_pair(cat, probe, phi, n_outcomes=512)
    # at most 7.3e-11 over these cases; at 256 points 1.9e-8, and two cases are refused there
    assert abs(pair.F - oracle) < 1e-9
    # G against the analytic-density oracle: at most 5.5e-10 over these cases (the (2.5,
    # 0.05) cat at x = 4, on the coarsest outcome step), 8.3e-11 at 1024 outcomes
    g_oracle = cat_oracle_distribution_fidelity(separation, component_variance, x)
    assert abs(pair.G - g_oracle) < 1e-9
    rho = q.output_ensemble(cat, probe, phi, n_outcomes=512)
    assert abs(rho.expectation(cat) - oracle) < 1e-9


def cat_oracle_distribution_fidelity(separation, component_variance, x):
    """G of a cat at filter ratio x, from analytic densities: p = sum_k c_k N(mu_k, v +
    sigma_f^2) and G = (int sqrt(p m) dy)^2, by the trapezoid rule on 200 001 points over
    m's support."""
    mu, c, variance = cat_mixture(separation, component_variance)
    reach = separation + 40.0 * math.sqrt(component_variance)
    y = np.linspace(-reach, reach, 200_001)

    def mixture(var):
        return c @ np.exp(-((y - mu[:, None]) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

    p, m = mixture(component_variance + x * x * variance), mixture(component_variance)
    return float(np.trapezoid(np.sqrt(p * m), y)) ** 2


@pytest.mark.parametrize("x", [0.5, 1.0, 1.37, 2.0, 4.0])
@pytest.mark.parametrize(
    "separation, component_variance, phi",
    [(1.8, 0.2025, 0.7), (2.5, 0.05, 0.3), (0.0, 0.25, QUARTER_PI), (1.2, 0.4, 1.2)],
)
def test_numeric_curve_matches_the_cat_oracle(separation, component_variance, phi, x):
    spec = q.CatSpec(separation, component_variance)
    cat = q.build_cat(separation, component_variance, q.auto_grid([spec], n_points=1024))
    (pair,) = q.numeric_trade_off_curve(cat, [x], phi)
    # at most 4.4e-16 in F and 3.7e-13 in G over these cases; the kernel route on a probe
    # of 2048 points and 1024 outcomes is off by up to 4.5e-12 in F and 8.6e-12 in G
    assert abs(pair.F - cat_oracle_state_fidelity(separation, component_variance, x)) < 1e-13
    assert abs(pair.G - cat_oracle_distribution_fidelity(separation, component_variance, x)) < 2e-12


# --- properties ----------------------------------------------------------------


@given(x=st.floats(1e-3, 1e3))
@settings(max_examples=60, deadline=None)
def test_closed_forms_stay_in_unit_interval(x):
    assert 0.0 <= q.gaussian_state_fidelity(x) <= 1.0 + 1e-9
    assert 0.0 <= q.gaussian_distribution_fidelity(x) <= 1.0 + 1e-9


@given(x=st.floats(0.01, 50.0), bump=st.floats(0.01, 5.0))
@settings(max_examples=40, deadline=None)
def test_state_fidelity_closed_form_increasing(x, bump):
    assert q.gaussian_state_fidelity(x + bump) > q.gaussian_state_fidelity(x)


def per_outcome_state_fidelity(signal, probe, phi, n_outcomes):
    """F as a sum over outcomes of p(x0) |<psi_s|psi_x0>|^2, one state at a time."""
    p = q.homodyne_distribution(signal, probe, phi, n_outcomes=n_outcomes)
    ogrid, total = p.grid, 0.0
    for x0, w, dens in zip(ogrid.points, ogrid.weights, p.density):
        if dens > NULL_OUTCOME_DENSITY:
            psi = q.conditional_output(signal, probe, phi, float(x0))
            total += w * dens * abs(q.overlap(signal, psi)) ** 2
    return total


def direct_sum_distribution_fidelity(signal, probe, phi, n_outcomes):
    """G with p summed directly over the one-shot kernel psi_p(t (y - x0)): no FFT."""
    t = math.tan(phi)
    ogrid = q.outcome_grid(signal, probe, phi, n_points=n_outcomes)
    y, x0 = signal.grid.points, ogrid.points
    kernel = q.grids.amplitude_interpolator(probe)(t * (y[None, :] - x0[:, None]))
    mass = np.abs(signal.amplitudes) ** 2 * signal.grid.weights
    p = q.Distribution.normalized(ogrid, t * (np.abs(kernel) ** 2 @ mass))
    s_abs = np.abs(q.grids.amplitude_interpolator(signal)(x0))
    return float(ogrid.weights @ (np.sqrt(p.density) * s_abs)) ** 2


@given(
    separation=st.floats(0.0, 2.5),
    component_variance=st.floats(0.05, 0.5),
    phi=st.floats(0.2, 1.35),
)
@settings(max_examples=25, deadline=None)
@example(separation=2.5, component_variance=0.05, phi=1.35)  # the outcome step is filter-capped
def test_cat_kernel_routes_match_per_outcome_reference(separation, component_variance, phi):
    spec = q.CatSpec(separation, component_variance)
    cat = q.build_cat(separation, component_variance, q.auto_grid([spec], n_points=256))
    probe = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=256))
    fidelity = q.state_fidelity(cat, probe, phi, n_outcomes=128)
    assert abs(fidelity - per_outcome_state_fidelity(cat, probe, phi, 128)) < 1e-12
    rho = q.output_ensemble(cat, probe, phi, n_outcomes=128)
    assert abs(rho.expectation(cat) - fidelity) < 1e-12
    # independent route: double quadrature against the transfer kernel; 1.9e-8 at most over
    # 300 uniform draws and the 8 corners of the domain
    assert abs(fidelity - q.state_fidelity_via_transfer(cat, phi, SIGMA_S)) < 1e-7
    # G against the direct-sum route: 5.6e-16 at most over 300 uniform draws and the corners
    g_val = q.distribution_fidelity(cat, probe, phi, n_outcomes=128)
    assert abs(g_val - direct_sum_distribution_fidelity(cat, probe, phi, 128)) < 1e-14


def test_distribution_fidelity_matches_direct_sum_gaussian():
    signal, probe = gaussian_pair(0.8, n_points=1024, phi=0.6)
    pair = fidelity_pair(signal, probe, 0.6)
    # equal here to the last bit; the closed form is 1.5e-11 away
    assert abs(pair.G - direct_sum_distribution_fidelity(signal, probe, 0.6, 1024)) < 1e-14
    assert abs(pair.G - q.gaussian_distribution_fidelity(0.8)) < 1e-10


def test_numeric_curve_makes_no_outcome_pass(monkeypatch):
    passes = []
    outcome_pass = qndsim.chain._outcome_pass

    def counting(*args):
        passes.append(args[3])
        return outcome_pass(*args)

    monkeypatch.setattr(qndsim.chain, "_outcome_pass", counting)
    monkeypatch.setattr(qndsim.fidelity, "_outcome_pass", counting)
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=256))
    pairs = q.numeric_trade_off_curve(signal, [math.sqrt(0.05) / 0.5, 1.0, 2.0], QUARTER_PI)
    assert len(pairs) == 3
    assert passes == []  # the filter route builds no probe and no outcome grid
    probe = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=256))
    q.output_ensemble(signal, probe, QUARTER_PI, n_outcomes=128)
    assert passes == [128]  # one kernel evaluation for the weights and rho alike


def test_raw_fidelity_outside_unit_interval_raises():
    check = qndsim.fidelity._checked_unit
    assert check(1.0 + 1e-12) == 1.0
    assert check(-1e-12) == 0.0
    assert check(0.5) == 0.5
    for raw in (1.0 + 1e-9 + 1e-6, -1e-9 - 1e-6, float("nan")):
        with pytest.raises(InvalidParameterError, match="outside"):
            check(raw)


def test_fidelity_pair_sum():
    pair = q.FidelityPair(F=0.25, G=0.5)
    assert pair.f_plus_g == 0.75
