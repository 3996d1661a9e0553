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
import qndsim.kernel
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
    # F read off rho, the one F that still depends on an outcome grid
    signal, probe = gaussian_pair(1.0)
    coarse = q.output_ensemble(signal, probe, QUARTER_PI, n_outcomes=1024).expectation(signal)
    fine = q.output_ensemble(signal, probe, QUARTER_PI, n_outcomes=2048).expectation(signal)
    assert abs(coarse - fine) < 1e-4


ROUTES = [q.state_fidelity, q.distribution_fidelity, fidelity_pair, q.output_ensemble]


@pytest.mark.parametrize(
    "x, unresolved, route",
    [(0.01, "filter width", route) for route in ROUTES]
    + [(100.0, "outcome grid", q.output_ensemble)],
)
def test_unresolved_grids_raise(x, unresolved, route):
    # x = 0.01: filter 0.005 below the signal step 0.039; x = 100: outcome step 6.3, sigma_s 0.5
    signal, probe = gaussian_pair(x, n_points=256)
    args = {"n_outcomes": 128} if route is q.output_ensemble else {}
    with pytest.raises(InvalidParameterError, match=unresolved):
        route(signal, probe, QUARTER_PI, **args)


@pytest.mark.parametrize("route", ROUTES[:3])
def test_lattice_route_resolves_what_rho_refuses(route):
    # x = 100: output_ensemble refuses its outcome step of 6.3; F and G need no outcome grid
    signal, probe = gaussian_pair(100.0, n_points=256)
    pair = fidelity_pair(signal, probe, QUARTER_PI)
    expected = {q.state_fidelity: pair.F, q.distribution_fidelity: pair.G}.get(route, pair)
    assert route(signal, probe, QUARTER_PI) == expected
    # 2.0e-12 from the closed form in F, 1.7e-9 in G
    assert abs(pair.F - q.gaussian_state_fidelity(100.0)) < 1e-8
    assert abs(pair.G - q.gaussian_distribution_fidelity(100.0)) < 1e-8


def test_wide_probe_fidelities_match_the_closed_forms():
    # x = 200 (probe variance 1e4): G on 1024 outcome nodes is 3.5e-5 off here, with no
    # refusal; the lattice route is 8.9e-16 off in F and 1.7e-13 in G
    signal, probe = gaussian_pair(200.0)
    pair = fidelity_pair(signal, probe, QUARTER_PI)
    assert abs(pair.F - q.gaussian_state_fidelity(200.0)) < 1e-10
    assert abs(pair.G - q.gaussian_distribution_fidelity(200.0)) < 1e-10


def test_fidelity_pair_refuses_a_kernel_numpy_cannot_index_before_allocating_it():
    signal, probe = gaussian_pair(2e100)  # probe variance 1e200
    route = qndsim.fidelity._LatticeRoute(signal)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="more than numpy can index"):
            route.probe_pair(probe, QUARTER_PI)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5  # 50 kB: probe.variance() on 2048 points; the kernel needs 2**345


def test_fidelities_monotone_in_filter_width():
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=1024))
    f_vals, g_vals = [], []
    for x in (0.3, 0.7, 1.5, 3.0, 6.0):
        probe_spec = q.GaussianSpec(0.0, (x * SIGMA_S) ** 2)
        probe = q.build_gaussian(probe_spec, q.auto_grid([probe_spec], n_points=1024))
        f_vals.append(q.state_fidelity(signal, probe, QUARTER_PI))
        g_vals.append(q.distribution_fidelity(signal, probe, QUARTER_PI))
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


@pytest.mark.parametrize("variance, phi", [(0.3, 0.7), (4.0, 0.5)])
@pytest.mark.parametrize("chirp, bound", [(False, 1e-10), (True, 1e-8)])
def test_ensemble_matches_the_probe_autocorrelation_oracle(variance, phi, chirp, bound):
    """rho(x, x') = psi_s(x) psi_s*(x') R(t (x - x')), element by element, with no outcome
    grid and no lattice: R(d) = int psi_p(u + d) psi_p*(u) du is the probe's amplitude
    autocorrelation, and for psi_p = g exp(i (a u^2 + b u)), |g|^2 = N(0, v), it is
    R(d) = exp(i b d - d^2 / (8 v) - 2 a^2 v d^2), with R(0) = 1 = Z'."""
    spec, probe_spec = q.CatSpec(1.8, 0.2025), q.GaussianSpec(0.0, variance)
    signal = q.build_cat(1.8, 0.2025, q.auto_grid([spec], n_points=512))
    probe = q.build_gaussian(probe_spec, q.auto_grid([probe_spec], n_points=1024))
    rate, slope = (0.8 / variance, 0.3 / math.sqrt(variance)) if chirp else (0.0, 0.0)
    if chirp:
        probe = chirped(probe, rate, slope)
    rows = q.output_ensemble(signal, probe, phi, n_outcomes=1024).rows
    lag = math.tan(phi) * (signal.grid.points[:, None] - signal.grid.points[None, :])
    autocorrelation = np.exp(
        1j * slope * lag - lag**2 / (8.0 * variance) - 2.0 * rate**2 * variance * lag**2
    )
    oracle = np.outer(signal.amplitudes, np.conj(signal.amplitudes)) * autocorrelation
    # at most 1.5e-11 for the Gaussian probes and 4.3e-9 for the chirped ones, the spline
    # error of the chirped amplitude
    assert np.abs(rows.T @ rows.conj() - oracle).max() < bound


def ensemble_peak(signal, probe, phi, n_outcomes=qndsim.fidelity.OUTCOME_NODES):
    """tracemalloc peak of output_ensemble, expectation and trace; the splines are fitted
    beforehand, outside the measured window."""
    q.grids.amplitude_interpolator(signal), q.grids.amplitude_interpolator(probe)
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
    fidelity = q.state_fidelity(signal, probe, QUARTER_PI)
    assert abs(rho.expectation(signal) - fidelity) < 1e-12
    # F is the lattice route's, rho's is read off 256 outcomes: 8.9e-16 apart; both are
    # 5.5e-10 from the closed form sqrt(2/3) at x = 1
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
    pair = fidelity_pair(cat, probe, phi)
    # at most 7.3e-11 over these cases
    assert abs(pair.F - oracle) < 1e-9
    # G against the analytic-density oracle: at most 8.3e-11 over these cases (the (0, 0.25)
    # cat at x = 4); rho's F on 512 outcomes is at most 7.3e-11 from the oracle
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
    # at most 4.4e-16 in F and 3.7e-13 in G over these cases; the lattice route on a probe
    # of 2048 points is off by up to 4.5e-12 in F and 8.6e-12 in G
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


# The probe route reads sigma_p and phi only through x = sigma_p / (sigma_s tan phi): the
# same x reached by squeezing the probe or by tuning the phase gives the same F and G.
@given(mean=st.floats(-1e3, 1e3), variance=st.floats(0.05, 0.5), x=st.floats(0.3, 5.0),
       phis=st.tuples(st.floats(0.2, 1.35), st.floats(0.2, 1.35)))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_probe_route_depends_on_the_filter_ratio_alone(mean, variance, x, phis):
    spec = q.GaussianSpec(mean, variance)
    signal = q.build_gaussian(spec, q.auto_grid([spec], n_points=1024))
    pairs = []
    for phi in phis:
        probe_spec = q.GaussianSpec(0.0, (x * math.sqrt(variance) * math.tan(phi)) ** 2)
        probe = q.build_gaussian(probe_spec, q.auto_grid([probe_spec], n_points=1024))
        pairs.append(fidelity_pair(signal, probe, phi))
    first, second = pairs
    assert abs(first.F - second.F) <= 1e-14
    assert abs(first.G - second.G) <= 1e-14
    assert abs(first.F - q.gaussian_state_fidelity(x)) <= 1e-9
    assert abs(first.G - q.gaussian_distribution_fidelity(x)) <= 1e-9


def per_outcome_state_fidelity(signal, probe, phi, n_outcomes):
    """F as a sum over outcomes of p(x0) |<psi_s|psi_x0>|^2, one state at a time."""
    p = q.homodyne_distribution(signal, probe, phi, n_outcomes=n_outcomes)
    ogrid, total = p.grid, 0.0
    for x0, w, dens in zip(ogrid.points, ogrid.weights, p.density):
        if dens > NULL_OUTCOME_DENSITY:
            psi = q.conditional_output(signal, probe, phi, float(x0))
            total += w * dens * abs(q.overlap(signal, psi)) ** 2
    return total


def dense_stride_one_pair(signal, probe, phi):
    """F and G summed outcome by outcome over every lattice node x0 = y_0 + o h that the
    kernel reaches (outcome stride 1), each row K(x0, y) = psi_p(t (y - x0)) evaluated
    directly, 256 outcomes at a time: no FFT and no kernel vector.  Z is h sum p over
    these outcomes; G's integral runs over the outcomes at the signal's nodes, with the
    signal's weights (psi_s is 0 off its grid)."""
    t, grid, n = math.tan(phi), signal.grid, signal.grid.n_points
    lo = min(math.floor(-probe.grid.x_max / (t * grid.step)) - 1, 0)
    hi = max(math.ceil((grid.x_max - grid.x_min - probe.grid.x_min / t) / grid.step) + 1, n - 1)
    x0 = grid.x_min + grid.step * np.arange(lo, hi + 1)  # the nodes' own bits on the grid
    mass = np.abs(signal.amplitudes) ** 2 * grid.weights
    kernel = q.grids.amplitude_interpolator(probe)
    p, sums = [], []
    for start in range(0, x0.size, 256):
        rows = kernel(t * (grid.points[None, :] - x0[start : start + 256, None]))
        p.append(t * (np.abs(rows) ** 2 @ mass))
        sums.append(rows @ mass)
    p, sums = np.concatenate(p), np.concatenate(sums)
    z = grid.step * p.sum()
    f = t * grid.step / z * float(np.sum(np.abs(sums) ** 2))
    coeff = grid.weights @ (np.sqrt(p[-lo : n - lo] / z) * np.abs(signal.amplitudes))
    return f, float(coeff) ** 2


@given(
    separation=st.floats(0.0, 2.5),
    component_variance=st.floats(0.05, 0.5),
    phi=st.floats(0.2, 1.35),
)
@settings(max_examples=25, deadline=None, derandomize=True)  # the same draws on every run
@example(separation=2.5, component_variance=0.05, phi=1.35)  # the outcome step is filter-capped
@example(separation=0.0, component_variance=0.5, phi=0.25)  # once broke a 1e-14 bound on G
def test_cat_kernel_routes_match_per_outcome_reference(separation, component_variance, phi):
    spec = q.CatSpec(separation, component_variance)
    cat = q.build_cat(separation, component_variance, q.auto_grid([spec], n_points=256))
    probe = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=256))
    fidelity = q.state_fidelity(cat, probe, phi)
    # the lattice F against 128 outcomes, one conditional output at a time, and against rho
    # on the same outcomes: 5.2e-13 at most over 150 uniform draws and the corners
    assert abs(fidelity - per_outcome_state_fidelity(cat, probe, phi, 128)) < 1e-12
    rho = q.output_ensemble(cat, probe, phi, n_outcomes=128)
    assert abs(rho.expectation(cat) - fidelity) < 1e-12
    # independent route: double quadrature against the transfer kernel; 1.9e-8 at most over
    # 300 uniform draws and the 8 corners of the domain
    assert abs(fidelity - q.state_fidelity_via_transfer(cat, phi, SIGMA_S)) < 1e-7
    # G against the stride-1 direct sum: 8.9e-16 at most over 300 uniform draws and the corners
    g_val = q.distribution_fidelity(cat, probe, phi)
    assert abs(g_val - dense_stride_one_pair(cat, probe, phi)[1]) < 1e-14


def test_distribution_fidelity_matches_direct_sum_gaussian():
    signal, probe = gaussian_pair(0.8, n_points=1024, phi=0.6)
    pair = fidelity_pair(signal, probe, 0.6)
    # 2.2e-16 apart here; the closed form is 1.5e-11 away
    assert abs(pair.G - dense_stride_one_pair(signal, probe, 0.6)[1]) < 1e-14
    assert abs(pair.G - q.gaussian_distribution_fidelity(0.8)) < 1e-10


def probe_kinds(variance):
    """Probes of one scale on 2048 points: Gaussian, displaced, chirped and a cat."""
    sigma = math.sqrt(variance)
    specs = (q.GaussianSpec(0.0, variance), q.GaussianSpec(0.7 * sigma, variance),
             q.CatSpec(1.5 * sigma, 0.3 * variance))
    gaussian, displaced, cat = (q.build_state(s, q.auto_grid([s], n_points=2048)) for s in specs)
    chirp = chirped(gaussian, 0.8 / variance, 0.3 / sigma)
    return {"gaussian": gaussian, "displaced": displaced, "chirped": chirp, "cat": cat}


def cat_signal():
    spec = q.CatSpec(1.8, 0.2025)
    return q.build_cat(1.8, 0.2025, q.auto_grid([spec], n_points=1024))


def lopsided_cat_signal():
    """The cat under exp(0.3 x): a mirror-symmetric |psi_s| leaves G unchanged when p is
    mirrored, so only a lopsided one sees the sign of P's lag."""
    cat = cat_signal()
    return q.WaveFunction.normalized(cat.grid, cat.amplitudes * np.exp(0.3 * cat.grid.points))


@pytest.mark.parametrize(
    "make_signal, variance, phi",
    [(cat_signal, 0.3, 0.7), (cat_signal, 1.0, 0.3), (cat_signal, 0.05, 1.0),
     (lopsided_cat_signal, 0.3, 0.7)],
)
def test_lattice_route_matches_dense_stride_one_reference(make_signal, variance, phi):
    signal = make_signal()
    for kind, probe in probe_kinds(variance).items():
        pair = fidelity_pair(signal, probe, phi)
        f_ref, g_ref = dense_stride_one_pair(signal, probe, phi)
        # at most 3.3e-16 in F and 4.4e-16 in G here
        assert abs(pair.F - f_ref) < 1e-12, kind
        assert abs(pair.G - g_ref) < 1e-12, kind


def test_numeric_curve_makes_no_outcome_pass(monkeypatch):
    passes = []
    outcome_pass = qndsim.chain._outcome_pass

    def counting(*args):
        passes.append(args[3])
        return outcome_pass(*args)

    monkeypatch.setattr(qndsim.chain, "_outcome_pass", counting)
    monkeypatch.setattr(qndsim.fidelity, "_outcome_pass", counting)
    monkeypatch.setattr(qndsim.kernel, "_outcome_pass", counting)
    signal = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=256))
    pairs = q.numeric_trade_off_curve(signal, [math.sqrt(0.05) / 0.5, 1.0, 2.0], QUARTER_PI)
    assert len(pairs) == 3
    assert passes == []  # the filter route builds no probe and no outcome grid
    probe = q.build_gaussian(VACUUM, q.auto_grid([VACUUM], n_points=256))
    fidelity_pair(signal, probe, QUARTER_PI)
    assert passes == []  # nor does the lattice route of a probe
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


# --- the lattice route's in-place filter pass against its earlier out-of-place form ---


def reference_figures(route, lagged, transfer, z_lattice):
    """`_LatticeRoute._figures` as it was before its steps ran in place."""
    p = np.fft.irfft(route.mass_hat * np.fft.rfft(lagged), lagged.size)[: route.lags.size]
    p = np.maximum(p, 0.0)  # FFT roundoff can dip p's far tails below 0
    coeff = float(route.weighted_abs @ np.sqrt(p / (route.mass_total * z_lattice)))
    f_raw = route.state_fidelity(transfer)
    return q.FidelityPair(F=qndsim.fidelity._checked_unit(f_raw),
                          G=qndsim.fidelity._checked_unit(coeff * coeff))


def reference_pair(route, width):
    """`_LatticeRoute.pair` as it was before its steps ran in place."""
    scaled_sq = np.square(route.lags / width)
    kernel = np.exp(-0.5 * scaled_sq) / (width * math.sqrt(2.0 * math.pi))
    lagged = np.concatenate((kernel, [0.0], kernel[:0:-1]))  # lags 0 .. N - 1, 1 - N .. -1
    s = width / route.step
    z_lattice = 1.0 + 2.0 * math.exp(-2.0 * math.pi**2 * s * s)
    return reference_figures(route, lagged, np.exp(-0.125 * scaled_sq), z_lattice)


def reference_probe_pair(route, probe, phi):
    """`_LatticeRoute.probe_pair` with its figures taken by `reference_figures`."""
    t, h, n = math.tan(phi), route.step, route.lags.size
    lowest = math.ceil(probe.grid.x_min / (t * h))
    first = min(lowest, 1 - n)
    last = max(math.floor(probe.grid.x_max / (t * h)) + n - 1, n - 1)
    kappa = qndsim.kernel._kernel_samples(probe, t, h, first, last - first + 1)
    kappa_hat = np.fft.fft(kappa[lowest - first :], 1 << (last - lowest).bit_length())
    kappa_hat *= kappa_hat.conj()
    r = np.fft.ifft(kappa_hat)[:n].real * (t * h)
    power = t * np.abs(kappa[1 - n - first : n - first]) ** 2
    lagged = np.concatenate((power[n - 1 :: -1], [0.0], power[: n - 1 : -1]))
    return reference_figures(route, lagged, r / r[0], r[0])


def bits(pair):
    return pair.F.hex(), pair.G.hex()


def lattice_signal(kind, n_points, variance, separation):
    spec = q.GaussianSpec(0.3, variance) if kind == "gaussian" else q.CatSpec(separation, variance)
    return q.build_state(spec, q.auto_grid([spec], n_points=n_points))


SIGNALS = {
    "n_points": st.sampled_from([16, 1024, 2048]),
    "kind": st.sampled_from(["gaussian", "cat"]),
    "variance": st.floats(0.05, 1.0),
    "separation": st.floats(0.0, 2.5),
}


@given(**SIGNALS, log_ratio=st.floats(0.0, 150.0))  # filter width / grid step: 1 .. 1e150
@settings(max_examples=60, deadline=None, derandomize=True)
@example(n_points=2048, kind="cat", variance=0.2025, separation=1.8, log_ratio=0.0)
@example(n_points=16, kind="gaussian", variance=0.25, separation=0.0, log_ratio=150.0)
def test_filter_pass_matches_out_of_place_reference_bitwise(
    n_points, kind, variance, separation, log_ratio
):
    route = qndsim.fidelity._LatticeRoute(lattice_signal(kind, n_points, variance, separation))
    width = route.step * 10.0**log_ratio
    assert bits(route.pair(width)) == bits(reference_pair(route, width))


@given(
    **SIGNALS,
    # the probe filter's width sigma_p / tan phi over the step, 1.12 .. 1e3: the built probe's
    # variance is not its spec's to the last bit, so a ratio of 1 can be refused
    log_ratio=st.floats(0.05, 3.0),
    phi=st.floats(0.2, 1.35),
    chirp=st.booleans(),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_probe_pass_matches_out_of_place_reference_bitwise(
    n_points, kind, variance, separation, log_ratio, phi, chirp
):
    route = qndsim.fidelity._LatticeRoute(lattice_signal(kind, n_points, variance, separation))
    sigma_p = route.step * 10.0**log_ratio * math.tan(phi)
    spec = q.GaussianSpec(0.0, sigma_p**2)
    probe = q.build_gaussian(spec, q.auto_grid([spec], n_points=1024))
    if chirp:
        probe = chirped(probe, 0.8 / spec.variance, 0.3 / sigma_p)
    assert bits(route.probe_pair(probe, phi)) == bits(reference_probe_pair(route, probe, phi))
