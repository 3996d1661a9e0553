"""Real states are held in float64, and that changes no bits.

Every state the chain builds from real inputs is real, so it is held as float64.  Each
stage is run on the same inputs twice, held real and held as complex128 with zero
imaginary parts, and the outputs must be equal bit for bit once cast to complex128.
Where the complex-held run collapses to real arithmetic too (a spline with a zero
imaginary part is evaluated as one real spline), the stage is also checked against its
formula spelled out in complex arithmetic: a complex array divided by a real number is,
in numpy, a product with its reciprocal, which a real division is not.
"""

import math

import numpy as np
import pytest

import qndsim as q
from qndsim.cli import _load_signal
from qndsim.grids import amplitude_interpolator

PHI = 0.7
OUTCOMES = (-0.5, 0.0, 0.8)
CAT = q.CatSpec(1.8, 0.2025)
VACUUM = q.GaussianSpec(0.0, 0.25)


def bits(values):
    """The raw words of values cast to complex128: unlike ==, tells -0.0 from +0.0."""
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.uint64)


def assert_same_bits(a, b):
    assert np.array_equal(bits(a), bits(b))


def held_complex(wf):
    return q.WaveFunction(wf.grid, as_complex(wf.amplitudes))


def inputs(n_points=2048):
    policy = q.GridPolicy(n_points=n_points, halfspan=12.0)
    signal = q.build_state(CAT, policy.grid_for([CAT]))
    probe = q.build_state(VACUUM, policy.grid_for([VACUUM]))
    return signal, probe


def as_complex(values):
    return values.astype(np.complex128)


def complex_normalized(grid, values):
    """Complex values divided by their norm: the renormalization in complex arithmetic."""
    return values / math.sqrt(float(grid.weights @ np.abs(values) ** 2))


def test_builders_hold_real_states_in_float64_and_chirped_ones_in_complex128(tmp_path):
    signal, probe = inputs()
    assert signal.amplitudes.dtype == probe.amplitudes.dtype == np.float64
    path = tmp_path / "signal.csv"
    np.savetxt(path, np.column_stack((signal.grid.points, signal.amplitudes)), delimiter=",")
    assert _load_signal(f"file:{path}", q.GridPolicy()).amplitudes.dtype == np.float64
    chirped = q.WaveFunction.normalized(
        signal.grid, signal.amplitudes * np.exp(0.4j * signal.grid.points)
    )
    assert chirped.amplitudes.dtype == np.complex128
    assert q.conditional_output(chirped, probe, PHI, 0.3).amplitudes.dtype == np.complex128
    for x0 in OUTCOMES:
        assert q.conditional_output(signal, probe, PHI, x0).amplitudes.dtype == np.float64


@pytest.mark.parametrize("x0", OUTCOMES)
def test_conditional_output_is_bitwise_equal_held_real_or_complex(x0):
    signal, probe = inputs()
    real = q.conditional_output(signal, probe, PHI, x0).amplitudes
    assert real.dtype == np.float64
    held = q.conditional_output(held_complex(signal), held_complex(probe), PHI, x0).amplitudes
    assert held.dtype == np.complex128
    assert_same_bits(real, held)


@pytest.mark.parametrize("x0", OUTCOMES)
def test_staged_stages_are_bitwise_equal_held_real_or_complex(x0):
    signal, probe = inputs()
    c, s = math.cos(PHI), math.sin(PHI)
    grid, y = signal.grid, signal.grid.points
    raw = q.conditional_state_raw(signal, probe, PHI, x0)
    shifted = q.feedback_displace(raw, x0, PHI)
    squeezed = q.output_squeeze(shifted, PHI)
    for state in (raw, shifted, squeezed):
        assert state.amplitudes.dtype == np.float64
    # held complex, stage by stage
    held_raw = q.conditional_state_raw(held_complex(signal), held_complex(probe), PHI, x0)
    assert_same_bits(raw.amplitudes, held_raw.amplitudes)
    held_shifted = q.feedback_displace(held_complex(raw), x0, PHI)
    assert_same_bits(shifted.amplitudes, held_shifted.amplitudes)
    assert_same_bits(squeezed.amplitudes, q.output_squeeze(held_complex(shifted), PHI).amplitudes)
    # each stage's formula in complex arithmetic, on the real run's previous stage
    s_eval, p_eval = amplitude_interpolator(signal), amplitude_interpolator(probe)
    product = as_complex(s_eval(y * c + x0 * s * s)) * as_complex(p_eval(y * s - x0 * c * s))
    assert_same_bits(raw.amplitudes, complex_normalized(grid, product))
    moved = as_complex(amplitude_interpolator(raw)(y - x0 * s * math.tan(PHI)))
    assert_same_bits(shifted.amplitudes, complex_normalized(grid, moved))
    moved = as_complex(amplitude_interpolator(shifted)(y / c)) / math.sqrt(c)
    assert_same_bits(squeezed.amplitudes, complex_normalized(grid, moved))


def test_conditioned_on_mode2_is_bitwise_equal_held_real_or_complex():
    signal, probe = inputs(768)
    real = q.beam_splitter_transform(signal, probe, PHI)
    held = q.beam_splitter_transform(held_complex(signal), held_complex(probe), PHI)
    assert (real.amplitudes.dtype, held.amplitudes.dtype) == (np.float64, np.complex128)
    assert_same_bits(real.amplitudes, held.amplitudes)
    for reading in (-0.9, 0.0, 1.3):
        got = real.conditioned_on_mode2(reading).amplitudes
        assert got.dtype == np.float64
        assert_same_bits(got, held.conditioned_on_mode2(reading).amplitudes)


def test_homodyne_distribution_is_bitwise_equal_held_real_or_complex():
    signal, probe = inputs()
    real = q.homodyne_distribution(signal, probe, PHI)
    held = q.homodyne_distribution(held_complex(signal), held_complex(probe), PHI)
    assert real.grid == held.grid
    assert_same_bits(real.density, held.density)


def test_output_ensemble_is_bitwise_equal_held_real_or_complex():
    signal, probe = inputs(1024)
    real = q.output_ensemble(signal, probe, PHI)
    held_signal = held_complex(signal)
    held = q.output_ensemble(held_signal, held_complex(probe), PHI)
    assert_same_bits(real.trace(), held.trace())
    assert_same_bits(real.expectation(signal), held.expectation(held_signal))
