"""The line evaluator `dynamics._sum_lines` against plain per-sample sums.

`_sum_lines` factorizes uniform time grids into anchors and offsets and
corrects the float grid's rounding to first order; these tests hold it to
the sum it replaces, one exp per (line, sample), written out here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landauzb.dynamics import _sum_lines, _time_grid

EPS = np.finfo(float).eps


def direct_sum(freq, amps, times, derivative=False):
    """sum_f amps[c, f] e^{-i freq_f t}, one sample at a time."""
    rows = [amps, -1j * freq * amps] if derivative else [amps]
    out = np.empty((len(rows) * len(amps), times.size), dtype=complex)
    for m, t in enumerate(times):
        out[:, m] = np.concatenate(rows) @ np.exp(-1j * (freq * t))
    return out


def lines(rng, count, channels, low=0.1, high=3.0):
    freq = rng.uniform(low, high, count)
    amps = rng.normal(size=(channels, count)) + 1j * rng.normal(size=(channels, count))
    return freq, amps


def peak_deviation(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("samples", [1, 2, 17, 401, 1000])
@pytest.mark.parametrize("derivative", [False, True])
def test_uniform_grid_matches_direct_sum(samples, derivative):
    rng = np.random.default_rng(samples)
    freq, amps = lines(rng, 700, channels=3)
    times = np.linspace(0.0, 20.0, samples)
    assert _time_grid(times)[1].size == math.ceil(math.sqrt(samples))
    got = _sum_lines(freq, amps, times, derivative)
    assert got.shape == ((6 if derivative else 3), samples)
    assert peak_deviation(got, direct_sum(freq, amps, times, derivative)) <= 1e-13


@pytest.mark.parametrize("derivative", [False, True])
def test_nonuniform_grids_take_the_direct_sum(derivative):
    rng = np.random.default_rng(7)
    freq, amps = lines(rng, 500, channels=2)
    full = np.linspace(0.0, 30.0, 1000)
    probe = full[np.unique(np.linspace(0, full.size - 1, 9).astype(int))]
    for times in (probe, np.geomspace(0.5, 40.0, 60)):
        assert _time_grid(times)[1].size == 1
        got = _sum_lines(freq, amps, times, derivative)
        assert peak_deviation(got, direct_sum(freq, amps, times, derivative)) <= 1e-13


def longdouble_phases(freq, times):
    """e^{-i w t} per (line, sample), each phase w t formed and reduced in np.longdouble."""
    two_pi = 8 * np.arctan(np.longdouble(1))
    phase = np.multiply.outer(freq.astype(np.longdouble), times.astype(np.longdouble))
    return np.exp(-1j * np.fmod(phase, two_pi).astype(float))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision np.longdouble")
def test_decay_window_rounding_correction():
    """The sixth 20 T decay window, [1.04e10, 1.44e10]: its rounding must be corrected.

    The lines sit on the lattice 2 + 2 pi n / h of the sample step h and are
    phase-aligned at the first sample, so the sum keeps its full coherent
    size at every sample while the exp rounding of each line averages out.
    Dropping the residual delta = t - T_c - tau_j costs about w |delta|
    ~ 3e-6 of the peak; the first-order correction brings it to the
    rounding floor.
    """
    times = np.linspace(*np.geomspace(2.0e9, 2.0e10, 8)[5:7], 257)
    freq = 2.0 + 2.0 * np.pi / (times[1] - times[0]) * np.arange(2048)
    assert freq[-1] <= 2.001
    weights = np.hanning(freq.size + 2)[1:-1]
    phases = longdouble_phases(freq, times)
    amps = (weights * np.conj(phases[:, 0]))[None, :]
    assert np.any(_time_grid(times)[2])
    want = amps @ phases
    assert np.min(np.abs(want)) > 0.9 * np.max(np.abs(want))
    assert peak_deviation(_sum_lines(freq, amps, times), want) <= 1e-6


@st.composite
def grids(draw):
    samples = draw(st.integers(1, 600))
    t_max = 10.0 ** draw(st.floats(-2.0, 10.0))
    start = draw(st.sampled_from([0.0, 0.25, 0.7])) * t_max
    times = np.linspace(start, t_max, samples)
    kind = draw(st.sampled_from(["uniform", "ulps", "jitter"]))
    if kind != "uniform" and samples > 2:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        moved = rng.integers(0, samples, size=max(1, samples // 10))
        if kind == "ulps":
            times[moved] += rng.integers(-16, 17, moved.size) * np.spacing(times[moved])
        else:
            times[moved] += rng.uniform(-0.3, 0.3, moved.size) * (t_max - start) / samples
    return times


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    times=grids(),
    phase_scale=st.floats(-3.0, 10.0),
    count=st.integers(1, 40),
    channels=st.integers(1, 3),
    derivative=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_matches_direct_sum(times, phase_scale, count, channels, derivative, seed):
    """Uniform, ulp-perturbed and jittered grids; w t_max from 1e-3 to 1e10.

    Each line's phase w t carries a rounding of order eps w t in either
    evaluator, so a row may differ by sum_f |A_rf| (1e-13 + 16 eps w_f t_max)
    for its amplitudes A (a, or -i w a for a derivative row).
    """
    rng = np.random.default_rng(seed)
    t_max = float(np.max(np.abs(times))) or 1.0
    freq, amps = lines(rng, count, channels, 0.5, 1.0)
    freq *= 10.0**phase_scale / t_max
    got = _sum_lines(freq, amps, times, derivative)
    want = direct_sum(freq, amps, times, derivative)
    rows = np.concatenate([amps, -1j * freq * amps] if derivative else [amps])
    bound = np.abs(rows) @ (1e-13 + 16 * EPS * freq * t_max)
    assert np.all(np.max(np.abs(got - want), axis=1) <= bound)
