"""The line evaluator `dynamics._sum_lines` against plain per-sample sums.

`_sum_lines` factorizes uniform time grids into anchors and offsets and
corrects the float grid's rounding to first order; these tests hold it to
the sum it replaces, one exp per (line, sample), written out here, and each
table of a call on several to the call on that table alone, bit for bit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landauzb import dynamics
from landauzb.dynamics import _time_grid
from landauzb.units import TimeRangeError

EPS = np.finfo(float).eps


def sum_one(freq, amps, times, derivative=False, carrier=0.0):
    """`_sum_lines` on the one table (freq, amps, carrier)."""
    (sums,) = dynamics._sum_lines([(freq, amps, carrier)], times, derivative)
    return sums


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
    assert _time_grid(times)[2] == math.ceil(math.sqrt(samples))
    got = sum_one(freq, amps, times, derivative)
    assert got.shape == ((6 if derivative else 3), samples)
    assert peak_deviation(got, direct_sum(freq, amps, times, derivative)) <= 1e-13


@pytest.mark.parametrize("derivative", [False, True])
def test_nonuniform_grids_take_the_direct_sum(derivative):
    rng = np.random.default_rng(7)
    freq, amps = lines(rng, 500, channels=2)
    full = np.linspace(0.0, 30.0, 1000)
    probe = full[np.unique(np.linspace(0, full.size - 1, 9).astype(int))]
    for times in (probe, np.geomspace(0.5, 40.0, 60)):
        assert _time_grid(times)[2] == 1
        got = sum_one(freq, amps, times, derivative)
        assert peak_deviation(got, direct_sum(freq, amps, times, derivative)) <= 1e-13


@pytest.mark.parametrize("derivative", [False, True])
def test_carrier_matches_direct_sum_at_the_full_frequency(derivative):
    # interband lines are summed as their slow part on a 2 mc^2 carrier,
    # e^{-i (w + 2) t} = e^{-i w t} e^{-2 i t}: a derivative row gains -2i times
    # its line sum, and the grid's rounding delta is corrected on w alone
    rng = np.random.default_rng(5)
    freq, amps = lines(rng, 700, channels=2, low=1e-3, high=0.5)
    uniform = np.linspace(0.0, 30.0, 401)
    for times, n_offsets in ((uniform, 21), (uniform + 7.0, 21), (np.geomspace(0.5, 40.0, 60), 1)):
        _, _, offsets, delta = _time_grid(times)
        assert offsets == n_offsets and (offsets == 1 or np.any(delta))
        got = sum_one(freq, amps, times, derivative, 2.0)
        assert peak_deviation(got, direct_sum(freq + 2.0, amps, times, derivative)) <= 1e-13


def count_complex_exps(monkeypatch, *args):
    """sum_one(*args), and the number of complex elements np.exp was asked for."""
    counted = []
    real_exp = np.exp

    def counting_exp(x, *rest, **kwargs):
        if np.iscomplexobj(x):
            counted.append(np.size(x))
        return real_exp(x, *rest, **kwargs)

    monkeypatch.setattr(dynamics.np, "exp", counting_exp)
    sum_one(*args)
    monkeypatch.undo()
    return sum(counted)


@pytest.mark.parametrize("derivative", [False, True])
def test_phases_cost_three_exps_per_line(derivative, monkeypatch):
    # a uniform grid builds the anchor and offset phases by repeated products
    # from three exps per line (start, anchor step, offset step), two when
    # it starts at t = 0: a silent fallback to one exp per anchor or per
    # offset (20 + 21 here) fails
    rng = np.random.default_rng(11)
    freq, amps = lines(rng, 5000, channels=2)
    times = np.linspace(0.0, 30.0, 401)
    n_offsets = _time_grid(times)[2]
    assert n_offsets == 21 and np.any(_time_grid(times)[3])
    n_anchors = -(-times.size // n_offsets)
    assert freq.size > dynamics.TILE_ELEMENTS // (2 * len(amps) * n_anchors)   # two tiles or more
    assert 0 < count_complex_exps(monkeypatch, freq, amps, times, derivative) <= 2 * freq.size
    assert 0 < count_complex_exps(monkeypatch, freq, amps, times + 7.0, derivative) <= 3 * freq.size
    # a carrier adds one exp per sample, whatever the number of lines
    assert 0 < count_complex_exps(monkeypatch, freq, amps, times, derivative,
                                  2.0) <= 2 * freq.size + times.size
    # a non-uniform grid takes one exp per sample
    times = np.geomspace(0.5, 40.0, 60)
    assert 0 < count_complex_exps(monkeypatch, freq, amps, times, derivative) <= times.size * freq.size


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
    assert np.any(_time_grid(times)[3])
    want = amps @ phases
    assert np.min(np.abs(want)) > 0.9 * np.max(np.abs(want))
    assert peak_deviation(sum_one(freq, amps, times), want) <= 1e-6


@st.composite
def grids(draw):
    samples = draw(st.integers(1, 2401))
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
    carrier=st.sampled_from([0.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_matches_direct_sum(times, phase_scale, count, channels, derivative, carrier,
                                  seed):
    """Uniform, ulp-perturbed and jittered grids; w t_max from 1e-3 to 1e10.

    Each line's phase w t carries a rounding of order eps w t in either
    evaluator, so a row may differ by sum_f |A_rf| (1e-13 + 16 eps w_f t_max)
    for its amplitudes A (a, or -i w a for a derivative row), with w the full
    frequency (line plus carrier) of the direct sum.
    """
    rng = np.random.default_rng(seed)
    t_max = float(np.max(np.abs(times))) or 1.0
    freq, amps = lines(rng, count, channels, 0.5, 1.0)
    freq *= 10.0**phase_scale / t_max
    got = sum_one(freq, amps, times, derivative, carrier)
    full = freq + carrier
    want = direct_sum(full, amps, times, derivative)
    rows = np.concatenate([amps, -1j * full * amps] if derivative else [amps])
    bound = np.abs(rows) @ (1e-13 + 16 * EPS * full * t_max)
    assert np.all(np.max(np.abs(got - want), axis=1) <= bound)


def test_a_complex_line_table_is_checked_on_its_modulus():
    # lines on a k_z ray have complex frequencies w, each decaying as e^{Im(w) t}:
    # a phase rounds by eps |w| t, so the range check reads |w|.  Here eps Re(w) t
    # stays below 1e-3 rad while eps |w| t passes a radian; max(freq) of a complex
    # table ordered it by Re w and float() of it dropped Im w with a ComplexWarning
    freq, amps = np.array([1.0 - 1.0e3j]), np.ones((1, 1), complex)
    edge = 1.0 / (EPS * abs(freq[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = sum_one(freq, amps, np.linspace(0.0, 0.5 * edge, 3))
        assert inside[0, 0] == 1.0 and np.all(np.isfinite(inside))
        with pytest.raises(TimeRangeError, match=r"lines up to 1e\+03/t_c"):
            sum_one(freq, amps, np.linspace(0.0, 2.0 * edge, 3))


def tile_lines(times, channels, derivative):
    """r_max: the lines of one tile, where each table is cut from its own start."""
    _, _, n_offsets, delta = _time_grid(times)
    n_anchors = -(-times.size // n_offsets)
    orders = (2 if derivative else 1) + bool(np.any(delta))
    return dynamics.TILE_ELEMENTS // (channels * n_anchors + orders * n_offsets + n_anchors)


def tile_shapes(monkeypatch, *args):
    """sum_one(*args), and the shape of each complex array np.empty was asked for."""
    shapes = []
    real_empty = np.empty

    def recording(shape, *rest, **kwargs):
        shapes.append(shape)
        return real_empty(shape, *rest, **kwargs)

    monkeypatch.setattr(dynamics.np, "empty", recording)
    sum_one(*args)
    monkeypatch.undo()
    return shapes


@pytest.mark.parametrize("grid", ["from zero", "shifted"])
def test_derivative_rows_ride_on_the_offset_table(grid, monkeypatch):
    # the orders (-i w)^m, the derivative and the next one that delta needs, multiply
    # the offset table's rows, not the stacked anchor rows: with derivative=True the
    # tile holds the C ceil(T/J) stacked rows of derivative=False and J more offset rows
    times = GRIDS[grid]
    _, _, n_offsets, delta = _time_grid(times)
    assert n_offsets == 21 and np.any(delta)
    n_anchors = -(-times.size // n_offsets)
    freq, amps = lines(np.random.default_rng(3), 700, channels=3)
    (plain,), (both,) = (tile_shapes(monkeypatch, freq, amps, times, derivative)
                         for derivative in (False, True))
    assert plain[0] == 3 * n_anchors + 2 * n_offsets
    assert both[0] == 3 * n_anchors + 3 * n_offsets


GRIDS = {
    "from zero": np.linspace(0.0, 30.0, 401),
    "shifted": np.linspace(0.0, 30.0, 401) + 7.0,
    "direct": np.geomspace(0.5, 40.0, 60),         # J = 1
}


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("derivative", [False, True])
def test_each_table_of_a_call_is_summed_as_alone(grid, derivative):
    # one call on many tables: two longer than r_max (cut from their own start,
    # so the second shares its first tile with the first one's tail), short ones
    # sharing a tile, carriers 0 and 2, real and complex (k_z ray) tables side by
    # side, and (pairs, K) block shapes.  Each table's sum is that of its call
    # alone, bit for bit
    times = GRIDS[grid]
    assert (_time_grid(times)[2] == 1) == (grid == "direct")
    rng = np.random.default_rng(17)
    cut = tile_lines(times, 2, derivative)
    tables = []
    for k, size in enumerate([2 * cut + 17, cut + 3, 40, 3, 1, cut - 1, 12 * 5]):
        freq, amps = lines(rng, size, channels=2, low=1e-3, high=0.5)
        if k % 3 == 1:
            freq = freq - 1j * rng.uniform(0.0, 1e-2, size)
        if k == 6:
            freq, amps = freq.reshape(12, 5), amps.reshape(2, 12, 5)
        tables.append((freq, amps, 2.0 * (k % 2)))
    got = dynamics._sum_lines(tables, times, derivative)
    assert len(got) == len(tables)
    for sums, table in zip(got, tables):
        alone = sum_one(table[0], table[1], times, derivative, *table[2:])
        assert sums.shape == alone.shape == ((4 if derivative else 2), times.size)
        assert sums.tobytes() == alone.tobytes()


@pytest.mark.parametrize("derivative", [False, True])
def test_tables_that_share_a_tile_share_its_exps(derivative, monkeypatch):
    # five short tables of one call fit one tile: the anchor and offset steps are
    # one np.exp each over all their lines (on a grid from t = 0), and the three
    # tables on the carrier share its one exp per sample
    times = np.linspace(0.0, 30.0, 401)
    rng = np.random.default_rng(2)
    tables = [(*lines(rng, 50, channels=1), carrier) for carrier in (0.0, 2.0, 2.0, 0.0, 2.0)]
    assert 5 * 50 <= tile_lines(times, 1, derivative)
    calls = []
    real_exp = np.exp

    def counting_exp(x, *rest, **kwargs):
        calls.append(np.size(x))
        return real_exp(x, *rest, **kwargs)

    monkeypatch.setattr(dynamics.np, "exp", counting_exp)
    got = dynamics._sum_lines(tables, times, derivative)
    monkeypatch.undo()
    assert sorted(calls) == [5 * 50] * 2 + [times.size]
    for sums, table in zip(got, tables):
        assert sums.tobytes() == sum_one(table[0], table[1], times, derivative,
                                         table[2]).tobytes()


def test_every_table_is_range_checked_before_any_phase():
    # a table past the phase bound raises with its own top line, whatever its place
    edge = 1.0 / (EPS * 3.0)
    times = np.linspace(0.0, 0.5 * edge, 3)
    fine = (np.array([0.5]), np.ones((1, 1)), 0.0)
    far = (np.array([5.0]), np.ones((1, 1)), 2.0)
    with pytest.raises(TimeRangeError, match=r"lines up to 7/t_c"):
        dynamics._sum_lines([fine, far, fine], times)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    times=grids(),
    sizes=st.lists(st.sampled_from(["1", "2", "cut-1", "cut", "cut+1", "2cut+1", "17"]),
                   min_size=1, max_size=6),
    kinds=st.lists(st.booleans(), min_size=6, max_size=6),
    channels=st.integers(1, 3),
    derivative=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_each_table_is_summed_as_alone(times, sizes, kinds, channels, derivative, seed):
    """Tables of one line, around r_max and past it, real and complex, carriers 0 and 2."""
    rng = np.random.default_rng(seed)
    t_max = float(np.max(np.abs(times))) or 1.0
    cut = tile_lines(times, channels, derivative)
    count = {"1": 1, "2": 2, "cut-1": cut - 1, "cut": cut, "cut+1": cut + 1,
             "2cut+1": 2 * cut + 1, "17": 17}
    tables = []
    for k, size in enumerate(sizes):
        freq, amps = lines(rng, max(1, count[size]), channels, 0.5, 1.0)
        freq = freq * (10.0 / t_max)
        if kinds[k]:
            freq = freq - 1j * rng.uniform(0.0, 0.1, freq.size) / t_max
        tables.append((freq, amps, 2.0 * (k % 2)))
    got = dynamics._sum_lines(tables, times, derivative)
    for sums, (freq, amps, carrier) in zip(got, tables, strict=True):
        assert sums.tobytes() == sum_one(freq, amps, times, derivative, carrier).tobytes()
