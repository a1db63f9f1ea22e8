import dataclasses
import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landauzb import FieldConfig, GaussianPacket
from landauzb import cli, dynamics, oracle
from landauzb.landau import landau_energies, landau_energy
from landauzb.packet import DimensionalityError, axial_grid, axial_nodes, coefficient_matrix
from landauzb.units import COMPTON_LENGTH, TimeRangeError
from test_sum_lines import longdouble_phases

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def max_rel_dev(traj, evolved):
    scale = max(np.max(np.abs(evolved.x)), np.max(np.abs(evolved.y)))
    return max(
        np.max(np.abs(traj.x - evolved.x)), np.max(np.abs(traj.y - evolved.y))
    ) / scale


def test_trajectory_starts_at_origin(critical_field, packet_2p1, coeffs_2p1):
    times = np.linspace(0.0, 20.0, 101)
    traj = dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, times)
    assert traj.x[0] == 0.0
    assert traj.y[0] == 0.0
    assert abs(traj.vx[0]) < 1e-12
    assert abs(traj.vy[0]) < 1e-12


def test_offset_identity(critical_field, packet_2p1, coeffs_2p1):
    times = np.linspace(0.0, 1.0, 5)
    traj = dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, times)
    assert abs(traj.subtracted_constant) < 1e-8 * critical_field.magnetic_length
    assert math.isclose(
        traj.y_operator_initial,
        -packet_2p1.k0x * critical_field.magnetic_length**2,
        rel_tol=1e-12,
    )


def test_2p1_matches_oracle_second_component(critical_field, packet_2p1, coeffs_2p1):
    times = np.linspace(0.0, 40.0, 321)
    traj = dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, times)
    evolved = oracle.evolve_expectations(
        packet_2p1, critical_field, times, n_levels=coeffs_2p1.n_max + 20
    )
    assert max_rel_dev(traj, evolved) < 1e-9
    assert np.max(np.abs(traj.vx - evolved.vx)) < 1e-9
    assert np.max(np.abs(traj.vy - evolved.vy)) < 1e-9


def test_2p1_matches_oracle_first_component(critical_field):
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, k0x=0.5, a1=1.0, a2=0.0, dimensionality="2+1")
    coeffs = coefficient_matrix(pkt, critical_field)
    times = np.linspace(0.0, 40.0, 321)
    traj = dynamics.trajectory_2p1(pkt, coeffs, critical_field, times)
    evolved = oracle.evolve_expectations(
        pkt, critical_field, times, n_levels=coeffs.n_max + 21
    )
    assert max_rel_dev(traj, evolved) < 1e-9


def test_3p1_reduces_to_2p1_for_narrow_axial_density(critical_field, packet_2p1, coeffs_2p1):
    wide = GaussianPacket(
        d_x=packet_2p1.d_x, d_y=packet_2p1.d_y, d_z=5e5, k0x=packet_2p1.k0x,
        a1=0.0, a2=1.0, dimensionality="3+1",
    )
    coeffs = coefficient_matrix(wide, critical_field)
    times = np.linspace(0.0, 30.0, 201)
    t3 = dynamics.trajectory_3p1(wide, coeffs, critical_field, times)
    t2 = dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, times)
    scale = max(np.max(np.abs(t2.x)), np.max(np.abs(t2.y)))
    assert np.max(np.abs(t3.y - t2.y)) / scale < 1e-6
    assert np.max(np.abs(t3.x - t2.x)) / scale < 1e-6


def test_3p1_mixing_matches_oracle(critical_field, mixed_packet_3p1, mixed_coeffs_3p1):
    times = np.linspace(0.0, 25.0, 201)
    traj = dynamics.trajectory_3p1(mixed_packet_3p1, mixed_coeffs_3p1, critical_field, times)
    evolved = oracle.evolve_expectations(
        mixed_packet_3p1, critical_field, times, n_levels=mixed_coeffs_3p1.n_max + 20
    )
    assert max_rel_dev(traj, evolved) < 1e-8
    assert np.max(np.abs(traj.vx - evolved.vx)) < 1e-8
    assert np.max(np.abs(traj.vy - evolved.vy)) < 1e-8


@pytest.fixture(scope="module")
def axial_pair_3p1(critical_field):
    """The two-component k0z = 0 3+1 packet of criterion 9."""
    amp = complex(math.sqrt(0.5))
    pkt = GaussianPacket(d_x=1.5, d_y=1.3, d_z=1.5, k0x=0.5, k0z=0.0,
                         a1=amp, a2=amp, dimensionality="3+1")
    return pkt, coefficient_matrix(pkt, critical_field)


def test_3p1_two_component_axial_symmetric_matches_oracle(critical_field, axial_pair_3p1):
    # the series folds the k_z grid and skips the mixing rows; the oracle
    # integrates every row over the signed grid
    pkt, coeffs = axial_pair_3p1
    times = np.linspace(0.0, 20.0, 161)
    traj = dynamics.trajectory_3p1(pkt, coeffs, critical_field, times)
    evolved = oracle.evolve_expectations(pkt, critical_field, times, n_levels=coeffs.n_max + 20)
    assert max_rel_dev(traj, evolved) < 1e-6
    assert np.max(np.abs(traj.vx - evolved.vx)) < 1e-6
    assert np.max(np.abs(traj.vy - evolved.vy)) < 1e-6


def test_folded_rule_matches_signed_rule(critical_field, axial_pair_3p1):
    # doubled mixing rows on the folded rule would show here: the signed
    # grid cancels them pair by pair
    pkt, coeffs = axial_pair_3p1
    times = np.linspace(0.0, 40.0, 161)
    signed = axial_grid(pkt, 256)
    folded = dynamics._fold(pkt, signed)
    assert folded[0].size == 129 and np.all(folded[0] >= 0.0)
    for parts in dynamics.PARTS:
        for derivative in (False, True):
            ref, _ = dynamics._series(pkt, coeffs, critical_field, times, signed, parts,
                                      derivative=derivative)
            out, _ = dynamics._series(pkt, coeffs, critical_field, times, folded, parts,
                                      derivative=derivative)
            peak = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.max(np.abs(out - ref) / peak) < 1e-13


def test_line_blocks_build_only_the_requested_channels(critical_field, packet_3p1, coeffs_3p1,
                                                       axial_pair_3p1, mixed_packet_3p1,
                                                       mixed_coeffs_3p1):
    # x alone, y alone and both in either order are the matching rows of the
    # full table bit for bit, at the same frequencies and levels
    cases = [(packet_3p1, coeffs_3p1, None), (*axial_pair_3p1, None),
             (mixed_packet_3p1, mixed_coeffs_3p1, None),
             (mixed_packet_3p1, mixed_coeffs_3p1, (0.0, 0.0, 1.0))]
    for pkt, coeffs, sources in cases:
        rule = axial_grid(pkt, 64)
        for parts in dynamics.PARTS:
            full = list(dynamics._line_blocks(pkt, coeffs, critical_field, *rule, parts,
                                              (0, 1), sources))
            assert len(full) == (2 if parts == "all" else 1)
            for channels in ((0,), (1,), (0, 1), (1, 0)):
                blocks = dynamics._line_blocks(pkt, coeffs, critical_field, *rule, parts,
                                               channels, sources)
                for ref, block in zip(full, blocks, strict=True):
                    assert block.interband == ref.interband
                    assert np.array_equal(block.freq, ref.freq)
                    assert np.array_equal(block.levels, ref.levels)
                    assert np.array_equal(block.amps, ref.amps[list(channels)])


def per_source_amplitudes(pkt, coeffs, field, kz, weights, sources):
    """{interband: (x, y, |x terms|, |y terms|)} over rows n = 0..n_max, in np.longdouble.

    Each source is its own term, as first derived: w_second on the pair (n, n+1)
    with S_n, w_first one level up with S_{n-1} and E_lo, E_hi trading places in
    the cosine ratio, and the mixing integrals J = U_nn k_z omega w / (E_lo E_hi)
    added to Re x and Re y.  Inputs are the float energies and weights of
    `_line_blocks`; x holds the complex amplitudes, i (sine terms) + mixing."""
    ld = np.longdouble
    w_second, w_first, w_mixing = sources
    u = coeffs.u.astype(ld)
    n_pairs = coeffs.n_max
    energies = landau_energies(n_pairs + 1, kz, field).astype(ld)
    e_lo, e_hi = energies[:-1], energies[1:]
    omega = ld(field.omega)
    pref = ld(field.magnetic_length) / (2 * np.sqrt(ld(2)))
    s = np.zeros(n_pairs + 2, ld)
    s[1:-1] = np.sqrt(np.arange(1, n_pairs + 1, dtype=ld)) * (np.diagonal(u, 1) + np.diagonal(u, -1))
    second = ld(w_second) * pref * s[1:, None] * weights.astype(ld)
    first = ld(w_first) * pref * s[:-1, None] * weights.astype(ld)
    j = np.diagonal(u)[:, None] * kz.astype(ld) * omega / (e_lo * e_hi) * weights.astype(ld)
    diff = omega**2 / (e_hi + e_lo)
    lines = {
        False: (-(1 / e_lo + 1 / e_hi), -(1 / e_lo + 1 / e_hi), 1 + e_lo / e_hi, 1 + e_hi / e_lo),
        True: (diff / (e_lo * e_hi), diff / (e_lo * e_hi), diff / e_hi, -diff / e_lo),
    }
    out = {}
    for interband, (x2, x1, y2, y1) in lines.items():
        sign = -1 if interband else 1
        x_terms = (second * x2, first * x1)
        mix_x, mix_y = (sign * ld(c) * j for c in (np.imag(w_mixing), np.real(w_mixing)))
        y_terms = (second * y2, first * y1, mix_y)
        out[interband] = (1j * sum(x_terms) + mix_x, sum(y_terms),
                          sum(map(abs, x_terms)) + abs(mix_x), sum(map(abs, y_terms)))
    return out


def test_line_amplitudes_match_the_per_source_formulas(critical_field, mixed_packet_3p1,
                                                       mixed_coeffs_3p1):
    # the closed form N r (s2 E_lo +- s1 E_hi) and its x twin, against each source's
    # term as first derived, in extended precision: within 8 eps of the sum of the
    # |terms| of each amplitude, for both classes, both components and the mixing rows
    pair_2p1 = GaussianPacket(d_x=1.5, d_y=1.2, k0x=0.5, a1=0.6, a2=0.8j, dimensionality="2+1")
    cases = [(mixed_packet_3p1, mixed_coeffs_3p1, axial_grid(mixed_packet_3p1, 64))] * 2
    cases.append((pair_2p1, coefficient_matrix(pair_2p1, critical_field),
                  (np.zeros(1), np.ones(1))))
    for (pkt, coeffs, rule), given in zip(cases, (None, (0.0, 0.0, 1.0), None)):
        L = critical_field.magnetic_length
        mixing = pkt.dimensionality == "3+1" and pkt.k0z != 0.0
        sources = given or (abs(pkt.a2) ** 2, abs(pkt.a1) ** 2,
                            mixing * (L / math.sqrt(2.0)) * np.conj(pkt.a2) * pkt.a1)
        want = per_source_amplitudes(pkt, coeffs, critical_field, *rule, sources)
        for channels in ((0,), (1,), (0, 1)):
            blocks = list(dynamics._line_blocks(pkt, coeffs, critical_field, *rule, "all",
                                                channels, given))
            assert [block.interband for block in blocks] == [False, True]
            for block in blocks:
                x, y, x_mass, y_mass = (v[block.levels] for v in want[block.interband])
                assert np.all(y_mass > 0.0)
                for c, got in zip(channels, block.amps):
                    ref, mass = (x, x_mass) if c == 0 else (y, y_mass)
                    assert np.all(np.abs(got - ref) <= 8 * dynamics.EPS * mass)


def test_fold_is_identity_with_axial_momentum(mixed_packet_3p1):
    rule = axial_grid(mixed_packet_3p1, 256)
    assert dynamics._fold(mixed_packet_3p1, rule) is rule


def test_folded_rule_nests_bit_for_bit(packet_3p1):
    # even-index nodes of the folded 2K rule, weights doubled, are the folded K
    # rule, for every K = m 2^e (m in 5..8) that `packet.axial_nodes` gives
    for points in (m << e for m in range(5, 9) for e in (3, 7)):
        kz, w = dynamics._fold(packet_3p1, axial_grid(packet_3p1, 2 * points))
        kz_half, w_half = dynamics._fold(packet_3p1, axial_grid(packet_3p1, points))
        assert np.array_equal(kz[::2], kz_half)
        assert np.array_equal(2.0 * w[::2], w_half)


def _envelope_signals():
    """(label, packet, field, times, parts, kz_rtol) of the two envelope workloads."""
    field = FieldConfig.from_kappa((0.06 * 68000.0 / 12000.0) ** 2)
    L = field.magnetic_length
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        persistence = GaussianPacket(d_x=L, d_y=L, d_z=L, k0x=math.sqrt(2.0) / L,
                                     dimensionality="3+1", relax_momentum_bound=True)
    weak = FieldConfig.from_tesla(20.0)
    decay = GaussianPacket(d_x=2.0e4, d_y=1.8e4, d_z=1.5e4, k0x=8.72e7 * COMPTON_LENGTH,
                           dimensionality="3+1")
    edges = np.geomspace(2.0e9, 2.0e10, 8)
    return [
        ("persistence", persistence, field, np.linspace(0.0, 1200.0, 401), "all", 1e-7),
        ("decay", decay, weak, np.linspace(edges[5], edges[6], 257), "interband", 1e-6),
    ]


def _bundled_3p1_cases():
    """(label, packet, field, times, parts, kz_rtol, channels) of every bundled 3+1
    config (the trajectory's x and y) and envelope signal (analytic_signal's y)."""
    cases = []
    for name in ("relativistic_3p1", "collapse_revival_3p1", "mixing_3p1", "lowfield_zb_3p1"):
        cfg = cli.load_config(str(CONFIG_DIR / f"{name}.json"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field, _, pkt, num, _ = cli._build_everything(cfg)
        cases.append((name, pkt, field, cli.resolve_times(cfg),
                      cli._section(cfg, "output")["parts"], num["kz_rtol"], (0, 1)))
    return cases + [(*signal, (1,)) for signal in _envelope_signals()]


def _series_on_rules(pkt, coeffs, field, times, rules, channels, factor=1):
    """The sum of every line class's `_series` on its folded rule of factor K_c nodes."""
    return sum(dynamics._series(pkt, coeffs, field, times,
                                dynamics._fold(pkt, axial_grid(pkt, factor * points)), kind,
                                channels)[0]
               for kind, points in rules.items())


def test_accepted_axial_rungs_follow_the_aliasing_bound():
    # the accepted rule of each line class before folding: the interband bound
    # (461, 2297, 112, 2293 and 1766 nodes) rounded up to m 2^e, m in 5..8, and
    # lowfield_zb_3p1 raised from 24 to the 64-node floor.  The intraband lines
    # move with k_z as omega^2/(E_n + E_{n+1}) and take about a tenth of the
    # nodes; on mixing_3p1 their rule is the floor
    expected = {
        "relativistic_3p1": {"interband": 512, "intraband": 112},
        "collapse_revival_3p1": {"interband": 2560, "intraband": 256},
        "mixing_3p1": {"interband": 112, "intraband": 64},
        "lowfield_zb_3p1": {"interband": 64},
        "persistence": {"interband": 2560, "intraband": 224},
        "decay": {"interband": 1792},
    }
    found = {}
    for label, pkt, field, times, parts, rtol, channels in _bundled_3p1_cases():
        coeffs = coefficient_matrix(pkt, field)
        found[label] = dynamics._axial_sums(pkt, coeffs, field, times, rtol, parts, channels)[0]
    assert found == expected


def test_accepted_axial_rule_is_within_kz_rtol_of_twice_its_nodes():
    # the doubling residual, checked here instead of on every call: the
    # returned position sums lie within kz_rtol of every class on the rule with
    # twice its nodes, on every sample, relative to the scale the bound is
    # checked on
    for label, pkt, field, times, parts, rtol, channels in _bundled_3p1_cases():
        coeffs = coefficient_matrix(pkt, field)
        rules, sums = dynamics._axial_sums(pkt, coeffs, field, times, rtol, parts, channels)
        finer = _series_on_rules(pkt, coeffs, field, times, rules, channels, 2)
        pos = sums.real
        scale = max(np.max(np.abs(pos[-1] - pos[-1, 0])), np.max(np.abs(pos[:-1]), initial=0.0))
        assert np.max(np.abs(pos - finer.real)) <= rtol * scale, label


def _error_against_four_times_the_nodes(kappa, d_x, d_y, d_z, k0x, k0z, theta, phase, t_max,
                                       rtol, parts, channels):
    """|accepted sum - every class on the rule of four times its nodes| over rtol times the scale.

    A random 3+1 trajectory, widths and momenta in units of L, on 41 samples
    of [0, t_max]; the scale is the one `_axial_sums` checks its bound on."""
    field = FieldConfig.from_kappa(kappa)
    L = field.magnetic_length
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # momenta beyond the nominal velocity bound
        pkt = GaussianPacket(d_x=d_x * L, d_y=d_y * L, d_z=d_z * L, k0x=k0x / L, k0z=k0z / L,
                             a1=math.cos(theta), a2=math.sin(theta) * np.exp(1j * phase),
                             dimensionality="3+1", relax_momentum_bound=True)
    coeffs = coefficient_matrix(pkt, field)
    times = np.linspace(0.0, t_max, 41)
    rules, sums = dynamics._axial_sums(pkt, coeffs, field, times, rtol, parts, channels)
    finer = _series_on_rules(pkt, coeffs, field, times, rules, channels, 4)
    pos = sums.real
    scale = max(np.max(np.abs(pos[-1] - pos[-1, 0])), np.max(np.abs(pos[:-1]), initial=0.0))
    return np.max(np.abs(pos - finer.real)) / (rtol * scale)


@settings(max_examples=30, deadline=None)
@given(
    kappa=st.floats(min_value=math.log(1e-3), max_value=math.log(20.0)).map(math.exp),
    d_z=st.floats(min_value=math.log(0.2), max_value=math.log(5.0)).map(math.exp),
    k0z=st.one_of(st.just(0.0), st.floats(min_value=-0.8, max_value=0.8)),
    t_max=st.floats(min_value=0.0, max_value=math.log(200.0)).map(math.exp),
    rtol=st.floats(min_value=math.log(1e-11), max_value=math.log(1e-6)).map(math.exp),
    parts=st.sampled_from(dynamics.PARTS),
    channels=st.sampled_from([(0, 1), (1,)]),
    k0x=st.floats(min_value=0.05, max_value=0.9),
    theta=st.floats(min_value=0.0, max_value=0.5 * math.pi),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_accepted_axial_rule_is_within_kz_rtol_of_four_times_its_nodes(kappa, d_z, k0z, t_max,
                                                                       rtol, parts, channels,
                                                                       k0x, theta, phase):
    # the rules the aliasing bound accepts, one per line class, rounded up to
    # m 2^e nodes, lie within kz_rtol of the rules with four times their nodes,
    # each class on its own, for the (x, y) of
    # a trajectory and the y alone of `analytic_signal`.  k0x > 0: a packet at
    # rest in the plane with k0z ~ 0 moves by rounding alone, and the call
    # raises, as it should, on a target below eps A
    assert _error_against_four_times_the_nodes(kappa, 1.2, 1.4, d_z, k0x, k0z, theta, phase,
                                               t_max, rtol, parts, channels) <= 1.0


@pytest.mark.parametrize("kappa, d_x, d_y, d_z, k0x, k0z, theta, phase, t_max, rtol", [
    (0.003835705500308189, 1.0864197627621115, 1.2161910216430953, 1.8966393040865457,
     0.20307887165601493, -3.482829234627565, 0.8080425855952975, 0.2581649830458832,
     1.1174972739766085, 1.124860466615714e-11),
    (0.002165071572823182, 1.331320260949813, 0.8392930068816971, 0.2929526378706123,
     0.5335567937272743, 0.0, 0.8599087866640873, 6.151317348710243,
     1.7771895339034203, 1.4433821760339345e-11),
    (0.0017147119496202761, 1.7252683947301737, 1.8153095228797436, 0.3737736112879071,
     0.6631843870523574, 0.0, 0.5479051843786105, 4.15115827819151,
     1.1028321687174998, 3.7343903170866746e-11),
])
def test_weak_field_intraband_y_meets_or_raises_on_kz_rtol(kappa, d_x, d_y, d_z, k0x, k0z, theta,
                                                          phase, t_max, rtol):
    # three random y-alone intraband signals in weak fields: the 64-node rule
    # lies 2.5-5.5 kz_rtol from four times its nodes, where the 32- to
    # 1024-node rules spread by rounding of 2-10 kz_rtol.  eps A is only 0.5-0.9
    # of kz_rtol times the scale, so a guard on eps A let the call return
    # silently; the rounding floor F eps A (F = 34 on 41 samples) lies above the
    # target, and the call raises
    try:
        error = _error_against_four_times_the_nodes(kappa, d_x, d_y, d_z, k0x, k0z, theta, phase,
                                                    t_max, rtol, "intraband", (1,))
    except dynamics.QuadratureConvergenceError:
        return
    assert error <= 1.0


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision np.longdouble")
@pytest.mark.parametrize("label, tol", [("decay", 1e-8), ("lowfield_zb_3p1", 1e-13)])
def test_interband_lines_track_extended_precision_energies(label, tol):
    # the interband lines at the accepted rule, against the same lines with E
    # and every phase formed in np.longdouble.  With E_{n+1} + E_n in float64
    # each phase carried about eps (E_{n+1} + E_n) t of rounding: 5e-6 rad in
    # the sixth 20 T decay window (t ~ 1.2e10), 1.3e-6 of its peak and above
    # its kz_rtol, and 1.2e-12 of the peak on lowfield_zb_3p1 (t to 2e4).  On
    # the exact 2 mc^2 carrier the beat (E_{n+1} - 1) + (E_n - 1) keeps every
    # digit, so the floor is about eps r t: 9e-10 and 3e-15
    cases = {case[0]: case for case in _bundled_3p1_cases()}
    _, pkt, field, times, parts, rtol, channels = cases[label]
    coeffs = coefficient_matrix(pkt, field)
    rules = dynamics._axial_sums(pkt, coeffs, field, times, rtol, parts, channels)[0]
    assert list(rules) == ["interband"]
    kz, weights = dynamics._fold(pkt, axial_grid(pkt, rules["interband"]))
    got, _ = dynamics._series(pkt, coeffs, field, times, (kz, weights), parts, channels)
    (block,) = dynamics._line_blocks(pkt, coeffs, field, kz, weights, parts, channels)
    levels = np.arange(block.levels[0], block.levels[-1] + 2, dtype=np.longdouble)[:, None]
    energy = np.sqrt(1 + np.longdouble(field.omega) ** 2 * levels + kz.astype(np.longdouble) ** 2)
    freq, amps = (energy[1:] + energy[:-1]).ravel(), block.amps.reshape(len(channels), -1)
    want = sum(amps[:, i : i + 4096] @ longdouble_phases(freq[i : i + 4096], times)
               for i in range(0, freq.size, 4096))
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def _recording(monkeypatch, times):
    """Patch `_sum_lines` and `_line_blocks` to record (sum shapes, nodes, channels)."""
    sum_lines, line_blocks = dynamics._sum_lines, dynamics._line_blocks
    seen, nodes, channels = [], [], []

    def counting(freq, amps, grid, derivative=False, carrier=0.0, top=None):
        assert np.array_equal(grid, times)
        seen.append(freq.shape)
        return sum_lines(freq, amps, grid, derivative, carrier, top)

    def recording(packet, coeffs, field, kz, weights, *args, **kwargs):
        assert kz.size == weights.size and np.all(weights > 0.0), "a node of no weight is summed"
        nodes.append(kz)
        for block in line_blocks(packet, coeffs, field, kz, weights, *args, **kwargs):
            channels.append(len(block.amps))
            yield block

    monkeypatch.setattr(dynamics, "_sum_lines", counting)
    monkeypatch.setattr(dynamics, "_line_blocks", recording)
    return seen, nodes, channels


def _screen_recording(monkeypatch):
    """Patch `_screened` to record (freq, amps, mass, kept freq, kept amps) of each block."""
    screened, records = dynamics._screened, []

    def recording(block):
        freq, amps = block.freq.copy(), block.amps.copy()
        kept_freq, kept_amps, top = screened(block)
        records.append((freq, amps, block.mass, kept_freq.copy(), kept_amps.copy()))
        return kept_freq, kept_amps, top

    monkeypatch.setattr(dynamics, "_screened", recording)
    return records


def _screened_lines(freq, amps, mass, kept_freq, kept_amps):
    """The number of lines a screen dropped, checked against its bound.

    The kept lines are the block's others, in order, and every dropped line is
    weaker (largest |amps| over the channels) than every kept one; the dropped
    |amps| of each channel add up to at most eps mass / C."""
    lines = amps.reshape(len(amps), -1)
    peak = np.max(np.abs(lines), axis=0)
    dropped = peak.size - kept_freq.size
    keep = peak > np.sort(peak)[dropped - 1] if dropped else np.ones(peak.size, bool)
    assert np.count_nonzero(keep) == kept_freq.size
    assert np.array_equal(kept_freq, freq.reshape(-1)[keep])
    assert np.array_equal(kept_amps, lines[:, keep])
    for row in lines[:, ~keep]:
        assert math.fsum(np.abs(row)) <= dynamics.EPS * mass / len(lines)
    return dropped


def test_axial_rungs_are_summed_once_on_the_full_grid(critical_field, packet_3p1, coeffs_3p1,
                                                      mixed_packet_3p1, mixed_coeffs_3p1,
                                                      monkeypatch):
    # each line class's accepted rule of K_c nodes (folded at k0z = 0) is summed
    # once, nested: its half, the rule of K_c/2, then its odd-index nodes, every
    # sample each time, the intraband class first, in one call per
    # class and rung with one row per level pair: n_max rows
    # for the second component alone, n_max + 1 once the first component and
    # the spin-mixing rows (k0z != 0) share them.  Every node of the grid is
    # summed, and no rule above K is.  A block holds only the channels its
    # caller reads: y for analytic_signal, x and y for a trajectory.  Each line of
    # a rung's rows is either summed or screened, and the screened ones stay
    # within eps A_c / C in each channel
    times = np.linspace(0.0, 200.0, 401)
    rungs = {}
    for packet, coeffs in ((packet_3p1, coeffs_3p1), (mixed_packet_3p1, mixed_coeffs_3p1)):
        for channels in ((1,), (0, 1)):
            rungs[packet, channels] = dynamics._axial_sums(
                packet, coeffs, critical_field, times, dynamics.DEFAULT_KZ_RTOL, "all", channels)[0]
    seen, nodes, channels = _recording(monkeypatch, times)
    screens = _screen_recording(monkeypatch)

    def grid(points, index=slice(None)):
        return dynamics._fold(packet, axial_grid(packet, points))[0][index]

    # the interband bounds ask for 461 and 565 nodes
    for packet, coeffs, rows, rules in (
            (packet_3p1, coeffs_3p1, coeffs_3p1.n_max, {"intraband": 112, "interband": 512}),
            (mixed_packet_3p1, mixed_coeffs_3p1, mixed_coeffs_3p1.n_max + 1,
             {"intraband": 128, "interband": 640})):
        for call, n_channels in ((dynamics.analytic_signal, (1,)), (dynamics.trajectory_3p1, (0, 1))):
            seen.clear()
            nodes.clear()
            channels.clear()
            screens.clear()
            call(packet, coeffs, critical_field, times)
            assert rungs[packet, n_channels] == rules
            assert list(rungs[packet, n_channels]) == list(rules)     # intraband first
            assert channels == [len(n_channels)] * 4
            halves = [grid(points // 2).size for points in rules.values()]
            odds = [grid(points, slice(1, None, 2)).size for points in rules.values()]
            sizes = halves + odds
            assert [record[0].shape for record in screens] == [(rows, size) for size in sizes]
            dropped = [_screened_lines(*record) for record in screens]
            summed = [shape[0] for shape in seen]
            lines = [rows * size for size in sizes]
            assert [a + b for a, b in zip(summed, dropped, strict=True)] == lines
            for k, points in enumerate(rules.values()):
                assert np.array_equal(np.sort(np.concatenate(nodes[k::2])), grid(points))


def test_axial_rule_doubles_while_the_returned_scale_needs_more_nodes(monkeypatch):
    # kappa = 2, d_z = L over 1 t_c: the amplitude mass is 2.06 times the
    # scale of the returned sums, so the interband bound checked on that scale
    # asks for 112 nodes, above the 96 chosen for rtol times the mass.  Its rule
    # doubles, nested, and each node of the 192-node rule is summed once; the
    # intraband bound stays at 96 on either scale, so that class stops there
    field = FieldConfig.from_kappa(2.0)
    L = field.magnetic_length
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # k0x beyond the nominal velocity bound
        pkt = GaussianPacket(d_x=1.5 * L, d_y=1.5 * L, d_z=L, k0x=0.7 / L, k0z=0.3,
                             dimensionality="3+1", relax_momentum_bound=True)
    coeffs = coefficient_matrix(pkt, field)
    times = np.linspace(0.0, 1.0, 41)
    assert axial_nodes(pkt, field, times, 1e9) == 96
    assert axial_nodes(pkt, field, times, 1e9, "intraband") == 96
    _, nodes, _ = _recording(monkeypatch, times)
    rules = dynamics._axial_sums(pkt, coeffs, field, times, 1e-9)[0]
    assert rules == {"intraband": 96, "interband": 192}
    # intraband half, interband half, both odd halves, then the interband doubling
    assert [n.size for n in nodes] == [48, 48, 48, 48, 96]
    intraband, interband = [nodes[0], nodes[2]], [nodes[1], nodes[3], nodes[4]]
    assert np.array_equal(np.sort(np.concatenate(intraband)), axial_grid(pkt, 96)[0])
    assert np.array_equal(np.sort(np.concatenate(interband)), axial_grid(pkt, 192)[0])


def test_mixing_terms_sums_only_the_two_signed_mixing_blocks(monkeypatch):
    # the mixing rows alone, each class on the signed grid of the rule the
    # aliasing bound gives it over the window (the trajectory's rules for
    # mixing_3p1), intraband first, one call per class and y alone; no x/y
    # trajectory sum runs to choose them
    cfg = cli.load_config(str(CONFIG_DIR / "mixing_3p1.json"))
    field, _, pkt, num, coeffs = cli._build_everything(cfg)
    times = cli.resolve_times(cfg)
    rules = dynamics._axial_sums(pkt, coeffs, field, times, num["kz_rtol"])[0]
    assert list(rules.items()) == [("intraband", 64), ("interband", 112)]
    seen, nodes, channels = _recording(monkeypatch, times)
    dynamics.mixing_terms(pkt, coeffs, field, times, num["kz_rtol"])
    assert len(nodes) == 2 and channels == [1, 1]
    for kz, points in zip(nodes, rules.values(), strict=True):
        assert np.array_equal(kz, axial_grid(pkt, points)[0])
    assert seen == [(coeffs.n_max + 1, points) for points in rules.values()]


def test_mixing_terms_match_the_full_frequency_sum():
    # the interband mixing block is summed on its 2 mc^2 carrier; the same
    # lines at E_{n+1} + E_n, summed without one, agree to 1e-13 of the peak
    # (mixing_3p1 runs to 30 t_c, where float64 phases still hold 1e-14 rad)
    cfg = cli.load_config(str(CONFIG_DIR / "mixing_3p1.json"))
    field, _, pkt, num, coeffs = cli._build_everything(cfg)
    times = cli.resolve_times(cfg)
    mix = dynamics.mixing_terms(pkt, coeffs, field, times, num["kz_rtol"])
    for kind in ("intraband", "interband"):
        kz, weights = axial_grid(pkt, dynamics._first_rule(pkt, field, times, num["kz_rtol"], kind))
        energies = landau_energies(coeffs.n_max + 1, kz, field)
        (block,) = dynamics._line_blocks(pkt, coeffs, field, kz, weights, kind, (1,),
                                         (0.0, 0.0, 1.0))
        freq = energies[1:] + energies[:-1] if block.interband else block.freq
        want = dynamics._sum_lines(freq, block.amps, times)[0].real
        got = mix.j_minus if block.interband else mix.j_plus
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("parts, rtol", [("all", 1e-9), ("interband", 7e-16)])
def test_axial_rule_that_cannot_reach_kz_rtol_raises_at_once(parts, rtol, monkeypatch):
    # lowfield_zb_3p1's rules, one per class, are raised to the 64-node floor.  With
    # parts "all", y - y[0] is a 6e-5 remainder of intraband lines of 7.4e3, so
    # 1e-9 of it lies below their rounding; at 7e-16 the interband bound covers
    # the 32-node half, and the rules from 32 to 1024 nodes lie 8e-16 to 2e-15
    # from the 4096-node one.  Either way more nodes cannot help, and the half
    # residual (1.1e-7; 8.1e-16) raises after 64 nodes of each class, not at
    # the 65536-node cap
    cfg = cli.load_config(str(CONFIG_DIR / "lowfield_zb_3p1.json"))
    field, _, pkt, _, coeffs = cli._build_everything(cfg)
    times = cli.resolve_times(cfg)
    seen, nodes, _ = _recording(monkeypatch, times)
    with pytest.raises(dynamics.QuadratureConvergenceError) as info:
        dynamics.analytic_signal(pkt, coeffs, field, times, parts, rtol)
    assert info.value.target == rtol and info.value.achieved > rtol
    classes = 2 if parts == "all" else 1
    assert len(nodes) == 2 * classes
    for k in range(classes):
        assert np.array_equal(np.sort(np.concatenate(nodes[k::classes])),
                              dynamics._fold(pkt, axial_grid(pkt, 64))[0])


def test_axial_rule_covers_narrow_axial_packets():
    # d_z = 0.39 lambda_c at kappa = 7.3: the Gaussian copies alone ask for
    # 71 nodes, and the 80-node rule misses 1e-9 (1.8e-7); the branch points
    # of E_0 at k_z = +-i bound the copies to the strip |Im k_z| < 1, which
    # asks for 164 interband nodes, rounded up to 192.  The intraband lines
    # are bounded by their largest |Im w| near the strip's edge, where their
    # real slope understates it
    field = FieldConfig.from_kappa(7.337390641135939)
    L = field.magnetic_length
    amps = dict(a1=math.cos(0.585) * np.exp(0.4j), a2=math.sin(0.585) * np.exp(1j * (0.4 + 4.706)))
    pkt = GaussianPacket(d_x=1.25 * L, d_y=1.274 * L, d_z=1.5 * L, k0x=0.796 / L,
                         dimensionality="3+1", relax_momentum_bound=True, **amps)
    coeffs = coefficient_matrix(pkt, field)
    times = np.linspace(0.0, 5.0, 201)
    for parts, rules in (("interband", {"interband": 192}), ("intraband", {"intraband": 128}),
                         ("all", {"interband": 192, "intraband": 128})):
        found, sums = dynamics._axial_sums(pkt, coeffs, field, times, 1e-9, parts)
        assert found == rules
        ref, _ = dynamics._series(pkt, coeffs, field, times,
                                  dynamics._fold(pkt, axial_grid(pkt, 4096)), parts)
        scale = max(np.max(np.abs(ref.real[1] - ref.real[1, 0])), np.max(np.abs(ref.real[0])))
        assert np.max(np.abs(sums.real - ref.real)) <= 1e-9 * scale, parts


def test_intraband_trajectory_sums_its_own_rule():
    # collapse_revival_3p1 with parts "intraband": the cyclotron lines move with
    # k_z only as omega^2/(E_n + E_{n+1}), and their rule no longer takes the
    # 2560 nodes the trembling-motion slope asks for.  The 256 nodes it sums lie
    # within kz_rtol of four times them
    cfg = cli.load_config(str(CONFIG_DIR / "collapse_revival_3p1.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field, _, pkt, num, coeffs = cli._build_everything(cfg)
    times = cli.resolve_times(cfg)
    rules, sums = dynamics._axial_sums(pkt, coeffs, field, times, num["kz_rtol"], "intraband")
    assert list(rules) == ["intraband"] and rules["intraband"] <= 256
    finer = _series_on_rules(pkt, coeffs, field, times, rules, (0, 1), 4)
    pos = sums.real
    scale = max(np.max(np.abs(pos[1] - pos[1, 0])), np.max(np.abs(pos[0])))
    assert np.max(np.abs(pos - finer.real)) <= num["kz_rtol"] * scale


def test_trajectory_checks_its_grid_before_any_axial_sum(critical_field, packet_3p1,
                                                         coeffs_3p1, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a k_z sum ran before the time grid was checked")

    monkeypatch.setattr(dynamics, "_sum_lines", refuse)
    with pytest.raises(ValueError, match="start at t = 0"):
        dynamics.trajectory_3p1(packet_3p1, coeffs_3p1, critical_field, np.linspace(1.0, 2.0, 11))


def test_velocity_below_light_speed(critical_field, packet_2p1, coeffs_2p1):
    times = np.linspace(0.0, 60.0, 601)
    traj = dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, times)
    assert np.max(np.hypot(traj.vx, traj.vy)) <= 1.0 + 1e-9


def test_velocities_match_finite_differences(critical_field, packet_2p1, coeffs_2p1):
    h = 1e-3
    samples = np.linspace(0.5, 30.0, 40)
    # fourth-order central stencil on the positions; offset 0 reads the velocity
    stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    grid = np.concatenate([[0.0], (samples[:, None] + offsets[None, :]).ravel()])
    traj = dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, grid)
    x, y, vx, vy = (series[1:].reshape(-1, 5) for series in (traj.x, traj.y, traj.vx, traj.vy))
    assert np.max(np.abs(x @ stencil - vx[:, 2])) < 1e-6
    assert np.max(np.abs(y @ stencil - vy[:, 2])) < 1e-6


def test_low_field_circle(tmp_path):
    field = FieldConfig.from_kappa(1e-3)
    L = field.magnetic_length
    pkt = GaussianPacket(d_x=L, d_y=L, k0x=0.05 / L, dimensionality="2+1")
    coeffs = coefficient_matrix(pkt, field)
    period = 2.0 * math.pi / field.omega_cyclotron
    times = np.linspace(0.0, period, 1257)
    traj = dynamics.trajectory_2p1(pkt, coeffs, field, times)
    radius = pkt.k0x * L**2
    x_ref = radius * np.sin(field.omega_cyclotron * times)
    y_ref = radius * (1.0 - np.cos(field.omega_cyclotron * times))
    rms = math.sqrt(np.mean((traj.x - x_ref) ** 2 + (traj.y - y_ref) ** 2)) / radius
    assert rms < 0.01


def test_mixing_zero_without_axial_momentum(critical_field):
    amp = complex(math.sqrt(0.5))
    pkt = GaussianPacket(d_x=1.5, d_y=1.3, d_z=1.5, k0x=0.5, k0z=0.0,
                         a1=amp, a2=amp, dimensionality="3+1")
    coeffs = coefficient_matrix(pkt, critical_field)
    times = np.linspace(0.0, 20.0, 64)
    mix = dynamics.mixing_terms(pkt, coeffs, critical_field, times)
    assert np.max(np.abs(mix.j_plus)) < 1e-12
    assert np.max(np.abs(mix.j_minus)) < 1e-12
    # a cancellation over the signed grid, not a zero put in: the unpaired
    # edge node and the rounding of the pair sums leave a trace
    assert np.max(np.abs(mix.j_plus)) > 0.0


def test_mixing_zero_for_2p1(critical_field, packet_2p1, coeffs_2p1):
    times = np.linspace(0.0, 20.0, 64)
    mix = dynamics.mixing_terms(packet_2p1, coeffs_2p1, critical_field, times)
    assert np.max(np.abs(mix.j_plus)) == 0.0
    assert np.max(np.abs(mix.lowering_cross)) == 0.0


def test_mixing_refined_quadrature(critical_field, mixed_packet_3p1, mixed_coeffs_3p1):
    # flipping the relative spinor phase flips only the mixing part of y
    times = np.linspace(0.0, 20.0, 64)
    mix = dynamics.mixing_terms(mixed_packet_3p1, mixed_coeffs_3p1, critical_field, times)
    flipped = dataclasses.replace(mixed_packet_3p1, a2=-mixed_packet_3p1.a2)
    y0 = dynamics.trajectory_3p1(mixed_packet_3p1, mixed_coeffs_3p1, critical_field, times).y
    y_pi = dynamics.trajectory_3p1(flipped, mixed_coeffs_3p1, critical_field, times).y
    j = mix.j_plus + mix.j_minus
    weight = abs(mixed_packet_3p1.a1 * mixed_packet_3p1.a2)
    expected = 2.0 * (critical_field.magnetic_length / math.sqrt(2.0)) * weight * (j - j[0])
    assert np.max(np.abs((y0 - y_pi) - expected)) < 1e-9 * np.max(np.abs(y0))
    assert np.max(np.abs(mix.lowering_cross - np.conj(mix.raising_cross))) == 0.0


def test_subpacket_recombination(critical_field, packet_2p1, coeffs_2p1):
    times = np.linspace(0.0, 80.0, 500)
    sp = dynamics.subpackets(packet_2p1, coeffs_2p1, critical_field, times)
    total = sp.lowering_1 + sp.lowering_2 + sp.raising_1 + sp.raising_2
    scale = critical_field.magnetic_length / math.sqrt(2.0)
    y_rebuilt = scale * total.real
    x_rebuilt = scale * (-1j * (sp.lowering_1 + sp.lowering_2 - sp.raising_1 - sp.raising_2)).real
    traj = dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, times)
    assert np.max(np.abs((y_rebuilt - y_rebuilt[0]) - traj.y)) < 1e-10
    assert np.max(np.abs(x_rebuilt - traj.x)) < 1e-10
    assert np.max(np.abs(total.imag)) < 1e-10


def test_subpackets_nonrelativistic_limit():
    field = FieldConfig.from_kappa(1e-4)
    L = field.magnetic_length
    pkt = GaussianPacket(d_x=L, d_y=L, k0x=0.1 / L, dimensionality="2+1")
    coeffs = coefficient_matrix(pkt, field)
    times = np.linspace(0.0, 2.0 * math.pi * L**2, 300)
    sp = dynamics.subpackets(pkt, coeffs, field, times)
    # interband-branch sub-packets vanish, the others carry the rotation
    assert np.max(np.abs(sp.lowering_2)) < 1e-3 * np.max(np.abs(sp.lowering_1))
    assert np.max(np.abs(sp.raising_2)) < 1e-3 * np.max(np.abs(sp.raising_1))


def winding_number(series):
    angles = np.unwrap(np.angle(series))
    return (angles[-1] - angles[0]) / (2.0 * math.pi)


def test_subpackets_counter_rotate():
    # near-unity critical ratio, matched packet
    kappa = (0.06 * 68000 / 4000) ** 2
    field = FieldConfig.from_kappa(kappa)
    pkt = GaussianPacket(d_x=0.63, d_y=0.57, k0x=0.999, dimensionality="2+1")
    coeffs = coefficient_matrix(pkt, field)
    times = np.linspace(0.0, 40.0, 1200)
    sp = dynamics.subpackets(pkt, coeffs, field, times)
    w_low = winding_number(sp.lowering_1)
    w_rai = winding_number(sp.raising_1)
    assert w_low < -0.5
    assert w_rai > 0.5
    assert w_low * w_rai < 0


def test_subpackets_need_second_component(critical_field):
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, k0x=0.5, a1=1.0, a2=0.0, dimensionality="2+1")
    coeffs = coefficient_matrix(pkt, critical_field)
    with pytest.raises(ValueError):
        dynamics.subpackets(pkt, coeffs, critical_field, np.linspace(0, 1, 4))


def test_subpackets_accept_a_second_component_of_any_phase(critical_field, packet_2p1,
                                                          coeffs_2p1):
    # |cos t + i sin t| rounds to 1 - 1.1e-16 at this t, and about 1.3 % of
    # unit phases round off 1 so: a pure second-component packet is a1 = 0
    turn = 0.6244862155388472
    phased = dataclasses.replace(packet_2p1, a2=complex(math.cos(turn), math.sin(turn)))
    assert abs(phased.a2) != 1.0
    times = np.linspace(0.0, 20.0, 41)
    got = dynamics.subpackets(phased, coeffs_2p1, critical_field, times)
    want = dynamics.subpackets(packet_2p1, coeffs_2p1, critical_field, times)
    scale = np.max(np.abs(want.lowering_1))
    assert np.max(np.abs(got.lowering_1 - want.lowering_1)) <= 1e-14 * scale


def test_spectral_reconstruction(critical_field, packet_2p1):
    # the two-component input merges first-component lines one pair up
    rng = np.random.default_rng(1)
    ts = rng.uniform(0.0, 50.0, 100)
    for a1, a2 in ((0.0, 1.0), (0.6, 0.8j)):
        pkt = dataclasses.replace(packet_2p1, a1=a1, a2=a2)
        coeffs = coefficient_matrix(pkt, critical_field)
        lines = dynamics.spectral_decomposition(pkt, coeffs, critical_field)
        y = sum(l.amplitude_y * np.cos(l.frequency * ts) for l in lines)
        y -= sum(l.amplitude_y for l in lines)
        x = sum(l.amplitude_x * np.sin(l.frequency * ts) for l in lines)
        traj = dynamics.trajectory_2p1(pkt, coeffs, critical_field, np.concatenate([[0.0], ts]))
        assert np.max(np.abs(y - traj.y[1:])) < 1e-10
        assert np.max(np.abs(x - traj.x[1:])) < 1e-10


def test_spectral_lines_ordered_and_positive(critical_field, packet_2p1, coeffs_2p1):
    lines = dynamics.spectral_decomposition(packet_2p1, coeffs_2p1, critical_field)
    for line in lines:
        assert line.frequency > 0
    by_level = {}
    for line in lines:
        by_level.setdefault(line.n, {})[line.kind] = line.frequency
    for level, pair in by_level.items():
        if len(pair) == 2:
            assert pair["interband"] > pair["intraband"]


def test_spectral_frequencies_are_level_energy_sums():
    # interband lines are built less their 2 mc^2 carrier and get it back here:
    # every frequency lies within 2 ulp of E_{n+1} +- E_n, from weak to strong fields
    for kappa in (1e-5, 1.0, 16.6464):
        field = FieldConfig.from_kappa(kappa)
        L = field.magnetic_length
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pkt = GaussianPacket(d_x=0.9 * L, d_y=L, k0x=1.2 / L, a1=0.6, a2=0.8,
                                 relax_momentum_bound=True, dimensionality="2+1")
            coeffs = coefficient_matrix(pkt, field)
        lines = dynamics.spectral_decomposition(pkt, coeffs, field)
        assert {l.kind for l in lines} == {"intraband", "interband"}
        for line in lines:
            e_hi, e_lo = landau_energy(line.n + 1, 0.0, field), landau_energy(line.n, 0.0, field)
            want = e_hi + e_lo if line.kind == "interband" else e_hi - e_lo
            assert abs(line.frequency - want) <= 2 * np.spacing(e_hi + e_lo), (kappa, line)


def test_interband_lines_approach_pair_creation_frequency():
    # weak field: every interband line collapses onto twice the rest energy
    field = FieldConfig.from_kappa(1e-5)
    L = field.magnetic_length
    pkt = GaussianPacket(d_x=L, d_y=L, k0x=0.3 / L, dimensionality="2+1")
    coeffs = coefficient_matrix(pkt, field)
    lines = dynamics.spectral_decomposition(pkt, coeffs, field)
    inter = [l.frequency for l in lines if l.kind == "interband"]
    assert inter
    assert all(abs(f - 2.0) / 2.0 < 1e-3 for f in inter)


def test_interband_amplitudes_comparable_in_relativistic_regime():
    field = FieldConfig.from_kappa(16.6464)
    L = field.magnetic_length
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pkt = GaussianPacket(d_x=0.9 * L, d_y=L, k0x=math.sqrt(2.0) / L,
                             relax_momentum_bound=True, dimensionality="2+1")
        coeffs = coefficient_matrix(pkt, field)
    lines = dynamics.spectral_decomposition(pkt, coeffs, field)
    intra = max(abs(l.amplitude_y) for l in lines if l.kind == "intraband")
    inter = max(abs(l.amplitude_y) for l in lines if l.kind == "interband")
    assert inter > 0.2 * intra


def test_trajectory_frequency_content(critical_field, packet_2p1, coeffs_2p1):
    # a discrete transform of the 2+1 motion peaks only at the line set
    lines = dynamics.spectral_decomposition(packet_2p1, coeffs_2p1, critical_field)
    freqs = np.array(sorted(l.frequency for l in lines))
    t_end = 400.0
    times = np.linspace(0.0, t_end, 8192)
    traj = dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, times)
    signal = traj.y - np.mean(traj.y)
    spectrum = np.abs(np.fft.rfft(signal * np.hanning(times.size)))
    grid = 2.0 * math.pi * np.fft.rfftfreq(times.size, times[1] - times[0])
    resolution = 2.0 * math.pi / t_end * 4.0
    peaks = grid[
        (spectrum > 0.02 * spectrum.max())
        & (np.r_[False, (spectrum[1:-1] > spectrum[:-2]) & (spectrum[1:-1] > spectrum[2:]), False])
    ]
    for peak in peaks:
        assert np.min(np.abs(freqs - peak)) < resolution


def test_anisotropy_same_frequencies_different_amplitudes(
    critical_field, packet_2p1, coeffs_2p1
):
    lines = dynamics.spectral_decomposition(packet_2p1, coeffs_2p1, critical_field)
    big = [l for l in lines if max(abs(l.amplitude_x), abs(l.amplitude_y)) > 1e-6]
    assert any(abs(abs(l.amplitude_x) - abs(l.amplitude_y)) > 1e-3 * abs(l.amplitude_y)
               for l in big)


def test_spectral_decomposition_needs_2p1(critical_field, packet_3p1, coeffs_3p1):
    with pytest.raises(DimensionalityError):
        dynamics.spectral_decomposition(packet_3p1, coeffs_3p1, critical_field)


def test_unknown_parts_rejected(critical_field, packet_2p1, coeffs_2p1, packet_3p1, coeffs_3p1):
    times = np.linspace(0.0, 10.0, 21)
    calls = (
        lambda parts: dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, times, parts),
        lambda parts: dynamics.trajectory_3p1(packet_3p1, coeffs_3p1, critical_field, times, parts),
        lambda parts: dynamics.analytic_signal(packet_3p1, coeffs_3p1, critical_field, times, parts),
    )
    for call in calls:
        for parts in ("intra", "Interband", None):
            with pytest.raises(ValueError, match="parts"):
                call(parts)


@pytest.mark.parametrize("kz_rtol", [0.0, -1e-9, math.nan, math.inf, 1e-310, 5e-324])
def test_out_of_range_kz_rtol_rejected(critical_field, mixed_packet_3p1, mixed_coeffs_3p1,
                                       kz_rtol):
    # 0 divided by zero, a negative target raised a convergence error (or
    # passed, in mixing_terms), NaN failed an integer conversion, inf
    # returned the 64-node floor rule as if certified, and a subnormal target,
    # whose reciprocal overflows, asked `packet.axial_nodes` for its 2^62 clamp
    times = np.linspace(0.0, 10.0, 21)
    for call in (dynamics.trajectory_3p1, dynamics.analytic_signal, dynamics.mixing_terms):
        with pytest.raises(ValueError, match="kz_rtol"):
            call(mixed_packet_3p1, mixed_coeffs_3p1, critical_field, times, kz_rtol=kz_rtol)


def test_analytic_signal_real_part_is_series(
    critical_field, packet_2p1, coeffs_2p1, mixed_packet_3p1, mixed_coeffs_3p1
):
    # the 3+1 input adds the spin-mixing lines to the complex sum
    times = np.linspace(0.0, 40.0, 257)
    for pkt, coeffs, trajectory in (
        (packet_2p1, coeffs_2p1, dynamics.trajectory_2p1),
        (mixed_packet_3p1, mixed_coeffs_3p1, dynamics.trajectory_3p1),
    ):
        signal = dynamics.analytic_signal(pkt, coeffs, critical_field, times)
        traj = trajectory(pkt, coeffs, critical_field, times)
        rebuilt = signal.real - signal.real[0]
        assert np.max(np.abs(rebuilt - traj.y)) < 1e-12


def test_weak_field_interband_lines_are_cancellation_free():
    # the packet of configs/lowfield_zb_3p1.json (20 T, 3+1): E_hi - E_lo is
    # ~1e-9 of E, so 1/E_lo - 1/E_hi and 1 - q formed by subtraction carry
    # rounding noise that no k_z rule converges past (1.4e-9 of the peak)
    field = FieldConfig.from_tesla(20.0)
    pkt = GaussianPacket(d_x=20000.0, d_y=18000.0, d_z=15000.0,
                         k0x=3.367308812035271e-05, dimensionality="3+1")
    coeffs = coefficient_matrix(pkt, field)
    times = np.linspace(0.0, 20000.0, 2001)
    coarse, fine = (
        dynamics._series(pkt, coeffs, field, times, axial_grid(pkt, n), "interband")[0]
        for n in (64, 1024)
    )
    assert np.max(np.abs(coarse - fine)) <= 1e-10 * np.max(np.abs(fine))


def test_lowfield_summary_values():
    field = FieldConfig.from_tesla(20.0)
    k0x = 8.72e7 * COMPTON_LENGTH
    pkt = GaussianPacket(d_x=2e4, d_y=1.8e4, d_z=1.5e4, k0x=k0x, dimensionality="3+1")
    summary = dynamics.lowfield_summary(pkt, field)
    amp_angstrom = summary.zb_amplitude * COMPTON_LENGTH * 1e10
    assert math.isclose(amp_angstrom, 6.5e-8, rel_tol=0.01)
    assert math.isclose(
        summary.cyclotron_radius, k0x * field.magnetic_length**2, rel_tol=1e-14
    )
    assert summary.zb_carrier == 2.0
    env = summary.envelope(np.array([0.0, pkt.d_z**2 * 10.0]))
    assert math.isclose(env[0], summary.zb_amplitude, rel_tol=1e-6)
    assert env[1] < 0.4 * env[0]


def test_lowfield_summary_zero_momentum(critical_field):
    field = FieldConfig.from_kappa(1e-4)
    pkt = GaussianPacket(d_x=10.0, d_y=10.0, k0x=0.0, dimensionality="2+1")
    summary = dynamics.lowfield_summary(pkt, field)
    assert summary.cyclotron_radius == 0.0
    assert summary.zb_amplitude == 0.0


def test_lowfield_summary_warns_out_of_range(critical_field, packet_2p1):
    with pytest.warns(UserWarning, match="kappa"):
        dynamics.lowfield_summary(packet_2p1, critical_field)


def test_quadrature_nonconvergence_diagnostic():
    kappa = (0.06 * 68000 / 12000) ** 2
    field = FieldConfig.from_kappa(kappa)
    L = field.magnetic_length
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pkt = GaussianPacket(d_x=L, d_y=L, d_z=L, k0x=math.sqrt(2.0) / L,
                             relax_momentum_bound=True, dimensionality="3+1")
        coeffs = coefficient_matrix(pkt, field)
    times = np.linspace(0.0, 5.0e6, 16)
    with pytest.raises(dynamics.QuadratureConvergenceError) as info:
        dynamics.trajectory_3p1(pkt, coeffs, field, times)
    # the ladder has no room to double: name the need and the cap, not "inf"
    message = str(info.value)
    assert "inf" not in message
    assert f"needs {info.value.nodes_needed} k_z nodes" in message
    assert info.value.nodes_needed > dynamics.MAX_GRID_NODES
    assert "65536 (2^16)" in message


@pytest.mark.parametrize("t_end", [1e308, 8e307])
def test_phase_overflow_is_a_time_range_error(critical_field, packet_2p1, coeffs_2p1,
                                              packet_3p1, coeffs_3p1, t_end):
    # (w + 2) t beyond the float range wrote NaN rows with only a RuntimeWarning
    times = np.linspace(0.0, t_end, 3)
    with pytest.raises(TimeRangeError, match="float range"):
        dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, times)
    with pytest.raises(TimeRangeError, match="float range"):
        dynamics._sum_lines(np.array([1.0]), np.ones((1, 1)), times, carrier=2.0)
    # a 3+1 rule cannot be sized for such a window: its bound says so, unwarned
    with pytest.raises(dynamics.QuadratureConvergenceError):
        dynamics.trajectory_3p1(packet_3p1, coeffs_3p1, critical_field, times)
    # finite phases that round by eps (w + 2) t ~ 1e285 rad keep no correct digit
    # and are refused as well; inside the bound they are formed without overflow
    with pytest.raises(TimeRangeError, match="more than a radian"):
        dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, times * 1e-8)
    far = dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, times * 1e-294)
    assert all(np.all(np.isfinite(v)) for v in (far.x, far.y, far.vx, far.vy))


@pytest.mark.parametrize("times", [[0.0], [2.5], [2.5, 2.5, 2.5]])
def test_a_grid_the_positions_cannot_move_over_sets_no_axial_target(critical_field, packet_3p1,
                                                                    coeffs_3p1, times):
    # a zero scale made the doubling ratio infinite (or overflowed it, warned) and
    # the bound then asked for 2^62 k_z nodes
    times = np.array(times)
    calls = [dynamics.analytic_signal]
    if times[0] == 0.0:       # a full trajectory starts at t = 0
        calls.append(dynamics.trajectory_3p1)
    for call in calls:
        with pytest.raises(dynamics.QuadratureConvergenceError) as info:
            call(packet_3p1, coeffs_3p1, critical_field, times)
        assert str(info.value) == ("axial quadrature has no error target to size a k_z rule for: "
                                   "the signal scale is zero, as on a time grid the positions "
                                   "cannot move over")
        assert info.value.nodes_needed is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_sample_time_that_is_not_finite_is_a_time_range_error(critical_field, packet_3p1,
                                                                mixed_packet_3p1,
                                                                mixed_coeffs_3p1, bad):
    # NaN failed math.ceil in `axial_nodes` with an untyped ValueError, and an
    # infinite time asked for 2^62 k_z nodes; the 2+1 path and the oracle refuse both
    times = np.array([0.0, 1.0, bad])
    for call in (dynamics.trajectory_3p1, dynamics.analytic_signal, dynamics.mixing_terms):
        with pytest.raises(TimeRangeError, match="finite sample times"):
            call(mixed_packet_3p1, mixed_coeffs_3p1, critical_field, times)
    for kind in ("interband", "intraband"):
        with pytest.raises(TimeRangeError, match="finite sample times"):
            axial_nodes(packet_3p1, critical_field, times, 1e9, kind)


def test_axial_gate_fails_on_a_nan_residual(critical_field, packet_3p1, coeffs_3p1,
                                            monkeypatch):
    # a NaN half residual raises as a large one does, where `> rtol` passed it
    series = dynamics._series

    def nan_series(*args):
        sums, mass = series(*args)
        return sums * math.nan, mass

    monkeypatch.setattr(dynamics, "_series", nan_series)
    monkeypatch.setattr(dynamics, "axial_nodes", lambda *args: dynamics.AXIAL_FLOOR)
    with pytest.raises(dynamics.QuadratureConvergenceError):
        dynamics.trajectory_3p1(packet_3p1, coeffs_3p1, critical_field,
                                np.linspace(0.0, 5.0, 9))


def test_nan_series_sums_reach_the_axial_gate(critical_field, packet_3p1, coeffs_3p1,
                                              monkeypatch):
    # with `axial_nodes` unpinned, a NaN scale gave it a NaN ratio and `math.ceil`
    # raised ValueError; now the doubling stops and the NaN-safe gate raises
    series = dynamics._series

    def nan_series(*args):
        sums, mass = series(*args)
        return sums * math.nan, mass

    monkeypatch.setattr(dynamics, "_series", nan_series)
    with pytest.raises(dynamics.QuadratureConvergenceError) as info:
        dynamics.trajectory_3p1(packet_3p1, coeffs_3p1, critical_field,
                                np.linspace(0.0, 5.0, 9))
    assert info.value.target == dynamics.DEFAULT_KZ_RTOL and math.isnan(info.value.achieved)


@pytest.mark.parametrize("d_z", [1.5e-154, 4.8e-154])
def test_span_squared_overflow_is_a_quadrature_error_unwarned(critical_field, d_z):
    # squaring the k_z span 6.56/d_z warned of overflow (an error here) first
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, d_z=d_z, k0x=0.5, dimensionality="3+1")
    with pytest.raises(dynamics.QuadratureConvergenceError, match="above the cap"):
        dynamics.trajectory_3p1(pkt, coefficient_matrix(pkt, critical_field), critical_field,
                                np.linspace(0.0, 5.0, 9))


def test_phase_rounding_past_a_radian_is_a_time_range_error():
    # finite phases whose rounding eps (w + 2) max|t| passes a radian were summed
    # into finite rows of no correct digit: one line at w = 1 on the carrier 2,
    # either side of the bound's edge 1/(3 eps)
    edge = 1.0 / (3.0 * np.finfo(float).eps)
    line = np.array([1.0]), np.ones((1, 1))
    dynamics._sum_lines(*line, np.linspace(0.0, 0.99 * edge, 3), carrier=2.0)
    with pytest.raises(TimeRangeError, match="more than a radian"):
        dynamics._sum_lines(*line, np.linspace(0.0, 1.01 * edge, 3), carrier=2.0)


def envelope_signals():
    """analytic_signal arguments of the persistence window and the sixth 20 T decay window."""
    field = FieldConfig.from_kappa((0.06 * 68000.0 / 12000.0) ** 2)
    L = field.magnetic_length
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # k0x beyond the nominal velocity bound
        pkt = GaussianPacket(d_x=L, d_y=L, d_z=L, k0x=math.sqrt(2.0) / L, a1=0.0, a2=1.0,
                             dimensionality="3+1", relax_momentum_bound=True)
    persistence = (pkt, coefficient_matrix(pkt, field), field, np.linspace(0.0, 1200.0, 401),
                   "all", 1e-7)
    field = FieldConfig.from_tesla(20.0)
    pkt = GaussianPacket(d_x=2.0e4, d_y=1.8e4, d_z=1.5e4, k0x=8.72e7 * COMPTON_LENGTH,
                         a1=0.0, a2=1.0, dimensionality="3+1")
    edges = np.geomspace(2.0e9, 2.0e10, 8)
    decay = (pkt, coefficient_matrix(pkt, field), field, np.linspace(edges[5], edges[6], 257),
             "interband", 1e-6)
    return persistence, decay


def test_analytic_signal_on_two_threads_matches_serial_bit_for_bit():
    # every table is allocated by the call that fills it: concurrent calls share none
    signals = envelope_signals()
    serial = [dynamics.analytic_signal(*args) for args in signals]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(dynamics.analytic_signal, *args) for _ in range(3) for args in signals]
        results = [run.result() for run in runs]
    for k, got in enumerate(results):
        assert got.tobytes() == serial[k % 2].tobytes()


@pytest.mark.parametrize("times", [np.linspace(0.0, 40.0, 161),
                                   np.r_[0.0, np.geomspace(0.5, 40.0, 60)]],
                         ids=["anchored", "direct"])
def test_a_series_call_carries_nothing_to_the_next(critical_field, mixed_packet_3p1,
                                                   mixed_coeffs_3p1, times):
    # on the anchored and the direct grid: each class of mixing_terms equals its
    # own block summed alone, and a public call after a larger one equals it
    # made alone, bit for bit
    args = mixed_packet_3p1, mixed_coeffs_3p1, critical_field
    mix = dynamics.mixing_terms(*args, times)
    for kind in ("intraband", "interband"):
        rule = axial_grid(mixed_packet_3p1, dynamics._first_rule(
            mixed_packet_3p1, critical_field, times, dynamics.DEFAULT_KZ_RTOL, kind))
        (block,) = dynamics._line_blocks(*args, *rule, kind, (1,), (0.0, 0.0, 1.0))
        want = dynamics._sum_lines(block.freq, block.amps, times, carrier=block.carrier)[0].real
        assert (mix.j_minus if block.interband else mix.j_plus).tobytes() == want.tobytes()
    alone = dynamics.trajectory_3p1(*args, times[:41])
    dynamics.trajectory_3p1(*args, times)
    again = dynamics.trajectory_3p1(*args, times[:41])
    assert all(getattr(again, f).tobytes() == getattr(alone, f).tobytes()
               for f in ("x", "y", "vx", "vy"))


def _synthetic_block(amps):
    """A screenable block of the given (channels, pairs, K) amplitudes."""
    amps = np.asarray(amps, dtype=complex)
    freq = np.linspace(0.0, 1.0, amps[0].size).reshape(amps.shape[1:])
    return dynamics._Block(freq, amps, True, np.arange(amps.shape[1]), 2.0,
                           float(np.sum(np.abs(amps))), np.max(np.abs(amps), axis=0))


def _screen_of(amps):
    """(lines dropped, lines kept) by the screen of a synthetic block, checked."""
    block = _synthetic_block(amps)
    freq, copy = block.freq.copy(), block.amps.copy()
    kept_freq, kept_amps, top = dynamics._screened(block)
    assert top in (None, 1.0)          # the phase check still reads every line
    dropped = _screened_lines(freq, copy, block.mass, kept_freq, kept_amps)
    return dropped, kept_freq.size


def test_envelope_blocks_screen_a_fifth_of_their_lines_within_the_bound(monkeypatch):
    # the k_z tails of the persistence and decay blocks carry less than eps A_c in
    # all: a quarter of every block's lines (the band widens with the level),
    # dropped within eps A_c / C in each channel, before the time-grid GEMM
    screens = _screen_recording(monkeypatch)
    for args in envelope_signals():
        screens.clear()
        dynamics.analytic_signal(*args)
        assert len(screens) == (4 if args[4] == "all" else 2)
        for record in screens:
            assert _screened_lines(*record) >= 0.2 * record[0].size


def test_screen_search_keeps_its_bound_on_adversarial_magnitudes():
    rng = np.random.default_rng(7)
    phases = np.exp(2j * np.pi * rng.random((2, 8, 64)))
    # all equal: no line is weaker than another, and all together exceed the budget
    assert _screen_of(0.37 * phases) == (0, 8 * 64)
    # a single nonzero line: every other one goes
    single = np.zeros((2, 8, 64), complex)
    single[1, 3, 5] = 1.0
    assert _screen_of(single) == (8 * 64 - 1, 1)
    # subnormals alone: a budget below the smallest normal float screens nothing
    tiny = 5e-324 * rng.integers(1, 9, (1, 8, 64))
    assert _screen_of(tiny) == (0, 8 * 64)
    # next to a unit line the subnormals go
    tiny[0, 0, 0] = 1.0
    assert _screen_of(tiny) == (8 * 64 - 1, 1)
    # magnitudes over the whole float range: the bound holds bin by bin
    ramp = np.ldexp(1.0, -np.arange(1, 1075)).reshape(1, 2, 537)
    dropped, kept = _screen_of(ramp)
    assert dropped + kept == ramp.size and 0 < dropped and kept < 60


def test_blocks_of_zero_or_nan_mass_are_summed_whole(critical_field, packet_3p1, coeffs_3p1):
    # no line of a zero-mass block is weaker than the budget 0, and a NaN mass must
    # reach the gates: either block is summed whole, never as an empty table
    zero = _synthetic_block(np.zeros((1, 4, 16)))
    assert zero.mass == 0.0 and dynamics._screened(zero)[0].size == 4 * 16
    nan = _synthetic_block(np.full((1, 4, 16), 1e-3))
    nan.amps[0, 3, 15] = nan.peak[3, 15] = math.nan
    assert dynamics._screened(nan._replace(mass=math.nan))[0].size == 4 * 16
    kz, weights = dynamics._fold(packet_3p1, axial_grid(packet_3p1, 64))
    times = np.linspace(0.0, 5.0, 9)
    sums, mass = dynamics._series(packet_3p1, coeffs_3p1, critical_field, times,
                                  (kz, np.zeros_like(weights)))
    assert mass == 0.0 and sums.shape == (2, 9) and not np.any(sums)


def test_a_nan_line_the_screen_would_drop_reaches_the_axial_gate(critical_field, packet_3p1,
                                                                 coeffs_3p1, monkeypatch):
    # a NaN amplitude at the edge of the k_z grid, the weakest line of its block
    line_blocks = dynamics._line_blocks

    def one_nan_line(*args, **kwargs):
        for block in line_blocks(*args, **kwargs):
            block.amps[0, -1, -1] = block.peak[-1, -1] = math.nan
            yield block._replace(mass=math.nan)

    monkeypatch.setattr(dynamics, "_line_blocks", one_nan_line)
    with pytest.raises(dynamics.QuadratureConvergenceError) as info:
        dynamics.trajectory_3p1(packet_3p1, coeffs_3p1, critical_field, np.linspace(0.0, 5.0, 9))
    assert math.isnan(info.value.achieved)


def test_screened_top_lines_still_bound_the_time_grid(critical_field, packet_3p1, coeffs_3p1):
    # the highest interband lines lie in the k_z tail the screen drops; a grid whose
    # phases round past a radian on them, but not on the lines kept, still raises
    rule = dynamics._fold(packet_3p1, axial_grid(packet_3p1, 512))
    (block,) = dynamics._line_blocks(packet_3p1, coeffs_3p1, critical_field, *rule, "interband",
                                     (1,))
    kept_freq, _, top = dynamics._screened(block)
    assert top == np.max(block.freq) and np.max(kept_freq) < top
    t_end = 2.0 / (dynamics.EPS * (top + np.max(kept_freq) + 4.0))
    with pytest.raises(TimeRangeError, match="more than a radian"):
        dynamics._series(packet_3p1, coeffs_3p1, critical_field, np.linspace(0.0, t_end, 3), rule,
                         "interband", (1,))


def test_envelope_signals_stay_within_their_memory():
    # the envelope benchmark's two signals: one block's line tables and the 2 MiB
    # of time-grid tiles its sum allocates.  They peak at 2.48 MiB
    signals = envelope_signals()
    for args in signals:
        dynamics.analytic_signal(*args)            # warm caches
    tracemalloc.start()
    try:
        for args in signals:
            dynamics.analytic_signal(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * 2**20


def test_critical_field_trajectory_stays_within_its_memory(critical_field):
    # one 3+1 trajectory with its derivative rows: the criterion-2 critical-field
    # packet at 401 samples, whose tiles stack x, y, vx and vy.  It peaks at 2.51 MiB
    pkt = GaussianPacket(d_x=1.5, d_y=1.5, d_z=1.8, k0x=0.998, a1=0.0, a2=1.0,
                         dimensionality="3+1")
    times = np.linspace(0.0, 200.0, 401)
    args = pkt, coefficient_matrix(pkt, critical_field), critical_field, times
    dynamics.trajectory_3p1(*args)                # warm caches
    tracemalloc.start()
    try:
        dynamics.trajectory_3p1(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * 2**20
