import dataclasses
import math
import warnings

import numpy as np
import pytest

from landauzb import FieldConfig, GaussianPacket
from landauzb import dynamics, oracle
from landauzb.packet import DimensionalityError, coefficient_matrix
from landauzb.units import COMPTON_LENGTH


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


def test_velocity_below_light_speed(critical_field, packet_2p1, coeffs_2p1):
    times = np.linspace(0.0, 60.0, 601)
    vx, vy = dynamics.velocities(packet_2p1, coeffs_2p1, critical_field, times)
    assert np.max(np.hypot(vx, vy)) <= 1.0 + 1e-9


def test_velocities_match_finite_differences(critical_field, packet_2p1, coeffs_2p1):
    h = 1e-3
    samples = np.linspace(0.5, 30.0, 40)
    vx, vy = dynamics.velocities(packet_2p1, coeffs_2p1, critical_field, samples)
    # fourth-order central stencil on the positions
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    grid = np.concatenate([[0.0], (samples[:, None] + offsets[None, :]).ravel()])
    traj = dynamics.trajectory_2p1(packet_2p1, coeffs_2p1, critical_field, grid)
    x = traj.x[1:].reshape(-1, 4)
    y = traj.y[1:].reshape(-1, 4)
    assert np.max(np.abs(x @ stencil - vx)) < 1e-6
    assert np.max(np.abs(y @ stencil - vy)) < 1e-6


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
