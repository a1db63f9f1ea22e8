"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
heavy shared computations (dense-evolution reference runs) sit in session
fixtures so position and velocity criteria reuse them.
"""

import math
import time
import warnings

import numpy as np
import pytest

from landauzb import FieldConfig, GaussianPacket
from landauzb import dynamics, ionmap, oracle
from landauzb.landau import ladder_matrix_element, heisenberg_ladder_element
from landauzb.packet import coefficient_matrix, sum_rules
from landauzb.units import COMPTON_LENGTH, COMPTON_TIME

TWO_PI = 2.0 * math.pi


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def quiet_packet(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GaussianPacket(**kwargs)


@pytest.fixture(scope="session")
def relativistic_pair():
    """Critical-field 3+1 run vs dense evolution over 200 Compton times."""
    field = FieldConfig.from_magnetic_length(1.0)
    pkt = GaussianPacket(d_x=1.5, d_y=1.5, d_z=1.8, k0x=0.998, a1=0.0, a2=1.0,
                         dimensionality="3+1")
    coeffs = coefficient_matrix(pkt, field)
    times = np.linspace(0.0, 200.0, 401)
    start = time.perf_counter()
    traj = dynamics.trajectory_3p1(pkt, coeffs, field, times)
    evolved = oracle.evolve_expectations(pkt, field, times, n_levels=coeffs.n_max + 20)
    runtime = time.perf_counter() - start
    return dict(field=field, packet=pkt, coeffs=coeffs, times=times,
                traj=traj, oracle=evolved, runtime=runtime)


@pytest.fixture(scope="session")
def trap_pair():
    """Strongly relativistic trap regime (two components) vs dense evolution."""
    trap = ionmap.TrapParams(eta=0.06, omega_tilde=TWO_PI * 68e3,
                             omega_carrier=TWO_PI * 1000.0, delta=96e-10)
    _, field = ionmap.simulated_units(trap)
    L = field.magnetic_length
    amp = complex(math.sqrt(0.5))
    pkt = quiet_packet(d_x=0.9 * L, d_y=L, k0x=math.sqrt(2.0) / L, a1=amp, a2=amp,
                       dimensionality="2+1", relax_momentum_bound=True)
    coeffs = coefficient_matrix(pkt, field)
    times = np.linspace(0.0, 200.0, 801)
    start = time.perf_counter()
    traj = dynamics.trajectory_2p1(pkt, coeffs, field, times)
    evolved = oracle.evolve_expectations(pkt, field, times, n_levels=coeffs.n_max + 21)
    runtime = time.perf_counter() - start
    return dict(field=field, packet=pkt, coeffs=coeffs, times=times,
                traj=traj, oracle=evolved, runtime=runtime)


@pytest.fixture(scope="session")
def weakfield_run():
    """20 T interband component: carrier window plus decay windows."""
    field = FieldConfig.from_tesla(20.0)
    pkt = GaussianPacket(d_x=2.0e4, d_y=1.8e4, d_z=1.5e4,
                         k0x=8.72e7 * COMPTON_LENGTH, a1=0.0, a2=1.0,
                         dimensionality="3+1")
    coeffs = coefficient_matrix(pkt, field)
    carrier_times = np.linspace(0.0, 5000.0, 19001)
    carrier = dynamics.trajectory_3p1(pkt, coeffs, field, carrier_times,
                                      parts="interband")
    edges = np.geomspace(2.0e9, 2.0e10, 8)
    window_rms = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        ts = np.linspace(lo, hi, 257)
        env = np.abs(dynamics.analytic_signal(pkt, coeffs, field, ts,
                                              parts="interband", kz_rtol=1e-6))
        window_rms.append(math.sqrt(float(np.mean(env**2))))
    centres = np.sqrt(edges[:-1] * edges[1:])
    return dict(field=field, packet=pkt, coeffs=coeffs,
                carrier_times=carrier_times, carrier=carrier,
                centres=centres, window_rms=np.array(window_rms))


@pytest.fixture(scope="session")
def persistence_runs():
    """Matched 2+1 / 3+1 trap runs for the persistence dichotomy."""
    kappa = (0.06 * 68000.0 / 12000.0) ** 2
    field = FieldConfig.from_kappa(kappa)
    L = field.magnetic_length
    k0x = math.sqrt(2.0) / L
    pk2 = quiet_packet(d_x=L, d_y=L, k0x=k0x, a1=0.0, a2=1.0,
                       dimensionality="2+1", relax_momentum_bound=True)
    pk3 = quiet_packet(d_x=L, d_y=L, d_z=L, k0x=k0x, a1=0.0, a2=1.0,
                       dimensionality="3+1", relax_momentum_bound=True)
    co2 = coefficient_matrix(pk2, field)
    co3 = coefficient_matrix(pk3, field)
    times = np.linspace(0.0, 1200.0, 1601)
    env2 = np.abs(dynamics.analytic_signal(pk2, co2, field, times))
    env3 = np.abs(dynamics.analytic_signal(pk3, co3, field, times, kz_rtol=1e-7))
    env3_inter = np.abs(dynamics.analytic_signal(pk3, co3, field, times,
                                                 parts="interband", kz_rtol=1e-7))
    return dict(field=field, times=times, env2=env2, env3=env3,
                env3_inter=env3_inter)


def test_criterion_1_sum_rules():
    cases = []
    for kappa, width_ratio, momentum in (
        (1e-4, 1.0, 0.8),
        (1e-2, 1.2, 0.6),
        (0.5, 1.0, 0.9),
        (5.0, 0.8, 1.1),
        (20.0, 1.0, 1.3),
    ):
        field = FieldConfig.from_kappa(kappa)
        L = field.magnetic_length
        pkt = quiet_packet(d_x=L, d_y=width_ratio * L, k0x=momentum / L,
                           a1=0.0, a2=1.0, dimensionality="2+1",
                           relax_momentum_bound=True)
        start = time.perf_counter()
        coeffs = coefficient_matrix(pkt, field)
        rep = sum_rules(coeffs, pkt, field)
        elapsed = time.perf_counter() - start
        cases.append((kappa, rep.norm_residual, rep.momentum_residual, elapsed))
    worst_norm = max(c[1] for c in cases)
    worst_mom = max(c[2] for c in cases)
    worst_time = max(c[3] for c in cases)
    ok = worst_norm < 1e-10 and worst_mom < 1e-10 and worst_time < 10.0
    report(
        1, "sum rules",
        ok,
        f"{len(cases)} configs, kappa {cases[0][0]:g}..{cases[-1][0]:g}: "
        f"max |sum U_nn - 1| = {worst_norm:.2e}, "
        f"max momentum-rule residual = {worst_mom:.2e}, "
        f"max runtime {worst_time:.2f} s (tolerance 1e-10, 10 s)",
    )


def test_criterion_2_oracle_equivalence(relativistic_pair, trap_pair):
    devs = {}
    for label, data in (("critical-field 3+1", relativistic_pair),
                        ("trap 2+1", trap_pair)):
        traj, evolved = data["traj"], data["oracle"]
        scale = max(np.max(np.abs(evolved.x)), np.max(np.abs(evolved.y)))
        devs[label] = max(
            float(np.max(np.abs(traj.x - evolved.x))),
            float(np.max(np.abs(traj.y - evolved.y))),
        ) / scale
    runtime = relativistic_pair["runtime"] + trap_pair["runtime"]
    worst = max(devs.values())
    ok = worst < 1e-6 and runtime < 300.0
    report(
        2, "oracle equivalence",
        ok,
        " ".join(f"[{k}: {v:.2e}]" for k, v in devs.items())
        + f" over {relativistic_pair['times'].size} samples of 200 t_c; "
        f"runtime {runtime:.0f} s (tolerance 1e-6, 300 s)",
    )


def test_criterion_3_cyclotron_recovery():
    field = FieldConfig.from_kappa(1e-3)
    L = field.magnetic_length
    pkt = GaussianPacket(d_x=L, d_y=L, k0x=0.05 / L, a1=0.0, a2=1.0,
                         dimensionality="2+1")
    coeffs = coefficient_matrix(pkt, field)
    period = TWO_PI / field.omega_cyclotron
    times = np.linspace(0.0, period, 1257)
    traj = dynamics.trajectory_2p1(pkt, coeffs, field, times)
    radius = pkt.k0x * L**2
    x_ref = radius * np.sin(field.omega_cyclotron * times)
    y_ref = radius * (1.0 - np.cos(field.omega_cyclotron * times))
    rms = math.sqrt(float(np.mean((traj.x - x_ref) ** 2 + (traj.y - y_ref) ** 2)))
    ok = rms / radius < 0.01
    report(
        3, "non-relativistic circle",
        ok,
        f"kappa=1e-3: RMS deviation from radius {radius:.3f} circle at omega_c "
        f"= {rms / radius:.2%} of radius over one period (tolerance 1%)",
    )


def test_criterion_4_weakfield_trembling(weakfield_run):
    data = weakfield_run
    amp = float(np.max(np.abs(data["carrier"].y)))
    amp_angstrom = amp * COMPTON_LENGTH * 1e10
    amp_ok = abs(amp_angstrom - 6.5e-8) < 0.1 * 6.5e-8

    y = data["carrier"].y
    sign = np.sign(y)
    crossings = int(np.sum(sign[1:] * sign[:-1] < 0))
    omega_nat = math.pi * crossings / float(data["carrier_times"][-1])
    omega_si = omega_nat / COMPTON_TIME
    # the carrier is the pair-creation frequency 2 mc^2 / hbar
    carrier_si = 2.0 / COMPTON_TIME
    carrier_ok = abs(omega_si - carrier_si) < 1e-3 * carrier_si

    slope = float(np.polyfit(np.log(data["centres"]), np.log(data["window_rms"]), 1)[0])
    slope_ok = abs(slope - (-0.5)) <= 0.05

    ok = amp_ok and carrier_ok and slope_ok
    report(
        4, "weak-field trembling motion",
        ok,
        f"amplitude {amp_angstrom:.3e} A (target 6.5e-8 +-10%), "
        f"carrier {omega_si:.4e} rad/s vs 2mc^2/hbar = {carrier_si:.4e} "
        f"(dev {abs(omega_si - carrier_si) / carrier_si:.2e}, tolerance 1e-3; "
        f"note: the same quantity is sometimes quoted as 7.76e20, which is "
        f"mc^2/hbar), envelope exponent {slope:+.3f} (target -0.5 +- 0.05)",
    )


def test_criterion_5_trap_mapping():
    eta, omega_tilde = 0.06, TWO_PI * 68e3
    measured = {}
    for omega_hz in (1000.0, 4000.0, 12000.0):
        trap = ionmap.TrapParams(eta=eta, omega_tilde=omega_tilde,
                                 omega_carrier=TWO_PI * omega_hz, delta=96e-10)
        measured[omega_hz] = ionmap.kappa(trap)
    ok_low = abs(measured[1000.0] - 16.65) / 16.65 < 5e-3
    ok_high = abs(measured[12000.0] - 0.116) / 0.116 < 5e-3
    # the quoted middle value 1.05 rounds (eta W/W)^2 = 1.0404, which no
    # implementation of the stated formula can hit within 0.5%; the mapping
    # operation's own reference band is [1.04, 1.05]
    ok_mid = 1.04 <= measured[4000.0] <= 1.05
    literal_mid = abs(measured[4000.0] - 1.05) / 1.05
    ok = ok_low and ok_mid and ok_high
    report(
        5, "trap mapping",
        ok,
        f"kappa(1000 Hz) = {measured[1000.0]:.4f} (16.65 +-0.5%), "
        f"kappa(4000 Hz) = {measured[4000.0]:.4f} (formula value; quoted 1.05 "
        f"differs by {literal_mid:.2%}, accepted band [1.04, 1.05]), "
        f"kappa(12000 Hz) = {measured[12000.0]:.4f} (0.116 +-0.5%)",
    )


def count_revivals(window_maxima):
    count = 0
    for i in range(1, len(window_maxima) - 1):
        left, mid, right = window_maxima[i - 1 : i + 2]
        if mid > left and mid > right and mid >= 1.15 * min(left, right):
            count += 1
    return count


def test_criterion_6_persistence_dichotomy(persistence_runs):
    data = persistence_runs
    times = data["times"]
    width = 60.0
    n_win = int(times[-1] // width)

    def window_maxima(env):
        out = []
        for i in range(n_win):
            mask = (times >= i * width) & (times < (i + 1) * width)
            out.append(float(np.max(env[mask])))
        return out

    m2 = window_maxima(data["env2"])
    m3 = window_maxima(data["env3"])
    ratio2 = max(m2[-3:]) / max(m2[:3])
    ratio3 = max(m3[-3:]) / max(m3[:3])

    edges = np.geomspace(100.0, 1200.0, 7)
    rms = [
        math.sqrt(float(np.mean(data["env3_inter"][(times >= a) & (times < b)] ** 2)))
        for a, b in zip(edges[:-1], edges[1:])
    ]
    centres = np.sqrt(edges[:-1] * edges[1:])
    slope = float(np.polyfit(np.log(centres), np.log(rms), 1)[0])

    revivals2 = count_revivals(m2)
    revivals3 = count_revivals(m3)
    ok = (
        ratio2 >= 0.5
        and ratio3 < 0.5
        and ratio3 < ratio2
        and abs(slope - (-0.5)) <= 0.2
        and revivals2 >= 2
        and revivals3 >= 2
    )
    report(
        6, "persistence dichotomy",
        ok,
        f"2+1 late/early envelope ratio {ratio2:.3f} (>= 0.5), 3+1 ratio "
        f"{ratio3:.3f} (< 0.5), 3+1 interband decay exponent {slope:+.3f} "
        f"(target -0.5 +- 0.2), revivals: 2+1 x{revivals2}, 3+1 x{revivals3} "
        f"(>= 2 each)",
    )


def test_criterion_7_velocity_consistency(relativistic_pair, trap_pair):
    # against the dense-evolution velocity operators
    oracle_dev = 0.0
    for data in (relativistic_pair, trap_pair):
        traj, evolved = data["traj"], data["oracle"]
        oracle_dev = max(
            oracle_dev,
            float(np.max(np.abs(traj.vx - evolved.vx))),
            float(np.max(np.abs(traj.vy - evolved.vy))),
        )

    # against finite differences of the positions, step 1e-3 t_c
    data = relativistic_pair
    h = 1e-3
    samples = np.linspace(0.5, 199.0, 40)
    # offset 0 is each sample itself, where the same call reads vx, vy
    stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    grid = np.concatenate([[0.0], (samples[:, None] + offsets[None, :]).ravel()])
    traj = dynamics.trajectory_3p1(data["packet"], data["coeffs"], data["field"], grid)
    x, y, vx, vy = (series[1:].reshape(-1, 5) for series in (traj.x, traj.y, traj.vx, traj.vy))
    fd_dev = max(
        float(np.max(np.abs(x @ stencil - vx[:, 2]))),
        float(np.max(np.abs(y @ stencil - vy[:, 2]))),
    )

    speed = max(
        float(np.max(np.hypot(d["traj"].vx, d["traj"].vy)))
        for d in (relativistic_pair, trap_pair)
    )
    ok = oracle_dev < 1e-6 and fd_dev < 1e-6 and speed <= 1.0 + 1e-9
    report(
        7, "velocity consistency",
        ok,
        f"max |v_series - v_oracle| = {oracle_dev:.2e} c, "
        f"max |v_series - finite difference| = {fd_dev:.2e} c "
        f"(tolerance 1e-6 each), max |v| = {speed:.6f} c (<= 1)",
    )


def test_criterion_8_matrix_element_equivalence():
    from test_landau import random_level_pair

    field = FieldConfig.from_magnetic_length(1.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        bra, ket = random_level_pair(rng)
        t = float(rng.uniform(0.0, 100.0))
        explicit = ladder_matrix_element(t, bra, ket, field)
        heis = heisenberg_ladder_element(t, bra, ket, field)
        scale = max(abs(explicit.lowering), abs(explicit.raising), 1e-30)
        worst = max(
            worst,
            abs(explicit.lowering - heis.lowering) / scale,
            abs(explicit.raising - heis.raising) / scale,
        )
    ok = worst < 1e-12
    report(
        8, "matrix-element equivalence",
        ok,
        f"200 random (n, k_z, branch, spin, t) tuples: max relative "
        f"difference between explicit and evolved forms = {worst:.2e} "
        f"(tolerance 1e-12)",
    )


def test_criterion_9_mixing_parity():
    field = FieldConfig.from_magnetic_length(1.0)
    amp = complex(math.sqrt(0.5))
    times = np.linspace(0.0, 40.0, 161)

    zero_axial = GaussianPacket(d_x=1.5, d_y=1.3, d_z=1.5, k0x=0.5, k0z=0.0,
                                a1=amp, a2=amp, dimensionality="3+1")
    co = coefficient_matrix(zero_axial, field)
    mix = dynamics.mixing_terms(zero_axial, co, field, times)
    worst_3p1 = max(float(np.max(np.abs(mix.j_plus))),
                    float(np.max(np.abs(mix.j_minus))))

    planar = GaussianPacket(d_x=1.5, d_y=1.3, k0x=0.5, a1=amp, a2=amp,
                            dimensionality="2+1")
    co2 = coefficient_matrix(planar, field)
    mix2 = dynamics.mixing_terms(planar, co2, field, times)
    worst_2p1 = max(float(np.max(np.abs(mix2.j_plus))),
                    float(np.max(np.abs(mix2.lowering_cross))))

    ok = worst_3p1 < 1e-12 and worst_2p1 < 1e-12
    report(
        9, "mixing-term parity",
        ok,
        f"k0z=0 axial-symmetric 3+1: max |J| = {worst_3p1:.2e}; 2+1: "
        f"max |J| = {worst_2p1:.2e} (tolerance 1e-12)",
    )
