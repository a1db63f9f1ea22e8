import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from landauzb import ionmap
from landauzb.units import HBAR

TWO_PI = 2.0 * math.pi
CA40_MASS = 39.9625909 * 1.66053906660e-27


def reference_trap(omega_hz=1000.0):
    return ionmap.TrapParams(
        eta=0.06,
        omega_tilde=TWO_PI * 68e3,
        omega_carrier=TWO_PI * omega_hz,
        delta=96e-10,
    )


def test_trap_validation():
    with pytest.raises(ionmap.TrapError):
        ionmap.TrapParams(eta=-0.1, omega_tilde=1.0, omega_carrier=1.0, delta=1e-9)
    with pytest.raises(ionmap.TrapError):
        ionmap.TrapParams(eta=0.06, omega_tilde=1.0, omega_carrier=1.0)


def test_simulated_magnetic_length():
    units, field = ionmap.simulated_units(reference_trap())
    length_angstrom = field.magnetic_length * units.compton_length * 1e10
    assert math.isclose(length_angstrom, math.sqrt(2.0) * 96.0, rel_tol=1e-12)


def test_compton_length_inverse_in_carrier():
    units_a, _ = ionmap.simulated_units(reference_trap(1000.0))
    units_b, _ = ionmap.simulated_units(reference_trap(2000.0))
    assert math.isclose(units_a.compton_length, 2.0 * units_b.compton_length, rel_tol=1e-12)


def test_spread_from_mass_and_frequency():
    nu = HBAR / (2.0 * CA40_MASS * (96e-10) ** 2)
    derived = ionmap.ground_state_spread(CA40_MASS, nu)
    assert math.isclose(derived, 96e-10, rel_tol=1e-9)
    trap = ionmap.TrapParams(
        eta=0.06, omega_tilde=TWO_PI * 68e3, omega_carrier=TWO_PI * 1000.0,
        ion_mass=CA40_MASS, trap_freqs=(nu, nu, nu),
    )
    assert math.isclose(trap.spread, 96e-10, rel_tol=1e-9)


def test_explicit_spread_overrides_with_warning():
    nu = HBAR / (2.0 * CA40_MASS * (96e-10) ** 2)
    with pytest.warns(UserWarning, match="overrides"):
        trap = ionmap.TrapParams(
            eta=0.06, omega_tilde=TWO_PI * 68e3, omega_carrier=TWO_PI * 1000.0,
            delta=90e-10, ion_mass=CA40_MASS, trap_freqs=(nu, nu, nu),
        )
    assert trap.spread == 90e-10


def test_anisotropy_flagged():
    with pytest.warns(UserWarning, match="anisotropic"):
        ionmap.TrapParams(
            eta=0.06, omega_tilde=TWO_PI * 68e3, omega_carrier=TWO_PI * 1000.0,
            ion_mass=CA40_MASS,
            trap_freqs=(TWO_PI * 1.0e6, TWO_PI * 1.1e6, TWO_PI * 1.0e6),
        )


@pytest.mark.parametrize("spread, warns", [(1e-10, False), (1e-8, True)])
def test_anisotropy_threshold(spread, warns):
    nu = TWO_PI * 1.0e6
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ionmap.TrapParams(
            eta=0.06, omega_tilde=TWO_PI * 68e3, omega_carrier=TWO_PI * 1000.0,
            ion_mass=CA40_MASS, trap_freqs=(nu, nu * (1.0 + spread), nu),
        )
    assert any("anisotropic" in str(w.message) for w in caught) == warns


def test_kappa_reference_values():
    assert math.isclose(ionmap.kappa(reference_trap(1000.0)), 16.65, rel_tol=6e-4)
    assert math.isclose(ionmap.kappa(reference_trap(12000.0)), 0.116, rel_tol=4e-3)
    # the caption rounds the third case; the formula lands inside [1.04, 1.05]
    k_mid = ionmap.kappa(reference_trap(4000.0))
    assert 1.04 <= k_mid <= 1.05


def test_invert_kappa_examples():
    omega = ionmap.invert_kappa(16.6464, 0.06, TWO_PI * 68e3)
    assert math.isclose(omega, TWO_PI * 1000.0, rel_tol=1e-12)
    assert math.isclose(
        ionmap.invert_kappa(1.0, 0.06, TWO_PI * 68e3), 0.06 * TWO_PI * 68e3, rel_tol=1e-14
    )


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-4, max_value=100.0))
def test_invert_kappa_round_trip(target):
    eta, omega_tilde = 0.06, TWO_PI * 68e3
    omega = ionmap.invert_kappa(target, eta, omega_tilde)
    trap = ionmap.TrapParams(eta=eta, omega_tilde=omega_tilde, omega_carrier=omega,
                             delta=96e-10)
    assert math.isclose(ionmap.kappa(trap), target, rel_tol=1e-12)


def test_simulated_field_matches_kappa():
    trap = reference_trap(1000.0)
    _, field = ionmap.simulated_units(trap)
    assert math.isclose(field.kappa, ionmap.kappa(trap), rel_tol=1e-12)


def test_dimensional_consistency():
    units, field = ionmap.simulated_units(reference_trap())
    hbar_omega = field.omega / units.compton_time * units.hbar
    rhs = math.sqrt(2.0) * units.hbar * units.speed / (
        field.magnetic_length * units.compton_length
    )
    assert math.isclose(hbar_omega, rhs, rel_tol=1e-12)


def test_schedule_budgets():
    full = ionmap.excitation_schedule("3+1")
    planar = ionmap.excitation_schedule("2+1")
    assert full.laser_pairs == 12
    assert planar.laser_pairs == 8
    assert full.count("JC") == 1
    assert full.count("AJC") == 1
    assert planar.count("JC") == 1
    assert planar.count("AJC") == 1
    # axial-momentum couplings distinguish the two models
    assert sum(1 for e in full.excitations if e.axis == "z") == 2
    assert all(e.axis != "z" for e in planar.excitations)


def test_schedule_phases():
    full = ionmap.excitation_schedule("3+1")
    magnetic_jc = [e for e in full.excitations if e.kind == "JC"][0]
    magnetic_ajc = [e for e in full.excitations if e.kind == "AJC"][0]
    assert magnetic_jc.phase_red == math.pi
    assert magnetic_ajc.phase_blue == math.pi
    assert magnetic_jc.level_pair == "ad"
    assert magnetic_ajc.level_pair == "bc"
    for e in full.excitations:
        if e.kind == "sigma-p":
            assert e.phase_red == -math.pi / 2
            assert e.phase_blue == +math.pi / 2


def test_spectral_richness_grows_with_kappa():
    # end to end: trap settings -> simulated field -> line spectrum
    from landauzb import GaussianPacket, coefficient_matrix, spectral_decomposition

    effective_lines = []
    interband_share = []
    for omega_hz in (96000.0, 12000.0, 1000.0):   # increasing kappa
        trap = reference_trap(omega_hz)
        _, field = ionmap.simulated_units(trap)
        L = field.magnetic_length
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pkt = GaussianPacket(d_x=0.9 * L, d_y=L, k0x=math.sqrt(2.0) / L,
                                 a1=0.0, a2=1.0, dimensionality="2+1",
                                 relax_momentum_bound=True)
            coeffs = coefficient_matrix(pkt, field)
        lines = spectral_decomposition(pkt, coeffs, field)
        amps = [abs(l.amplitude_y) for l in lines]
        effective_lines.append(sum(amps) ** 2 / sum(a * a for a in amps))
        inter = max(abs(l.amplitude_y) for l in lines if l.kind == "interband")
        intra = max(abs(l.amplitude_y) for l in lines if l.kind == "intraband")
        interband_share.append(inter / intra)
    assert effective_lines[0] < effective_lines[1] < effective_lines[2]
    assert interband_share[0] < interband_share[1] < interband_share[2]


def test_schedule_document_round_trips():
    import json

    trap = reference_trap()
    doc = ionmap.schedule_document(ionmap.excitation_schedule("2+1"), trap)
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["laser_pairs_total"] == 8
    assert math.isclose(back["simulated"]["kappa"], 16.6464, rel_tol=1e-12)
