import math
import sys

import pytest

from landauzb.units import (
    ATOMIC_MASS,
    COMPTON_LENGTH,
    COMPTON_TIME,
    CRITICAL_FIELD,
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    HBAR,
    SPEED_OF_LIGHT,
    FieldConfig,
    UnitError,
    UnitSystem,
)


def test_constants_match_scipy():
    # the literals are CODATA 2022 as scipy.constants carries it; a changed
    # value there shows here
    constants = pytest.importorskip("scipy.constants")
    assert SPEED_OF_LIGHT == constants.c
    assert ELEMENTARY_CHARGE == constants.e
    assert HBAR == constants.hbar
    assert ELECTRON_MASS == constants.m_e
    assert ATOMIC_MASS == constants.physical_constants["atomic mass constant"][0]


def test_electron_units_speed_consistency():
    units = UnitSystem.electron()
    assert math.isclose(units.speed, SPEED_OF_LIGHT, rel_tol=1e-12)


def test_unit_positivity_enforced():
    with pytest.raises(UnitError):
        UnitSystem(rest_energy=-1.0, compton_length=1.0, compton_time=1.0)
    with pytest.raises(UnitError):
        UnitSystem(rest_energy=1.0, compton_length=0.0, compton_time=1.0)


def test_simulated_units_roundtrip():
    units = UnitSystem.simulated(rest_energy=2.0e-30, speed=0.05)
    assert math.isclose(units.speed, 0.05, rel_tol=1e-12)
    assert math.isclose(units.rest_energy * units.compton_time, 1.0545718176461565e-34,
                        rel_tol=1e-6)


def test_critical_field_value():
    # field at which the magnetic length reaches the Compton wavelength
    assert math.isclose(CRITICAL_FIELD, 4.414e9, rel_tol=2e-4)


def test_field_from_tesla_magnetic_length():
    field = FieldConfig.from_tesla(40.0)
    length_angstrom = field.magnetic_length * COMPTON_LENGTH * 1e10
    assert math.isclose(length_angstrom, 40.6, rel_tol=5e-3)


def test_field_scale_identities():
    field = FieldConfig.from_tesla(17.3)
    assert math.isclose(field.omega * field.magnetic_length, math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(field.omega_cyclotron, 1.0 / field.magnetic_length**2, rel_tol=1e-12)
    assert math.isclose(field.field_strength * CRITICAL_FIELD, 17.3, rel_tol=1e-12)


def test_field_invariants_rejected():
    with pytest.raises(UnitError):
        FieldConfig(0.0)
    with pytest.raises(UnitError):
        FieldConfig(float("nan"))
    with pytest.raises(UnitError):
        FieldConfig.from_magnetic_length(-2.0)
    # L^4 enters the closed-form F_n, so it must be a normal float: an L^4 that
    # underflows lost F_n's normalization (a tail of -0.057 at L = 1e-85)
    for length in (math.inf, 1e78, 10**400, 1.2e-77, 1e-80, 1e-85, 1e-150, 1e-200):
        with pytest.raises(UnitError, match="fourth power"):
            FieldConfig(length)
    for kappa in (1e-320, 1e300):       # L^2 = 0.5/kappa overflows; L^4 underflows
        with pytest.raises(UnitError, match="fourth power"):
            FieldConfig.from_kappa(kappa)
    assert FieldConfig(1e70).kappa == 0.5e-140
    assert FieldConfig(1.25e-77).magnetic_length**4 >= sys.float_info.min


def test_kappa_round_trip():
    for kappa in (1e-4, 1e-2, 1.0, 16.65):
        field = FieldConfig.from_kappa(kappa)
        assert math.isclose(field.kappa, kappa, rel_tol=1e-12)


def test_compton_scales():
    assert math.isclose(COMPTON_LENGTH, 3.8616e-13, rel_tol=1e-4)
    assert math.isclose(COMPTON_TIME, 1.2881e-21, rel_tol=1e-4)
