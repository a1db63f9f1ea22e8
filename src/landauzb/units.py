"""Unit systems and magnetic-field scales.

All computations in this package run in natural units: the rest energy mc^2,
the reduced Compton wavelength hbar/(m c), and the Compton time hbar/(m c^2)
are each 1.  Lengths are quoted in Compton wavelengths, times in Compton
times, energies in rest energies, wavenumbers in inverse Compton wavelengths.

A :class:`UnitSystem` records what one natural unit is worth in SI, so
physical-electron runs and trapped-ion analog runs share the same core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# SI scales: c, e and h are exact in the 2019 SI; the masses are CODATA 2022
SPEED_OF_LIGHT = 299792458.0                  # m/s
ELEMENTARY_CHARGE = 1.602176634e-19           # C
HBAR = 6.62607015e-34 / (2.0 * math.pi)       # J s
ELECTRON_MASS = 9.1093837139e-31              # kg
ATOMIC_MASS = 1.66053906892e-27               # kg, the atomic mass constant

COMPTON_LENGTH = HBAR / (ELECTRON_MASS * SPEED_OF_LIGHT)      # m
COMPTON_TIME = HBAR / (ELECTRON_MASS * SPEED_OF_LIGHT**2)     # s
REST_ENERGY = ELECTRON_MASS * SPEED_OF_LIGHT**2               # J

# Field at which the magnetic length equals the Compton wavelength.
CRITICAL_FIELD = ELECTRON_MASS**2 * SPEED_OF_LIGHT**2 / (ELEMENTARY_CHARGE * HBAR)

_REL_TOL = 1e-12


class UnitError(ValueError):
    """Inconsistent or non-positive unit scales."""


@dataclass(frozen=True)
class UnitSystem:
    """Values of one natural unit in SI.

    rest_energy    -- J per unit energy (mc^2)
    compton_length -- m per unit length (hbar/mc)
    compton_time   -- s per unit time (hbar/mc^2)
    mode           -- 'physical-electron' or 'simulated'
    """

    rest_energy: float
    compton_length: float
    compton_time: float
    mode: str = "physical-electron"

    def __post_init__(self):
        for name in ("rest_energy", "compton_length", "compton_time"):
            if not getattr(self, name) > 0.0:
                raise UnitError(f"{name} must be strictly positive")
        if self.mode not in ("physical-electron", "simulated"):
            raise UnitError(f"unknown unit mode {self.mode!r}")

    @property
    def speed(self) -> float:
        """Effective speed of light, m/s."""
        return self.compton_length / self.compton_time

    @property
    def hbar(self) -> float:
        """Effective hbar, J*s."""
        return self.rest_energy * self.compton_time

    @property
    def mass(self) -> float:
        """Effective mass, kg."""
        return self.rest_energy / self.speed**2

    def check_speed(self, expected: float, rel_tol: float = _REL_TOL) -> None:
        if not math.isclose(self.speed, expected, rel_tol=rel_tol):
            raise UnitError(
                f"compton_length/compton_time = {self.speed!r} but expected "
                f"effective speed {expected!r}"
            )

    @classmethod
    def electron(cls) -> "UnitSystem":
        """The physical electron in SI."""
        return cls(REST_ENERGY, COMPTON_LENGTH, COMPTON_TIME, "physical-electron")

    @classmethod
    def simulated(cls, rest_energy: float, speed: float) -> "UnitSystem":
        """Analog system with an effective rest energy (J) and speed (m/s)."""
        if rest_energy <= 0 or speed <= 0:
            raise UnitError("rest energy and speed must be positive")
        t_c = HBAR / rest_energy
        return cls(rest_energy, speed * t_c, t_c, "simulated")


@dataclass(frozen=True)
class FieldConfig:
    """Uniform magnetic field along z, in natural units.

    magnetic_length -- L = sqrt(hbar/eB), in Compton wavelengths
    field_strength  -- B in units of the critical field (L = lambda_c there)
    omega           -- sqrt(2)*c/L, in 1/t_c
    omega_cyclotron -- eB/m = hbar/(m L^2), in 1/t_c
    """

    magnetic_length: float
    field_strength: float
    omega: float
    omega_cyclotron: float

    def __post_init__(self):
        L = self.magnetic_length
        if not L > 0.0:
            raise UnitError("magnetic_length must be strictly positive")
        if not math.isclose(self.omega * L, math.sqrt(2.0), rel_tol=_REL_TOL):
            raise UnitError("omega*L must equal sqrt(2)*c")
        if not math.isclose(self.omega_cyclotron, 1.0 / L**2, rel_tol=_REL_TOL):
            raise UnitError("omega_cyclotron must equal hbar/(m L^2)")
        if not math.isclose(self.field_strength, 1.0 / L**2, rel_tol=_REL_TOL):
            raise UnitError("field_strength must equal (lambda_c/L)^2 critical fields")

    @property
    def kappa(self) -> float:
        """Critical ratio hbar*omega_cyclotron / (2 m c^2)."""
        return 0.5 / self.magnetic_length**2

    @classmethod
    def from_magnetic_length(cls, length: float) -> "FieldConfig":
        if length <= 0:
            raise UnitError("magnetic length must be positive")
        return cls(
            magnetic_length=length,
            field_strength=1.0 / length**2,
            omega=math.sqrt(2.0) / length,
            omega_cyclotron=1.0 / length**2,
        )

    @classmethod
    def from_tesla(cls, b_tesla: float) -> "FieldConfig":
        """Physical-electron field given in tesla."""
        if b_tesla <= 0:
            raise UnitError("field must be positive")
        length_m = math.sqrt(HBAR / (ELEMENTARY_CHARGE * b_tesla))
        return cls.from_magnetic_length(length_m / COMPTON_LENGTH)

    @classmethod
    def from_kappa(cls, kappa: float) -> "FieldConfig":
        if kappa <= 0:
            raise UnitError("kappa must be positive")
        return cls.from_magnetic_length(math.sqrt(0.5 / kappa))

    def field_tesla(self) -> float:
        """Physical-electron field strength in tesla."""
        return self.field_strength * CRITICAL_FIELD
