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
import sys
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


class UnitError(ValueError):
    """Non-positive or undefined unit scales."""


class TimeRangeError(ValueError):
    """A time grid whose phases (frequency times time) round by more than a radian.

    That covers phases beyond the float range, far past the bound."""


@dataclass(frozen=True)
class UnitSystem:
    """Values of one natural unit in SI.

    rest_energy    -- J per unit energy (mc^2)
    compton_length -- m per unit length (hbar/mc)
    compton_time   -- s per unit time (hbar/mc^2)
    """

    rest_energy: float
    compton_length: float
    compton_time: float

    def __post_init__(self):
        for name in ("rest_energy", "compton_length", "compton_time"):
            if not getattr(self, name) > 0.0:
                raise UnitError(f"{name} must be strictly positive")

    @property
    def speed(self) -> float:
        """Effective speed of light, m/s."""
        return self.compton_length / self.compton_time

    @property
    def hbar(self) -> float:
        """Effective hbar, J*s."""
        return self.rest_energy * self.compton_time

    @classmethod
    def electron(cls) -> "UnitSystem":
        """The physical electron in SI."""
        return cls(REST_ENERGY, COMPTON_LENGTH, COMPTON_TIME)

    @classmethod
    def simulated(cls, rest_energy: float, speed: float) -> "UnitSystem":
        """Analog system with an effective rest energy (J) and speed (m/s)."""
        if rest_energy <= 0 or speed <= 0:
            raise UnitError("rest energy and speed must be positive")
        t_c = HBAR / rest_energy
        return cls(rest_energy, speed * t_c, t_c)


@dataclass(frozen=True)
class FieldConfig:
    """Uniform magnetic field along z, in natural units, set by its magnetic
    length L = sqrt(hbar/eB) in Compton wavelengths; every other scale
    derives from L.
    """

    magnetic_length: float

    def __post_init__(self):
        if not self.magnetic_length > 0.0:
            raise UnitError("magnetic_length must be strictly positive")
        try:    # L^4 enters the closed-form F_n and its k_x rule
            fourth = float(self.magnetic_length) ** 4
        except OverflowError:
            fourth = math.inf
        if not sys.float_info.min <= fourth < math.inf:
            raise UnitError("magnetic_length is out of range: its fourth power must be "
                            "a normal float")

    @property
    def field_strength(self) -> float:
        """B in units of the critical field (L = lambda_c there)."""
        return 1.0 / self.magnetic_length**2

    @property
    def omega(self) -> float:
        """sqrt(2)*c/L, in 1/t_c."""
        return math.sqrt(2.0) / self.magnetic_length

    @property
    def omega_cyclotron(self) -> float:
        """eB/m = hbar/(m L^2), in 1/t_c."""
        return 1.0 / self.magnetic_length**2

    @property
    def kappa(self) -> float:
        """Critical ratio hbar*omega_cyclotron / (2 m c^2)."""
        return 0.5 / self.magnetic_length**2

    @classmethod
    def from_magnetic_length(cls, length: float) -> "FieldConfig":
        return cls(length)

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
