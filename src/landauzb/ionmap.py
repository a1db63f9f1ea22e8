"""Trapped-ion laser/trap settings mapped to simulated field-theory parameters.

A four-level ion driven by pairs of red/blue sideband and carrier beams
realizes the 2+1 or 3+1 model Hamiltonian with tunable rest energy hbar*Omega
and speed 2*eta*Delta*Omega_tilde; the magnetic length maps to sqrt(2) times
the ground-state spread Delta.  The critical ratio kappa = (eta Omega_tilde /
Omega)^2 then sets how relativistic the simulated dynamics are.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .units import HBAR, FieldConfig, UnitSystem

_ISOTROPY_RTOL = 1e-9       # relative spread of trap frequencies read as isotropic
_DELTA_OVERRIDE = 1e-6


class TrapError(ValueError):
    """Invalid trap parameter set."""


@dataclass(frozen=True)
class TrapParams:
    """Ion-trap knobs in SI units (angular frequencies in rad/s).

    delta may be given directly (as experiments quote it) or derived from the
    ion mass and trap frequency; when both are supplied and disagree beyond
    1e-6 relative, the explicit value wins with a warning.
    """

    eta: float
    omega_tilde: float
    omega_carrier: float
    delta: float | None = None
    ion_mass: float | None = None
    trap_freqs: tuple[float, float, float] | None = None

    def __post_init__(self):
        for name in ("eta", "omega_tilde", "omega_carrier"):
            if not getattr(self, name) > 0.0:
                raise TrapError(f"{name} must be strictly positive")
        if self.delta is None and (self.ion_mass is None or self.trap_freqs is None):
            raise TrapError("provide delta, or ion_mass plus trap_freqs")
        if self.trap_freqs is not None:
            if any(not nu > 0.0 for nu in self.trap_freqs):
                raise TrapError("trap frequencies must be strictly positive")
            nx, ny, nz = self.trap_freqs
            if abs(nx - ny) > _ISOTROPY_RTOL * nx or abs(nx - nz) > _ISOTROPY_RTOL * nx:
                warnings.warn(
                    "anisotropic trap: the mapping assumes equal ground-state "
                    "spreads along all three axes",
                    stacklevel=2,
                )
        if self.delta is not None and not self.delta > 0.0:
            raise TrapError("delta must be strictly positive")
        if (
            self.delta is not None
            and self.ion_mass is not None
            and self.trap_freqs is not None
        ):
            derived = ground_state_spread(self.ion_mass, self.trap_freqs[0])
            if abs(derived - self.delta) > _DELTA_OVERRIDE * self.delta:
                warnings.warn(
                    f"explicit delta {self.delta:.6g} m overrides the value "
                    f"{derived:.6g} m derived from ion_mass and trap_freqs",
                    stacklevel=2,
                )

    @property
    def spread(self) -> float:
        """Ground-state spread in metres."""
        if self.delta is not None:
            return self.delta
        return ground_state_spread(self.ion_mass, self.trap_freqs[0])


def ground_state_spread(ion_mass: float, nu: float) -> float:
    """Delta = sqrt(hbar / (2 M nu))."""
    if ion_mass <= 0 or nu <= 0:
        raise TrapError("ion mass and trap frequency must be positive")
    return math.sqrt(HBAR / (2.0 * ion_mass * nu))


def simulated_units(trap: TrapParams) -> tuple[UnitSystem, FieldConfig]:
    """Effective unit system and field realized by the trap settings.

    Correspondences: c -> 2 eta Delta Omega_tilde, mc^2 -> hbar Omega,
    L -> sqrt(2) Delta.
    """
    delta = trap.spread
    speed = 2.0 * trap.eta * delta * trap.omega_tilde
    rest = HBAR * trap.omega_carrier
    units = UnitSystem.simulated(rest_energy=rest, speed=speed)
    length = math.sqrt(2.0) * delta / units.compton_length
    return units, FieldConfig.from_magnetic_length(length)


def kappa(trap: TrapParams) -> float:
    """Critical ratio (eta Omega_tilde / Omega)^2."""
    return (trap.eta * trap.omega_tilde / trap.omega_carrier) ** 2


def invert_kappa(target_kappa: float, eta: float, omega_tilde: float) -> float:
    """Carrier coupling Omega that realizes the requested critical ratio."""
    if target_kappa <= 0:
        raise TrapError("kappa must be positive")
    return eta * omega_tilde / math.sqrt(target_kappa)


@dataclass(frozen=True)
class Excitation:
    """One interaction term of the schedule with its laser-pair budget."""

    kind: str            # 'sigma-p', 'JC', 'AJC' or 'carrier'
    axis: str            # motional axis driven, or '-' for the carrier
    phase_red: float | None
    phase_blue: float | None
    phase_carrier: float | None
    level_pair: str      # which two internal levels the beams couple
    sign: int            # relative sign in the assembled Hamiltonian
    laser_pairs: int


@dataclass(frozen=True)
class ExcitationSchedule:
    model: str
    excitations: tuple[Excitation, ...]

    @property
    def laser_pairs(self) -> int:
        return sum(e.laser_pairs for e in self.excitations)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.excitations if e.kind == kind)


def excitation_schedule(model: str) -> ExcitationSchedule:
    """Interaction list realizing the simulated Hamiltonian.

    Momentum couplings pair a red and a blue sideband (phases -pi/2 and
    +pi/2) and cost two laser pairs each; the magnetic terms are single
    red/blue sidebands at phase pi; the rest-energy carriers close the set.
    The 3+1 model needs 12 laser pairs, dropping the axial-momentum terms
    leaves the 8-pair 2+1 set.
    """
    if model not in ("2+1", "3+1"):
        raise TrapError("model must be '2+1' or '3+1'")
    sig = dict(kind="sigma-p", phase_red=-math.pi / 2, phase_blue=+math.pi / 2,
               phase_carrier=None, sign=+1, laser_pairs=2)
    terms = [
        Excitation(axis="x", level_pair="ad", **sig),
        Excitation(axis="x", level_pair="bc", **sig),
        Excitation(kind="JC", axis="y", level_pair="ad", phase_red=math.pi,
                   phase_blue=None, phase_carrier=None, sign=+1, laser_pairs=1),
        Excitation(kind="AJC", axis="y", level_pair="bc", phase_red=None,
                   phase_blue=math.pi, phase_carrier=None, sign=+1, laser_pairs=1),
    ]
    if model == "3+1":
        terms.insert(2, Excitation(axis="z", level_pair="ac", **sig))
        terms.insert(3, Excitation(axis="z", level_pair="bd",
                                   **{**sig, "sign": -1}))
    terms += [
        Excitation(kind="carrier", axis="-", level_pair="ac", phase_red=None,
                   phase_blue=None, phase_carrier=-math.pi / 2, sign=+1,
                   laser_pairs=1),
        Excitation(kind="carrier", axis="-", level_pair="bd", phase_red=None,
                   phase_blue=None, phase_carrier=-math.pi / 2, sign=+1,
                   laser_pairs=1),
    ]
    return ExcitationSchedule(model=model, excitations=tuple(terms))


def schedule_document(schedule: ExcitationSchedule, trap: TrapParams | None = None) -> dict:
    """JSON-ready description of a schedule, with the simulated parameters."""
    doc = {
        "model": schedule.model,
        "laser_pairs_total": schedule.laser_pairs,
        "excitations": [
            {
                "kind": e.kind,
                "axis": e.axis,
                "level_pair": e.level_pair,
                "sign": e.sign,
                "laser_pairs": e.laser_pairs,
                "phases": {
                    k: v
                    for k, v in (
                        ("red", e.phase_red),
                        ("blue", e.phase_blue),
                        ("carrier", e.phase_carrier),
                    )
                    if v is not None
                },
            }
            for e in schedule.excitations
        ],
    }
    if trap is not None:
        units, fld = simulated_units(trap)
        doc["trap"] = {
            "eta": trap.eta,
            "omega_tilde_rad_s": trap.omega_tilde,
            "omega_carrier_rad_s": trap.omega_carrier,
            "delta_m": trap.spread,
        }
        doc["simulated"] = {
            "kappa": kappa(trap),
            "speed_m_s": units.speed,
            "rest_energy_J": units.rest_energy,
            "compton_length_m": units.compton_length,
            "compton_time_s": units.compton_time,
            "magnetic_length_m": fld.magnetic_length * units.compton_length,
            "omega_rad_s": fld.omega / units.compton_time,
            "omega_cyclotron_rad_s": fld.omega_cyclotron / units.compton_time,
        }
    return doc
