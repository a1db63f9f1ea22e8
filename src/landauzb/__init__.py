"""Relativistic electron wave packets in a uniform magnetic field.

Exact Landau-level trajectories, velocities and frequency spectra for the
2+1 and 3+1 models, a brute-force evolution oracle that certifies the
analytic series, and the translation layer between trapped-ion settings and
the simulated parameters.
"""

from .units import UnitSystem, FieldConfig, CRITICAL_FIELD, COMPTON_LENGTH, COMPTON_TIME
from .landau import (
    LandauIndex,
    SpinorWeights,
    landau_energy,
    jl_spinor,
    ladder_matrix_element,
    heisenberg_ladder_element,
)
from .hermite import QuadratureRule, gauss_hermite
from .packet import (
    GaussianPacket,
    CoefficientSet,
    g_xy,
    g_z,
    f_n,
    coefficient_matrix,
    sum_rules,
)
from .dynamics import (
    Trajectory,
    SpectralLine,
    SubPacketSeries,
    MixingSeries,
    trajectory_2p1,
    trajectory_3p1,
    mixing_terms,
    subpackets,
    spectral_decomposition,
    analytic_signal,
    lowfield_summary,
)
from .oracle import DenseHamiltonian, EvolvedExpectations, evolve_expectations
from .ionmap import (
    TrapParams,
    ExcitationSchedule,
    simulated_units,
    kappa,
    invert_kappa,
    excitation_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "UnitSystem",
    "FieldConfig",
    "CRITICAL_FIELD",
    "COMPTON_LENGTH",
    "COMPTON_TIME",
    "LandauIndex",
    "SpinorWeights",
    "landau_energy",
    "jl_spinor",
    "ladder_matrix_element",
    "heisenberg_ladder_element",
    "QuadratureRule",
    "gauss_hermite",
    "GaussianPacket",
    "CoefficientSet",
    "g_xy",
    "g_z",
    "f_n",
    "coefficient_matrix",
    "sum_rules",
    "Trajectory",
    "SpectralLine",
    "SubPacketSeries",
    "MixingSeries",
    "trajectory_2p1",
    "trajectory_3p1",
    "mixing_terms",
    "subpackets",
    "spectral_decomposition",
    "analytic_signal",
    "lowfield_summary",
    "DenseHamiltonian",
    "EvolvedExpectations",
    "evolve_expectations",
    "TrapParams",
    "ExcitationSchedule",
    "simulated_units",
    "kappa",
    "invert_kappa",
    "excitation_schedule",
]
