"""Landau spectrum, eigenspinors, and ladder-operator matrix elements.

Natural units throughout: energies in mc^2, wavenumbers in 1/lambda_c,
frequencies in 1/t_c.  The field enters through FieldConfig.omega = sqrt(2)/L.

Eigenstates are labeled (n, k_x, k_z, epsilon, s): oscillator level, the two
conserved wavenumbers, the energy branch and the spin index.  The four spinor
weights sit on oscillator levels (n-1, n, n-1, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import FieldConfig


class BranchEdgeError(ValueError):
    """Spinor norm singular at the branch-edge state (eps=-1, n=0, k_z=0)."""


@dataclass(frozen=True)
class LandauIndex:
    n: int
    k_x: float = 0.0
    k_z: float = 0.0
    epsilon: int = +1
    s: int = -1

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("oscillator level n must be non-negative")
        if self.epsilon not in (-1, +1):
            raise ValueError("epsilon must be -1 or +1")
        if self.s not in (-1, +1):
            raise ValueError("s must be -1 or +1")


@dataclass(frozen=True)
class SpinorWeights:
    """Four amplitudes on oscillator levels (n-1, n, n-1, n), unit norm.

    The overall phase is fixed so the dominant upper component carries the
    sign of (epsilon*E + 1).
    """

    components: tuple[complex, complex, complex, complex]
    levels: tuple[int, int, int, int]
    chi: float

    def as_array(self) -> np.ndarray:
        return np.asarray(self.components, dtype=complex)


def landau_energy(n: int, k_z: float, field: FieldConfig) -> float:
    """E_{n,k_z} = sqrt(1 + (omega*sqrt(n))^2 + k_z^2), in mc^2 units."""
    if n < 0:
        raise ValueError("level n must be non-negative")
    return math.sqrt(1.0 + field.omega**2 * n + k_z * k_z)


def landau_energies(n_max: int, k_z, field: FieldConfig) -> np.ndarray:
    """E_{n,k_z} for n = 0..n_max; k_z may be an array (levels on axis 0)."""
    n = np.arange(n_max + 1, dtype=float)
    kz = np.asarray(k_z, dtype=float)
    energies = 1.0 + field.omega**2 * n[(...,) + (None,) * kz.ndim] + kz * kz
    return np.sqrt(energies, out=energies)


def jl_spinor(idx: LandauIndex, field: FieldConfig) -> SpinorWeights:
    """Johnson-Lippman eigenspinor weights for the state (n, k_z, eps, s)."""
    n, k_z, eps, s = idx.n, idx.k_z, idx.epsilon, idx.s
    if s == +1 and n < 1:
        raise ValueError("s=+1 requires n >= 1 (rows reference level n-1)")
    energy = landau_energy(n, k_z, field)
    denom = 2.0 * energy * energy + 2.0 * eps * energy
    if denom <= 0.0 or math.isclose(denom, 0.0, abs_tol=1e-30):
        raise BranchEdgeError("spinor norm singular at branch-edge state")
    norm = 1.0 / math.sqrt(denom)
    chi = (eps * energy + 1.0) * norm
    omega_n = field.omega * math.sqrt(n)
    if s == +1:
        comps = (chi, 0.0, k_z * norm, -omega_n * norm)
    else:
        # literal weights times -1, fixing the dominant component positive
        comps = (0.0, chi, -omega_n * norm, -k_z * norm)
    return SpinorWeights(
        components=tuple(complex(c) for c in comps),
        levels=(n - 1, n, n - 1, n),
        chi=chi,
    )


@dataclass(frozen=True)
class LadderElement:
    """Time-dependent matrix element of the four-component ladder operators.

    lowering/raising are the elements of the level-lowering and level-raising
    operators between the two states; at most one is nonzero by the selection
    rule n' = n +- 1.  `allowed` distinguishes a selection-rule zero from a
    numerically zero amplitude.
    """

    lowering: complex
    raising: complex
    allowed: bool


def _contracted_amplitude(bra: SpinorWeights, ket: SpinorWeights) -> complex:
    """<bra| diag(a,a,a,a) |ket> contracted over spinor rows."""
    total = 0.0 + 0.0j
    for wb, lb, wk, lk in zip(bra.components, bra.levels, ket.components, ket.levels):
        if lb >= 0 and lb == lk - 1:
            total += wb.conjugate() * wk * math.sqrt(lk)
    return total


def ladder_matrix_element(
    t: float, bra: LandauIndex, ket: LandauIndex, field: FieldConfig
) -> LadderElement:
    """Explicit-form element (lowering part, raising part) at time t.

    Selection rules: equal k_x and k_z, ket level = bra level +- 1; no rule
    on the branch or spin labels.  The branch eps of the higher-level state
    splits the element into two parts, with phases drawn from {+-E_bra +- E_ket}.
    """
    if bra.k_x != ket.k_x or bra.k_z != ket.k_z or abs(ket.n - bra.n) != 1:
        return LadderElement(0.0, 0.0, allowed=False)

    bra_w = jl_spinor(bra, field)
    ket_w = jl_spinor(ket, field)
    e_bra = landau_energy(bra.n, bra.k_z, field)
    e_ket = landau_energy(ket.n, ket.k_z, field)

    lowering = ket.n > bra.n
    if lowering:
        # phases exp(i(eps_bra E_bra -+ E_ket) t), split on the ket's branch
        amp, eps = _contracted_amplitude(bra_w, ket_w), ket.epsilon
        phases = (bra.epsilon * e_bra - e_ket, bra.epsilon * e_bra + e_ket)
    else:
        # <bra|a^dagger|ket> = <ket|a|bra>*; phases exp(i(+-E_bra - eps_ket E_ket) t)
        amp, eps = _contracted_amplitude(ket_w, bra_w).conjugate(), bra.epsilon
        phases = (e_bra - ket.epsilon * e_ket, -e_bra - ket.epsilon * e_ket)
    value = complex(
        0.5 * (1 + eps) * amp * np.exp(1j * phases[0] * t)
        + 0.5 * (1 - eps) * amp * np.exp(1j * phases[1] * t)
    )
    if lowering:
        return LadderElement(lowering=value, raising=0.0, allowed=True)
    return LadderElement(lowering=0.0, raising=value, allowed=True)


def heisenberg_ladder_element(
    t: float, bra: LandauIndex, ket: LandauIndex, field: FieldConfig
) -> LadderElement:
    """Same element evolved as exp(iHt) A exp(-iHt): a single phase factor."""
    base = ladder_matrix_element(0.0, bra, ket, field)
    if not base.allowed:
        return base
    e_bra = landau_energy(bra.n, bra.k_z, field)
    e_ket = landau_energy(ket.n, ket.k_z, field)
    phase = np.exp(1j * (bra.epsilon * e_bra - ket.epsilon * e_ket) * t)
    return LadderElement(
        complex(base.lowering * phase), complex(base.raising * phase), allowed=True
    )
