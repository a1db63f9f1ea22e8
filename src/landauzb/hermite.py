"""Stable oscillator eigenfunctions and quadrature rules.

The weighted Hermite functions psi_n(x) = H_n(x) exp(-x^2/2) / C_n with
C_n = sqrt(2^n n! sqrt(pi)) are evaluated by the normalized three-term
recurrence; raw H_n overflows double precision near n ~ 300, the normalized
form stays O(1) up to the configured cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import roots_hermite

N_CAP = 450
MAX_GH_ORDER = 512


class CapacityError(ValueError):
    """Requested level or order beyond the supported range."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights of a fixed quadrature rule."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str  # 'gauss-hermite'

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule for weight exp(-x^2), exact through degree 2N-1."""
    if not 2 <= order <= MAX_GH_ORDER:
        raise CapacityError(f"Gauss-Hermite order must be in [2, {MAX_GH_ORDER}]")
    nodes, weights = roots_hermite(order)
    # beyond order ~370 the outermost weights (~e^{-node^2}) drop below the
    # float64 floor; clamp to the smallest subnormal to keep them positive
    tiny = np.nextafter(0.0, 1.0)
    weights = np.where(weights > 0.0, weights, tiny)
    return QuadratureRule(nodes=nodes, weights=weights, kind="gauss-hermite")


def psi(n: int, xi) -> np.ndarray | float:
    """Normalized weighted Hermite function psi_n at xi (scalar or array)."""
    if n < 0 or n > N_CAP:
        raise CapacityError(f"level n={n} outside [0, {N_CAP}]")
    x = np.asarray(xi, dtype=float)
    out = psi_table(n, x.ravel())[n].reshape(x.shape)
    if np.isscalar(xi) or x.ndim == 0:
        return float(out)
    return out


def psi_table(n_max: int, xi: np.ndarray) -> np.ndarray:
    """All psi_n(xi) for n <= n_max; shape (n_max+1, len(xi)).

    The table form is also used internally above the public psi() cap, e.g.
    for quadrature weights, so it only enforces the hard recurrence limit.
    """
    if n_max < 0 or n_max > 2 * MAX_GH_ORDER:
        raise CapacityError(f"level n_max={n_max} outside [0, {2 * MAX_GH_ORDER}]")
    x = np.asarray(xi, dtype=float)
    table = np.empty((n_max + 1, x.size))
    table[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    for k in range(1, n_max):
        table[k + 1] = (
            x * math.sqrt(2.0 / (k + 1)) * table[k]
            - math.sqrt(k / (k + 1.0)) * table[k - 1]
        )
    return table


def normalized_hermite_table(
    n_max: int, z: np.ndarray, sign: float = -1.0
) -> tuple[np.ndarray, np.ndarray]:
    """H_n(z)/C_n for n <= n_max as (mantissa, exponent) with value = m * 2**e.

    sign = +1 flips the sign of the recurrence's second term and gives G_n(z)/C_n
    instead, with H_n(iz) = i^n G_n(z) (G_{n+1} = 2z G_n + 2n G_{n-1}, all real).
    The unweighted ratio grows like exp(z^2/2) at large |z|; mantissas are
    renormalized with frexp each step so any |z| is representable.
    """
    z = np.asarray(z, dtype=float)
    m = np.empty((n_max + 1, z.size))
    e = np.zeros((n_max + 1, z.size), dtype=np.int64)
    m[0] = np.pi ** -0.25
    if n_max >= 1:
        m[1], e[1] = np.frexp(math.sqrt(2.0) * z * m[0])
    for k in range(1, n_max):
        # same recurrence as psi_table; terms carry different exponents
        a = z * math.sqrt(2.0 / (k + 1)) * m[k]
        b = math.sqrt(k / (k + 1.0)) * m[k - 1]
        shift = e[k - 1] - e[k]
        nxt = a + sign * b * np.exp2(shift.astype(float))
        m[k + 1], de = np.frexp(nxt)
        e[k + 1] = e[k] + de
    return m, e


def log_factorial_ratio(m: int, n: int) -> float:
    """ln(C_m / C_n) without overflow; C_n = sqrt(2^n n! sqrt(pi))."""
    if m < 0 or n < 0:
        raise ValueError("levels must be non-negative")
    return 0.5 * ((m - n) * math.log(2.0) + math.lgamma(m + 1) - math.lgamma(n + 1))


def log_norm_constant(n: int) -> float:
    """ln C_n."""
    if n < 0:
        raise ValueError("level must be non-negative")
    return 0.5 * (n * math.log(2.0) + math.lgamma(n + 1) + 0.5 * math.log(math.pi))
