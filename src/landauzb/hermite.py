"""Stable oscillator eigenfunctions and Gauss-Hermite rules.

psi_n(x) = H_n(x) exp(-x^2/2) / C_n, C_n = sqrt(2^n n! sqrt(pi)), comes from one
normalized three-term recurrence carried as a mantissa times e^scale: raw H_n
overflows near n ~ 300 and the Gaussian underflows far out, their product does
neither.  Gauss-Hermite rules are built from numpy alone and cached per order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_GH_ORDER = 512
FIRST_ROWS = 64     # rows a `HermiteRows` buffer holds at first; it doubles as it grows


class CapacityError(ValueError):
    """Requested level or order beyond the supported range."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes and positive weights for the weight e^{-x^2}.

    log_fused = log(w_i e^{x_i^2}) = -log N - 2 log|psi_{N-1}(x_i)| stays finite
    where w_i underflows.  Rules are cached and shared, so arrays are read-only.
    """

    nodes: np.ndarray
    weights: np.ndarray
    log_fused: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        for values in (self.nodes, self.weights, self.log_fused):
            values.flags.writeable = False


@functools.cache
def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule for weight exp(-x^2), exact through degree 2N-1.

    Golub-Welsch (Math. Comp. 23:221, 1969): the Jacobi matrix's eigenvalues,
    then two Newton steps on h_N = H_N/C_N (h_N' = sqrt(2N) h_{N-1}), symmetrized.
    """
    if not 2 <= order <= MAX_GH_ORDER:
        raise CapacityError(f"Gauss-Hermite order must be in [2, {MAX_GH_ORDER}]")
    x = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1, order) / 2.0), 1), UPLO="U")
    for _ in range(2):
        mant, scale = normalized_hermite_table(order, x)
        ratio = mant[order] / mant[order - 1] * np.exp(scale[order] - scale[order - 1])
        x = x - ratio / math.sqrt(2.0 * order)
    x = 0.5 * (x - x[::-1])
    mant, scale = normalized_hermite_table(order - 1, x)
    log_fused = x * x - 2.0 * (np.log(np.abs(mant[-1])) + scale[-1]) - math.log(order)
    # beyond order ~370 the outermost weights (~e^{-node^2}) drop below the
    # float64 floor; clamp to the smallest subnormal to keep them positive
    weights = np.maximum(np.exp(log_fused - x * x), np.nextafter(0.0, 1.0))
    return QuadratureRule(nodes=x, weights=weights, log_fused=log_fused)


def psi_table(n_max: int, xi: np.ndarray) -> np.ndarray:
    """All psi_n(xi) for n <= n_max; shape (n_max+1, len(xi)).

    normalized_hermite_table with the Gaussian folded into its log scale, so it
    cannot underflow first.
    """
    if n_max < 0 or n_max > 2 * MAX_GH_ORDER:
        raise CapacityError(f"level n_max={n_max} outside [0, {2 * MAX_GH_ORDER}]")
    x = np.asarray(xi, dtype=float)
    mant, scale = normalized_hermite_table(n_max, x)
    scale -= 0.5 * x * x
    mant *= np.exp(scale, out=scale)
    return mant


def normalized_hermite_table(
    n_max: int, z: np.ndarray, s: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """K_n(z; s)/C_n for n <= n_max as (mantissa, log scale), value = m * e^scale.

    The whole table of `HermiteRows`, its scales spread over their rows.
    """
    rows = HermiteRows(z, s, n_max + 1)
    rows.grow(n_max + 1)
    scale = np.empty((n_max + 1, rows.z.size))
    for start, stop, run in rows.runs(0, n_max + 1):
        scale[start:stop] = rows.scales[run]
    return rows.m, scale


class HermiteRows:
    """Rows K_n(z; s)/C_n, n < capacity, of one recurrence, built on demand by `grow`.

    K_n(z; s) = s^{n/2} H_n(z/sqrt(s)) obeys K_{n+1} = 2z K_n - 2n s K_{n-1}
    (DLMF 18.9), real for every real s: s = 1 gives H_n, s = -1 gives G_n with
    H_n(iz) = i^n G_n(z), s = 0 gives (2z)^n.  For |s| <= 1 a step grows the
    table by at most |z| + 1, so renormalizing the last two rows once per
    900/log2(2 + max|z|) steps cannot overflow; entries ~700 e-folds below
    their column's peak may underflow to 0.  Row n is m[n] e^{scales[j]}, j the
    last run with starts[j] <= n: a renormalization starts a run of rows that
    share one scale.  Every row is that of the table of all `capacity` rows.
    """

    def __init__(self, z: np.ndarray, s: float, capacity: int):
        if not -1.0 <= s <= 1.0:
            raise ValueError(f"s must lie in [-1, 1], got {s!r}")
        z = np.asarray(z, dtype=float)
        self.capacity = capacity
        self.m = np.empty((min(capacity, FIRST_ROWS), z.size))
        self.m[0] = np.pi ** -0.25
        if capacity > 1:
            np.multiply(z, math.sqrt(2.0) * self.m[0], out=self.m[1])
        self.built = min(capacity, 2)       # rows computed so far
        self.starts, self.scales = [0], [np.zeros(z.size)]
        self.z, self.s = z, s
        self._block = max(1, int(900.0 / math.log2(2.0 + float(np.max(np.abs(z), initial=0.0)))))

    def grow(self, rows: int) -> None:
        """Run the recurrence until rows 0..rows-1 are final.

        Step k renormalizes rows k-1 and k (k a multiple of the block, k <
        capacity - 1) and builds row k+1, so row rows-1 is final once the
        step k = rows has run wherever it renormalizes.
        """
        last = rows - 2
        for k in (rows - 1, rows):
            if k <= self.capacity - 2 and k % self._block == 0:
                last = k
        first = self.built - 1
        if last < first:
            return
        if last + 2 > len(self.m):
            grown = np.empty((min(self.capacity, max(2 * len(self.m), last + 2)), self.z.size))
            grown[: self.built] = self.m[: self.built]
            self.m = grown
        m, z, s, block, work = self.m, self.z, self.s, self._block, np.empty(self.z.size)
        steps = np.arange(first, last + 1)
        # each step's z sqrt(2/(k+1)), formed up front in the row the step builds
        np.multiply(np.sqrt(2.0 / (steps + 1))[:, None], z, out=m[first + 1 : last + 2])
        views = list(m[first - 1 : last + 2])
        for k, back, older, row, new in zip(steps.tolist(),
                                            (s * np.sqrt(steps / (steps + 1.0))).tolist(),
                                            views, views[1:], views[2:]):
            if k % block == 0:
                # rows k-1 and k share one scale; the new one runs to the next block
                peak = np.maximum(np.abs(older), np.abs(row, out=work))
                peak[peak == 0.0] = 1.0
                m[k - 1 : k + 1] /= peak
                self.starts.append(k - 1)
                self.scales.append(self.scales[-1] + np.log(peak))
            # the Hermite recurrence, scaled by s in its second term
            np.multiply(new, row, new)
            np.multiply(older, back, work)
            np.subtract(new, work, new)
        self.built = last + 2

    def runs(self, lo: int, hi: int):
        """(start, stop, j): the rows start..stop-1 of lo..hi-1 that share scales[j]."""
        ends = self.starts[1:] + [hi]
        for j, (start, stop) in enumerate(zip(self.starts, ends)):
            start, stop = max(start, lo), min(stop, hi)
            if start < stop:
                yield start, stop, j
