"""Gaussian packets and their expansion over Landau oscillator levels.

The transverse profile is expanded as F_n(k_x) = <n, k_x | f>, the overlap of
the packet with the oscillator level n at conserved wavenumber k_x, and the
level-overlap matrix U_{m,n} = integral F_m*(k_x) F_n(k_x) dk_x collects the
amplitudes that weight every oscillation term of the dynamics.

Lengths in Compton wavelengths, wavenumbers in their inverse.  F_n has one
closed form at every packet width (narrow, equal and wide alike): a Gaussian
in k_x times the scaled Hermite kernel K_n(x; r) = r^{n/2} H_n(x/sqrt r),
which is real and regular for every real r.  Its factors overflow separately
near n ~ 400, so the kernel is carried as a mantissa times e^scale and only
the fused result is exponentiated.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from . import hermite
from .units import FieldConfig, TimeRangeError

DEFAULT_N_MAX = 400
DEFAULT_TAIL_TOL = 1e-10
AUTO_TAIL = 1e-12
# k_z grid half-width in units of 1/d_z: the density there is eps/1024 of its peak
AXIAL_HALF_WIDTH = math.sqrt(math.log(1024.0 / np.finfo(float).eps))
AXIAL_FLOOR = 64            # fewest k_z nodes of a series rule
MAX_GRID_NODES = 1 << 16
ROW_BLOCK = 16                # F_n rows the automatic cut builds between its checks
_TINY = sys.float_info.min     # the smallest normal float


class PacketError(ValueError):
    """Invalid packet definition."""


class TruncationError(ValueError):
    """Level truncation leaves too much packet mass or momentum uncaptured."""


class DimensionalityError(ValueError):
    """Operation undefined for this packet dimensionality."""


class QuadratureConvergenceError(RuntimeError):
    """Axial-momentum quadrature misses its target, or needs more nodes than the cap."""

    def __init__(self, achieved: float = math.inf, target: float | None = None,
                 nodes_needed: int | None = None):
        if target is not None and not target > 0.0:     # NaN, or 0 on a zero scale
            message = ("axial quadrature has no error target to size a k_z rule for: the " + (
                "amplitude mass or the signal scale is NaN" if math.isnan(target) else
                "signal scale is zero, as on a time grid the positions cannot move over"))
        elif nodes_needed is None:
            message = (f"axial quadrature changed by {achieved:.3e} relative on doubling "
                       f"(target {target:.3e}); refine manually or shorten the window")
        else:
            message = (f"axial quadrature for this window needs {nodes_needed} k_z nodes, "
                       f"above the cap of {MAX_GRID_NODES} (2^16) nodes; shorten the window")
        super().__init__(message)
        self.achieved = achieved
        self.target = target
        self.nodes_needed = nodes_needed


@dataclass(frozen=True)
class GaussianPacket:
    """Ellipsoidal Gaussian packet with two upper spinor amplitudes.

    d_x, d_y, d_z -- 1/e half-widths (d_z ignored for the 2+1 model)
    k0x, k0z      -- centre wavenumbers (k0y = 0 by construction)
    a1, a2        -- first/second spinor component amplitudes, |a1|^2+|a2|^2=1
    dimensionality-- '2+1' or '3+1'

    The velocity bound |k0| < 1/lambda_c keeps the nominal packet speed below
    c; analog-simulation runs routinely exceed it, so it can be relaxed to a
    warning with relax_momentum_bound=True.
    """

    d_x: float
    d_y: float
    d_z: float | None = None
    k0x: float = 0.0
    k0z: float = 0.0
    a1: complex = 0.0
    a2: complex = 1.0
    dimensionality: str = "2+1"
    relax_momentum_bound: bool = False

    def __post_init__(self):
        if self.dimensionality not in ("2+1", "3+1"):
            raise PacketError("dimensionality must be '2+1' or '3+1'")
        if not (self.d_x > 0 and self.d_y > 0):
            raise PacketError("transverse widths d_x, d_y must be positive")
        if self.dimensionality == "3+1":
            if self.d_z is None or not self.d_z > 0:
                raise PacketError("3+1 packets need a positive axial width d_z")
        # the closed forms square every width the model reads
        for name in ("d_x", "d_y", "d_z") if self.dimensionality == "3+1" else ("d_x", "d_y"):
            width = float(getattr(self, name))
            if not _TINY <= width * width < math.inf:
                raise PacketError(f"{name} = {width!r} is out of range: its square must be "
                                  "a normal float")
        if self.dimensionality == "2+1" and self.k0z != 0.0:
            raise PacketError("2+1 packets have no axial momentum")
        # the line energies square every k_z node, the grid's centre k0z among them
        if not self.k0z * self.k0z < math.inf:
            raise PacketError(f"k0z = {self.k0z!r} is out of range: its square must be a finite "
                              "float")
        norm = abs(self.a1) ** 2 + abs(self.a2) ** 2
        if not math.isclose(norm, 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise PacketError(
                f"spinor amplitudes must satisfy |a1|^2+|a2|^2 = 1, got {norm!r}"
            )
        speed = math.hypot(self.k0x, self.k0z)
        if speed >= 1.0:
            if self.relax_momentum_bound:
                warnings.warn(
                    f"packet momentum {speed:.4g}/lambda_c exceeds the nominal "
                    "velocity bound; dynamics remain well defined",
                    stacklevel=2,
                )
            else:
                raise PacketError(
                    "packet momentum sqrt(k0x^2+k0z^2) must stay below "
                    f"1/lambda_c (got {speed:.6g}); pass relax_momentum_bound=True "
                    "for analog-simulation regimes"
                )

    @property
    def is_two_component(self) -> bool:
        return abs(self.a1) > 0 and abs(self.a2) > 0


def g_xy(packet: GaussianPacket, k_x, y):
    """Partial Fourier transform of the transverse profile, Gaussian in both."""
    k = np.asarray(k_x, dtype=float)
    yy = np.asarray(y, dtype=float)
    pref = math.sqrt(packet.d_x / (math.pi * packet.d_y))
    out = pref * np.exp(
        -0.5 * packet.d_x**2 * (k - packet.k0x) ** 2 - yy**2 / (2.0 * packet.d_y**2)
    )
    if np.isscalar(k_x) and np.isscalar(y):
        return float(out)
    return out


def g_z(packet: GaussianPacket, k_z):
    """Axial momentum profile; normalized so integral |g_z|^2 dk_z = 1."""
    if packet.dimensionality != "3+1":
        raise DimensionalityError(
            "2+1 packets carry no axial profile: the model replaces |g_z|^2 "
            "by a delta at k_z = 0"
        )
    k = np.asarray(k_z, dtype=float)
    out = (packet.d_z**2 / math.pi) ** 0.25 * np.exp(
        -0.5 * packet.d_z**2 * (k - packet.k0z) ** 2
    )
    if np.isscalar(k_z):
        return float(out)
    return out


def _f_closed_log(
    packet: GaussianPacket, field: FieldConfig, k_x: np.ndarray, levels: int
) -> tuple[hermite.HermiteRows, np.ndarray]:
    """F_n(k_x), n < levels, as (rows, column): F_n = m_n e^{scale_n + column}.

    F_n = sqrt(2 L d_x d_y/P) e^{-d_x^2 (k - k0x)^2/2 - L^4 k^2/(2P)} K_n(x; r)/C_n
    with P = L^2 + d_y^2, r = (L^2 - d_y^2)/P and x = -k L^3/P, where the
    scaled Hermite kernel K_n(x; r) = r^{n/2} H_n(x/sqrt r) is real and regular
    for every width: r = 0 (d_y = L) gives (-k L)^n.  Its rows m_n e^{scale_n}
    are `hermite.HermiteRows`, not yet grown; column is the log of the rest.
    """
    L = field.magnetic_length
    dx, dy = packet.d_x, packet.d_y
    plus = L * L + dy * dy
    r = (L - dy) * (L + dy) / plus      # factored: no cancellation as d_y -> L
    rows = hermite.HermiteRows(-k_x * (L**3 / plus), r, levels)
    # 2 L d_x d_y / P leaves the normal floats only at the corners of the
    # widths' range; its log is a sum of logs there
    pref = 2.0 * L * dx * dy
    log_pref = (math.log(pref / plus) if _TINY <= pref and _TINY <= pref / plus < math.inf
                else math.log(2.0 * L) + math.log(dx) + math.log(dy) - math.log(plus))
    column = (
        0.5 * log_pref
        - 0.5 * dx**2 * (k_x - packet.k0x) ** 2
        - 0.5 * (L**4 / plus) * k_x * k_x
    )
    return rows, column


def f_n(packet: GaussianPacket, field: FieldConfig, n: int, k_x):
    """Level amplitude F_n(k_x) = <n, k_x | f>, by the closed form above."""
    k = np.atleast_1d(np.asarray(k_x, dtype=float))
    vals = f_table(packet, field, n, k)[n]
    if np.isscalar(k_x):
        return float(vals[0])
    return vals


def f_table(
    packet: GaussianPacket, field: FieldConfig, n_max: int, k_x: np.ndarray
) -> np.ndarray:
    """F_n(k_x) for all n <= n_max; shape (n_max+1, K).

    Each run of rows that share one log scale takes its exponential once per node.
    """
    rows, column = _f_closed_log(packet, field, np.asarray(k_x, dtype=float), n_max + 1)
    rows.grow(n_max + 1)
    for start, stop, run in rows.runs(0, n_max + 1):
        rows.m[start:stop] *= np.exp(rows.scales[run] + column)
    return rows.m


def kx_rule(
    packet: GaussianPacket, field: FieldConfig, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite k_x nodes and log fused weights for F_m F_n, m, n <= n_max.

    Centred on the Gaussian of F_m F_n, the rule is exact for the closed form
    when its order exceeds n_max: 256 nodes below 256 levels, else
    MAX_GH_ORDER.  The fused weights are the rule's w_i e^{u_i^2}, over alpha.
    """
    order = 256 if n_max < 256 else hermite.MAX_GH_ORDER
    if n_max >= order:
        raise hermite.CapacityError(
            f"{n_max + 1} levels exceed the {order}-node k_x rule, which is exact "
            f"for at most {order} levels"
        )
    L = field.magnetic_length
    d_sq = L**4 / (L * L + packet.d_y**2)
    alpha = math.sqrt(packet.d_x**2 + d_sq)
    centre = packet.d_x**2 * packet.k0x / alpha**2
    rule = hermite.gauss_hermite(order)
    return centre + rule.nodes / alpha, rule.log_fused - math.log(alpha)


@dataclass(frozen=True)
class CoefficientSet:
    """Level-overlap matrix with its truncation record."""

    n_max: int
    u: np.ndarray                 # (n_max+1, n_max+1), real symmetric
    tail_mass: float
    kx_order: int

    def diagonal_sum(self) -> float:
        return math.fsum(np.diagonal(self.u).tolist())

    def momentum_sum(self) -> float:
        """sum_n sqrt(n+1) U_{n+1,n}; equals -k0x L / sqrt(2)."""
        sub = np.diagonal(self.u, offset=-1)
        terms = [math.sqrt(n + 1.0) * value for n, value in enumerate(sub.tolist())]
        return math.fsum(terms)


def coefficient_matrix(
    packet: GaussianPacket,
    field: FieldConfig,
    n_max: int | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> CoefficientSet:
    """Overlap matrix U over the quadrature of F_m F_n products.

    F_m F_n is a Gaussian times a polynomial of degree m + n, so an order-N
    k_x rule is exact for levels below N and the only truncation is the
    level cutoff.  With n_max omitted the cutoff is placed where the running
    diagonal sum first reaches 1 - AUTO_TAIL: the rows sqrt(w) F_n of the
    256-node rule grow ROW_BLOCK at a time on one recurrence, the sum checked
    after each block, up to 256 levels; only a crossing beyond them starts
    over on the MAX_GH_ORDER rule, up to 401 levels.  Each row is that of
    the rule's full table, so the cut is the one a full build would place.
    A cut, automatic or explicit, whose tail mass or momentum sum-rule
    residual exceeds tail_tol raises TruncationError; n_max >= 512 raises
    CapacityError (see kx_rule).
    """
    auto = n_max is None
    for top in (255, DEFAULT_N_MAX) if auto else (n_max,):
        k_nodes, log_w = kx_rule(packet, field, top)
        z, cut = _weighted_rows(packet, field, k_nodes, log_w, top + 1, auto)
        if cut is not None:
            break
    cut = top if cut is None else cut
    z = z[: cut + 1]
    u = z @ z.T
    tail = 1.0 - math.fsum(np.diagonal(u).tolist())
    if not abs(tail) <= tail_tol:      # a diagonal sum above 1 is no tail either
        raise TruncationError(
            f"level truncation at n_max={cut} leaves tail mass {tail:.3e} "
            f"(> {tail_tol:g}); increase n_max"
        )
    coeffs = CoefficientSet(n_max=cut, u=u, tail_mass=tail, kx_order=k_nodes.size)
    # the momentum rule misses about sqrt(n_max) times the tail mass, so a
    # cut can pass tail_tol and still fail it
    drift = sum_rules(coeffs, packet, field).momentum_residual
    if not drift <= tail_tol:
        raise TruncationError(
            f"level truncation at n_max={cut} leaves momentum residual "
            f"{drift:.3e} (> {tail_tol:g}); increase n_max"
        )
    return coeffs


def _weighted_rows(
    packet: GaussianPacket, field: FieldConfig, k_nodes: np.ndarray, log_w: np.ndarray,
    levels: int, auto: bool,
) -> tuple[np.ndarray, int | None]:
    """(z, cut): rows z_n = sqrt(w) F_n on the rule (k_nodes, log_w), n < levels.

    With auto the rows grow ROW_BLOCK at a time until the running diagonal sum
    first reaches 1 - AUTO_TAIL, at row cut (at least 1), and z holds the rows up
    to that block; cut is None where no row reaches it, or without auto, where z
    holds every row.  Each run of rows that share one log scale takes its
    exponential once per node.
    """
    rows, column = _f_closed_log(packet, field, k_nodes, levels)
    z, diagonal, factors = np.empty((levels, k_nodes.size)), np.empty(levels), {}
    half_log_w = 0.5 * log_w
    step = ROW_BLOCK if auto else levels
    for lo in range(0, levels, step):
        hi = min(lo + step, levels)
        rows.grow(hi)
        for start, stop, run in rows.runs(lo, hi):
            if run not in factors:
                factors[run] = np.exp(rows.scales[run] + column + half_log_w)
            np.multiply(rows.m[start:stop], factors[run], out=z[start:stop])
        if auto:
            diagonal[lo:hi] = np.einsum("ij,ij->i", z[lo:hi], z[lo:hi])
            crossed = np.cumsum(diagonal[:hi]) >= 1.0 - AUTO_TAIL
            if crossed.any():
                return z[:hi], max(int(crossed.argmax()), 1)
    return z, None


def axial_grid(packet: GaussianPacket, points: int,
               ray: AxialRay | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Uniform k_z rule against |g_z|^2 dk_z, nested under doubling.

    Nodes k0z + h (j - points/2), j < points, with h = 2 AXIAL_HALF_WIDTH/(d_z points),
    start at k0z - AXIAL_HALF_WIDTH/d_z, where the density is eps/1024 of its peak,
    and every weight is positive: the rule converges exponentially in `points`,
    and for `points` divisible by 4 its even-index nodes with doubled weights are
    exactly the rule with points/2 nodes.  (Symmetric grids without the centre
    node are not nested this way: for a k_z-even integrand their even-index half
    has the same error as the full grid.)  A `ray` of theta = 0 is this real axis.
    On a ray of theta != 0 (k0z = 0) the nodes are s e^{-i theta}, s = h (j -
    points/2) with h = 2 half_width/points, and the weights the density there
    times e^{-i theta} h: the same rule on the contour, nested alike.
    """
    if packet.dimensionality != "3+1":
        raise DimensionalityError("axial nodes require a 3+1 packet")
    if ray is not None and ray.theta:
        turn = complex(math.cos(ray.theta), -math.sin(ray.theta))
        step = 2.0 * ray.half_width / points
        k = turn * (step * (np.arange(points) - points // 2))
        density = math.sqrt(packet.d_z**2 / math.pi) * np.exp(-packet.d_z**2 * (k * k))
        return k, density * (turn * step)
    step = 2.0 * AXIAL_HALF_WIDTH / (packet.d_z * points)
    k = packet.k0z + step * (np.arange(points) - points // 2)
    density = math.sqrt(packet.d_z**2 / math.pi) * np.exp(-packet.d_z**2 * (k - packet.k0z) ** 2)
    return k, density * step


# `axial_ray`'s half-widths, from the density's own down by 2^(-1/16) steps, its
# shifts Im s, from the largest down by sqrt 2 steps, and its points along the line;
# the real axis' points x/half_width, its cost bounded on every interval between them
_RAY_LADDER = 2.0 ** (-np.arange(161) / 16.0)
_RAY_SHIFTS = 2.0 ** (-0.5 * np.arange(8))
_RAY_LINE = np.linspace(-1.0, 1.0, 33)
_AXIS_LINE = np.arange(-128, 129) / 128.0


class AxialRay(NamedTuple):
    """The k_z contour k = s e^{-i theta} (k0z + s at theta = 0), |s| <= half_width, with costs."""

    theta: float
    half_width: float
    costs: tuple[tuple[float, float], ...]    # (y, C): a copy moved to Im s = +-y grows by e^C


def _ray_growth(omega_sq: float, kind: str, levels: np.ndarray, k_sq: np.ndarray) -> np.ndarray:
    """Im w(k) of `kind`'s lines of the level pairs (n, n+1) at k^2 = k_sq: (pairs,) + k_sq.shape.

    levels[p] is (E_n^2, E_{n+1}^2) at k = 0, 1 + omega^2 (n, n + 1), of pair p.
    """
    energies = np.sqrt(np.reshape(levels, levels.shape + (1,) * k_sq.ndim) + k_sq)
    total = energies[:, 0] + energies[:, 1]
    return (total if kind == "interband" else omega_sq / total).imag


def _axis_tables(packet: GaussianPacket, field: FieldConfig):
    """(y, F, {kind: G}) of the real axis: on each interval between its points, |Im w| <= G.

    y are `axial_ray`'s eight shifts from min(1, 0.75 half_width) down, w the line
    frequency of the pair (0, 1) at k_z = k0z + x + i y, x on half_width _AXIS_LINE
    and -k0z (x >= 0 alone at k0z = 0, where the cost is even in x), and F = d_z^2
    x^2 at each interval's end nearer k0z, less d_z^2 y^2 + ln P.  With E_n =
    sqrt(1 + n omega^2 + k_z^2) and S = E_0 + E_1, |Im E_n|, Re E_n, |Im S| and |S|
    rise with |Re k_z|, which no interval crosses 0: interband lines (w = S) have
    |Im w| at most the larger end value, intraband lines (w = omega^2/S) at most
    omega^2 max |Im S|/min |S|^2 of the ends.  |Im E_n| falls with n, so the pair
    (0, 1) bounds every pair: |Im w_n| is the integral of |Im(1/E)|/2 over 1 + n
    omega^2 .. 1 + (n + 1) omega^2.  G and F are (8, intervals); None where the
    line is too long for floats.
    """
    half_width = AXIAL_HALF_WIDTH / packet.d_z
    edge = abs(packet.k0z) + half_width
    big = edge * edge + 1.0 + field.omega**2          # p <= big and q^2 <= 4 big below
    if not 2.0 * big * big < math.inf:                # else p^2 + q^2 leaves the float range
        return None
    if packet.k0z == 0.0:
        x = half_width * _AXIS_LINE[128:]
    else:     # np.sort: np.unique imports numpy.ma, 1.1 MiB, at its first call
        zero = np.clip(-packet.k0z, -half_width, half_width)       # Re k_z = 0, or an edge
        x = np.sort(np.append(half_width * _AXIS_LINE, zero))
    a = np.abs(packet.k0z + x)
    y = min(1.0, 0.75 * half_width) * _RAY_SHIFTS
    # E_n = sqrt(p + i q), p = 1 + n omega^2 + a^2 - y^2 (keeping omega^2 where 1 -
    # y^2 is small), q = 2 a y: Re E_n = sqrt((|p + i q| + p)/2), Im E_n = q/(2 Re E_n)
    q = (2.0 * y)[:, None] * a
    p = ((1.0 - y) * (1.0 + y) + np.array([[0.0], [field.omega**2]]))[..., None] + a * a
    twice_re = np.sqrt(2.0 * (np.sqrt(p * p + q * q) + p))                # (2, 8, points)
    inverse = 1.0 / np.maximum(twice_re, _TINY)
    im_s = q * (inverse[0] + inverse[1])              # 0 at E_0 = 0 (y = 1, a = 0)
    re_s = 0.5 * (twice_re[0] + twice_re[1])
    growth = np.maximum(im_s[:, 1:], im_s[:, :-1])
    square = re_s * re_s + im_s * im_s
    intraband = growth * (field.omega**2 / np.minimum(square[:, 1:], square[:, :-1]))
    fall = np.square(packet.d_z * x)
    spread = math.log(8.0 * half_width * packet.d_z / math.sqrt(math.pi))     # ln P of `_axis_ray`
    fall = np.minimum(fall[1:], fall[:-1]) - (np.square(packet.d_z * y) + spread)[:, None]
    return y, fall, {"interband": growth, "intraband": intraband}


def _axis_ray(packet: GaussianPacket, tables, kind: str, t_max: float) -> AxialRay:
    """The real axis over sample times of max |t| = t_max, from its `_axis_tables`.

    A copy moved to Im k_z = +-y grows by at most e^{M(y)}, M(y) = d_z^2 y^2 + max
    (t_max |Im w| - d_z^2 x^2) over the line: conjugation flips the sign of Im w,
    so +-y and +-t take |Im w| at max |t|.  Its costs are C = M + ln P, as on a
    ray (`axial_ray`): the largest t_max G - F over the intervals, or inf without
    tables, so that `ray_nodes` asks for more than the cap; a NaN or infinite
    t_max raises TimeRangeError.
    """
    if not t_max < math.inf:
        raise TimeRangeError(f"a k_z rule needs finite sample times, not max |t| = {t_max}")
    half_width = AXIAL_HALF_WIDTH / packet.d_z
    if tables is None:
        return AxialRay(0.0, half_width, ((1.0, math.inf),))
    y, fall, growth = tables
    with np.errstate(over="ignore"):           # t_max G past the float range: C = inf
        costs = np.max(t_max * growth[kind] - fall, axis=1)
    return AxialRay(0.0, half_width, tuple(zip(y.tolist(), costs.tolist())))


def axial_ray(packet: GaussianPacket, field: FieldConfig, times, kind: str,
              n_max: int) -> AxialRay:
    """The k_z contour of `kind`'s lines over sample times `times`, with its aliasing costs.

    Near k_z = 0 a line e^{-i w t} is a chirp e^{-i alpha k^2 t}, alpha = dw/d(k^2)
    at 0: (1/E_n + 1/E_{n+1})/2 > 0 interband, -omega^2 (1/E_n + 1/E_{n+1})/(2 (E_n
    + E_{n+1})^2) < 0 intraband.  On k = s e^{-i theta}, theta = arg(d_z^2 + i alpha_c
    t_w)/2 (alpha_c and t_w the geometric means of the pairs (0, 1) and (n_max,
    n_max + 1) and of the window's ends), chirp and density e^{-d_z^2 k^2} merge into
    one real Gaussian in s (Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44:1026,
    2006), and every line decays: Im w < 0 for s != 0, t > 0, since theta has the
    sign of alpha.  The principal roots E_n are analytic in |arg(+-k)| < pi/4, where
    the density falls, so by Cauchy's theorem the ray keeps every integral.  Windows
    reaching t <= 0, and k0z != 0, take theta = 0: the real axis (`_axis_ray`).
    |Im w| falls with n, so the pair (n_max, n_max + 1) at the earliest time
    decays slowest: the ray ends at the first s of a ladder
    2^(-j/16) below the density's own width where that line is down by eps/1024,
    like `axial_grid`'s edge.  Moved to Im s = y inside the strip |y| < cos theta,
    which keeps the branch points of E_0 at k = +-i off the line, the integrand is
    at most e^M, M(y) the largest t Im w - d_z^2 Re k^2 over |x| <= half_width on
    33 points, over both ends of the window (it is linear in t) and both pairs
    above (the extremes of Im w in n).  The integral over the line, its two copies
    m = +-1 and the sum over |m| then lie within P e^{M(y)} of the amplitude mass,
    P = 8 half_width d_z sqrt(cos(2 theta)/pi), the mass of the lines on the ray
    being that of their density |e^{-d_z^2 k^2}|.  The costs are C = M + ln P on
    eight y a factor sqrt 2 apart from min(cos theta, 0.75 half_width) down, where
    the optimum sqrt(ln ratio/G) of a Gaussian e^{-G s^2} this wide falls.  A half-width
    whose square leaves the float range (d_z near its lower bound) costs C = inf, so
    `ray_nodes` asks for more than the cap.  Times not finite raise TimeRangeError.
    """
    if kind not in ("intraband", "interband"):
        raise ValueError(f"kind must be 'intraband' or 'interband', not {kind!r}")
    t_lo, t_hi = float(np.min(times)), float(np.max(times))
    d_sq, omega_sq = packet.d_z**2, field.omega**2
    levels = 1.0 + omega_sq * np.array([(0.0, 1.0), (n_max, n_max + 1.0)])    # E^2 at k = 0
    e = np.sqrt(levels).ravel().tolist()
    rates = [0.5 * (1.0 / a + 1.0 / b) * (1.0 if kind == "interband" else -omega_sq / (a + b) ** 2)
             for a, b in (e[:2], e[2:])]
    on_axis = packet.k0z != 0.0 or not 0.0 < t_lo <= t_hi < math.inf
    theta = 0.0 if on_axis else 0.5 * math.atan2(
        math.copysign(math.sqrt(rates[0] * rates[1]), rates[0]) * math.sqrt(t_lo * t_hi), d_sq)
    if theta == 0.0:
        return _axis_ray(packet, _axis_tables(packet, field), kind, float(np.max(np.abs(times))))
    turn, cos_2 = complex(math.cos(theta), -math.sin(theta)), math.cos(2.0 * theta)
    s = AXIAL_HALF_WIDTH / (packet.d_z * math.sqrt(cos_2)) * _RAY_LADDER
    if not float(s[0]) * float(s[0]) < math.inf:     # k^2 leaves the float range: no finite rule
        return AxialRay(theta, float(s[0]), ((1.0, math.inf),))
    k = turn * s
    k_sq = k * k
    fall = d_sq * k_sq.real - t_lo * _ray_growth(omega_sq, kind, levels[1:], k_sq)[0]
    half_width = float(s[max(np.count_nonzero(fall >= AXIAL_HALF_WIDTH**2) - 1, 0)])
    y = min(math.cos(theta), 0.75 * half_width) * _RAY_SHIFTS
    k = turn * (half_width * _RAY_LINE + 1j * y[:, None])
    k_sq = k * k
    growth = _ray_growth(omega_sq, kind, levels, k_sq)
    log = np.maximum(t_lo * growth, t_hi * growth) - d_sq * k_sq.real
    spread = math.log(8.0 * half_width * packet.d_z * math.sqrt(cos_2 / math.pi))
    costs = np.max(log, axis=(0, 2)) + spread
    return AxialRay(theta, half_width, tuple(zip(y.tolist(), costs.tolist())))


def ray_nodes(ray: AxialRay, ratio: float) -> int:
    """Fewest nodes K = m 2^e (8 | K) on `ray` aliasing its lines under 1/ratio of their mass.

    Spacing h = 2 half_width/K puts a copy at most e^{C(y) - 2 pi y/h} of the
    mass (`axial_ray`): K >= half_width (ln ratio + C(y))/(pi y), at the best y
    of the ray's costs, rounded up to a two-bit mantissa m in 5..8 (at most 25 %
    or 7 nodes over the bound); 8 | K keeps the rule of K/2 nested in it and in
    its fold (`dynamics._fold`).  K > MAX_GRID_NODES, or a NaN ratio (no error
    target to size for), raises QuadratureConvergenceError.
    """
    if math.isnan(ratio):
        raise QuadratureConvergenceError(math.nan, math.nan)
    log_ratio = math.log(max(ratio, 1.0))
    bound = min(ray.half_width * (log_ratio + cost) / (math.pi * y) for y, cost in ray.costs)
    need = max(1, math.ceil(min(bound, 2.0**62)))     # ratio may be inf
    grain = 1 << max(3, (need - 1).bit_length() - 3)  # 2^e
    nodes = grain * -(-need // grain)
    if nodes > MAX_GRID_NODES:
        raise QuadratureConvergenceError(nodes_needed=nodes)
    return nodes


@dataclass(frozen=True)
class SumRuleReport:
    norm_sum: float
    norm_residual: float
    momentum_sum: float
    momentum_expected: float
    momentum_residual: float
    tail_mass: float


def sum_rules(
    coeffs: CoefficientSet, packet: GaussianPacket, field: FieldConfig
) -> SumRuleReport:
    """Check sum_n U_nn = 1 and sum_n sqrt(n+1) U_{n+1,n} = -k0x L / sqrt(2)."""
    norm = coeffs.diagonal_sum()
    mom = coeffs.momentum_sum()
    expected = -packet.k0x * field.magnetic_length / math.sqrt(2.0)
    return SumRuleReport(
        norm_sum=norm,
        norm_residual=abs(norm - 1.0),
        momentum_sum=mom,
        momentum_expected=expected,
        momentum_residual=abs(mom - expected),
        tail_mass=coeffs.tail_mass,
    )
