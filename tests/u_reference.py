"""References for the level amplitudes F_n and the overlap matrix
U_{m,n} = integral F_m F_n dk_x.

`f_quadrature` integrates the defining overlap of F_n over the slice
coordinate: the independent cross-check of the closed form in `packet`.
`full_build` is the automatic cutoff placed on one 401-level build on the
512-node k_x rule, with the same truncation check: the reference for
`coefficient_matrix`'s level ladder.  `rung_build` places it on whole tables
of each k_x rule, 256 rows on the 256-node rule and then 401 on the 512-node
one: the bit-for-bit reference for the rows the ladder grows block by block.
Two closed forms cross-check the k_x quadrature element by element: one for
equal widths (d_y = L) through a single Hermite value, and one for distinct
widths through a finite binomial sum.  Each covers its own width window only.
`untrimmed_blocks` is the series line table with every row over its whole k_z
grid: the reference for the k_z tails a trimmed table drops.
"""

import math

import numpy as np

from landauzb import hermite
from landauzb.packet import (
    AUTO_TAIL,
    DEFAULT_N_MAX,
    DEFAULT_TAIL_TOL,
    CoefficientSet,
    GaussianPacket,
    TruncationError,
    _f_closed_log,
    kx_rule,
    sum_rules,
)
from landauzb.units import FieldConfig

EQUAL_WIDTH_WINDOW = 1e-6   # |d_y - L|/L below which the U cross-checks switch forms


class ClosedFormUnavailable(ValueError):
    """A closed-form U cross-check does not cover this packet width."""


def log_norm_constant(n: int) -> float:
    """ln C_n, C_n = sqrt(2^n n! sqrt(pi))."""
    if n < 0:
        raise ValueError("level must be non-negative")
    return 0.5 * (n * math.log(2.0) + math.lgamma(n + 1) + 0.5 * math.log(math.pi))


def f_quadrature(
    packet: GaussianPacket,
    field: FieldConfig,
    n_max: int,
    k_x: np.ndarray,
    start_order: int = 64,
    rtol: float = 1e-9,
) -> np.ndarray:
    """F_n(k_x) for n <= n_max by the overlap integral over the slice coordinate.

    The Gauss-Hermite order doubles from start_order until two estimates
    agree to rtol of their peak; RuntimeError if that fails at MAX_GH_ORDER.
    """
    k_x = np.asarray(k_x, dtype=float)
    L = field.magnetic_length
    b = L * L / (2.0 * packet.d_y**2)
    pref = math.sqrt(L * packet.d_x / (math.pi * packet.d_y)) * np.exp(
        -0.5 * packet.d_x**2 * (k_x - packet.k0x) ** 2
    )

    def evaluate(order: int) -> np.ndarray:
        rule = hermite.gauss_hermite(order)
        # integrand centre sits at xi = -k_x L for every node
        xi = (-k_x * L)[:, None] + rule.nodes[None, :] / math.sqrt(b)
        table = hermite.psi_table(n_max, xi.ravel()).reshape(
            n_max + 1, k_x.size, order
        )
        return (table @ rule.weights) / math.sqrt(b) * pref[None, :]

    order = start_order
    prev = evaluate(order)
    while order < hermite.MAX_GH_ORDER:
        order = min(2 * order, hermite.MAX_GH_ORDER)
        cur = evaluate(order)
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        if float(np.max(np.abs(cur - prev))) <= rtol * scale:
            return cur
        prev = cur
    raise RuntimeError(
        "level-amplitude quadrature did not converge by order "
        f"{hermite.MAX_GH_ORDER} (doubling test, rtol {rtol:g})"
    )


def full_rows(
    packet: GaussianPacket, field: FieldConfig, n_max: int
) -> tuple[np.ndarray, int]:
    """(z, K): sqrt(w) F_n for n <= n_max on kx_rule's K nodes, from one whole table."""
    k_nodes, log_w = kx_rule(packet, field, n_max)
    rows, column = _f_closed_log(packet, field, k_nodes, n_max + 1)
    mant, scale = hermite.normalized_hermite_table(n_max, rows.z, rows.s)
    scale += column
    return mant * np.exp(scale + 0.5 * log_w), k_nodes.size


def rung_build(packet: GaussianPacket, field: FieldConfig) -> CoefficientSet:
    """The automatic cutoff over whole tables: 256 rows on the 256-node rule, then 401."""
    for n_max in (255, DEFAULT_N_MAX):
        z, order = full_rows(packet, field, n_max)
        captured = np.flatnonzero(np.cumsum(np.einsum("ij,ij->i", z, z)) >= 1.0 - AUTO_TAIL)
        if captured.size:
            break
    cut = max(int(captured[0]), 1) if captured.size else DEFAULT_N_MAX
    u = z[: cut + 1] @ z[: cut + 1].T
    return CoefficientSet(n_max=cut, u=u, tail_mass=1.0 - math.fsum(np.diagonal(u).tolist()),
                          kx_order=order)


def full_build(
    packet: GaussianPacket, field: FieldConfig, tail_tol: float = DEFAULT_TAIL_TOL
) -> CoefficientSet:
    """The automatic cutoff over the full 401 x 401 U on the 512-node rule."""
    z, order = full_rows(packet, field, DEFAULT_N_MAX)
    u_full = z @ z.T
    captured = np.nonzero(np.cumsum(np.diagonal(u_full)) >= 1.0 - AUTO_TAIL)[0]
    cut = max(int(captured[0]) if captured.size else DEFAULT_N_MAX, 1)
    u = np.ascontiguousarray(u_full[: cut + 1, : cut + 1])
    tail = 1.0 - math.fsum(np.diagonal(u).tolist())
    coeffs = CoefficientSet(n_max=cut, u=u, tail_mass=tail, kx_order=order)
    if max(tail, sum_rules(coeffs, packet, field).momentum_residual) > tail_tol:
        raise TruncationError(f"level truncation at n_max={cut} leaves too much")
    return coeffs


def u_closed_equal_width(
    packet: GaussianPacket, field: FieldConfig, m: int, n: int
) -> float:
    """Closed-form U_{m,n} for d_y = L (cross-check path)."""
    L = field.magnetic_length
    if abs(packet.d_y - L) / L > EQUAL_WIDTH_WINDOW:
        raise ClosedFormUnavailable("equal-width closed form needs d_y = L")
    dx, k0x = packet.d_x, packet.k0x
    p_sq = dx * dx + 0.5 * L * L
    p = math.sqrt(p_sq)
    w = dx * dx * k0x / p
    # H_{m+n}(-i w) (-i)^{m+n} = (-1)^{m+n} G_{m+n}(w), G_n = K_n(.; -1)
    mant, scale = hermite.normalized_hermite_table(m + n, np.array([w]), s=-1.0)
    # rescale G_{m+n}/C_{m+n} by C_{m+n}/(C_m C_n) in logs
    log_c = (
        log_norm_constant(m + n)
        - log_norm_constant(m)
        - log_norm_constant(n)
    )
    log_rest = (
        math.log(2.0 * math.sqrt(math.pi) * dx / L)
        + (m + n + 1) * math.log(L / (2.0 * p))
        - dx * dx * k0x * k0x * L * L / (2.0 * p_sq)
        + scale[m + n, 0]
        + log_c
    )
    return (-1.0) ** (m + n) * float(mant[m + n, 0]) * math.exp(log_rest)


def u_closed_general(
    packet: GaussianPacket, field: FieldConfig, m: int, n: int
) -> float:
    """General closed-form U_{m,n} via the finite binomial sum.

    The scaled Hermite kernel s^{D/2} H_D(x/sqrt(s)) is expanded as a
    polynomial in s and x, which removes every square-root branch; the
    auxiliary parameters then enter only through their squares, real in all
    width regimes.  Alternating and unstable as m+n grows; a small-index
    cross-check of the quadrature path, not a production assembly route.
    """
    L = field.magnetic_length
    if abs(packet.d_y - L) < EQUAL_WIDTH_WINDOW * L:
        raise ClosedFormUnavailable("general closed form needs d_y away from L")
    dx, dy, k0x = packet.d_x, packet.d_y, packet.k0x
    diff = (L - dy) * (L + dy)          # L^2 - d_y^2
    plus = L * L + dy * dy
    d_sq = L**4 / plus                  # D^2
    q_sq = 1.0 / (dx * dx + d_sq)       # Q^2
    w_par = dx * math.sqrt(d_sq * q_sq) * k0x
    y_par = dx * dx * k0x * math.sqrt(q_sq)
    inv_c_sq = diff * plus / L**6       # 1/c^2, signed
    s = 1.0 - q_sq / inv_c_sq           # 1 - (cQ)^2, real in all regimes
    qy_sq = q_sq * y_par * y_par        # (QY)^2

    qy = math.sqrt(qy_sq) * math.copysign(1.0, y_par) if y_par else 0.0
    terms: list[float] = []
    for l in range(min(m, n) + 1):
        # 2^l l! C(m,l) C(n,l) in logs
        log_l = (
            l * math.log(2.0)
            - math.lgamma(l + 1)
            + math.lgamma(m + 1)
            - math.lgamma(m - l + 1)
            + math.lgamma(n + 1)
            - math.lgamma(n - l + 1)
        )
        deg = m + n - 2 * l
        for j in range(deg // 2 + 1):
            p = deg - 2 * j             # power of the (-2QY) factor
            if p and qy == 0.0:
                continue
            log_j = (
                math.lgamma(deg + 1)
                - math.lgamma(j + 1)
                - math.lgamma(p + 1)
                + p * (math.log(2.0) + (math.log(abs(qy)) if p else 0.0))
                + (l + j) * math.log(abs(inv_c_sq))
                + (j * math.log(abs(s)) if j else 0.0)
            )
            sign = (
                (-1.0) ** j
                * (-math.copysign(1.0, qy)) ** p
                * math.copysign(1.0, inv_c_sq) ** (l + j)
                * (math.copysign(1.0, s) ** j)
            )
            terms.append(sign * math.exp(log_l + log_j))
    total = math.fsum(terms)

    log_amp = (
        math.log(2.0 * math.pi) + 2.0 * math.log(dy) - math.log(plus)
        + (m + n) * (3.0 * math.log(L) - math.log(plus))
    )
    log_pref = (
        math.log(L * dx)
        + 0.5 * math.log(q_sq)
        + 0.5 * math.log(math.pi)
        - w_par * w_par
        - math.log(math.pi * dy)
        - log_norm_constant(m)
        - log_norm_constant(n)
    )
    return math.exp(log_pref + log_amp) * total


def untrimmed_blocks(line_blocks):
    """`line_blocks` (`lines._line_blocks`) with every row over its whole grid.

    The wrapped call yields the blocks of the same call made with trim=False:
    each a (pairs, K) table that drops no k_z tail, whatever the caller asked.
    """
    def whole(*args, **kwargs):
        return line_blocks(*args, **{**kwargs, "trim": False})

    return whole
