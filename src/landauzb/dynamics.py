"""Analytic time evolution of packet positions, velocities and spectra.

Every trajectory is a finite sum of oscillation lines, one intraband
(cyclotron-like, frequency E_hi - E_lo) and one interband (trembling-motion,
frequency E_hi + E_lo) per consecutive level pair, weighted by the packet's
level-overlap amplitudes.  The 3+1 model integrates each line over the axial
momentum density, which damps the motion; the 2+1 model keeps the discrete
sum and stays persistent.

Line convention: each position channel reads Re sum_lines a e^{-i w t}.  A
cosine line has a real amplitude a, a sine line carries i a.  Velocities are
the Heisenberg time derivatives, so a velocity line has amplitude -i w a at
the same frequency.  `_line_blocks` derives every amplitude and `_sum_lines`
evaluates every phase; the public functions only pick channels and parts.
On a uniform grid t = T_c + tau_j, anchor plus offset (plus, to first order,
the float rounding), so a line costs one exp per anchor and per offset.

Natural units: lengths in Compton wavelengths, times in Compton times,
velocities in c.  Positions are reported relative to the t = 0 centre, so
every trajectory starts at the origin; the raw position-operator offset
-k0x L^2 is kept as metadata.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import hermite
from .packet import (
    CoefficientSet,
    DimensionalityError,
    GaussianPacket,
    axial_grid,
    axial_nodes,
)
from .units import FieldConfig

PREF = 1.0 / (2.0 * math.sqrt(2.0))
MAX_GRID_NODES = 1 << 16
TILE_ELEMENTS = 1 << 18       # stacked amplitudes and phases held at once by the line evaluator
PARTS = ("all", "intraband", "interband")


class QuadratureConvergenceError(RuntimeError):
    """Axial-momentum quadrature failed its doubling test, or cannot run it."""

    def __init__(self, achieved: float, target: float, nodes_needed: int | None = None):
        if nodes_needed is None:
            message = (
                f"axial quadrature changed by {achieved:.3e} relative on doubling "
                f"(target {target:.3e}); refine manually or shorten the window"
            )
        else:
            message = (
                f"axial quadrature for this window needs {nodes_needed} k_z nodes "
                f"for its doubling test, above the cap of {MAX_GRID_NODES} (2^16) "
                "nodes; shorten the window"
            )
        super().__init__(message)
        self.achieved = achieved
        self.target = target
        self.nodes_needed = nodes_needed


@dataclass(frozen=True)
class Trajectory:
    """Sampled packet motion; lengths in Compton wavelengths, v in c."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    model: str                    # '2+1' or '3+1'
    parts: str                    # 'all', 'intraband' or 'interband'
    y_operator_initial: float     # raw <Y>(0) = -k0x L^2
    subtracted_constant: float    # series(0) + k0x L^2; ~0 when sum rules hold
    length_unit: str = "lambda_c"


@dataclass(frozen=True)
class SpectralLine:
    """One oscillation term: y ~ amplitude_y cos(w t), x ~ amplitude_x sin(w t)."""

    n: int
    kind: str                     # 'intraband' or 'interband'
    frequency: float
    amplitude_x: float
    amplitude_y: float


@dataclass(frozen=True)
class MixingSeries:
    """Spin-component cross terms, nonzero only for 3+1 packets with k0z != 0.

    j_plus/j_minus are sum_n U_nn J_n^{+/-}(t); the lowering cross term is
    (a2* a1 / 2)(j_plus + j_minus) and its raising partner is the conjugate.
    The opposite-order cross terms vanish identically.
    """

    times: np.ndarray
    j_plus: np.ndarray
    j_minus: np.ndarray
    lowering_cross: np.ndarray
    raising_cross: np.ndarray


@dataclass(frozen=True)
class SubPacketSeries:
    """The four sub-packet averages whose sum rebuilds the ladder averages.

    lowering_1/2 split the lowering-operator average by interband character
    of the evolution factor; raising_1/2 do the same for the raising
    operator.  branch_weights[:, i] holds the four per-pair energy factors
    (T_pp, T_pm, T_mp, T_mm) used in the series.
    """

    times: np.ndarray
    lowering_1: np.ndarray
    lowering_2: np.ndarray
    raising_1: np.ndarray
    raising_2: np.ndarray
    branch_weights: np.ndarray


class _Block(NamedTuple):
    """One frequency class of lines over (level pair, k_z node)."""

    freq: np.ndarray              # (pairs, K) line frequencies
    amps: np.ndarray              # (2, pairs, K) x and y amplitudes
    interband: bool
    mixing: bool
    levels: np.ndarray            # (pairs,) spectral level index of each pair


def _energies(field: FieldConfig, n_top: int, k_z: np.ndarray) -> np.ndarray:
    """E_{n,k_z} table, shape (n_top+1, K)."""
    n = np.arange(n_top + 1, dtype=float)[:, None]
    return np.sqrt(1.0 + field.omega**2 * n + k_z[None, :] ** 2)


def _phase_span(packet: GaussianPacket, field: FieldConfig, n_top: int, t_max: float) -> float:
    """Largest interband phase swing across the axial density support."""
    edge = np.array([abs(packet.k0z) + 8.5 / packet.d_z])
    centre = np.array([packet.k0z])
    e_edge = _energies(field, n_top, edge)
    e_mid = _energies(field, n_top, centre)
    swing = (e_edge[1:] + e_edge[:-1]) - (e_mid[1:] + e_mid[:-1])
    return float(np.max(np.abs(swing)) * abs(t_max))


def _line_blocks(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    nodes: np.ndarray,
    weights: np.ndarray,
    parts: str,
    mixing_weight: complex | None = None,
) -> Iterator[_Block]:
    """Every oscillation line, one block per spinor component x class.

    The second component pairs levels (n, n+1) with the overlap weights
    S_n = sqrt(n+1) (U_{n,n+1} + U_{n+1,n}); the first component runs the
    same derivation one level up, pairing (n+1, n+2) with the same weights,
    and flips which energy of the pair divides the cosine ratio q.  In 3+1
    the spin-mixing rows pair (n, n+1) with U_nn k_z omega / (E_n E_{n+1})
    and add Re/Im of mixing_weight * J to y/x; mixing_weight defaults to
    (L/sqrt2) a2* a1, and 1 reads the bare mixing integrals J in y.
    """
    L = field.magnetic_length
    energies = _energies(field, coeffs.n_max + 1, nodes)      # (n_max+2, K)
    signs = [s for s, name in ((1.0, "intraband"), (-1.0, "interband"))
             if parts in ("all", name)]
    n_pairs = coeffs.n_max
    s_pairs = np.sqrt(np.arange(1.0, n_pairs + 1.0)) * (
        np.diagonal(coeffs.u, offset=1) + np.diagonal(coeffs.u, offset=-1)
    )
    for weight, shift in ((abs(packet.a2) ** 2, 0), (abs(packet.a1) ** 2, 1)):
        if weight == 0.0:
            continue
        e_lo = energies[shift : shift + n_pairs]
        e_hi = energies[shift + 1 : shift + 1 + n_pairs]
        q = e_lo / e_hi if shift == 0 else e_hi / e_lo
        scale = weight * PREF * L * s_pairs[:, None] * weights[None, :]
        for sign in signs:
            amps = np.stack([1j * scale * (-sign / e_lo - 1.0 / e_hi), scale * (1.0 + sign * q)])
            yield _Block(e_hi - sign * e_lo, amps, sign < 0, False,
                         np.arange(shift, shift + n_pairs))

    if mixing_weight is None:
        mixing_weight = (L / math.sqrt(2.0)) * np.conj(packet.a2) * packet.a1
    if packet.dimensionality != "3+1" or mixing_weight == 0.0:
        return
    e_lo, e_hi = energies[:-1], energies[1:]
    j = np.diagonal(coeffs.u)[:, None] * nodes * field.omega / (e_lo * e_hi) * weights
    channel = np.array([mixing_weight.imag, mixing_weight.real])[:, None, None]
    for sign in signs:
        yield _Block(e_hi - sign * e_lo, channel * (sign * j), sign < 0, True,
                     np.arange(e_lo.shape[0]))


def _time_grid(times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchors T_c, offsets tau_j and residuals delta with t = T_c + tau_j + delta.

    J = ceil(sqrt(T)) offsets on a uniform grid, whose float rounding is delta; else J = 1.
    """
    size = times.size
    if size > 1:
        n_offsets = math.isqrt(size - 1) + 1
        anchors = times[::n_offsets]
        offsets = (times[-1] - times[0]) / (size - 1) * np.arange(n_offsets)
        delta = times - np.repeat(anchors, n_offsets)[:size] - np.tile(offsets, anchors.size)[:size]
        if np.max(np.abs(delta)) <= 64 * np.finfo(float).eps * np.max(np.abs(times)):
            return anchors, offsets, delta
    return times, np.zeros(1), np.zeros(size)


def _sum_lines(
    freq: np.ndarray, amps: np.ndarray, times: np.ndarray, derivative: bool = False
) -> np.ndarray:
    """Complex sums sum_rows amps[c] e^{-i freq t}, shape (C, T).

    With derivative=True the C time derivatives (amplitudes -i freq amps)
    follow as C more rows.  With t = T_c + tau_j + delta (`_time_grid`),
    e^{-i w t} = e^{-i w T_c} e^{-i w tau_j} (1 - i w delta): a tile of lines
    is one GEMM of (a e^{-i w T_c}), stacked over (row, anchor), with
    e^{-i w tau}, plus delta times the next derivative row where delta != 0.
    J = 1 is the direct sum.  Stacked rows count against TILE_ELEMENTS.
    """
    freq = np.ravel(freq)
    amps = np.reshape(amps, (len(amps), freq.size))
    anchors, offsets, delta = _time_grid(times)
    n_out = 2 if derivative else 1
    orders = n_out + bool(np.any(delta))
    out = np.zeros((n_out, len(amps), times.size), dtype=complex)
    rows = orders * len(amps) * anchors.size
    r_step = max(1, TILE_ELEMENTS // (rows + anchors.size + offsets.size))
    for r0 in range(0, freq.size, r_step):
        w = freq[r0 : r0 + r_step]
        a = amps[:, r0 : r0 + r_step] * (-1j * w) ** np.arange(orders)[:, None, None]
        # one complex exp reduces each phase once; separate cos and sin
        # reduce twice, which costs more on long windows (w t ~ 1e10)
        stacked = a[:, :, None, :] * np.exp(np.multiply.outer(-1j * anchors, w))
        sums = stacked.reshape(rows, w.size) @ np.exp(np.multiply.outer(w, -1j * offsets))
        sums = sums.reshape(orders, len(amps), -1)[..., : times.size]
        out += sums[:n_out]
        if orders > n_out:
            out += delta * sums[1:]
    return out.reshape(-1, times.size)


def _series(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
    rule: tuple[np.ndarray, np.ndarray],
    parts: str = "all",
    channels: slice = slice(0, 2),
    derivative: bool = False,
) -> np.ndarray:
    """Complex (x, y)[channels] line sums over every block, then derivatives."""
    size = len(range(2)[channels]) * (2 if derivative else 1)
    out = np.zeros((size, times.size), dtype=complex)
    for block in _line_blocks(packet, coeffs, field, *rule, parts):
        out += _sum_lines(block.freq, block.amps[channels], times, derivative)
    return out


def _resolve_axial_rule(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
    rtol: float,
    parts: str = "all",
) -> tuple[np.ndarray, np.ndarray]:
    """Pick and validate the axial quadrature by an order-doubling probe."""
    t_max = float(np.max(np.abs(times)))
    span = _phase_span(packet, field, coeffs.n_max + 1, t_max)
    ladder: list[tuple[str, int]] = []
    order = max(64, 1 << int(math.ceil(math.log2(span / 2.0 + 48.0))))
    while order <= hermite.MAX_GH_ORDER:
        ladder.append(("gauss", order))
        order *= 2
    first_grid = max(4096, 1 << int(math.ceil(math.log2(2.0 * span / math.pi + 64.0))))
    points = first_grid
    while points <= MAX_GRID_NODES:
        ladder.append(("grid", points))
        points *= 2
    if len(ladder) < 2:
        raise QuadratureConvergenceError(math.inf, rtol, nodes_needed=2 * first_grid)

    def make(step):
        kind, size = step
        if kind == "gauss":
            return axial_nodes(packet, size)
        return axial_grid(packet, size)

    probe = times[np.unique(np.linspace(0, times.size - 1, 9).astype(int))]

    def probe_eval(rule):
        return _series(packet, coeffs, field, probe, rule, parts).real

    current = make(ladder[0])
    cur_val = probe_eval(current)
    achieved = math.inf
    for step in ladder[1:]:
        finer = make(step)
        fin_val = probe_eval(finer)
        x, y = fin_val
        scale = max(float(np.max(np.abs(y - y[0]))), float(np.max(np.abs(x))), 1e-300)
        achieved = float(np.max(np.abs(cur_val - fin_val))) / scale
        if achieved <= rtol:
            return current
        current, cur_val = finer, fin_val
    raise QuadratureConvergenceError(achieved, rtol)


def _rule(packet, coeffs, field, times, rtol, parts="all"):
    """The axial rule: k_z = 0 for 2+1, the validated quadrature for 3+1."""
    if parts not in PARTS:
        raise ValueError(f"parts must be one of {PARTS}, not {parts!r}")
    if packet.dimensionality == "2+1":
        return np.zeros(1), np.ones(1)
    return _resolve_axial_rule(packet, coeffs, field, times, rtol, parts)


def _trajectory(packet, coeffs, field, times, parts, kz_rtol) -> Trajectory:
    times = np.asarray(times, dtype=float)
    rule = _rule(packet, coeffs, field, times, kz_rtol, parts)
    x, y, vx, vy = _series(packet, coeffs, field, times, rule, parts, derivative=True).real
    y0_op = -packet.k0x * field.magnetic_length**2
    if parts == "all":
        if times[0] != 0.0:
            raise ValueError("time grids must start at t = 0")
        # x(0) vanishes identically (pure sine series); anchor y to the origin
        subtracted = y[0] - y0_op
        x = x - x[0]
        y = y - y[0]
    else:
        subtracted = 0.0
    return Trajectory(
        times=times,
        x=x,
        y=y,
        vx=vx,
        vy=vy,
        model=packet.dimensionality,
        parts=parts,
        y_operator_initial=y0_op,
        subtracted_constant=float(subtracted),
    )


def trajectory_2p1(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
    parts: str = "all",
) -> Trajectory:
    """Packet trajectory for the 2+1 model (axial density collapsed to k_z=0)."""
    if packet.dimensionality != "2+1":
        raise DimensionalityError("trajectory_2p1 needs a 2+1 packet")
    return _trajectory(packet, coeffs, field, times, parts, None)


def trajectory_3p1(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
    parts: str = "all",
    kz_rtol: float = 1e-9,
) -> Trajectory:
    """Packet trajectory for the 3+1 model (axial-momentum quadrature)."""
    if packet.dimensionality != "3+1":
        raise DimensionalityError("trajectory_3p1 needs a 3+1 packet")
    return _trajectory(packet, coeffs, field, times, parts, kz_rtol)


def velocities(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Average velocity series (vx, vy) in units of c."""
    times = np.asarray(times, dtype=float)
    rule = _rule(packet, coeffs, field, times, 1e-9)
    _, _, vx, vy = _series(packet, coeffs, field, times, rule, derivative=True).real
    return vx, vy


def mixing_terms(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
    kz_rtol: float = 1e-9,
) -> MixingSeries:
    """Spin-mixing integral series; identically zero for 2+1 and for k0z = 0.

    The integrand is odd in the axial wavenumber, so a symmetric density
    kills it; only 3+1 packets with axial momentum produce cross terms.  The
    axial rule is the one trajectory_3p1 validates for the same window.
    """
    times = np.asarray(times, dtype=float)
    if packet.dimensionality == "2+1":
        zero = np.zeros(times.size)
        return MixingSeries(times, zero, zero.copy(), zero * 0j, zero * 0j)
    rule = _resolve_axial_rule(packet, coeffs, field, times, kz_rtol)
    j = {
        block.interband: _sum_lines(block.freq, block.amps[1:], times)[0].real
        for block in _line_blocks(packet, coeffs, field, *rule, "all", mixing_weight=1.0)
        if block.mixing
    }
    cross = 0.5 * np.conj(packet.a2) * packet.a1 * (j[False] + j[True])
    return MixingSeries(
        times=times,
        j_plus=j[False],
        j_minus=j[True],
        lowering_cross=cross,
        raising_cross=np.conj(cross),
    )


def subpackets(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
) -> SubPacketSeries:
    """Four sub-packet averages for a 2+1 packet in the second component.

    In the non-relativistic limit the *_1 series carry the whole cyclotron
    rotation (with opposite winding between lowering and raising) while the
    *_2 series vanish.  With the complex line sums X, Y of x and y, the
    lowering operator a = (y + i x)/(sqrt2 L) splits into
    lowering_1 = (Y + i X)/(2 sqrt2 L) and lowering_2 = conj(raising_2),
    raising_2 = (Y - i X)/(2 sqrt2 L) and raising_1 = conj(lowering_1).
    """
    if packet.dimensionality != "2+1":
        raise DimensionalityError("subpackets are defined for the 2+1 model")
    if abs(packet.a2) != 1.0:
        raise ValueError("subpackets need a pure second-component packet")
    times = np.asarray(times, dtype=float)
    x, y = _series(packet, coeffs, field, times, (np.zeros(1), np.ones(1)))
    lowering_1 = (PREF / field.magnetic_length) * (y + 1j * x)
    raising_2 = (PREF / field.magnetic_length) * (y - 1j * x)

    energies = _energies(field, coeffs.n_max + 1, np.zeros(1))[:, 0]
    il, ih, r = 1.0 / energies[:-2], 1.0 / energies[1:-1], energies[:-2] / energies[1:-1]
    branch = np.stack(
        [1.0 + il + ih + r, 1.0 + il - ih - r, 1.0 - il + ih - r, 1.0 - il - ih + r], axis=1
    )
    return SubPacketSeries(
        times=times,
        lowering_1=lowering_1,
        lowering_2=np.conj(raising_2),
        raising_1=np.conj(lowering_1),
        raising_2=raising_2,
        branch_weights=branch,
    )


def spectral_decomposition(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    drop_below: float | None = None,
) -> list[SpectralLine]:
    """Discrete line spectrum of a 2+1 trajectory.

    Convention: y(t) = sum_lines A_y cos(w t) + const, x(t) = sum A_x sin(w t),
    with the constant fixed by the start-at-origin anchor.  First-component
    contributions land one pair up, at the same frequencies with different
    amplitudes, and are merged into the matching lines.
    """
    if packet.dimensionality != "2+1":
        raise DimensionalityError("spectral decomposition is a 2+1 operation")
    if drop_below is None:
        drop_below = 1e-12 * field.magnetic_length
    lines: dict[tuple[int, bool], list] = {}
    for block in _line_blocks(packet, coeffs, field, np.zeros(1), np.ones(1), "all"):
        amp_x, amp_y = block.amps[0, :, 0].imag, block.amps[1, :, 0].real
        for n, freq, ax, ay in zip(block.levels, block.freq[:, 0], amp_x, amp_y):
            line = lines.setdefault((int(n), block.interband), [freq, 0.0, 0.0])
            line[1] += ax
            line[2] += ay
    return [
        SpectralLine(n=n, kind="interband" if inter else "intraband",
                     frequency=freq, amplitude_x=ax, amplitude_y=ay)
        for (n, inter), (freq, ax, ay) in sorted(lines.items())
        if abs(ax) >= drop_below or abs(ay) >= drop_below
    ]


def analytic_signal(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
    parts: str = "all",
    kz_rtol: float = 1e-9,
) -> np.ndarray:
    """Complex analytic signal A(t) of the transverse-position series.

    Every oscillation term amp*cos(w t) of the y-series is summed as
    amp*exp(-i w t); all frequencies are positive, so Re A reproduces the
    raw (unanchored) y-series and |A| is its canonical envelope.  The
    envelope varies on beat timescales only, so collapse/revival and decay
    analyses can sample far more sparsely than the carrier would require.
    """
    times = np.asarray(times, dtype=float)
    rule = _rule(packet, coeffs, field, times, kz_rtol, parts)
    return _series(packet, coeffs, field, times, rule, parts, channels=slice(1, 2))[0]


@dataclass(frozen=True)
class LowFieldSummary:
    """Weak-field closed forms: circle parameters and trembling amplitude."""

    cyclotron_radius: float       # k0x L^2
    omega_cyclotron: float        # 1/L^2
    zb_amplitude: float           # k0x/2 Compton wavelengths
    zb_carrier: float             # 2 rest energies / hbar
    axial_width: float | None     # d_z for the envelope model, None for 2+1
    kappa: float

    def envelope(self, t) -> np.ndarray:
        """Trembling-motion envelope; decays as t^{-1/2} for 3+1 packets."""
        t = np.asarray(t, dtype=float)
        if self.axial_width is None:
            return np.full(t.shape, self.zb_amplitude)
        d2 = self.axial_width**2
        return self.zb_amplitude * d2**0.5 / (self.axial_width**4 + t * t) ** 0.25


def lowfield_summary(packet: GaussianPacket, field: FieldConfig) -> LowFieldSummary:
    """Closed-form weak-field description; warns outside its validity range."""
    kappa = field.kappa
    if kappa >= 1e-2:
        warnings.warn(
            f"weak-field summary requested at kappa={kappa:.3g} (valid below 1e-2)",
            stacklevel=2,
        )
    return LowFieldSummary(
        cyclotron_radius=packet.k0x * field.magnetic_length**2,
        omega_cyclotron=field.omega_cyclotron,
        zb_amplitude=0.5 * packet.k0x,
        zb_carrier=2.0,
        axial_width=packet.d_z if packet.dimensionality == "3+1" else None,
        kappa=kappa,
    )
