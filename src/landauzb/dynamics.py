"""Analytic time evolution of packet positions, velocities and spectra.

Every trajectory is a finite sum of oscillation lines, one intraband
(cyclotron-like, frequency E_hi - E_lo) and one interband (trembling-motion,
frequency E_hi + E_lo) per consecutive level pair, weighted by the packet's
level-overlap amplitudes.  The 3+1 model integrates each line over the axial
momentum density, which damps the motion; the 2+1 model keeps the discrete
sum and stays persistent.

The line table and its sum over a time grid are `lines._line_blocks` and
`lines._sum_lines` (the line convention, the interband carrier and the
anchor-offset factorization are in `lines`).

Axial rule: the energies depend on k_z only through k_z^2, so for a packet
with k0z = 0 every cyclotron and trembling line is even in k_z and the
spin-mixing rows are odd.  The mixing rows then cancel and are not summed,
and the signed k_z grid folds onto its k_z >= 0 half (`_fold`): K/2 + 1
nodes for K.  Each line class has its own rule in each time window: K_c = m 2^e
nodes with m in 5..8 and 8 | K_c, certified by the aliasing bound of its k_z
contour (`packet.ray_nodes` on a `packet.AxialRay`), each node
summed once and nested over its half: the folded rule of K_c/2 is every other
node of K_c's, so one `_line_blocks` pass over K_c's grid yields both (`split`);
on a large call each row keeps only the run of nodes whose lines can change a
digit (`lines._runs`), the density's tails being at most eps/1024 of its peak.
One `_sum_lines` call sums every class of a window: the halves and odd nodes of
the first rules, then in each doubling round the odd nodes of every class still
doubling.  Interband lines move with k_z as E_n + E_{n+1}, intraband lines
only as omega^2/(E_n + E_{n+1}), so the intraband rule is the smaller.  On the
real axis, the contour at theta = 0, a rule grows with t, since it must resolve the
chirp e^{-i alpha k_z^2 t} of every line.  So at k0z = 0 `_windows` splits a long
grid from its end into windows (t/8, t] and sums a class there on the ray k_z = s
e^{-i theta} of `packet.axial_ray` wherever that needs fewer nodes: chirp and
density merge into one Gaussian in s, and tens of nodes do (64 against 1792 in
the 20 T decay window).  The samples near t = 0, and every grid where no window
pays for its extra sums, stay on the real axis.  The classes of a window share
one error ratio, so their bounds add up to the target.  `mixing_terms` alone
keeps the signed grid, so the k0z = 0 cancellation stays a computed one.

Natural units: lengths in Compton wavelengths, times in Compton times,
velocities in c.  Positions are reported relative to the t = 0 centre, so
every trajectory starts at the origin; the raw position-operator offset
-k0x L^2 is kept as metadata.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

# TILE_ELEMENTS, MAX_GRID_NODES and QuadratureConvergenceError stay importable from here
from .lines import EPS, PREF, TILE_ELEMENTS, TRIM, _Block, _line_blocks, _sum_lines, _time_grid
from .packet import (AXIAL_FLOOR, MAX_GRID_NODES, AxialRay, CoefficientSet, DimensionalityError,
                     GaussianPacket, QuadratureConvergenceError, _axis_ray, _axis_tables,
                     axial_grid, axial_ray, ray_nodes)
from .units import FieldConfig, TimeRangeError

PARTS = ("all", "intraband", "interband")
DEFAULT_KZ_RTOL = 1e-9        # aliasing-bound target of the k_z rule, relative to the signal peak
WINDOW = 0.125                # a k_z ray's time window (WINDOW t, t]
# line evaluations (level pairs x rows x folded nodes x samples) that `_windows` charges
# for each extra rung sum of a class, a value from when each rung sum was a call.  On
# one core (critical-field packet, x, y and derivatives at 101 samples) an evaluation
# costs 0.48-0.50 ns on the real axis and 0.63-0.65 ns on a ray, and a window's first
# round on 64-node rules 830-870 us, 260-315 us (about 2^19 evaluations) of it fixed
SERIES_CALL = 1 << 20
# line evaluations of a `_line_blocks` call from which its rows are trimmed: the runs and
# the inputs gathered for them cost about 100 us, repaid only on larger calls
TRIM_WORK = 1 << 21


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
    operator.
    """

    times: np.ndarray
    lowering_1: np.ndarray
    lowering_2: np.ndarray
    raising_1: np.ndarray
    raising_2: np.ndarray


def _series(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
    rule: tuple[np.ndarray, np.ndarray],
    parts: str = "all",
    channels: tuple[int, ...] = (0, 1),
    derivative: bool = False,
) -> tuple[np.ndarray, float]:
    """(Complex line sums of `channels` (0 is x, 1 is y), then derivatives; sum of |amps|).

    The classes are summed in one `_sum_lines` call.
    """
    out, mass = 0.0, 0.0
    for sums, block_mass in _summed(_line_blocks(packet, coeffs, field, *rule, parts, channels),
                                    times, derivative):
        out = out + sums
        mass += block_mass
    return out, mass


def _summed(blocks: Iterable[_Block], times: np.ndarray, derivative: bool = False,
            progressions: tuple[float, float, int, np.ndarray] | None = None,
            ) -> list[tuple[np.ndarray, float]]:
    """(sums, mass) of each block, all summed in one `_sum_lines` call."""
    blocks = list(blocks)
    sums = _sum_lines([(block.freq, block.amps, block.carrier) for block in blocks], times,
                      derivative, progressions)
    return list(zip(sums, (block.mass for block in blocks)))


def _fold(
    packet: GaussianPacket, rule: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The k_z >= 0 half of a k0z = 0 grid, each mirror weight added in; else the grid.

    The grid h (j - K/2), j < K, holds node -m h and node m h (m < K/2) as
    exact float negatives with equal weights, and the unpaired edge -K/2 h,
    whose weight (density eps/1024 of the peak) moves to +K/2 h.
    Every line but the spin-mixing rows (skipped at k0z = 0) is even in k_z,
    so h [0, 1, ..., K/2] with weights [w_0, 2 w_1, ..., 2 w_{K/2-1}, w_edge]
    sums the same lines on K/2 + 1 nodes.  Its even-index nodes with doubled
    weights are the folded rule of half the size, like the grid's own.
    """
    if packet.k0z != 0.0:
        return rule
    nodes, weights = rule
    half = nodes.size // 2
    folded = 2.0 * weights[half::-1]
    folded[[0, -1]] = weights[[half, 0]]
    return -nodes[half::-1], folded


def _kinds(parts: str) -> tuple[str, ...]:
    """The line classes `parts` names: 'intraband', 'interband' or both."""
    return PARTS[1:] if parts == "all" else (parts,)


def _first_ratio(rtol: float) -> float:
    """1/rtol, the error ratio every first k_z rule is sized for."""
    if not (0.0 < rtol < math.inf and 1.0 / float(rtol) < math.inf):
        raise ValueError(f"kz_rtol must be finite, positive and of finite reciprocal, not {rtol!r}")
    return 1.0 / rtol


class AxialRule(NamedTuple):
    """One line class's k_z rule over one time window, as `_axial_sums` summed it."""

    kind: str                     # 'intraband' or 'interband'
    span: tuple[float, float]     # first and last sample time of the window
    theta: float                  # the rule's contour k_z = s e^{-i theta}; 0 is the real axis
    half_width: float             # the grid spans |s| <= half_width (`packet.axial_grid`)
    nodes: int                    # K, the grid's nodes before `_fold`
    doublings: int                # rungs past the first rule the bound chose


@dataclass
class _Rung:
    """The running state of one (line class, time window) of `_axial_sums`."""

    kind: str
    index: slice | np.ndarray     # the window's samples
    ray: AxialRay                 # the contour; theta = 0 is the real axis
    needed: int
    points: int = 0
    doublings: int = -1           # the first doubling completes the first rule
    fine: np.ndarray | None = None
    coarse: np.ndarray | None = None
    mass: float = 0.0


def _windows(packet: GaussianPacket, coeffs: CoefficientSet, field: FieldConfig,
             times: np.ndarray, rtol: float, parts: str, rows: int) -> list[list[_Rung]]:
    """The time windows, each one rung per line class: its k_z contour and first rule.

    Every first rule is `packet.ray_nodes` for 1/rtol on the rung's `AxialRay`,
    at least AXIAL_FLOOR.  Each class is first sized on the real axis over the
    whole grid, from real-axis tables (`packet._axis_tables`) built once per call
    and read at each set of samples' max |t|.  A k0z = 0 grid of t >= 0 then
    splits from max t down into windows (t/8, t]: each class takes the ray of
    `packet.axial_ray` over the window where that needs fewer nodes than the real
    axis over the samples up to t.  A window is split off while that saves more
    line evaluations (level pairs x channels and derivatives x folded nodes x
    samples, a rule of K nodes summed as K/2 + 1 folded ones) than the 2
    SERIES_CALL charged per class for its extra sums; the samples below it then
    take the real axis over their own maximum.  No ray is sized where even rules
    of AXIAL_FLOOR nodes would not pay, and the split stops at the first window
    that does not pay or where no class takes the ray: the samples left, t = 0
    among them, are one real-axis window, and with no split the whole grid is.
    A real-axis rule past MAX_GRID_NODES only sets the baseline where the grid
    splits; QuadratureConvergenceError is raised if such a rule is summed (a
    ray's rule past the cap raises in `packet.ray_nodes`).
    """
    ratio = _first_ratio(rtol)
    split = packet.k0z == 0.0 and np.min(times) >= 0.0
    tables = _axis_tables(packet, field)

    def real(samples, kind):
        ray = _axis_ray(packet, tables, kind, float(np.max(np.abs(samples))))
        try:
            return ray, max(AXIAL_FLOOR, ray_nodes(ray, ratio))
        except QuadratureConvergenceError as error:
            if not split or error.nodes_needed is None:
                raise
            return ray, error.nodes_needed        # past the cap: raised below if it is summed

    rest = {kind: real(times, kind) for kind in _kinds(parts)}
    whole = [_Rung(kind, slice(None), *rule) for kind, rule in rest.items()]
    if not split:
        return [whole]

    def work(rules, samples):
        return rows * (coeffs.n_max + 1) * sum(points // 2 + 1 for points in rules) * samples

    windows, top = [], float(np.max(times))
    while top > 0.0:
        index = np.flatnonzero((times > WINDOW * top) & (times <= top))
        below = np.flatnonzero(times <= WINDOW * top)
        left = index.size + below.size
        calls = 2 * len(rest) * SERIES_CALL if below.size else 0
        needed = [points for _, points in rest.values()]
        if work(needed, left) - work([AXIAL_FLOOR] * len(rest), left) <= calls:
            break
        if index.size:
            chosen = []
            for kind, (axis, points) in rest.items():
                ray = axial_ray(packet, field, times[index], kind, coeffs.n_max)
                nodes = max(AXIAL_FLOOR, ray_nodes(ray, ratio))
                rule = (ray, nodes) if nodes < points else (axis, points)
                chosen.append(_Rung(kind, index, *rule))
            low = {kind: real(times[below], kind) for kind in rest} if below.size else {}
            saved = (work(needed, left) - work([rung.needed for rung in chosen], index.size)
                     - work([points for _, points in low.values()], below.size))
            if all(rung.ray.theta == 0.0 for rung in chosen) or saved <= calls:
                break
            windows, rest = windows + [chosen], low
        top = WINDOW * top if index.size else float(np.max(times[below]))
    index = np.flatnonzero(times <= top)
    last = [_Rung(kind, index, *rule) for kind, rule in rest.items()]
    windows = (windows + [last] if last else windows) if windows else [whole]
    for rung in (rung for window in windows for rung in window):
        if rung.needed > MAX_GRID_NODES:      # a real-axis rule: `ray_nodes` raises itself
            raise QuadratureConvergenceError(nodes_needed=rung.needed)
    return windows


def _assembled(rungs: list[_Rung], attr: str, size: int) -> np.ndarray:
    """The sums `attr` of the rungs, each class added in its window's samples."""
    out = np.zeros(getattr(rungs[0], attr).shape[:1] + (size,), complex)
    for rung in rungs:
        out[:, rung.index] += getattr(rung, attr)
    return out


def _axial_sums(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
    rtol: float,
    parts: str = "all",
    channels: tuple[int, ...] = (0, 1),
    derivative: bool = False,
) -> tuple[list[AxialRule], np.ndarray]:
    """([one `AxialRule` per line class and window], the line sums on those rules).

    A 2+1 call sums each class at k_z = 0, K = 1.  In 3+1 each line class c of
    `parts` has its own rule in each time window (`_windows`), on the real axis
    or on its ray: `packet.ray_nodes` on the rung's contour for an error of rtol
    times its amplitude mass A_c, folded (`_fold`) and summed once over its nodes,
    nested: S_K = S_{K/2} / 2 + S_odd.  All classes of a window share one ratio
    A/(rtol scale), A the sum of their A_c and scale max(|y - y[0]|, |x|) of the
    combined position channels (0, 1) or (1,) over the whole grid, so the class
    bounds A_c/ratio add up to rtol times the scale at every sample; a rule doubles
    the same way while the bound on that scale needs more.  In a window where
    every class's bound covers its K_c/2 too, or the target lies below the
    rounding floor F eps A, a combined |S - S_half| > rtol raises
    QuadratureConvergenceError at once.  F = 2 (ceil(T/J) + J + 4), of the T
    samples of the window summed (`_time_grid`'s J for them), counts the roundings
    of about eps behind one term a z(t) of a sample in `_sum_lines`: three exps,
    ceil(T/J) - 1 anchor and J - 2 offset products, the amplitude's, the GEMM's and
    the carrier's exp and product (4 in all where J = 1), twice for y - y[0]; the
    call's floor is the largest over its windows: on the persistence envelope F
    is 84 on the ray window's 350 samples and 38 on the 51 below it (90 for its
    401 samples as one window), and 74 on the decay window's 257.  Where a
    `_line_blocks` call's line evaluations reach TRIM_WORK its rows are trimmed to
    their k_z runs, each block dropping at most TRIM = 2^-6 eps of its mass, so
    the floor is (F eps + 2 TRIM) A."""
    if parts not in PARTS:
        raise ValueError(f"parts must be one of {PARTS}, not {parts!r}")
    if packet.dimensionality == "2+1":
        rule = np.zeros(1), np.ones(1)
        span = (float(times[0]), float(times[-1]))
        return ([AxialRule(kind, span, 0.0, 0.0, 1, 0) for kind in _kinds(parts)],
                _series(packet, coeffs, field, times, rule, parts, channels, derivative)[0])

    def blocks(rung, samples):
        # the first rule as its half and its odd nodes, then each doubling's odd nodes
        split = not rung.points
        rule = _fold(packet, axial_grid(packet, 2 * rung.points or rung.needed, rung.ray))
        rule = rule if split else tuple(v[1::2] for v in rule)
        trim = rows * (coeffs.n_max + 1) * rule[0].size * samples >= TRIM_WORK
        return _line_blocks(packet, coeffs, field, *rule, rung.kind, channels, split=split,
                            trim=trim, derivative=derivative)

    rows = len(channels) * (1 + derivative)
    windows = _windows(packet, coeffs, field, times, rtol, parts, rows)
    rungs = [rung for window in windows for rung in window]
    progressions = [_time_grid(times[window[0].index]) for window in windows]
    while any(rung.points < rung.needed for rung in rungs):
        for window, grid in zip(windows, progressions):
            doubling = [rung for rung in window if rung.points < rung.needed]
            if not doubling:
                continue
            found = iter(_summed((block for rung in doubling
                                  for block in blocks(rung, grid[3].size)),
                                 times[window[0].index], derivative, grid))
            for rung in doubling:
                if not rung.points:
                    rung.points, (rung.fine, rung.mass) = rung.needed // 2, next(found)
                odd, odd_mass = next(found)
                rung.points, rung.coarse = 2 * rung.points, rung.fine
                rung.fine, rung.mass = 0.5 * rung.fine + odd, 0.5 * rung.mass + odd_mass
                rung.doublings += 1
        pos = _assembled(rungs, "fine", times.size)[: len(channels)].real    # (x, y) or (y,)
        scale = max(np.max(np.abs(pos[-1] - pos[-1, 0])), np.max(np.abs(pos[:-1]), initial=0.0))
        if scale == 0.0:          # positions that cannot move over the grid set no target
            raise QuadratureConvergenceError(math.nan, 0.0)
        for window in windows:
            ratio = sum(rung.mass for rung in window) / (rtol * scale)
            for rung in window:
                # a NaN scale sizes nothing: leave the loop for the gate below
                rung.needed = rung.points if math.isnan(ratio) else ray_nodes(rung.ray, ratio)
    error = np.abs(pos - _assembled(rungs, "coarse", times.size)[: len(channels)].real)
    for window, (_, _, n_offsets, delta) in zip(windows, progressions):
        achieved = float(np.max(error[:, window[0].index]) / scale)
        rounds = 4 + (-(-delta.size // n_offsets) + n_offsets if n_offsets > 1 else 0)
        floor = 2.0 * (rounds * EPS + TRIM) * sum(rung.mass for rung in window)
        covered = all(2 * rung.needed <= rung.points for rung in window)
        if not achieved <= rtol and (covered or not floor <= rtol * scale):
            raise QuadratureConvergenceError(achieved, rtol)
    records = [AxialRule(rung.kind, (float(times[rung.index][0]), float(times[rung.index][-1])),
                         rung.ray.theta, rung.ray.half_width, rung.points, rung.doublings)
               for rung in rungs]
    return records, _assembled(rungs, "fine", times.size)


def _sample_times(times) -> np.ndarray:
    """`times` as a float array; an empty grid, or one not one-dimensional, is a TimeRangeError."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise TimeRangeError(f"the time grid has shape {times.shape}; give a one-dimensional "
                             "array of sample times")
    if not times.size:
        raise TimeRangeError("the time grid is empty; give at least one sample time")
    return times


def _trajectory(packet, coeffs, field, times, parts, kz_rtol) -> Trajectory:
    times = _sample_times(times)
    if parts == "all" and times[0] != 0.0:
        raise ValueError("time grids must start at t = 0")
    _, sums = _axial_sums(packet, coeffs, field, times, kz_rtol, parts, derivative=True)
    x, y, vx, vy = sums.real
    y0_op = -packet.k0x * field.magnetic_length**2
    if parts == "all":
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
    kz_rtol: float = DEFAULT_KZ_RTOL,
) -> Trajectory:
    """Packet trajectory for the 3+1 model (axial-momentum quadrature)."""
    if packet.dimensionality != "3+1":
        raise DimensionalityError("trajectory_3p1 needs a 3+1 packet")
    return _trajectory(packet, coeffs, field, times, parts, kz_rtol)


def mixing_terms(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
    kz_rtol: float = DEFAULT_KZ_RTOL,
) -> MixingSeries:
    """Spin-mixing integral series; identically zero for 2+1 and for k0z = 0.

    The integrand is odd in the axial wavenumber, so a symmetric density
    kills it; only 3+1 packets with axial momentum produce cross terms.  The
    mixing rows alone are summed once per line class, on the signed grid of the
    real axis' rule for that class (`packet.ray_nodes` at theta = 0) for kz_rtol
    times their amplitude mass (their k0z = 0 sum is rounding).
    """
    times = _sample_times(times)
    if packet.dimensionality == "2+1":
        zero = np.zeros(times.size)
        return MixingSeries(times, zero, zero.copy(), zero * 0j, zero * 0j)
    # the signed grid: at k0z = 0 the cancellation is computed, not assumed
    ratio, t_max = _first_ratio(kz_rtol), float(np.max(np.abs(times)))
    tables = _axis_tables(packet, field)
    rules = [(kind, max(AXIAL_FLOOR, ray_nodes(_axis_ray(packet, tables, kind, t_max), ratio)))
             for kind in PARTS[1:]]
    blocks = (block for kind, points in rules
              for block in _line_blocks(packet, coeffs, field, *axial_grid(packet, points), kind,
                                        (1,), (0.0, 0.0, 1.0)))
    j_plus, j_minus = (sums[0].real for sums, _ in _summed(blocks, times))
    cross = 0.5 * np.conj(packet.a2) * packet.a1 * (j_plus + j_minus)
    return MixingSeries(times, j_plus, j_minus, cross, np.conj(cross))


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
    if packet.a1 != 0:
        raise ValueError("subpackets need a pure second-component packet")
    times = _sample_times(times)
    (x, y), _ = _series(packet, coeffs, field, times, (np.zeros(1), np.ones(1)))
    lowering_1 = (PREF / field.magnetic_length) * (y + 1j * x)
    raising_2 = (PREF / field.magnetic_length) * (y - 1j * x)
    return SubPacketSeries(
        times=times,
        lowering_1=lowering_1,
        lowering_2=np.conj(raising_2),
        raising_1=np.conj(lowering_1),
        raising_2=raising_2,
    )


def spectral_decomposition(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
) -> list[SpectralLine]:
    """Discrete line spectrum of a 2+1 trajectory.

    Convention: y(t) = sum_lines A_y cos(w t) + const, x(t) = sum A_x sin(w t),
    with the constant fixed by the start-at-origin anchor.  First-component
    contributions land one pair up, at the same frequencies with different
    amplitudes, and share the rows of `_line_blocks`.  Lines with both
    amplitudes below 1e-12 L are dropped.
    """
    if packet.dimensionality != "2+1":
        raise DimensionalityError("spectral decomposition is a 2+1 operation")
    lines = [
        SpectralLine(n=int(n), kind="interband" if block.interband else "intraband",
                     frequency=block.carrier + freq, amplitude_x=ax, amplitude_y=ay)
        for block in _line_blocks(packet, coeffs, field, np.zeros(1), np.ones(1), "all")
        for n, freq, ax, ay in zip(block.levels, block.freq[:, 0], block.amps[0, :, 0].imag,
                                   block.amps[1, :, 0].real)
        if max(abs(ax), abs(ay)) >= 1e-12 * field.magnetic_length
    ]
    return sorted(lines, key=lambda line: (line.n, line.kind == "interband"))


def analytic_signal(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
    parts: str = "all",
    kz_rtol: float = DEFAULT_KZ_RTOL,
) -> np.ndarray:
    """Complex analytic signal A(t) of the transverse-position series.

    Every oscillation term amp*cos(w t) of the y-series is summed as
    amp*exp(-i w t); all frequencies are positive, so Re A reproduces the
    raw (unanchored) y-series and |A| is its canonical envelope.  The
    envelope varies on beat timescales only, so collapse/revival and decay
    analyses can sample far more sparsely than the carrier would require.
    """
    times = _sample_times(times)
    return _axial_sums(packet, coeffs, field, times, kz_rtol, parts, (1,))[1][0]


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
