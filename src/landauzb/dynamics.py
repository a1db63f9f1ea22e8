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
the same frequency.  `_line_blocks` derives the amplitudes of the channels
a caller reads, x (0) and y (1), all sources of a level pair and class in one
row, and `_sum_lines` evaluates every phase, of all the tables a time window
sums in a round, in one call.  Interband lines are summed as a
beat r = (E_hi - 1) + (E_lo - 1) on an exact carrier of two rest energies, so
a phase rounds by about eps r t, not eps (2 + r) t.
On a uniform grid t = start + c J h + j h, two arithmetic progressions (plus,
to first order, the float rounding), so a line's phases are repeated
products of three exps: e^{-i w start}, e^{-i w J h} and e^{-i w h} (the
first is 1 on a grid from t = 0).

Axial rule: the energies depend on k_z only through k_z^2, so for a packet
with k0z = 0 every cyclotron and trembling line is even in k_z and the
spin-mixing rows are odd.  The mixing rows then cancel and are not summed,
and the signed k_z grid folds onto its k_z >= 0 half (`_fold`): K/2 + 1
nodes for K.  Each line class has its own rule in each time window: K_c = m 2^e
nodes with m in 5..8 and 8 | K_c, certified by the aliasing bound of its k_z
contour (`packet.ray_nodes` on a `packet.AxialRay`), each node
summed once and nested over its half: the folded rule of K_c/2 is every other
node of K_c's, so one `_line_blocks` pass over K_c's grid yields both (`split`).
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
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .landau import landau_energies
# MAX_GRID_NODES and QuadratureConvergenceError stay importable from here
from .packet import (AXIAL_FLOOR, MAX_GRID_NODES, AxialRay, CoefficientSet, DimensionalityError,
                     GaussianPacket, QuadratureConvergenceError, _axis_ray, _axis_tables,
                     axial_grid, axial_ray, ray_nodes)
from .units import FieldConfig, TimeRangeError

PREF = 1.0 / (2.0 * math.sqrt(2.0))
# line evaluator's tiles: 2 MiB, one core's share of a 4 MiB L2; the stacked rows and
# the offset table of one tile share it, and a tile holds consecutive pieces of the
# tables of a call
TILE_ELEMENTS = 1 << 17
PARTS = ("all", "intraband", "interband")
DEFAULT_KZ_RTOL = 1e-9        # aliasing-bound target of the k_z rule, relative to the signal peak
EPS = float(np.finfo(float).eps)
WINDOW = 0.125                # a k_z ray's time window (WINDOW t, t]
# line evaluations (level pairs x rows x folded nodes x samples) that `_windows` charges
# for each extra rung sum of a class: the fixed work of one `_series` call when each rung
# sum was one, about 250 us against 0.25 ns each, measured on one core.  A window's
# sums are now one `_sum_lines` call per round; the value stays, and so does every rule
SERIES_CALL = 1 << 20


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


class _Block(NamedTuple):
    """One frequency class of lines over (level pair, k_z node)."""

    freq: np.ndarray              # (pairs, K) line frequencies less `carrier`
    amps: np.ndarray              # (channels, pairs, K) amplitudes of the requested channels
    interband: bool
    levels: np.ndarray            # (pairs,) lower level n of each pair (n, n+1)
    carrier: float                # 2 (two rest energies) for interband lines, else 0
    mass: float                   # sum of |amps|, the amplitude mass


def _line_blocks(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    nodes: np.ndarray,
    weights: np.ndarray,
    parts: str,
    channels: tuple[int, ...] = (0, 1),
    sources: tuple[float, float, complex] | None = None,
    split: bool = False,
) -> Iterator[_Block]:
    """Every oscillation line, one block per class and one row per level pair (n, n+1).

    Complex nodes and weights (a k_z ray, `packet.axial_grid`) give complex
    frequencies and x and y amplitudes of any phase, by the same formulas.
    Only the amplitudes of `channels` are built, in that order: 0 is x, 1 is y.
    A row sums the sources weighted by sources = (w_second, w_first, w_mixing)
    at its frequency: row n takes s2 = w_second PREF L S_n, with S_n = sqrt(n+1)
    (U_{n,n+1} + U_{n+1,n}), and s1 = w_first PREF L S_{n-1}, the first
    component one level up.  Each amplitude is the class's numerator N times the
    node weight w, over the pair's energies: with N = E_hi + E_lo (intraband) or
    E_hi - E_lo = omega^2/(E_hi + E_lo) (interband, no cancellation), upper
    signs intraband, x (sines, imaginary) is -+N w (s2 + s1)/(E_lo E_hi) and y
    (cosines, real) N w (s2/E_hi +- s1/E_lo).  The 3+1 spin-mixing rows add
    +-Re/Im of w_mixing J to y/x, J_n = U_nn k_z omega w/(E_lo E_hi).  Rows: [0,
    n_max) for the second component alone, [1, n_max] for the first alone, else
    [0, n_max].  The weights default to |a2|^2, |a1|^2 and (L/sqrt2) a2* a1, the
    last 0 in 2+1 and at k0z = 0; (0, 0, 1) reads the bare mixing integrals J
    in y.  With split=True the nodes are a rule of K (`axial_grid`, folded or not)
    and each class yields two blocks from one pass over them: the even-index
    nodes with doubled weights, which are the rule of K/2, then the odd-index
    nodes.  Each has its own tables and mass, bit for bit those of a call on its
    nodes alone.
    """
    half = -(-nodes.size // 2)
    if split:
        nodes = np.concatenate((nodes[::2], nodes[1::2]))
        weights = np.concatenate((2.0 * weights[::2], weights[1::2]))
    L = field.magnetic_length
    n_pairs = coeffs.n_max
    if sources is None:
        # the mixing rows are odd in k_z: the k0z = 0 density cancels them pair
        # by pair, while the folded rule of `_fold` would double them
        mixing = packet.dimensionality == "3+1" and packet.k0z != 0.0
        sources = (abs(packet.a2) ** 2, abs(packet.a1) ** 2,
                   mixing * (L / math.sqrt(2.0)) * np.conj(packet.a2) * packet.a1)
    w_second, w_first, w_mixing = sources
    lo = 0 if w_second or w_mixing else 1
    hi = n_pairs + 1 if w_first or w_mixing else n_pairs
    rows = hi - lo
    shape = (rows, nodes.size)
    energies = landau_energies(hi, nodes, field)
    e_lo, e_hi = energies[lo:-1], energies[lo + 1:]      # (rows, K) each
    ray = energies.dtype.kind == "c"                     # complex nodes on a k_z ray
    first, second = np.empty(shape, energies.dtype), np.empty(shape, energies.dtype)
    u = coeffs.u
    s = np.zeros(n_pairs + 2)                             # S_{n-1} at n, 0 off the ladder
    s[1:-1] = np.sqrt(np.arange(1.0, n_pairs + 1.0)) * (np.diagonal(u, 1) + np.diagonal(u, -1))
    s2, s1 = (source * PREF * L * s[k : k + rows, None]
              for source, k in ((w_second, lo + 1), (w_first, lo)))
    if w_mixing:
        j = np.diagonal(u)[:, None] * nodes
        np.multiply(j, field.omega, out=j)
        np.divide(j, np.multiply(e_lo, e_hi, out=first), out=j)
        np.multiply(j, weights, out=j)
        channel = np.array([w_mixing.imag, w_mixing.real])[list(channels)]
    omega_sq = field.omega**2
    k_sq = nodes**2
    n = np.arange(lo, hi)[:, None]
    for interband in (False, True):
        if parts == ("intraband" if interband else "interband"):
            continue
        sign = -1.0 if interband else 1.0
        amps = np.zeros((len(channels),) + shape, complex)
        freq = np.empty(shape, energies.dtype)
        if interband:
            # lines less the carrier: E - 1 = (omega^2 n + k_z^2)/(1 + E) has no cancellation
            np.add(omega_sq * (n + 1.0), k_sq, out=freq)
            np.divide(freq, np.add(1.0, e_hi, out=first), out=freq)
            np.add(omega_sq * n, k_sq, out=second)
            np.divide(second, np.add(1.0, e_lo, out=first), out=second)
            np.add(freq, second, out=freq)
        num = np.add(e_hi, e_lo, out=first)
        # the intraband frequency omega^2/(E_hi + E_lo) is the interband numerator
        np.divide(omega_sq, num, out=num if interband else freq)
        num *= weights
        for c, row in zip(channels, amps):
            if c:
                y = np.divide(sign * s1, e_lo, out=row if ray else row.real)
                y += np.divide(s2, e_hi, out=second)
                y *= num
            else:
                x = np.multiply(num, -sign * (s2 + s1), out=row if ray else row.imag)
                x /= e_lo
                x /= e_hi
                if ray:
                    x *= 1j
        if w_mixing:
            for row, c in zip(amps, channel):
                row.real += np.multiply(j, sign * c, out=first)
        for cols in (slice(None, half), slice(half, None)) if split else (slice(None),):
            lines, table, scratch = freq[:, cols], amps[..., cols], first.real
            if split:             # contiguous, so that each mass is summed as alone
                lines, table = np.ascontiguousarray(lines), np.ascontiguousarray(table)
                scratch = np.empty(lines.shape)
            mass = sum(float(np.sum(np.abs(row, out=scratch))) for row in table)
            yield _Block(lines, table, interband, n[:, 0], 2.0 * interband, mass)


def _time_grid(times: np.ndarray) -> tuple[float, float, int, np.ndarray]:
    """Progressions (start, step, J) and residuals delta: t_k = start + c J step + j step + delta_k.

    Sample k = c J + j.  On a uniform grid J = ceil(sqrt(T)) and delta is the
    grid's float rounding, measured exactly against the progressions (the
    Veltkamp split makes every integer-times-step product exact).  On any
    other grid J = 1, delta = 0 and each sample is its own anchor.
    """
    size = times.size
    if size > 1:
        n_offsets = math.isqrt(size - 1) + 1
        start, step = float(times[0]), float(times[-1] - times[0]) / (size - 1)
        delta = times - start
        for k, x in zip(np.divmod(np.arange(size), n_offsets), (n_offsets * step, step)):
            head = x * 134217729.0            # 2^27 + 1: head keeps 26 bits, x - head the rest
            head -= head - x
            delta = delta - k * head - k * (x - head)
        if np.max(np.abs(delta)) <= 64 * EPS * np.max(np.abs(times)):
            return start, step, n_offsets, delta
    return 0.0, 0.0, 1, np.zeros(size)


def _sum_lines(
    tables: list[tuple[np.ndarray, np.ndarray, float]], times: np.ndarray,
    derivative: bool = False, progressions: tuple[float, float, int, np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Complex sums sum_rows amps[c] e^{-i (freq + carrier) t}, shape (C, T), one per table.

    Each table (freq, amps, carrier) has the same C channels.  With
    derivative=True the C time derivatives (amplitudes -i (freq + carrier) amps)
    follow as C more rows.  The tables below hold freq alone: their sums S take
    e^{-i carrier t} of the exact samples at the end, and S' gains -i carrier S.
    With t = start + c J h + j h + delta (`_time_grid`),
    e^{-i w t} = e^{-i w start} (e^{-i w J h})^c (e^{-i w h})^j (1 - i w delta):
    a tile of lines is one GEMM per table piece of a e^{-i w start} (e^{-i w J h})^c,
    stacked over (row, anchor c), with the offset table (e^{-i w h})^j, plus delta
    times the next derivative row where delta != 0.  Both tables grow by repeated
    products, each row from the previous one, so a line costs three complex exps
    (two from t = 0); J = 1 is the direct sum, one exp per sample.  Stacked rows
    count against TILE_ELEMENTS: each table is cut every r_max lines from its own
    start, and consecutive pieces share a tile while they fit, so every sum is bit
    for bit that of its table summed alone.  Phases (freq + carrier) t
    whose rounding, eps (freq + carrier) max|t|, exceeds a radian raise
    TimeRangeError before any is formed: no digit of them is correct.  That bound
    also keeps every phase and anchor step (J h <= 2 max|t|) far inside the float
    range.  A complex table (lines on a k_z ray, decaying as e^{Im(w) t} for
    t > 0) is checked on |freq|.  `progressions` is `_time_grid(times)` where the
    caller has it already.
    """
    t_max = float(np.max(np.abs(times)))
    lines = []
    for freq, amps, carrier in tables:
        freq = np.ravel(freq)
        top = float(np.max(np.abs(freq), initial=0.0)) + carrier
        if not EPS * top * t_max <= 1.0:      # also overflow and NaN
            raise TimeRangeError(f"phases of lines up to {top:.3g}/t_c over {t_max:.3g} t_c round "
                                 "by more than a radian or leave the float range; shorten the "
                                 "time grid")
        lines.append((freq, np.reshape(amps, (len(amps), freq.size))))
    start, step, n_offsets, delta = _time_grid(times) if progressions is None else progressions
    n_anchors = -(-times.size // n_offsets)
    n_out = 2 if derivative else 1
    orders = n_out + bool(np.any(delta))
    channels = len(lines[0][1])
    rows = orders * channels * n_anchors
    r_max = max(1, TILE_ELEMENTS // (rows + n_anchors + n_offsets))
    groups, width = [], r_max     # tiles of pieces: (table, its lines, their tile columns)
    for i, (freq, _) in enumerate(lines):
        for r0 in range(0, freq.size, r_max):
            size = min(r_max, freq.size - r0)
            # numpy runs a one-line tile's products through its strided loops, which
            # round complex products differently: a one-line piece keeps its own tile
            if width + size > r_max or 1 in (size, width):
                groups.append([])
                width = 0
            groups[-1].append((i, slice(r0, r0 + size), slice(width, width + size)))
            width += size
    # the stacked rows and the offset table in one array: as two, an envelope
    # benchmark job took about 2,070 minor page faults after warm-up, as one none
    tiles = np.empty((rows + n_offsets, min(r_max, sum(freq.size for freq, _ in lines))), complex)
    stacked, table = tiles[:rows], tiles[rows:]
    table[0] = 1.0
    sums = np.zeros((len(lines), rows, n_offsets), complex)
    for group in groups:
        w = np.concatenate([lines[i][0][part] for i, part, _ in group])
        tile, offsets = stacked[:, : w.size], table[:, : w.size]
        s = tile.reshape(orders, channels, n_anchors, w.size)
        if n_offsets == 1:
            phases = np.multiply.outer(-1j * times, w)
            np.exp(phases, out=phases)
            for i, part, cols in group:
                np.multiply(lines[i][1][:, None, part], phases[:, cols], out=s[0, ..., cols])
        else:
            # three complex exps per line (two from t = 0) reduce w start,
            # w J h and w h once each; every product after them adds about
            # eps, so a chain of at most J or ceil(T/J) rows stays at the
            # eps w t floor
            turn = np.exp(-1j * start * w) if start else None
            for i, part, cols in group:
                if start:
                    np.multiply(lines[i][1][:, part], turn[cols], out=s[0, :, 0, cols])
                else:
                    s[0, :, 0, cols] = lines[i][1][:, part]
            ratio = np.exp(-1j * (n_offsets * step) * w)
            for c in range(1, n_anchors):
                np.multiply(s[0, :, c - 1], ratio, out=s[0, :, c])
            offsets[1] = np.exp(-1j * step * w)
            for j in range(2, n_offsets):
                np.multiply(offsets[j - 1], offsets[1], out=offsets[j])
        for m in range(1, orders):
            np.multiply(s[m - 1], -1j * w, out=s[m])
        for i, _, cols in group:
            sums[i] += tile[:, cols] @ offsets[:, cols].T
    sums = sums.reshape(len(lines), orders, channels, -1)[..., : times.size]
    out = sums[:, :n_out] + delta * sums[:, 1:] if orders > n_out else sums
    turns = {}                    # e^{-i carrier t} of each carrier, formed once
    for sums_i, (_, _, carrier) in zip(out, tables):
        if carrier:               # 2 t is exact, so delta needs no carrier term
            sums_i[1:] -= 1j * carrier * sums_i[:-1]          # derivative rows, if any
            if carrier not in turns:
                turns[carrier] = np.exp(-1j * (carrier * times))
            sums_i *= turns[carrier]
    return [sums_i.reshape(-1, times.size) for sums_i in out]


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
    401 samples as one window), and 74 on the decay window's 257."""
    if parts not in PARTS:
        raise ValueError(f"parts must be one of {PARTS}, not {parts!r}")
    if packet.dimensionality == "2+1":
        rule = np.zeros(1), np.ones(1)
        span = (float(times[0]), float(times[-1]))
        return ([AxialRule(kind, span, 0.0, 0.0, 1, 0) for kind in _kinds(parts)],
                _series(packet, coeffs, field, times, rule, parts, channels, derivative)[0])

    def blocks(rung):
        # the first rule as its half and its odd nodes, then each doubling's odd nodes
        split = not rung.points
        rule = _fold(packet, axial_grid(packet, 2 * rung.points or rung.needed, rung.ray))
        return _line_blocks(packet, coeffs, field, *(v if split else v[1::2] for v in rule),
                            rung.kind, channels, split=split)

    windows = _windows(packet, coeffs, field, times, rtol, parts, len(channels) * (1 + derivative))
    rungs = [rung for window in windows for rung in window]
    progressions = [_time_grid(times[window[0].index]) for window in windows]
    while any(rung.points < rung.needed for rung in rungs):
        for window, grid in zip(windows, progressions):
            doubling = [rung for rung in window if rung.points < rung.needed]
            if not doubling:
                continue
            found = iter(_summed((block for rung in doubling for block in blocks(rung)),
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
        floor = 2.0 * rounds * EPS * sum(rung.mass for rung in window)       # F eps A
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
