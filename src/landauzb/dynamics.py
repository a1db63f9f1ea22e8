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
row, and `_sum_lines` evaluates every phase.  Interband lines are summed as a
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
nodes for K.  Each line class has its own rule: `_axial_sums` sums the rule
certified by the aliasing bound of `packet.axial_nodes` for that class, K_c =
m 2^e nodes with m in 5..8 and 8 | K_c, each node once and nested over its
half: the folded rule of K_c/2 is every other node of K_c's.  Interband lines
move with k_z as E_n + E_{n+1}, intraband lines only as omega^2/(E_n + E_{n+1}),
so the intraband rule is the smaller (256 against 2560 nodes on the
collapse-revival packet).  All classes share one error ratio, so their bounds
add up to the target.  `mixing_terms` alone keeps the signed grid, so the
k0z = 0 cancellation stays a computed one.  Before the time-grid GEMM each
block of a rung drops the k_z tail lines that cannot move a digit the rule
certifies (`_screened`): about a quarter of its lines, whose |amplitudes| add
up to at most eps A_c / C per channel.  `mixing_terms` sums its blocks whole.

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

from .landau import landau_energies
# MAX_GRID_NODES and QuadratureConvergenceError stay importable from here
from .packet import (AXIAL_FLOOR, MAX_GRID_NODES, CoefficientSet, DimensionalityError,
                     GaussianPacket, QuadratureConvergenceError, axial_grid, axial_nodes)
from .units import FieldConfig, TimeRangeError

PREF = 1.0 / (2.0 * math.sqrt(2.0))
# line evaluator's tiles: 2 MiB, one core's share of a 4 MiB L2; the stacked rows and
# the offset table of one tile share it
TILE_ELEMENTS = 1 << 17
SCREEN_TILE = TILE_ELEMENTS // 32    # lines `_screened` moves per step: its temporaries' size
PARTS = ("all", "intraband", "interband")
DEFAULT_KZ_RTOL = 1e-9        # aliasing-bound target of the k_z rule, relative to the signal peak
EPS = float(np.finfo(float).eps)


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
    peak: np.ndarray              # (pairs, K) largest |amps| over the channels, in scratch


def _line_blocks(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    nodes: np.ndarray,
    weights: np.ndarray,
    parts: str,
    channels: tuple[int, ...] = (0, 1),
    sources: tuple[float, float, complex] | None = None,
) -> Iterator[_Block]:
    """Every oscillation line, one block per class and one row per level pair (n, n+1).

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
    in y.
    """
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
    first, second = np.empty(shape), np.empty(shape)     # temporaries of both classes
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
        freq = np.empty(shape)
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
                y = np.divide(sign * s1, e_lo, out=row.real)
                y += np.divide(s2, e_hi, out=second)
                y *= num
            else:
                x = np.multiply(num, -sign * (s2 + s1), out=row.imag)
                x /= e_lo
                x /= e_hi
        if w_mixing:
            for row, c in zip(amps, channel):
                row.real += np.multiply(j, sign * c, out=first)
        peak = np.abs(amps[0], out=first)
        mass = float(np.sum(peak))
        for row in amps[1:]:
            mass += float(np.sum(np.abs(row, out=second)))
            np.maximum(peak, second, out=peak)
        yield _Block(freq, amps, interband, n[:, 0], 2.0 * interband, mass, peak)


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
    freq: np.ndarray, amps: np.ndarray, times: np.ndarray, derivative: bool = False,
    carrier: float = 0.0, top: float | None = None,
) -> np.ndarray:
    """Complex sums sum_rows amps[c] e^{-i (freq + carrier) t}, shape (C, T).

    With derivative=True the C time derivatives (amplitudes -i (freq + carrier)
    amps) follow as C more rows.  The tables below hold freq alone: their sums
    S take e^{-i carrier t} of the exact samples at the end, and S' gains
    -i carrier S.  With t = start + c J h + j h + delta (`_time_grid`),
    e^{-i w t} = e^{-i w start} (e^{-i w J h})^c (e^{-i w h})^j (1 - i w delta):
    a tile of lines is one GEMM of a e^{-i w start} (e^{-i w J h})^c, stacked
    over (row, anchor c), with the offset table (e^{-i w h})^j, plus delta
    times the next derivative row where delta != 0.  Both tables grow by
    repeated products, each row from the previous one, so a line costs three
    complex exps per tile (two from t = 0); J = 1 is the direct sum, one exp
    per sample.  Stacked rows count against TILE_ELEMENTS.  Phases (freq +
    carrier) t whose rounding, eps (freq + carrier) max|t|, exceeds a radian
    raise TimeRangeError before any is formed: no digit of them is correct.
    That bound also keeps every phase and anchor step (J h <= 2 max|t|) far
    inside the float range.  `top`, if given, stands in that check for
    max(freq): a screened table (`_screened`) passes its whole block's, so a
    screen never hides a phase past the bound.
    """
    freq = np.ravel(freq)
    top = (float(np.max(freq, initial=0.0)) if top is None else top) + carrier
    t_max = float(np.max(np.abs(times)))
    if not EPS * top * t_max <= 1.0:      # also overflow and NaN
        raise TimeRangeError(f"phases of lines up to {top:.3g}/t_c over {t_max:.3g} t_c round by "
                             "more than a radian or leave the float range; shorten the time grid")
    amps = np.reshape(amps, (len(amps), freq.size))
    start, step, n_offsets, delta = _time_grid(times)
    n_anchors = -(-times.size // n_offsets)
    n_out = 2 if derivative else 1
    orders = n_out + bool(np.any(delta))
    rows = orders * len(amps) * n_anchors
    r_step = min(freq.size, max(1, TILE_ELEMENTS // (rows + n_anchors + n_offsets)))
    # the stacked rows and the offset table in one array: as two, an envelope
    # benchmark job took about 2,070 minor page faults after warm-up, as one none
    tiles = np.empty((rows + n_offsets, r_step), complex)
    stacked, table = tiles[:rows], tiles[rows:]
    table[0] = 1.0
    sums = np.zeros((rows, n_offsets), complex)
    for r0 in range(0, freq.size, r_step):
        w = freq[r0 : r0 + r_step]
        tile, offsets = stacked[:, : w.size], table[:, : w.size]
        s = tile.reshape(orders, len(amps), n_anchors, w.size)
        a = amps[:, None, r0 : r0 + w.size]
        if n_offsets == 1:
            phases = np.multiply.outer(-1j * times, w)
            np.multiply(a, np.exp(phases, out=phases), out=s[0])
        else:
            # three complex exps per line (two from t = 0) reduce w start,
            # w J h and w h once each; every product after them adds about
            # eps, so a chain of at most J or ceil(T/J) rows stays at the
            # eps w t floor
            s[0, :, 0] = a[:, 0] * np.exp(-1j * start * w) if start else a[:, 0]
            ratio = np.exp(-1j * (n_offsets * step) * w)
            for c in range(1, n_anchors):
                np.multiply(s[0, :, c - 1], ratio, out=s[0, :, c])
            offsets[1] = np.exp(-1j * step * w)
            for j in range(2, n_offsets):
                np.multiply(offsets[j - 1], offsets[1], out=offsets[j])
        for m in range(1, orders):
            np.multiply(s[m - 1], -1j * w, out=s[m])
        sums += tile @ offsets.T
    sums = sums.reshape(orders, len(amps), -1)[..., : times.size]
    out = sums[:n_out] + delta * sums[1:] if orders > n_out else sums
    if carrier:                   # 2 t is exact, so delta needs no carrier term
        out[1:] -= 1j * carrier * out[:-1]          # derivative rows, if any
        out *= np.exp(-1j * (carrier * times))
    return out.reshape(-1, times.size)


def _screened(block: _Block) -> tuple[np.ndarray, np.ndarray, float | None]:
    """(freq, amps) of the block's lines that can move its sum, and the top frequency of all.

    A 3+1 block drops its weakest lines, the k_z tails, while their |amps| in each
    of its C channels add up to at most eps A_c / C, A_c the block's mass: C times
    that is below the rounding floor F eps A of `_axial_sums`.  The largest such set
    is read off a histogram of the peaks' binary exponents: a peak of biased
    exponent b lies below 2^(b - 1022), so the bins up to the last one whose
    count-weighted edges sum to at most the budget go.  The sum of every line
    exceeds the budget, so one line at least is kept.  The kept lines move, in
    order and a tile at a time, to the front of the block's own tables (temporaries
    of SCREEN_TILE lines, no full-size copy), and the returned views of them are
    summed in place of the block.  Blocks of one node (2+1, about 40 lines and no
    k_z tail), those whose budget is zero, below the smallest normal float or not
    finite (a NaN mass must reach the gates), and those with nothing to drop are
    returned whole, with top None: `_sum_lines` then reads their own maximum.
    """
    freq, amps = block.freq.reshape(-1), block.amps.reshape(len(block.amps), -1)
    budget = EPS * block.mass / len(amps)
    if block.freq.shape[1] == 1 or not np.finfo(float).tiny <= budget < math.inf:
        return freq, amps, None
    bits = block.peak.reshape(-1).view(np.int64)      # non-negative floats: sign bit 0
    np.right_shift(bits, 52, out=bits)
    last = math.frexp(budget)[1] + 1021       # the last bin whose edge is within the budget
    counts = np.bincount(bits, minlength=last + 1)[: last + 1]
    bound = np.cumsum(np.ldexp(counts, np.arange(-1022, last - 1021)))     # counts x bin edges
    cut = int(np.searchsorted(bound, budget, "right")) - 1
    if cut < 0:
        return freq, amps, None
    top, kept = float(np.max(freq)), 0
    for start in range(0, bits.size, SCREEN_TILE):
        lines = bits[start : start + SCREEN_TILE] > cut
        for table in (freq, *amps):
            moved = table[start : start + lines.size][lines]
            table[kept : kept + moved.size] = moved
        kept += moved.size
    return freq[:kept], amps[:, :kept], top


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

    Each block on a rule of more than one k_z node is screened first (`_screened`):
    its weakest lines, whose |amps| add up to at most eps A_c / C in each of its C
    channels, are not summed, while the mass A_c returned still counts them.
    """
    out, mass = 0.0, 0.0
    for block in _line_blocks(packet, coeffs, field, *rule, parts, channels):
        freq, amps, top = _screened(block)
        out = out + _sum_lines(freq, amps, times, derivative, block.carrier, top)
        mass += block.mass
    return out, mass


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


def _first_rule(packet: GaussianPacket, field: FieldConfig, times, rtol: float, kind: str) -> int:
    """Line class `kind`'s first k_z rule: `packet.axial_nodes` for rtol, at least AXIAL_FLOOR."""
    if not (0.0 < rtol < math.inf and 1.0 / float(rtol) < math.inf):
        raise ValueError(f"kz_rtol must be finite, positive and of finite reciprocal, not {rtol!r}")
    return max(AXIAL_FLOOR, axial_nodes(packet, field, times, 1.0 / rtol, kind))


def _classes(packet: GaussianPacket, field: FieldConfig, times, rtol: float,
             parts: str) -> dict[str, int]:
    """{line class: its first rule} for `parts`."""
    return {kind: _first_rule(packet, field, times, rtol, kind) for kind in _kinds(parts)}


def _axial_sums(
    packet: GaussianPacket,
    coeffs: CoefficientSet,
    field: FieldConfig,
    times: np.ndarray,
    rtol: float,
    parts: str = "all",
    channels: tuple[int, ...] = (0, 1),
    derivative: bool = False,
) -> tuple[dict[str, int], np.ndarray]:
    """({line class: K_c}, `_series` sums, each class on its axial rule of K_c nodes).

    A 2+1 call sums each class at k_z = 0, K_c = 1.  In 3+1 each line class c of
    `parts` has its own rule: `packet.axial_nodes` for c, for an error of rtol times
    its amplitude mass A_c, folded (`_fold`) and summed once over its nodes, nested:
    S_K = S_{K/2} / 2 + S_odd.  All classes share one ratio A/(rtol scale), A the sum
    of the A_c and scale max(|y - y[0]|, |x|) of the combined position channels (0, 1)
    or (1,), so the class bounds A_c/ratio add up to rtol times the scale; a class
    doubles the same way while the bound on that scale needs more.  If every class's
    bound covers its K_c/2 too, or the target lies below the rounding floor F eps A,
    a combined |S - S_half| > rtol raises QuadratureConvergenceError at once.
    F = 2 (ceil(T/J) + J + 4) counts the roundings of about eps behind one term
    a z(t) of a sample in `_sum_lines`: three exps, ceil(T/J) - 1 anchor and J - 2
    offset products, the amplitude's, the GEMM's and the carrier's exp and product
    (4 in all where J = 1), twice for y - y[0].  The lines `_series` screens out of
    each rung move a sum by at most eps A_c / C per channel, eps A over the classes,
    at least eight times below that floor (F >= 8); A, the ratio and the floor
    still count every line."""
    if parts not in PARTS:
        raise ValueError(f"parts must be one of {PARTS}, not {parts!r}")
    if packet.dimensionality == "2+1":
        rule = np.zeros(1), np.ones(1)
        return ({kind: 1 for kind in _kinds(parts)},
                _series(packet, coeffs, field, times, rule, parts, channels, derivative)[0])

    def rung_sum(kind, points, index=slice(None)):
        rule = tuple(v[index] for v in _fold(packet, axial_grid(packet, points)))
        return _series(packet, coeffs, field, times, rule, kind, channels, derivative)

    needed = _classes(packet, field, times, rtol, parts)
    points = {kind: rule // 2 for kind, rule in needed.items()}
    fine, mass = {}, {}
    for kind in needed:
        fine[kind], mass[kind] = rung_sum(kind, points[kind])
    coarse = {}
    while any(points[kind] < needed[kind] for kind in needed):
        for kind in needed:
            if points[kind] < needed[kind]:
                odd, odd_mass = rung_sum(kind, 2 * points[kind], slice(1, None, 2))
                points[kind], coarse[kind] = 2 * points[kind], fine[kind]
                fine[kind], mass[kind] = 0.5 * fine[kind] + odd, 0.5 * mass[kind] + odd_mass
        pos = sum(fine.values())[: len(channels)].real       # (x, y) or (y,)
        scale = max(np.max(np.abs(pos[-1] - pos[-1, 0])), np.max(np.abs(pos[:-1]), initial=0.0))
        if scale == 0.0:          # positions that cannot move over the grid set no target
            raise QuadratureConvergenceError(math.nan, 0.0)
        ratio = sum(mass.values()) / (rtol * scale)
        # a NaN scale sizes nothing: leave the loop for the gate below
        needed = {kind: points[kind] if math.isnan(ratio)
                  else axial_nodes(packet, field, times, ratio, kind) for kind in needed}
    achieved = float(np.max(np.abs(pos - sum(coarse.values())[: len(channels)].real)) / scale)
    n_offsets = _time_grid(times)[2]
    rounds = 4 + (-(-times.size // n_offsets) + n_offsets if n_offsets > 1 else 0)
    floor = 2.0 * rounds * EPS * sum(mass.values())          # F eps A
    covered = all(2 * needed[kind] <= points[kind] for kind in needed)
    if not achieved <= rtol and (covered or not floor <= rtol * scale):
        raise QuadratureConvergenceError(achieved, rtol)
    return points, sum(fine.values())


def _trajectory(packet, coeffs, field, times, parts, kz_rtol) -> Trajectory:
    times = np.asarray(times, dtype=float)
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
    mixing rows alone are summed once per line class, on the signed grid
    `packet.axial_nodes` gives that class for kz_rtol times their amplitude mass
    (their k0z = 0 sum is rounding).
    """
    times = np.asarray(times, dtype=float)
    if packet.dimensionality == "2+1":
        zero = np.zeros(times.size)
        return MixingSeries(times, zero, zero.copy(), zero * 0j, zero * 0j)
    # the signed grid: at k0z = 0 the cancellation is computed, not assumed
    j = {}
    for kind, points in _classes(packet, field, times, kz_rtol, "all").items():
        (block,) = _line_blocks(packet, coeffs, field, *axial_grid(packet, points), kind, (1,),
                                (0.0, 0.0, 1.0))
        j[kind] = _sum_lines(block.freq, block.amps, times, carrier=block.carrier)[0].real
    cross = 0.5 * np.conj(packet.a2) * packet.a1 * (j["intraband"] + j["interband"])
    return MixingSeries(times, j["intraband"], j["interband"], cross, np.conj(cross))


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
    times = np.asarray(times, dtype=float)
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
    times = np.asarray(times, dtype=float)
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
