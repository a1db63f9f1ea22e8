"""The oscillation-line table of the series and its sum over a time grid.

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
On a large 3+1 call each row keeps only the run of k_z nodes whose lines can
change a digit (`_runs`): the axial density's tails are at most eps/1024 of
its peak.  `dynamics` sizes the k_z rules and calls these two.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .landau import landau_energies
from .packet import CoefficientSet, GaussianPacket
from .units import FieldConfig, TimeRangeError

PREF = 1.0 / (2.0 * math.sqrt(2.0))
# line evaluator's tiles: 2 MiB, one core's share of a 4 MiB L2; the stacked rows and
# the offset table of one tile share it, and a tile holds consecutive pieces of the
# tables of a call
TILE_ELEMENTS = 1 << 17
EPS = float(np.finfo(float).eps)
TRIM = 2.0**-6 * EPS          # k_z tail mass a trimmed block drops, at most, relative to its mass


class _Block(NamedTuple):
    """One frequency class of lines over (level pair, k_z node)."""

    freq: np.ndarray              # (pairs, K) line frequencies less `carrier`; (lines,) if trimmed
    amps: np.ndarray              # (channels, pairs, K) amplitudes of the requested channels,
                                  # (channels, lines) if trimmed
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
    trim: bool = False,
    derivative: bool = False,
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

    With trim=True each row is built only over its run of nodes (`_runs`), and a
    block is flat, freq (lines,) and amps (channels, lines), rows one after the
    other, each kept line bit for bit the untrimmed one; a split block is still
    that of its nodes alone.  Blocks with spin-mixing rows, whose J can cancel
    the sources' terms, and blocks that would keep every line are built whole.
    """
    if split:
        sizes = (-(-nodes.size // 2), nodes.size // 2)
        nodes = np.concatenate((nodes[::2], nodes[1::2]))
        weights = np.concatenate((2.0 * weights[::2], weights[1::2]))
    else:
        sizes = (nodes.size,)
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
    u = coeffs.u
    s = np.zeros(n_pairs + 2)                             # S_{n-1} at n, 0 off the ladder
    s[1:-1] = np.sqrt(np.arange(1.0, n_pairs + 1.0)) * (np.diagonal(u, 1) + np.diagonal(u, -1))
    s2, s1 = (source * PREF * L * s[k : k + rows]
              for source, k in ((w_second, lo + 1), (w_first, lo)))
    omega_sq = field.omega**2
    n = np.arange(lo, hi)
    kinds = [interband for interband in (False, True)
             if parts != ("intraband" if interband else "interband")]
    k_sq = nodes * nodes
    cuts = [0, sizes[0], nodes.size] if split else [0, nodes.size]  # the grids' first nodes
    trim = trim and not w_mixing
    if trim:
        e2 = 1.0 + omega_sq * n, 1.0 + omega_sq * (n + 1.0)     # E^2 less k_z^2
        starts, lengths = _runs(nodes, weights, cuts, *e2, s2, s1, omega_sq, kinds, channels,
                                derivative, packet.k0z != 0.0)
        trim = bool(np.sum(lengths) < rows * nodes.size)  # a row short of its grid
    if trim:
        ends = np.cumsum(lengths)
        index = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
        k_sq, w = k_sq.take(index), weights.take(index)
        del index
        # the rows' values for each line; a source of zero weight stays the scalar 0
        stack = [*e2, *(s for s, weight in ((s2, w_second), (s1, w_first)) if weight)]
        if True in kinds:
            stack += [omega_sq * n, omega_sq * (n + 1.0)]
        values = iter(np.repeat(np.tile(stack, len(sizes)), lengths, axis=1))
        e_lo, e_hi = next(values), next(values)
        s2, s1 = (next(values) if weight else 0.0 for weight in (w_second, w_first))
        n_rows = tuple(values)
        # E^2 = (1 + omega^2 n) + k_z^2, in place where the nodes are real
        e_lo, e_hi = (np.add(e, k_sq, out=e if e.dtype == k_sq.dtype else None)
                      for e in (e_lo, e_hi))
        np.sqrt(e_lo, out=e_lo)
        np.sqrt(e_hi, out=e_hi)
        cuts = [0, *ends[rows - 1 :: rows]]               # each grid's first line
    else:
        energies = landau_energies(hi, nodes, field)
        e_lo, e_hi = energies[lo:-1], energies[lo + 1:]  # (rows, K) each
        s2, s1, w = s2[:, None], s1[:, None], weights
        n_rows = (omega_sq * n[:, None], omega_sq * (n[:, None] + 1.0)) if True in kinds else ()
    shape = e_lo.shape
    ray = e_lo.dtype.kind == "c"                          # complex nodes on a k_z ray
    first, second = np.empty(shape, e_lo.dtype), np.empty(shape, e_lo.dtype)
    if w_mixing:
        j = np.diagonal(u)[:, None] * nodes
        np.multiply(j, field.omega, out=j)
        np.divide(j, np.multiply(e_lo, e_hi, out=first), out=j)
        np.multiply(j, w, out=j)
        channel = np.array([w_mixing.imag, w_mixing.real])[list(channels)]
    for interband in kinds:
        sign = -1.0 if interband else 1.0
        amps = np.zeros((len(channels),) + shape, complex)
        freq = np.empty(shape, e_lo.dtype)
        if interband:
            # lines less the carrier: E - 1 = (omega^2 n + k_z^2)/(1 + E) has no cancellation
            n_lo, n_hi = n_rows
            np.add(n_hi, k_sq, out=freq)
            np.divide(freq, np.add(1.0, e_hi, out=first), out=freq)
            np.add(n_lo, k_sq, out=second)
            np.divide(second, np.add(1.0, e_lo, out=first), out=second)
            np.add(freq, second, out=freq)
        num = np.add(e_hi, e_lo, out=first)
        # the intraband frequency omega^2/(E_hi + E_lo) is the interband numerator
        np.divide(omega_sq, num, out=num if interband else freq)
        num *= w
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
        for start, stop in zip(cuts, cuts[1:]):
            if trim:              # a grid's lines are contiguous, so each mass is summed as alone
                lines, table = freq[start:stop], amps[:, start:stop]
            elif split:
                lines = np.ascontiguousarray(freq[:, start:stop])
                table = np.ascontiguousarray(amps[..., start:stop])
            else:
                lines, table = freq, amps
            mass = sum(float(np.abs(row).sum()) for row in table)
            yield _Block(lines, table, interband, n, 2.0 * interband, mass)


def _runs(nodes, weights, cuts, e2_lo, e2_hi, s2, s1, omega_sq, kinds, channels, derivative,
          signed):
    """(first node, nodes) of each row's run on each grid, the rows of one grid after another.

    The grids are nodes[cuts[g]:cuts[g+1]]; e2 = 1 + n omega^2 and s2, s1 are each
    row's E^2 at k_z = 0 and sources (`_line_blocks`).  On every contour Re k_z^2
    >= 0, so e_n <= |E_n| <= (e_n^2 + |k_z|^2)^(1/2), |arg E_n| < pi/4, |E_hi +
    E_lo| >= (e_lo^2 + e_hi^2)^(1/2) and Re(1/E) >= 1/(sqrt2 |E|).  Each row gets
    an upper bound on (|x| + |y|)/|w| over the grid, and a lower bound, convex in
    |k_z|^2, whose mean over |w| is at least its value at the mean |k_z|^2
    (Jensen): summed over the rows, times the sum of |w|, it bounds the block's
    mass A below.  A row drops nodes from its grid's far end (both ends, half
    each, on a signed grid) while the upper bound times their |w| stays within
    TRIM A/rows.  With derivative=True the derivative mass, of |w + carrier| |a|,
    keeps the same budget, |w + carrier| being at most omega^2/(e_lo^2 +
    e_hi^2)^(1/2) intraband and 2 (e_hi^2 + max|k_z|^2)^(1/2) interband.  The
    classes of a call share the tighter runs; a NaN keeps every row whole.
    """
    pair, total = np.abs(s2 + s1), np.abs(s2) + np.abs(s1)
    # intraband y sums s2 (1 + E_lo/E_hi) and s1 (1 + E_hi/E_lo), interband y s2/E_hi and
    # -s1/E_lo: terms within pi/4 of their sources' signs, so no cancellation where these agree
    together, apart = s2 * s1 >= 0.0, s2 * s1 <= 0.0
    size = np.abs(weights)
    k_sq = (nodes * nodes.conj()).real
    # |E_n|^2 <= e_n^2 + |k_z|^2: `big` on the whole grid, `near` at the mean over |w|
    top = float(np.max(k_sq))
    mean = max(float(np.dot(size[a:b], k_sq[a:b]) / size[a:b].sum())
               for a, b in zip(cuts, cuts[1:]))
    e_lo, e_hi = np.sqrt(e2_lo), np.sqrt(e2_hi)           # |E_n| >= e_n
    big, near = e2_hi + top, e2_hi + mean
    root = np.sqrt(near)
    wide = omega_sq / np.hypot(e_lo, e_hi)                # omega^2/|E_hi + E_lo| <= wide
    share = np.inf
    for interband in kinds:
        # per unit |w|: x + y at most and at least, and |w + carrier|'s bounds
        if interband:
            upper = [wide / (e_lo * e_hi) * pair, wide / e_lo * total]
            lower = [pair / root, apart * total / math.sqrt(2.0)]
            lower = (0.5 * omega_sq) / near * sum(lower[c] for c in channels)
            fast, slow = 2.0 * np.sqrt(big), np.hypot(e_lo, e_hi)
        else:
            upper = [2.0 / e_lo * pair, (1.0 + e_hi / e_lo) * total]
            lower = sum([math.sqrt(2.0) / root * pair, together * total][c] for c in channels)
            fast, slow = wide, (0.5 * omega_sq) / root
        upper = sum(upper[c] for c in channels)
        share = np.minimum(share, float(lower.sum()) / upper)
        if derivative:
            share = np.minimum(share, float(np.dot(lower, slow)) / (upper * fast))
    share *= TRIM / ((1 + signed) * share.size)
    starts, lengths = [], []
    for start, stop in zip(cuts, cuts[1:]):
        grid = size[start:stop]
        tail = grid[::-1].cumsum()
        limit = np.fmax(share * float(tail[-1]), -1.0)   # a NaN drops nothing
        right = np.searchsorted(tail, limit, "right")
        left = np.searchsorted(grid.cumsum(), limit, "right") if signed else 0 * right
        starts.append(start + left)
        lengths.append(np.maximum(stop - start - left - right, 0))
    return np.concatenate(starts), np.concatenate(lengths)


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
    stacked over (channel, anchor c), with the offset table (-i w)^m (e^{-i w h})^j
    over (order m, offset j): one GEMM yields every order, the derivative (m = 1)
    and, where delta != 0, the next order, which delta multiplies.  Both tables grow
    by repeated products, each row from the previous one, so a line costs three
    complex exps (two from t = 0); J = 1 is the direct sum, one exp per sample.  The
    stacked rows and the offset table count against TILE_ELEMENTS: each table is
    cut every r_max lines from its own start, and consecutive pieces share a tile
    while they fit, so every sum is bit for bit that of its table summed alone.  A
    table's freq may be (lines,) or (rows, K), its amps (C,) + that shape; a
    trimmed block's rows of different lengths are one flat table.  Phases (freq + carrier) t
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
    rows, depth = channels * n_anchors, orders * n_offsets
    r_max = max(1, TILE_ELEMENTS // (rows + depth + n_anchors))
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
    tiles = np.empty((rows + depth, min(r_max, sum(freq.size for freq, _ in lines))), complex)
    stacked, table = tiles[:rows], tiles[rows:]
    table[0] = 1.0
    sums = np.zeros((len(lines), rows, depth), complex)
    for group in groups:
        w = np.concatenate([lines[i][0][part] for i, part, _ in group])
        tile, offsets = stacked[:, : w.size], table[:, : w.size]
        s = tile.reshape(channels, n_anchors, w.size)
        if n_offsets == 1:
            phases = np.multiply.outer(-1j * times, w)
            np.exp(phases, out=phases)
            for i, part, cols in group:
                np.multiply(lines[i][1][:, None, part], phases[:, cols], out=s[..., cols])
        else:
            # three complex exps per line (two from t = 0) reduce w start,
            # w J h and w h once each; every product after them adds about
            # eps, so a chain of at most J or ceil(T/J) rows stays at the
            # eps w t floor
            turn = np.exp(-1j * start * w) if start else None
            for i, part, cols in group:
                if start:
                    np.multiply(lines[i][1][:, part], turn[cols], out=s[:, 0, cols])
                else:
                    s[:, 0, cols] = lines[i][1][:, part]
            ratio = np.exp(-1j * (n_offsets * step) * w)
            for c in range(1, n_anchors):
                np.multiply(s[:, c - 1], ratio, out=s[:, c])
            offsets[1] = np.exp(-1j * step * w)
            for j in range(2, n_offsets):
                np.multiply(offsets[j - 1], offsets[1], out=offsets[j])
        # order m of the offset table: (-i w)^m (e^{-i w h})^j
        for m in range(n_offsets, depth, n_offsets):
            np.multiply(offsets[m - n_offsets : m], -1j * w, out=offsets[m : m + n_offsets])
        for i, _, cols in group:
            sums[i] += tile[:, cols] @ offsets[:, cols].T
    # (table, channel, anchor, order, offset) to (table, order, channel, sample)
    sums = sums.reshape(len(lines), channels, n_anchors, orders, n_offsets).transpose(0, 3, 1, 2, 4)
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
