"""Brute-force evolution in the truncated spinor (x) oscillator basis.

Certifies the analytic series.  The Hamiltonian is a matrix over four spinor
rows times oscillator levels 0..N, linear in the axial wavenumber: the pencil
H(k_z) = H_0 + k_z H_z, one element list of both triangles per call.  Its
pattern splits into small invariant blocks, found and filled from that list with
no dense matrix (an O(N) set-up), and each block
squares to a scalar, H_b^2 = S0 + k_z S1 + k_z^2 S2 = E_b(k_z)^2 I; both
checks run once per call, on H_0, H_z and S0, S1, S2, and cover every node.
No block is diagonalized: e^{-iH_b t} = e^{-iE_b t} P+ + e^{+iE_b t} P- with
P+- = (I +- H_b/E_b)/2, so an observable summed over the block pairs it
links takes four weights tr(P_bra A P_ket rho) per pair, polynomials in k_z
over E_bra E_ket.  The density is rho = (a a^+) (x) G, spin amplitudes a
times the level Gram matrix G = F W F^T, and each pair's block of it is
gathered from the two.  The velocity links the position's block pairs
transposed (checked at run time), so both operators share one pair table.
On a uniform time grid t = t_0 + a J h + j h + delta each block's phase
e^{-iEt} is an anchor times an offset, both tables grown by repeated products
from e^{-iE t_0}, e^{-iEJh} and e^{-iEh}, with a first-order factor
(1 - iE delta) for the grid's float rounding delta; e^{+iEt} is the
conjugate.  Each seed e^{-iEx} is the carrier e^{-ix} of its exact float x
times e^{-i(E-1)x}, and E - 1 comes from S0 - 1 = tr(V^2)/w, V = H_0 - beta
off the mass term beta, so a weak field's dynamics in E - 1 keep their
digits.  No table spans all T samples: a chunk of nodes reduces each
operator's pair sums with one batched real GEMM of the shared anchor rows by
its own weighted offset rows.  A k0z = 0 packet whose S1 is zero (checked at
run time) has E_b and the axial density even in k_z: the oracle drops the
k-odd trace terms, which cancel between +-k_z, and sums K//2 + 1 nodes |j| h
with the mirror weights added.  The norm and energy drifts bound the
propagator for every state: U_b = phi P+ + conj(phi) P- gives U_b^+ U_b =
|phi|^2 I up to the square residual, so they bound |phi| from the whole anchor
and offset tables and the largest |E delta|, and add that residual.  The series' code
stays untouched: only F_n, `packet.kx_rule` and `packet.axial_grid` are
shared.  The k_z rule is sized and certified from the oracle's own block
energies and trace weights (`_aliasing`): a shared bound would alias both alike.

Basis index: sigma * (N+1) + m for spinor row sigma in 0..3, level m.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import packet as packet_mod
from .units import FieldConfig, TimeRangeError

GUARD_BAND = 20
LEAK_TOL = 1e-10
KZ_ALIAS = 1e-9            # automatic k_z rule's aliasing bound over the trace weights' mass
CHUNK_ELEMENTS = 60_000    # nodes x basis rows 4(N+1) x (anchor rows + offsets) per
                           # chunk: bounds the working set; the shared pair tables and
                           # the weighted offset rows take about all of it
EPS = float(np.finfo(float).eps)


class TruncationLeakError(ValueError):
    """Packet mass too close to the truncation edge for a trustworthy run."""


@dataclass(frozen=True)
class DenseHamiltonian:
    """Dense Hermitian Hamiltonian at fixed k_z, with its field parameters."""

    n_levels: int          # oscillator levels 0..n_levels
    k_z: float
    matrix: np.ndarray     # shape (4(N+1), 4(N+1)), real symmetric
    field: FieldConfig

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _elements(n_levels: int, field: FieldConfig) -> tuple[np.ndarray, ...]:
    """H(k_z) = H_0 + k_z H_z as one element list (rows, cols, h_0, h_z) of both triangles,
    each element nonzero in H_0 or H_z (omega > 0): H_0 is diagonal +-mc^2 with the spin
    block -omega*[[0,a],[a^+,0]] off it, H_z is sigma_z there, <m-1|a|m> = sqrt(m)."""
    size = n_levels + 1
    m = np.arange(size)
    ladder = -field.omega * np.sqrt(np.arange(1.0, size))
    # above the diagonal: sigma_z on spinor blocks (0, 2) and (1, 3), a on (0, 3), a^+ on (1, 2)
    rows = np.r_[m, size + m, m[:-1], size + m[1:]]
    cols = np.r_[2 * size + m, 3 * size + m, 3 * size + m[1:], 2 * size + m[:-1]]
    h_0 = np.r_[np.zeros(2 * size), ladder, ladder]
    h_z = np.r_[np.ones(size), -np.ones(size), np.zeros(2 * n_levels)]
    diag = np.arange(4 * size)
    return (np.r_[diag, rows, cols], np.r_[diag, cols, rows],
            np.r_[np.repeat([1.0, -1.0], 2 * size), h_0, h_0], np.r_[np.zeros(4 * size), h_z, h_z])


def build(n_levels: int, field: FieldConfig, k_z: float = 0.0) -> DenseHamiltonian:
    """The dense Hamiltonian at k_z, scattered from the pencil's element list."""
    rows, cols, h_0, h_z = _elements(n_levels, field)
    h = np.zeros((4 * (n_levels + 1),) * 2)
    h[rows, cols] = h_0 + k_z * h_z
    return DenseHamiltonian(n_levels=n_levels, k_z=k_z, matrix=h, field=field)


@dataclass(frozen=True)
class EvolvedExpectations:
    """Oracle expectation series, guiding-centre-relative like the series."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    y_operator_initial: float  # raw <Y>(0), equals -k0x L^2 for exact rules
    guiding_shift: float       # integral dk_x k_x L^2 |c|^2, approx +k0x L^2
    norm_drift: float          # bound on | ||U psi|| - 1 |: max ||phi| - 1| + square residual
    energy_drift: float        # bound on |<H>(t) - <H>(0)|: max E ||phi|^2 - 1| + residual
    kz_residual: float         # bound on the k_z rule's aliasing, not its rounding: positions
                               # relative to max(|x|, |y|), velocities in c; 0 for 2+1


def _components(rows: np.ndarray, cols: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the graph on vertices 0..size-1 with edges (rows, cols),
    both directions listed: (B, w) `index` rows of ascending vertices, zero-padded past
    `mask`, by smallest vertex.  Every vertex takes the smallest label among its own and
    its neighbours', then its label's label, until none moves."""
    label = np.arange(size)
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    sizes = np.unique(label, return_counts=True)[1]
    mask = np.arange(sizes.max()) < sizes[:, None]
    index = np.zeros(mask.shape, dtype=int)
    index[mask] = np.argsort(label, kind="stable")      # row-major: block by block
    return index, mask


def _block_pencil(n_levels: int, field: FieldConfig) -> tuple[np.ndarray, ...]:
    """(index, mask, label, slot, pencil): the pencil's invariant blocks as `_components`
    rows, each basis row's block `label` and `slot` in it, and I, H_0 and H_z as
    (3, B, w, w) block stacks, filled by scatters of the element list."""
    rows, cols, h_0, h_z = _elements(n_levels, field)
    index, mask = _components(rows, cols, 4 * (n_levels + 1))
    label, slot = np.zeros((2, 4 * (n_levels + 1)), dtype=int)
    label[index[mask]], slot[index[mask]] = np.nonzero(mask)
    pencil = np.zeros((3, *mask.shape, mask.shape[1]))
    pencil[0, label, slot, slot] = 1.0
    pencil[1:, label[rows], slot[rows], slot[cols]] = h_0, h_z
    return index, mask, label, slot, pencil


def _density_from_nodes(
    pkt: packet_mod.GaussianPacket,
    field: FieldConfig,
    n_levels: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Spin part a a^+ and level Gram matrix G = F W F^T of the quadrature density
    rho = integral dk_x |c(k_x)><c(k_x)| = (a a^+) (x) G, a = (a1, a2, 0, 0), and the
    guiding-centre shift integral dk_x k_x L^2 |c|^2, on the shared `packet.kx_rule`
    nodes with the oracle's own density assembly."""
    k_nodes, log_w = packet_mod.kx_rule(pkt, field, n_levels)
    wtilde = np.exp(log_w)

    f_vals = packet_mod.f_table(pkt, field, n_levels, k_nodes)  # (N+1, K)
    scaled = f_vals * np.sqrt(wtilde)[None, :]
    amps = np.array([pkt.a1, pkt.a2, 0.0, 0.0])
    shift = field.magnetic_length**2 * float(
        np.dot(wtilde, k_nodes * np.sum(f_vals**2, axis=0))
    )
    return np.outer(amps, amps.conj()), scaled @ scaled.T, shift


def _split_times(times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchors t_0 + a J h, offsets j h and residuals delta: t_k = anchor + offset + delta_k.

    Sample k = a J + j.  A uniform grid of T samples takes J = ceil(sqrt(T))
    offsets, and delta is the float grid's rounding, measured exactly against
    t_0 + a (J h) + j h: a Veltkamp split of J h and of h keeps every
    integer-times-step product exact.  Any other grid takes J = 1: the
    samples themselves, with no residual.
    """
    count = times.size
    if count > 1:
        n_offsets = math.isqrt(count - 1) + 1
        start, step = float(times[0]), float(times[-1] - times[0]) / (count - 1)
        delta = times - start
        for i, x in zip(np.divmod(np.arange(count), n_offsets), (n_offsets * step, step)):
            head = x * 134217729.0            # 2^27 + 1: head keeps 26 bits, x - head the rest
            head -= head - x
            delta = delta - i * head - i * (x - head)
        if np.max(np.abs(delta)) <= 64 * EPS * np.max(np.abs(times)):
            anchors = start + np.arange(-(-count // n_offsets)) * (n_offsets * step)
            return anchors, np.arange(n_offsets) * step, delta
    return times, np.zeros(1), np.zeros(count)


def _aliasing(pkt: packet_mod.GaussianPacket, e_sq: np.ndarray, bra: np.ndarray, ket: np.ndarray,
              t_max: float, kz_order: int | None) -> tuple[int, float]:
    """(K, G): the k_z rule's node count and its aliasing over the trace weights' mass.

    The rule of spacing h = 2 AXIAL_HALF_WIDTH/(d_z K) (`packet.axial_grid`) adds
    copies of the integrand's Fourier transform at 2 pi m/h, m != 0 (Poisson
    summation; Trefethen & Weideman, SIAM Rev. 56:385, 2014).  Moved to Im k_z = +-y,
    short of the nearest complex zero of any S0 + k S1 + k^2 S2 (E_b and 1/E_b are
    analytic there), the density grows by e^{d_z^2 y^2} and a pair's phase by at most
    e^{v y t}: v is the largest |E_bra'| + |E_ket'| over the linked block pairs, and
    E_b is convex, so |E_b'| peaks at an end of the grid.  The copies sum to
    G = 2 e^{d_z^2 y^2 - X y} / (1 - e^{-2 pi y/h}) of the mass, X = 2 pi/h - v t_max,
    at y = X/(2 d_z^2) or the strip's edge, and G <= 2.  Without kz_order, K is the
    fewest nodes with G <= KZ_ALIAS, the last factor (below 1 + 1e-9 there) aside;
    K > MAX_GRID_NODES raises QuadratureConvergenceError, and a kz_order that is no
    positive integer ValueError."""
    if kz_order is not None and not (isinstance(kz_order, (int, np.integer)) and kz_order > 0):
        raise ValueError(f"kz_order must be a positive integer, not {kz_order!r}")
    d_z = pkt.d_z
    e_0, e_1, e_2 = e_sq[:, e_sq[2] > 0]    # E_b^2 >= 0: with no k^2 term, E_b is constant
    strip = float(np.min(np.sqrt(np.maximum(4.0 * e_0 * e_2 - e_1 * e_1, 0.0)) / (2.0 * e_2),
                         initial=np.inf))
    edge = abs(pkt.k0z) + packet_mod.AXIAL_HALF_WIDTH / d_z
    if edge * edge < math.inf:
        k = pkt.k0z + np.array([[-1.0], [1.0]]) * packet_mod.AXIAL_HALF_WIDTH / d_z
        slope = np.max(np.abs(e_sq[1] + 2.0 * k * e_sq[2])
                       / (2.0 * np.sqrt(e_sq[0] + k * e_sq[1] + k * k * e_sq[2])), axis=0)
    else:   # k^2 leaves the float range (d_z below about 4.9e-154): |E_b'| is sqrt(S2) there
        slope = np.sqrt(e_sq[2])
    v_t = t_max * float(np.max(slope[bra] + slope[ket]))
    if kz_order is None:
        # ln(2/G) = X^2/(4 d_z^2) inside the strip, else X s - d_z^2 s^2 at its edge s
        log_g = math.log(2.0 / KZ_ALIAS)
        x = (2.0 * d_z * math.sqrt(log_g) if math.sqrt(log_g) <= d_z * strip
             else log_g / strip + d_z * d_z * strip)
        need = packet_mod.AXIAL_HALF_WIDTH / (math.pi * d_z) * (v_t + x)
        if not need <= packet_mod.MAX_GRID_NODES:
            raise packet_mod.QuadratureConvergenceError(nodes_needed=math.ceil(min(need, 2.0**62)))
        kz_order = math.ceil(need)
    freq = math.pi * d_z * kz_order / packet_mod.AXIAL_HALF_WIDTH       # 2 pi/h
    x = freq - v_t
    y = min(strip, x / (2.0 * d_z * d_z))
    alias = 2.0 * math.exp(d_z * d_z * y * y - x * y) / -math.expm1(-freq * y) if x > 0.0 else 2.0
    return kz_order, min(2.0, alias)


# (s/2, t/2) on D and S from c, a, b, d (`_trace_weights`)
_SUMS = 0.25 * np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1.0]])


def _trace_weights(coef: np.ndarray, inverse: np.ndarray, k: np.ndarray) -> np.ndarray:
    """beta: the pair products' weights by node, [Re, Im] row, [D, S], operator, pair.

    The projector traces W_su = (c + u a + s b + su d)/4, u, s = +-1, are
    polynomials in k over the energies: a = a'/E_ket, b = b'/E_bra and
    d = d'/(E_bra E_ket), whose numerators c, a', b', d' are rows 1, k, k^2 of
    `coef`, one real product for both operators; `inverse` holds 1/E_ket and
    1/E_bra by operator and pair.  With phi^- = conj(phi^+), sum_su
    conj(phi^s_bra) W_su phi^u_ket is W z + W' conj(z) = q Re z + i p Im z for
    z = D = conj(phi_bra) phi_ket (W++, W--) and z = S = phi_bra phi_ket (W-+, W+-),
    with q = W + W' = (c +- d)/2 and p = W - W' = (a +- b)/2.  Its real part is
    Re(beta_0 z) and its imaginary part Re(beta_1 z), for beta_0 = Re q + i Im p =
    (s + conj t)/2 and beta_1 = Im q - i Re p = i (conj t - s)/2, s = q + p, t = q - p.
    """
    c = len(k)
    num = (k ** np.arange(3) @ coef).view(complex).reshape(c, 4, 2, -1)   # c, a', b', d'
    num[:, 1:3] *= inverse
    num[:, 3] *= inverse[:, 0] * inverse[:, 1]
    st = np.matmul(_SUMS, num.view(float).reshape(c, 4, -1)).view(complex)
    st = st.reshape(c, 2, 2, 2, -1)                 # [s, t] x [D, S] x operator x pair
    np.conjugate(st[:, 1], out=st[:, 1])
    beta = num.reshape(st.shape)
    np.add(st[:, 0], st[:, 1], out=beta[:, 0])
    np.subtract(st[:, 1], st[:, 0], out=beta[:, 1])
    beta[:, 1] *= 1j
    return beta


def evolve_expectations(
    pkt: packet_mod.GaussianPacket,
    field: FieldConfig,
    times: np.ndarray,
    n_levels: int,
    guard: int = GUARD_BAND,
    kz_order: int | None = None,
) -> EvolvedExpectations:
    """Block-evolution expectations of position and velocity.

    2+1 packets run the single node k_z = 0; 3+1 packets add an outer
    trapezoid rule over the axial momentum density, of kz_order nodes or the
    fewest whose aliasing bound (`_aliasing`) meets KZ_ALIAS.  kz_residual is
    that bound times the mass the sums run over, for either rule: positions
    relative to max(|x|, |y|), velocities in c.  It bounds aliasing, not
    float64 rounding.  A k0z = 0 rule runs folded onto k_z >= 0 when S1 = 0.
    Positions are relative to the t=0 centre, as in the analytic series.
    """
    times = np.asarray(times, dtype=float)
    t_max = float(np.max(np.abs(times)))
    spin, gram, shift = _density_from_nodes(pkt, field, n_levels)
    size = n_levels + 1
    tail = float(np.trace(spin).real * np.sum(np.diag(gram)[max(0, size - guard) :]))
    if not tail <= LEAK_TOL:
        raise TruncationLeakError(f"packet mass {tail:.3e} within {guard} levels of the "
                                  f"truncation edge (> {LEAK_TOL:g}); raise the level count")
    # H(k_z) = H_0 + k_z H_z: every node's pattern lies inside the union
    index, mask, label, slot, pencil = _block_pencil(n_levels, field)
    n_blocks, width = mask.shape
    h_0, h_z = pencil[1:]
    # H_b(k)^2 = S0 + k S1 + k^2 S2 is E_b(k)^2 I at every k if each S_i is e_i I.  H_0
    # is its diagonal beta, the mass term, plus V: beta^2 = I and {beta, V} = 0 make
    # H_0^2 = I + V^2, so S0 - 1 = tr(V^2)/w keeps the digits that S0 rounds away
    squares = np.stack([h_0 @ h_0, h_0 @ h_z + h_z @ h_0, h_z @ h_z])     # (3, B, w, w)
    e_sq = np.trace(squares, axis1=-2, axis2=-1) / mask.sum(axis=1)      # (3, B)
    v = h_0 * (1.0 - np.eye(width))
    v_sq = v @ v
    s0_less_1 = np.trace(v_sq, axis1=-2, axis2=-1) / mask.sum(axis=1)
    residual = float(np.max(np.abs(squares - e_sq[..., None, None] * pencil[0])))
    anti = float(np.max(np.abs(squares[0] - v_sq - pencil[0])))    # beta^2 - I + {beta, V}
    if residual > 8 * EPS * np.max(e_sq) or anti > 8 * EPS * np.max(e_sq):
        raise ValueError("an invariant block does not square to a multiple of the identity, "
                         "or its mass term does not square to I and anticommute with the rest")

    m = np.arange(size)
    lower = (np.arange(4)[:, None] * size + m[1:] - 1).ravel()     # <sigma, m-1| a |sigma, m>
    # spinor rows: alpha_x + i alpha_y = 2 (|0><3| + |2><1|) carries both velocities
    links = []
    for rows, cols, values in (
        (lower, lower + 1, np.tile(np.sqrt(m[1:]), 4)),
        (np.r_[m, 2 * size + m], np.r_[3 * size + m, size + m], np.full(2 * size, 2.0)),
    ):  # block pairs bra * B + ket the operator links, and its elements there
        keys, which = np.unique(label[rows] * n_blocks + label[cols], return_inverse=True)
        elems = np.zeros((keys.size, width, width))
        elems[which, slot[rows], slot[cols]] = values
        links.append((keys, elems))
    (keys, elems), (flip_keys, flip_elems) = links
    bra, ket = np.divmod(keys, n_blocks)
    n_pairs = keys.size
    # the velocity links the position's block pairs transposed, so one pair table
    # serves both; its elements go in the position's pair order, its bra the ket
    flipped = ket * n_blocks + bra
    if not np.array_equal(np.sort(flipped), flip_keys):
        raise ValueError("the velocity does not link the position's block pairs, transposed")
    flip_elems = flip_elems[np.searchsorted(flip_keys, flipped)]
    # rho_kb = rho[ket block, bra block], of elements (a a^+)[sigma, sigma'] G[m, m']
    spinor, level = np.divmod(index, size)
    rho = (spin[spinor[ket][:, :, None], spinor[bra][:, None, :]]
           * gram[level[ket][:, :, None], level[bra][:, None, :]]
           * (mask[ket][:, :, None] & mask[bra][:, None, :]))
    # tr(L A R rho_kb) for L, R in the bra's and ket's pencil; the velocity's pair
    # is (ket, bra), of density rho_bk = rho_kb^+
    tr = [np.einsum("lpij,rpji->lrp", pencil[:, b] @ e, pencil[:, k] @ r) for b, k, e, r in
          ((bra, ket, elems, rho), (ket, bra, flip_elems, rho.conj().swapaxes(-1, -2)))]

    if pkt.dimensionality == "2+1":
        kz_nodes, weights, alias = np.zeros(1), np.ones(1), 0.0
    else:
        kz_order, alias = _aliasing(pkt, e_sq, bra, ket, t_max, kz_order)
        kz_nodes, weights = packet_mod.axial_grid(pkt, kz_order)
    # numerators of the trace weights c, a, b, d (`_trace_weights`) as rows 1, k, k^2:
    # c, a E_ket, b E_bra and d E_bra E_ket, by (power, weight, operator, pair).  The
    # velocity's a, b enter as -b, -a: in the position's pair order its bra is the
    # ket, so b takes 1/E_ket and a 1/E_bra, and its D is the position's conj(D),
    # which swaps W and W' there, negating a + b while a - b keeps its sign
    coef = np.zeros((3, 4, 2, n_pairs), dtype=complex)
    for i, t in enumerate(tr):
        coef[0, :, i] = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
        coef[1, 1:, i] = t[0, 2], t[2, 0], t[1, 2] + t[2, 1]
        coef[2, 3, i] = t[2, 2]
    coef[:, 1:3, 1] = -coef[:, 2:0:-1, 1]
    # k0z = 0 and S1 = 0: E_b and the axial density are both even in k_z, so the
    # k-odd trace terms cancel between +-k_z.  Sum the even part on the nodes
    # |j| h with the mirror weights added; an even rule's unpaired edge -K/2 h
    # (density eps/1024 of the peak) lands on +K/2 h.
    if pkt.dimensionality == "3+1" and pkt.k0z == 0.0 and not np.any(e_sq[1]):
        bucket = np.abs(np.arange(kz_nodes.size) - kz_nodes.size // 2)
        nodes = np.zeros(bucket.max() + 1)
        nodes[bucket] = np.abs(kz_nodes)        # exact: the node -j h is -(j h)
        kz_nodes, weights = nodes, np.bincount(bucket, weights)
        coef[1] = 0.0
    coef = coef.reshape(3, -1).view(float)
    # E_b^2 is convex in k_z, so its peak over the rule lies on an end node.  A pair
    # phase (E_ket + E_bra) t rounds by up to 2 eps E max|t|: past a radian no digit
    # of it is correct, and far short of that the anchor step J h <= 2 max|t| is finite
    k = kz_nodes[[0, -1], None]
    e_top = math.sqrt(float(np.max(e_sq[0] + k * e_sq[1] + k * k * e_sq[2])))
    if not 2.0 * EPS * e_top * t_max <= 1.0:           # also overflow and NaN
        raise TimeRangeError(f"phases of block energies up to {e_top:.3g}/t_c over {t_max:.3g} "
                             "t_c round by more than a radian or leave the float range; "
                             "shorten the time grid")

    # [<A(t)>, <v_x + i v_y>(t)] x [sum, delta coefficient] x anchor x [Re, Im] x
    # offset; <A^+> = conj.  mass: the largest the sums of each operator can be
    anchors, offsets, delta = _split_times(times)
    n_anchors, n_offsets = anchors.size, offsets.size
    orders = 1 + bool(np.any(delta))    # exact grids, linspace(0, 200, 101) say, skip delta
    sums = np.zeros((2, orders, n_anchors, 2, n_offsets))
    mass = np.zeros(2)
    reach = float(np.max(np.abs(delta), initial=0.0))
    norm_drift = energy_drift = 0.0
    # e^{-iEx} = e^{-ix} e^{-i(E-1)x} for the exact floats x of the seeds: the carrier
    # e^{-ix} is exact to rounding, and E - 1 = (E^2 - 1)/(1 + E) keeps the digits of
    # a weak field's dynamics that E x would round away
    if n_offsets == 1:
        carrier = (np.cos(anchors) - 1j * np.sin(anchors))[:, None]
    else:
        jump = n_offsets * offsets[1]
        carrier = [cmath.exp(-1j * x) for x in (anchors[0], jump, offsets[1])]
    lookup = np.stack([[ket, ket], [bra, bra]])     # 1/E_ket, 1/E_bra by operator
    step = min(kz_nodes.size,
               max(1, CHUNK_ELEMENTS // (4 * size * (orders * n_anchors + n_offsets))))
    # per-call tables, a chunk fills their leading rows
    head = np.empty((step, n_anchors, n_blocks), dtype=complex)
    tail = np.ones((step, n_offsets, n_blocks), dtype=complex)
    left = np.empty((step, orders, n_anchors, 2, n_pairs), dtype=complex)
    base = np.empty((step, n_offsets, 2, n_pairs), dtype=complex)
    right_size = 4 * n_offsets * n_pairs          # per node: [Re, Im] row x offset x [D, S]
    spare = np.empty(step * max(right_size, 2 * n_anchors * n_pairs), dtype=complex)

    def gathered(table):
        """phi_bra and phi_ket of every pair from a (c, rows, B) phase table, gathered
        into the weighted offset rows' buffer, which they leave before it is filled."""
        c, rows = table.shape[:2]
        out = spare[: 2 * c * rows * n_pairs].reshape(2, c, rows, n_pairs)
        for blocks, phases in zip((bra, ket), out):
            np.take(table, blocks, axis=2, out=phases, mode="clip")
        return out

    for start in range(0, kz_nodes.size, step):
        wk, k = weights[start : start + step], kz_nodes[start : start + step, None]
        c = len(k)
        energy = np.sqrt(e_sq[0] + k * e_sq[1] + k * k * e_sq[2])       # (c, B)
        rate = -1j * (s0_less_1 + k * e_sq[1] + k * k * e_sq[2]) / (1.0 + energy)
        # e^{-iEt} = e^{-iE t_0} (e^{-iEJh})^a (e^{-iEh})^j (1 - iE delta): anchor
        # (c, N_a, B) and offset (c, J, B) tables, each row a product of the last
        hd, tl = head[:c], tail[:c]
        if n_offsets == 1:
            np.multiply(np.exp(rate[:, None] * anchors[:, None]), carrier, out=hd)
        else:
            hd[:, 0] = np.exp(rate * anchors[0]) * carrier[0] if anchors[0] else 1.0
            ratio = np.exp(rate * jump) * carrier[1]
            for i in range(1, n_anchors):
                np.multiply(hd[:, i - 1], ratio, out=hd[:, i])
            tl[:, 1] = np.exp(rate * offsets[1]) * carrier[2]
            for j in range(2, n_offsets):
                np.multiply(tl[:, j - 1], tl[:, 1], out=tl[:, j])
        beta = _trace_weights(coef, np.take(1.0 / energy, lookup, axis=1), k)
        # mass: a pair's term has real and imaginary parts Re(w z) with |w| = |beta_0|,
        # |beta_1|; positions take z - 1, at most min(2, |Omega| t_max) in size,
        # with Omega = E_ket -+ E_bra for z = D, S
        e_ket, e_bra = np.take(energy, ket, axis=1), np.take(energy, bra, axis=1)
        omega = np.stack([e_ket - e_bra, e_ket + e_bra], 1)            # (c, 2, P)
        extent = np.abs(beta)
        extent[:, :, :, 0] *= np.minimum(2.0, t_max * np.abs(omega))[:, None]
        mass += np.einsum("c,crzip->i", wk, extent)
        # anchor rows conj(D_a) = phi_bra conj(phi_ket) and conj(S_a) = conj(phi_bra)
        # conj(phi_ket), offset rows D_j = conj(phi_bra) phi_ket and S_j = phi_bra phi_ket
        lf, bs = left[:c], base[:c]
        zb, zk = gathered(hd)
        np.conjugate(zk, out=zk)
        np.multiply(zb, zk, out=lf[:, 0, :, 0])
        np.multiply(np.conjugate(zb, out=zb), zk, out=lf[:, 0, :, 1])
        zb, zk = gathered(tl)
        np.multiply(zb, zk, out=bs[:, :, 1])
        np.multiply(np.conjugate(zb, out=zb), zk, out=bs[:, :, 0])
        if orders > 1:
            # z (1 - i Omega delta): the delta coefficient's anchor rows are
            # i Omega conj(z_a)
            np.multiply(lf[:, 0], 1j * omega[:, None], out=lf[:, 1])
        rt = spare[: right_size * c].reshape(c, 2, n_offsets, 2, n_pairs)
        # with z = z_a z_j, Re(beta z) = Re(conj(z_a) r) for the offset row r = beta z_j:
        # per operator, a real GEMM of the shared anchor rows by its weighted offset rows
        for i in range(2):
            np.multiply(bs[:, None], beta[:, :, None, :, i], out=rt)
            grid = (lf.view(float).reshape(c, -1, 4 * n_pairs)
                    @ rt.view(float).reshape(c, 2 * n_offsets, -1).swapaxes(1, 2))
            sums[i] += (wk @ grid.reshape(c, -1)).reshape(sums[i].shape)
        # U_b = phi P+ + conj(phi) P- gives U_b^+ U_b = |phi|^2 I and U_b^+ H_b U_b =
        # |phi|^2 H_b up to the square residual.  |phi| = |anchor| |offset| |1 - iE delta|
        # is within u of 1, with the tables' own largest ||phi| - 1| per block
        dev_a, dev_j = (np.max(np.abs(np.abs(t) - 1.0), axis=1) for t in (hd, tl))
        m = energy * reach                # |1 - i m| - 1 = m^2 / (1 + hypot(1, m))
        u = dev_a + dev_j + dev_a * dev_j + (1 + dev_a) * (1 + dev_j) * m * m / (1 + np.hypot(1, m))
        norm_drift = max(norm_drift, float(np.max(u)))
        energy_drift = max(energy_drift, float(np.max(energy * u * (2.0 + u))))
    # the square residual R_b = H_b^2 - E_b^2 I, of norm <= w max|R_b|, adds
    # (Im phi)^2 R_b / E_b^2 to U_b^+ U_b and H_b times that to U_b^+ H_b U_b;
    # E_b >= 1, so to first order the norm moves by half of it, <H> by all of it
    norm_drift += 0.5 * width * residual
    energy_drift += width * residual
    sums = (sums[..., 0, :] + 1j * sums[..., 1, :]).reshape(2, orders, -1)[..., : times.size]
    out = sums[:, 0] + delta * sums[:, 1] if orders > 1 else sums[:, 0]

    (alpha, vel), alpha0 = out, weights.sum() * tr[0][0, 0].sum()  # tr(A rho)
    scale = field.magnetic_length * math.sqrt(2.0)
    pos = scale * (alpha - alpha0)                     # y + i x
    pos_scale = max(float(np.max(np.abs(pos.real))), float(np.max(np.abs(pos.imag))), 1e-300)
    kz_residual = alias * max(scale * mass[0] / pos_scale, mass[1])
    return EvolvedExpectations(
        times=times, x=pos.imag, y=pos.real, vx=vel.real, vy=vel.imag,
        y_operator_initial=scale * float(alpha0.real), guiding_shift=shift,
        norm_drift=norm_drift, energy_drift=energy_drift, kz_residual=kz_residual,
    )
