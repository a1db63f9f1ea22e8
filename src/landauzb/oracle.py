"""Brute-force evolution in the truncated spinor (x) oscillator basis.

Certifies the analytic series: the Hamiltonian is assembled as a dense
matrix over four spinor rows times oscillator levels 0..N, diagonalized
once per wavenumber node, and expectation values of the position/velocity
operators are propagated by eigenphases.  Nothing here touches the closed
forms of the overlap matrix or the oscillation series; the only shared
ingredients are the level amplitude F_n and the node choices: the k_x
Gauss-Hermite rule of `packet.kx_rule` and the k_z grid of
`packet.axial_ladder`.

Basis index: sigma * (N+1) + m for spinor row sigma in 0..3, level m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import packet as packet_mod
from .landau import LandauIndex, jl_spinor, landau_energy
from .units import FieldConfig

GUARD_BAND = 20
LEAK_TOL = 1e-10


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


def lowering_matrix(n_levels: int) -> np.ndarray:
    """<m|a|m'> = sqrt(m') delta_{m,m'-1} on levels 0..n_levels."""
    size = n_levels + 1
    mat = np.zeros((size, size))
    idx = np.arange(1, size)
    mat[idx - 1, idx] = np.sqrt(idx)
    return mat


def build(n_levels: int, field: FieldConfig, k_z: float = 0.0) -> DenseHamiltonian:
    """Assemble the Hamiltonian: diagonal +-mc^2 blocks, ladder off-blocks.

    The off-diagonal 2x2 spin block is  k_z*sigma_z - omega*[[0,a],[a^+,0]].
    """
    size = n_levels + 1
    a = lowering_matrix(n_levels)
    eye = np.eye(size)
    omega = field.omega

    h = np.zeros((4 * size, 4 * size))
    blocks = {
        (0, 0): eye,
        (1, 1): eye,
        (2, 2): -eye,
        (3, 3): -eye,
        (0, 2): k_z * eye,
        (1, 3): -k_z * eye,
        (0, 3): -omega * a,
        (1, 2): -omega * a.T,
    }
    for (i, j), blk in blocks.items():
        h[i * size : (i + 1) * size, j * size : (j + 1) * size] = blk
        if i != j:
            h[j * size : (j + 1) * size, i * size : (i + 1) * size] = blk.T
    return DenseHamiltonian(n_levels=n_levels, k_z=k_z, matrix=h, field=field)


def spinor_check(idx: LandauIndex, ham: DenseHamiltonian) -> float:
    """Residual |(H - eps*E) psi| for the embedded analytic eigenspinor."""
    size = ham.n_levels + 1
    w = jl_spinor(idx, ham.field)
    vec = np.zeros(4 * size, dtype=complex)
    for sigma, (comp, level) in enumerate(zip(w.components, w.levels)):
        if level >= 0 and comp != 0.0:
            if level > ham.n_levels:
                raise ValueError("spinor level exceeds the truncated basis")
            vec[sigma * size + level] = comp
    energy = idx.epsilon * landau_energy(idx.n, idx.k_z, ham.field)
    return float(np.linalg.norm(ham.matrix @ vec - energy * vec))


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
    norm_drift: float          # max deviation of an evolved vector norm
    energy_drift: float        # max deviation of <H> along the same vector
    kz_residual: float         # full vs half-grid k_z rule: positions relative
                               # to max(|x|, |y|), velocities in c; 0 for 2+1


def _density_from_nodes(
    pkt: packet_mod.GaussianPacket,
    field: FieldConfig,
    n_levels: int,
) -> tuple[np.ndarray, float]:
    """Quadrature density rho = integral dk_x |c(k_x)><c(k_x)| and the
    guiding-centre shift integral dk_x k_x L^2 |c|^2, on the shared
    `packet.kx_rule` nodes with the oracle's own density assembly."""
    size = n_levels + 1
    k_nodes, log_w = packet_mod.kx_rule(pkt, field, n_levels)
    wtilde = np.exp(log_w)

    f_vals = packet_mod.f_table(pkt, field, n_levels, k_nodes)  # (N+1, K)
    weighted = f_vals * np.sqrt(wtilde)[None, :]
    rho_osc = weighted @ weighted.T                              # (N+1, N+1)

    rho = np.zeros((4 * size, 4 * size), dtype=complex)
    amps = (pkt.a1, pkt.a2)
    for i, ai in enumerate(amps):
        for j, aj in enumerate(amps):
            if ai == 0 or aj == 0:
                continue
            rho[i * size : (i + 1) * size, j * size : (j + 1) * size] = (
                ai * np.conj(aj)
            ) * rho_osc
    shift = field.magnetic_length**2 * float(
        np.dot(wtilde, k_nodes * np.sum(f_vals**2, axis=0))
    )
    return rho, shift


def _check_leakage(rho: np.ndarray, n_levels: int, guard: int) -> None:
    size = n_levels + 1
    diag = np.real(np.diagonal(rho)).reshape(4, size)
    tail = float(diag[:, max(0, size - guard) :].sum())
    if tail > LEAK_TOL:
        raise TruncationLeakError(
            f"packet mass {tail:.3e} within {guard} levels of the truncation "
            f"edge (> {LEAK_TOL:g}); raise the level count"
        )


def _peak(series: np.ndarray) -> float:
    """Largest |Re| or |Im| of a complex series (two real channels)."""
    return max(float(np.max(np.abs(series.real))), float(np.max(np.abs(series.imag))))


def evolve_expectations(
    pkt: packet_mod.GaussianPacket,
    field: FieldConfig,
    times: np.ndarray,
    n_levels: int,
    guard: int = GUARD_BAND,
    kz_order: int | None = None,
) -> EvolvedExpectations:
    """Dense-evolution expectations of position and velocity.

    2+1 packets run a single diagonalization at k_z = 0; 3+1 packets add an
    outer trapezoid rule over the axial momentum density, with kz_order
    nodes or, unless given, the first rung of `packet.axial_ladder`.  The
    even-index nodes with doubled weights are the same rule at twice the
    spacing; their second accumulator gives kz_residual in the same loop.
    Output positions are relative to the t=0 centre (trajectory starts at
    the origin), matching the analytic-series convention.
    """
    times = np.asarray(times, dtype=float)
    if pkt.dimensionality == "2+1":
        kz_nodes = np.array([0.0])
        weights = np.ones((2, 1))
    else:
        if kz_order is None:
            t_max = float(np.max(np.abs(times)))
            kz_order = packet_mod.axial_ladder(pkt, field, n_levels, t_max)[0]
        kz_nodes, kz_weights = packet_mod.axial_grid(pkt, kz_order)
        half = np.where(np.arange(kz_order) % 2 == 0, 2.0 * kz_weights, 0.0)
        weights = np.stack([kz_weights, half])

    rho, shift = _density_from_nodes(pkt, field, n_levels)
    _check_leakage(rho, n_levels, guard)
    size = n_levels + 1
    a_op = np.kron(np.eye(4), lowering_matrix(n_levels))
    # alpha_x + i alpha_y: one complex observable carries both velocities
    raise_spin = np.zeros((4, 4))
    raise_spin[0, 3] = raise_spin[2, 1] = 2.0
    v_op = np.kron(raise_spin, np.eye(size))
    L = field.magnetic_length

    # row 0 the full rule, row 1 its half-grid partner
    alpha = np.zeros((2, times.size), dtype=complex)   # <A(t)>; <A^+(t)> = conj
    vel = np.zeros((2, times.size), dtype=complex)     # <v_x> + i <v_y>
    alpha0 = np.zeros(2, dtype=complex)
    norm_drift = 0.0
    energy_drift = 0.0
    probe_times = times[:: max(1, times.size // 8)]
    probe_col = int(np.argmax(np.linalg.norm(rho, axis=0)))
    for k_z, wk in zip(kz_nodes, weights.T):
        ham = build(n_levels, field, k_z=k_z)
        evals, vecs = np.linalg.eigh(ham.matrix)
        p_rho = vecs.T.conj() @ rho @ vecs
        phases = np.exp(-1j * np.outer(evals, times))        # (d, T)
        for op, out in ((a_op, alpha), (v_op, vel)):
            q = vecs.T @ (op @ vecs)                         # vecs real
            w = p_rho.T * q                                  # W_ij = rho_ji q_ij
            g = w @ phases
            out += np.outer(wk, np.sum(np.conj(phases) * g, axis=0))
            if op is a_op:
                alpha0 += wk * w.sum()

        probe = rho[:, probe_col].copy()
        pn = np.linalg.norm(probe)
        if pn > 0:
            probe /= pn
            d = vecs.T.conj() @ probe
            energy0 = np.real(np.vdot(probe, ham.matrix @ probe))
            for t in probe_times:
                vec_t = vecs @ (d * np.exp(-1j * evals * t))
                norm_drift = max(norm_drift, abs(np.linalg.norm(vec_t) - 1.0))
                energy = np.real(np.vdot(vec_t, ham.matrix @ vec_t))
                energy_drift = max(energy_drift, abs(energy - energy0))

    scale = L * math.sqrt(2.0)
    pos = scale * (alpha - alpha0[:, None])            # y + i x per rule
    pos_scale = max(_peak(pos[0]), 1e-300)
    kz_residual = max(_peak(pos[0] - pos[1]) / pos_scale, _peak(vel[0] - vel[1]))
    return EvolvedExpectations(
        times=times,
        x=pos[0].imag,
        y=pos[0].real,
        vx=vel[0].real,
        vy=vel[0].imag,
        y_operator_initial=scale * float(alpha0[0].real),
        guiding_shift=shift,
        norm_drift=norm_drift,
        energy_drift=energy_drift,
        kz_residual=kz_residual,
    )
