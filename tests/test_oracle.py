import ast
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from landauzb import FieldConfig, GaussianPacket
from landauzb.landau import LandauIndex, jl_spinor, landau_energy
from landauzb import cli, dynamics, oracle
from landauzb import packet as packet_mod
from landauzb.packet import coefficient_matrix
from landauzb.units import TimeRangeError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def matched_field():
    # hbar*omega = mc^2
    return FieldConfig.from_magnetic_length(math.sqrt(2.0))


def expected_spectrum(field, k_z, n_top):
    values = []
    for n in range(n_top + 1):
        e = landau_energy(n, k_z, field)
        mult = 1 if n == 0 else 2
        values += [(e, mult), (-e, mult)]
    return values


def embedded_spinor(idx, ham):
    """The analytic eigenspinor of `idx` as a vector of the truncated basis."""
    size = ham.n_levels + 1
    w = jl_spinor(idx, ham.field)
    vec = np.zeros(4 * size, dtype=complex)
    for sigma, (comp, level) in enumerate(zip(w.components, w.levels)):
        if level >= 0 and comp != 0.0:
            if level > ham.n_levels:
                raise ValueError("spinor level exceeds the truncated basis")
            vec[sigma * size + level] = comp
    return vec


def spinor_check(idx, ham) -> float:
    """Residual |(H - eps*E) psi| for the embedded analytic eigenspinor."""
    vec = embedded_spinor(idx, ham)
    energy = idx.epsilon * landau_energy(idx.n, idx.k_z, ham.field)
    return float(np.linalg.norm(ham.matrix @ vec - energy * vec))


def test_oracle_imports_no_series_module():
    # the oracle certifies the series, so it may share only F_n (packet) and
    # the units, never the analytic spinors, energies or series evaluator
    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported |= ({node.module.split(".")[0]} if node.module
                         else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("landauzb."):
            imported.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("landauzb.")}
    assert imported <= {"packet", "units"}, imported


def test_oracle_never_reads_the_series_axial_bound():
    # a k_z rule too coarse for both sides would alias both alike, and criterion
    # 2 could not see it: the oracle sizes its rule from its own block energies and
    # names none of the series' k_z sizers
    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)                   # getattr(packet, "axial_ray")
    sizers = {"axial_ray", "ray_nodes", "AxialRay", "_ray_growth", "_rule_size", "AXIAL_FLOOR",
              "_axis_tables", "_axis_ray"}
    assert not names & sizers, names & sizers


def test_minimal_hamiltonian_spectrum():
    ham = oracle.build(0, FieldConfig.from_magnetic_length(1.0), k_z=0.0)
    assert np.allclose(np.sort(np.linalg.eigvalsh(ham.matrix)), [-1, -1, 1, 1], atol=1e-14)


def test_hamiltonian_hermitian(matched_field):
    ham = oracle.build(40, matched_field, k_z=0.3)
    assert np.max(np.abs(ham.matrix - ham.matrix.T)) < 1e-13


@pytest.mark.parametrize("k_z", [0.0, 0.5])
def test_spectrum_matches_closed_form(matched_field, k_z):
    ham = oracle.build(50, matched_field, k_z=k_z)
    evals = np.sort(np.linalg.eigvalsh(ham.matrix))
    for energy, mult in expected_spectrum(matched_field, k_z, 30):
        hits = np.abs(evals - energy) < 1e-8
        assert hits.sum() >= mult
        assert np.sort(np.abs(evals[hits] - energy))[:mult].max() < 1e-10


def test_spinor_residuals_random(matched_field):
    ham = oracle.build(60, matched_field, k_z=0.3)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 30))
        idx = LandauIndex(
            n=n, k_z=0.3, epsilon=int(rng.choice([-1, 1])), s=int(rng.choice([-1, 1]))
        )
        worst = max(worst, spinor_check(idx, ham))
    assert worst < 1e-10


def test_spinor_residual_ground_state(matched_field):
    ham = oracle.build(30, matched_field, k_z=0.0)
    assert spinor_check(LandauIndex(n=0, epsilon=+1, s=-1), ham) < 1e-12


def test_degenerate_pair_spans_eigenspace(matched_field):
    # both spin states of a level/branch span the dense solver's 2d eigenspace
    n, k_z, eps = 4, 0.2, +1
    ham = oracle.build(40, matched_field, k_z=k_z)
    evals, vecs = np.linalg.eigh(ham.matrix)
    energy = eps * landau_energy(n, k_z, matched_field)
    sel = np.abs(evals - energy) < 1e-9
    assert sel.sum() == 2
    dense = vecs[:, sel]
    proj_dense = dense @ dense.T.conj()

    analytic = np.stack([embedded_spinor(LandauIndex(n=n, k_z=k_z, epsilon=eps, s=s), ham)
                         for s in (-1, +1)], axis=1)
    proj_analytic = analytic @ analytic.T.conj()
    assert np.max(np.abs(proj_dense - proj_analytic)) < 1e-10


def test_eigenvector_matches_spinor_up_to_phase(matched_field):
    # the s=+1, negative-branch state at n=2 from the dense null space
    idx = LandauIndex(n=2, k_z=0.0, epsilon=-1, s=+1)
    ham = oracle.build(30, matched_field, k_z=0.0)
    assert spinor_check(idx, ham) < 1e-12


def test_evolution_starts_at_origin(critical_field, packet_2p1, coeffs_2p1):
    times = np.linspace(0.0, 5.0, 21)
    evo = oracle.evolve_expectations(
        packet_2p1, critical_field, times, n_levels=coeffs_2p1.n_max + 20
    )
    assert abs(evo.x[0]) < 1e-12
    assert abs(evo.y[0]) < 1e-12
    assert abs(evo.vx[0]) < 1e-12
    assert abs(evo.vy[0]) < 1e-12


def test_position_operator_offset(critical_field, packet_2p1, coeffs_2p1):
    times = np.linspace(0.0, 2.0, 9)
    evo = oracle.evolve_expectations(
        packet_2p1, critical_field, times, n_levels=coeffs_2p1.n_max + 20
    )
    y0 = -packet_2p1.k0x * critical_field.magnetic_length**2
    assert math.isclose(evo.y_operator_initial, y0, rel_tol=1e-9, abs_tol=1e-10)
    assert math.isclose(evo.guiding_shift, -y0, rel_tol=1e-9, abs_tol=1e-10)


def test_conservation_laws(critical_field, packet_2p1, coeffs_2p1):
    times = np.linspace(0.0, 50.0, 33)
    evo = oracle.evolve_expectations(
        packet_2p1, critical_field, times, n_levels=coeffs_2p1.n_max + 20
    )
    assert evo.norm_drift < 1e-12
    assert evo.energy_drift < 1e-12


def test_truncation_leak_refused(critical_field):
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, k0x=0.9, dimensionality="2+1")
    times = np.linspace(0.0, 1.0, 3)
    with pytest.raises(oracle.TruncationLeakError):
        oracle.evolve_expectations(pkt, critical_field, times, n_levels=15)


@pytest.fixture(scope="module")
def axial_packet(critical_field):
    # k0z = 0: the integrand is even in k_z, the case a symmetric grid's
    # even-index half cannot check
    pkt = GaussianPacket(d_x=1.2, d_y=1.0, d_z=1.8, k0x=0.5, dimensionality="3+1")
    return pkt, coefficient_matrix(pkt, critical_field)


def test_3p1_short_window_matches_series(critical_field, axial_packet):
    # 100 t_c: the window where a Gauss-Hermite k_z rule of 512 nodes missed
    # the series by 1.7e-3
    pkt, coeffs = axial_packet
    times = np.linspace(0.0, 100.0, 11)
    traj = dynamics.trajectory_3p1(pkt, coeffs, critical_field, times)
    evo = oracle.evolve_expectations(pkt, critical_field, times, n_levels=coeffs.n_max + 20)
    scale = max(np.max(np.abs(evo.x)), np.max(np.abs(evo.y)))
    assert max(np.max(np.abs(traj.x - evo.x)), np.max(np.abs(traj.y - evo.y))) / scale < 1e-6
    assert max(np.max(np.abs(traj.vx - evo.vx)), np.max(np.abs(traj.vy - evo.vy))) < 1e-6
    assert evo.kz_residual < 1e-6


def test_coarse_axial_rule_trips_the_residual(critical_field, axial_packet):
    pkt, coeffs = axial_packet
    times = np.linspace(0.0, 100.0, 3)
    evo = oracle.evolve_expectations(
        pkt, critical_field, times, n_levels=coeffs.n_max + 20, kz_order=128
    )
    assert evo.kz_residual > 1e-4


def test_2p1_has_no_axial_residual(critical_field, packet_2p1, coeffs_2p1):
    times = np.linspace(0.0, 2.0, 9)
    evo = oracle.evolve_expectations(
        packet_2p1, critical_field, times, n_levels=coeffs_2p1.n_max + 20
    )
    assert evo.kz_residual == 0.0


def test_window_beyond_the_node_cap_raises(critical_field, axial_packet):
    pkt, coeffs = axial_packet
    times = np.linspace(0.0, 5.0e6, 16)
    with pytest.raises(dynamics.QuadratureConvergenceError) as info:
        oracle.evolve_expectations(pkt, critical_field, times, n_levels=coeffs.n_max + 20)
    assert info.value.nodes_needed > dynamics.MAX_GRID_NODES


def deviation(evo, ref):
    """|evo - ref| in kz_residual's units: positions relative to evo's max(|x|, |y|),
    velocities in c."""
    scale = max(np.max(np.abs(evo.x)), np.max(np.abs(evo.y)))
    pos = max(np.max(np.abs(evo.x - ref.x)), np.max(np.abs(evo.y - ref.y))) / scale
    return max(pos, np.max(np.abs(evo.vx - ref.vx)), np.max(np.abs(evo.vy - ref.vy)))


def automatic_rule(pkt, field, times, n_levels):
    """(node count of the oracle's automatic k_z rule, the call's expectations)."""
    sizes, grid = [], packet_mod.axial_grid

    def spy(packet, points):
        sizes.append(points)
        return grid(packet, points)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(packet_mod, "axial_grid", spy)
        evo = oracle.evolve_expectations(pkt, field, times, n_levels=n_levels)
    return sizes[0], evo


def test_automatic_axial_rule_is_the_fewest_nodes_under_the_bound(critical_field, axial_packet):
    # the critical-field blocks have S1 = 0, S2 = 1 and S0 = 1 + omega^2 n: the
    # strip ends at the zero k = i of E_0^2, and the linked pairs' largest slope
    # is k (1/E_0 + 1/E_1) at the grid's edge k = AXIAL_HALF_WIDTH/d_z.  d_z = 1.8
    # exceeds sqrt(ln(2/KZ_ALIAS)), so y sits at the strip's edge and 2 pi/h - v t
    # must reach ln(2/KZ_ALIAS) + d_z^2.  Over 200 t_c that is 462 nodes (the
    # series takes 512)
    pkt, coeffs = axial_packet
    edge = packet_mod.AXIAL_HALF_WIDTH / pkt.d_z
    slope = edge * (1.0 / math.hypot(1.0, edge) + 1.0 / math.hypot(1.0, critical_field.omega, edge))

    def bound(t_max):
        tail = math.log(2.0 / oracle.KZ_ALIAS) + pkt.d_z**2
        return packet_mod.AXIAL_HALF_WIDTH / (math.pi * pkt.d_z) * (slope * t_max + tail)

    times = np.linspace(0.0, 200.0, 3)
    nodes, evo = automatic_rule(pkt, critical_field, times, coeffs.n_max + 20)
    # the bound asks for 462; the nested subgrids' top level L = 4 rounds K up to 2^L
    assert math.ceil(bound(200.0)) == 462 and nodes == 464
    assert evo.kz_residual <= 1e-6
    # k0z = 0: the rule is sized signed and then folded, as an explicit one is, which
    # sums every line on all its nodes
    explicit = oracle.evolve_expectations(pkt, critical_field, times, n_levels=coeffs.n_max + 20,
                                          kz_order=nodes)
    assert deviation(evo, explicit) <= evo.kz_residual
    with pytest.raises(dynamics.QuadratureConvergenceError) as info:
        oracle.evolve_expectations(pkt, critical_field, np.linspace(0.0, 5.0e6, 16),
                                   n_levels=coeffs.n_max + 20)
    assert info.value.nodes_needed == math.ceil(bound(5.0e6))


@pytest.mark.parametrize("kz_order", [2, 8])
def test_explicit_small_axial_rule_runs_and_reports_its_aliasing(critical_field, axial_packet,
                                                                   kz_order):
    # an explicit rule is summed as given, however coarse: 2 nodes is the
    # bench's warm-up rule.  Its bound reads far above the gate
    pkt, coeffs = axial_packet
    evo = oracle.evolve_expectations(pkt, critical_field, np.linspace(0.0, 1.0, 3),
                                     n_levels=coeffs.n_max + 20, kz_order=kz_order)
    assert all(np.all(np.isfinite(v)) for v in (evo.x, evo.y, evo.vx, evo.vy))
    assert 1e-6 < evo.kz_residual < np.inf


@pytest.mark.parametrize("kz_order", [0, -4, 2.5])
def test_explicit_axial_rule_must_be_a_positive_integer(critical_field, axial_packet, kz_order):
    # 0 divided by zero, -4 failed a numpy reduction, and 2.5 ran a 3-node grid
    pkt, coeffs = axial_packet
    with pytest.raises(ValueError, match="kz_order"):
        oracle.evolve_expectations(pkt, critical_field, np.linspace(0.0, 1.0, 3),
                                   n_levels=coeffs.n_max + 20, kz_order=kz_order)


def test_components_recover_permuted_blocks():
    # a symmetric block-diagonal matrix of mixed block sizes, rows permuted
    rng = np.random.default_rng(7)
    sizes = [3, 1, 4, 2, 5, 1, 2, 4]
    mat = np.zeros((sum(sizes), sum(sizes)))
    start = 0
    for n in sizes:
        blk = rng.uniform(0.5, 1.5, (n, n))
        mat[start : start + n, start : start + n] = blk + blk.T
        start += n
    perm = rng.permutation(mat.shape[0])
    index, mask = oracle._components(*np.nonzero(mat[np.ix_(perm, perm)]), mat.shape[0])
    found = [row[keep] for row, keep in zip(index, mask)]
    inverse = np.argsort(perm)    # where each original index landed
    starts = np.cumsum([0] + sizes[:-1])
    expected = sorted((np.sort(inverse[s : s + n]) for s, n in zip(starts, sizes)),
                      key=lambda b: b[0])
    assert [b.tolist() for b in found] == [b.tolist() for b in expected]


@pytest.mark.parametrize("k_z", [0.0, 0.4, -1.7])
def test_block_stacks_rebuild_the_hamiltonian(matched_field, k_z):
    # H_0 and H_z scattered back from their block stacks through `index` give the
    # dense build exactly: every element lies in the block its own edge defines,
    # and none is lost
    index, mask, label, slot, pencil = oracle._block_pencil(6, matched_field)
    assert sorted(mask.sum(axis=1)) == [2, 2] + [4] * 6
    assert np.array_equal(index[label, slot], np.arange(label.size))
    inside = mask[:, :, None] & mask[:, None, :]
    block, i, j = np.nonzero(inside)
    matrix = np.zeros((label.size, label.size))
    matrix[index[block, i], index[block, j]] = (pencil[1] + k_z * pencil[2])[inside]
    assert np.array_equal(matrix, oracle.build(6, matched_field, k_z=k_z).matrix)
    assert not np.any((pencil[1:] != 0) & ~inside)


def dense_operators(pkt, field, n_levels):
    """Dense rho = integral dk_x |c><c|, A = 1 (x) a and alpha_x + i alpha_y."""
    size = n_levels + 1
    k_nodes, log_w = packet_mod.kx_rule(pkt, field, n_levels)
    weighted = packet_mod.f_table(pkt, field, n_levels, k_nodes) * np.exp(0.5 * log_w)
    amps = np.array([pkt.a1, pkt.a2, 0.0, 0.0])
    rho = np.kron(np.outer(amps, amps.conj()), weighted @ weighted.T)
    a_op = np.kron(np.eye(4), np.diag(np.sqrt(np.arange(1.0, size)), 1))
    raise_spin = np.zeros((4, 4))
    raise_spin[0, 3] = raise_spin[2, 1] = 2.0
    return rho, a_op, np.kron(raise_spin, np.eye(size))


def dense_reference(pkt, field, times, n_levels, kz_order=None):
    """Dense evolution: eigh of the full matrix, d x d operator transforms.

    The oracle's former propagation, kept here as a reference for the block
    path: rho and both observables as dense Kronecker products, one
    eigendecomposition per k_z node, expectation values from
    sum_ij rho_ji q_ij e^{i (E_i - E_j) t}.
    """
    rho, a_op, v_op = dense_operators(pkt, field, n_levels)
    if pkt.dimensionality == "2+1":
        nodes, weights = [0.0], [1.0]
    else:
        nodes, weights = packet_mod.axial_grid(pkt, kz_order)
    alpha, vel = np.zeros((2, times.size), dtype=complex)
    alpha0 = 0.0
    for k_z, wk in zip(nodes, weights):
        evals, vecs = np.linalg.eigh(oracle.build(n_levels, field, k_z=k_z).matrix)
        p_rho = vecs.T @ rho @ vecs
        phases = np.exp(-1j * np.outer(evals, times))
        for op, out in ((a_op, alpha), (v_op, vel)):
            w = p_rho.T * (vecs.T @ op @ vecs)
            out += wk * np.sum(np.conj(phases) * (w @ phases), axis=0)
        alpha0 += wk * np.sum(p_rho.T * (vecs.T @ a_op @ vecs))
    pos = field.magnetic_length * math.sqrt(2.0) * (alpha - alpha0)
    return pos.imag, pos.real, vel.real, vel.imag


def assert_matches_dense(evo, ref, rtol=1e-12):
    x, y, vx, vy = ref
    pos_scale = max(np.max(np.abs(x)), np.max(np.abs(y)))
    vel_scale = max(np.max(np.abs(vx)), np.max(np.abs(vy)))
    assert max(np.max(np.abs(evo.x - x)), np.max(np.abs(evo.y - y))) <= rtol * pos_scale
    assert max(np.max(np.abs(evo.vx - vx)), np.max(np.abs(evo.vy - vy))) <= rtol * vel_scale


def test_block_oracle_matches_dense_reference_2p1(matched_field):
    pkt = GaussianPacket(d_x=1.2, d_y=1.0, k0x=0.5, a1=0.6, a2=0.8j, dimensionality="2+1")
    times = np.linspace(0.0, 30.0, 61)
    evo = oracle.evolve_expectations(pkt, matched_field, times, n_levels=10, guard=0)
    assert_matches_dense(evo, dense_reference(pkt, matched_field, times, 10))


EQUAL_AMPS = (math.sqrt(0.5), math.sqrt(0.5) * np.exp(0.7j))
COMPLEX_AMPS = (0.6 * np.exp(0.4j), 0.8 * np.exp(1.9j))


@pytest.mark.parametrize(
    "k0z, kz_order, amps",
    [(0.0, 16, EQUAL_AMPS), (0.0, 33, EQUAL_AMPS), (0.3, 16, EQUAL_AMPS), (0.3, 33, EQUAL_AMPS),
     (0.0, 16, COMPLEX_AMPS), (0.0, 33, COMPLEX_AMPS)],
    ids=["0.0-16", "0.0-33", "0.3-16", "0.3-33", "0.0-16-complex", "0.0-33-complex"],
)
def test_block_oracle_matches_dense_reference_3p1(matched_field, k0z, kz_order, amps):
    # k0z = 0 grids hold the k_z = 0 node, whose pattern is finer, and the
    # oracle folds them onto k_z >= 0: the spin-mixing terms of complex a1, a2
    # that cancel between +-k_z on the dense reference's signed grid must not
    # survive the fold, on an even rule (unpaired edge) and an odd one
    a1, a2 = amps
    pkt = GaussianPacket(d_x=1.2, d_y=1.0, d_z=1.5, k0x=0.5, k0z=k0z,
                         a1=a1, a2=a2, dimensionality="3+1")
    assert (0.0 in packet_mod.axial_grid(pkt, kz_order)[0]) == (k0z == 0.0)
    times = np.linspace(0.0, 10.0, 21)
    evo = oracle.evolve_expectations(pkt, matched_field, times, n_levels=10, guard=0,
                                     kz_order=kz_order)
    assert_matches_dense(evo, dense_reference(pkt, matched_field, times, 10, kz_order))


def test_block_oracle_tracks_extended_precision_in_a_weak_field():
    # 20 T: the positive-energy levels crowd within omega^2 ~ 1e-8 of each
    # other and L sqrt(2) ~ 2e4 magnifies <a>, so float64 rounding shows in
    # x(t).  At one k_z != 0 node, the evolution of the same float64 inputs
    # in 40 digits (4x4 blocks diagonalized in mpmath) is the truth; the
    # block oracle keeps within 1e-11 of the scale (6.4e-13 measured) where the
    # dense reference is off by 1e-7.  The 2mc^2 carrier e^{-it} is split from
    # e^{-i(E-1)t}: phases E t rounded to eps E t would put it 8.7e-9 off
    mpmath = pytest.importorskip("mpmath")
    field = FieldConfig.from_tesla(20.0)
    pkt = GaussianPacket(d_x=2.0e4, d_y=1.8e4, d_z=1.5e4, k0x=3.367308812035271e-05,
                         k0z=2e-4, a1=0.0, a2=1.0, dimensionality="3+1")
    n_levels, times = 46, np.array([0.0, 7000.0, 20000.0])
    evo = oracle.evolve_expectations(pkt, field, times, n_levels=n_levels, kz_order=1)
    (k_z,), (weight,) = packet_mod.axial_grid(pkt, 1)
    ham = oracle.build(n_levels, field, k_z=k_z).matrix
    rho, a_op, _ = dense_operators(pkt, field, n_levels)
    alpha = [mpmath.mpc(0)] * times.size
    with mpmath.workdps(40):
        eig = {}
        for row, keep in zip(*oracle._components(*np.nonzero(ham), len(ham))):
            b = row[keep]
            vals, vecs = mpmath.eigsy(mpmath.matrix(ham[np.ix_(b, b)].tolist()))
            eig[b[0]] = (b, vals, vecs)
        owner = {i: first for first, (b, _, _) in eig.items() for i in b}
        pairs = {(owner[i], owner[j]) for i, j in zip(*np.nonzero(a_op))}

        def transform(mat, bra, ket):    # V_bra^T mat V_ket
            block = mat[np.ix_(eig[bra][0], eig[ket][0])]
            return eig[bra][2].T * mpmath.matrix(block.tolist()) * eig[ket][2]

        for bra, ket in pairs:
            q, r = transform(a_op, bra, ket), transform(rho, ket, bra)
            for k, t in enumerate(times):
                alpha[k] += sum(
                    r[j, i] * q[i, j] * mpmath.expj((eig[bra][1][i] - eig[ket][1][j]) * t)
                    for i in range(q.rows) for j in range(q.cols)
                )
    scale = weight * field.magnetic_length * math.sqrt(2.0)
    x = scale * np.array([float(mpmath.im(a - alpha[0])) for a in alpha])
    assert np.max(np.abs(evo.x - x)) <= 1e-11 * np.max(np.abs(x))


def phase_test_packet(dims):
    amp = math.sqrt(0.5)
    if dims == "2+1":
        return GaussianPacket(d_x=1.2, d_y=1.0, k0x=0.5, a1=0.6, a2=0.8j, dimensionality="2+1")
    return GaussianPacket(d_x=1.2, d_y=1.0, d_z=1.5, k0x=0.5, k0z=0.3,
                          a1=amp, a2=amp * np.exp(0.7j), dimensionality="3+1")


# uniform grids whose float samples miss the anchor + offset product (delta != 0),
# and a geometric grid, which the split must leave to one exp per sample (J = 1)
PHASE_GRIDS = {
    "step-0.1": np.linspace(0.0, 30.0, 301),
    "span-100pi": np.linspace(0.0, 100.0 * np.pi, 127),
    "geometric": np.geomspace(1e-2, 50.0, 40),
}


@pytest.mark.parametrize("dims", ["2+1", "3+1"])
@pytest.mark.parametrize("grid", list(PHASE_GRIDS))
def test_factorized_phases_match_dense_reference(matched_field, grid, dims):
    times = PHASE_GRIDS[grid]
    _, offsets, delta = oracle._split_times(times)
    if grid == "geometric":
        assert offsets.size == 1
    else:
        assert offsets.size == math.ceil(math.sqrt(times.size)) and np.any(delta)
    pkt, kz_order = phase_test_packet(dims), (16 if dims == "3+1" else None)
    evo = oracle.evolve_expectations(pkt, matched_field, times, n_levels=10, guard=0,
                                     kz_order=kz_order)
    assert_matches_dense(evo, dense_reference(pkt, matched_field, times, 10, kz_order))


def test_first_order_phase_correction_over_a_long_window(matched_field):
    # a grid summed step by step, up to omega t = 2200 with lines up to
    # 2E ~ 9 omega: delta reaches 13 eps t_max.  Without the (1 - iE delta)
    # factor the velocities miss the dense reference by 8e-12 of their peak;
    # with it by 4e-13, where the two paths' eigenvalue rounding sets the floor
    times = np.cumsum(np.full(1001, 2.2)) - 2.2
    _, offsets, delta = oracle._split_times(times)
    assert offsets.size > 1
    assert np.max(np.abs(delta)) > 10 * np.finfo(float).eps * times[-1]
    pkt = phase_test_packet("2+1")
    evo = oracle.evolve_expectations(pkt, matched_field, times, n_levels=10, guard=0)
    assert_matches_dense(evo, dense_reference(pkt, matched_field, times, 10))


@pytest.mark.parametrize("dims", ["2+1", "3+1"])
def test_drifts_read_the_phase_table(matched_field, monkeypatch, dims):
    # a residual delta off by 1e-6 gives the factor (1 - iE delta) a modulus of
    # sqrt(1 + E^2 1e-12): the sums take that table, and the drifts must see it
    times = PHASE_GRIDS["step-0.1"]
    pkt, kz_order = phase_test_packet(dims), (16 if dims == "3+1" else None)

    def run():
        return oracle.evolve_expectations(pkt, matched_field, times, n_levels=10, guard=0,
                                          kz_order=kz_order)

    assert run().norm_drift < 1e-13
    real_split = oracle._split_times

    def shifted_split(t):
        anchors, offsets, delta = real_split(t)
        return anchors, offsets, delta + 1e-6

    monkeypatch.setattr(oracle, "_split_times", shifted_split)
    evo = run()
    assert evo.norm_drift > 1e-12 and evo.energy_drift > 1e-12


@pytest.mark.parametrize("dims", ["2+1", "3+1"])
def test_drifts_cover_every_offset_column(matched_field, monkeypatch, dims):
    # on the 101-sample certify grid (J = 11 offsets) a delta shifted only on
    # the last offset column, samples k = 10, 21, ..., 98, must show in both
    # drifts: a probe of every twelfth sample never reads that column
    times = np.linspace(0.0, 200.0, 101)
    n_offsets = oracle._split_times(times)[1].size
    assert n_offsets == 11
    pkt, kz_order = phase_test_packet(dims), (16 if dims == "3+1" else None)
    real_split = oracle._split_times

    def shifted_split(t):
        anchors, offsets, delta = real_split(t)
        return anchors, offsets, delta + 1e-6 * (np.arange(t.size) % n_offsets == n_offsets - 1)

    monkeypatch.setattr(oracle, "_split_times", shifted_split)
    evo = oracle.evolve_expectations(pkt, matched_field, times, n_levels=10, guard=0,
                                     kz_order=kz_order)
    assert evo.norm_drift > 1e-12 and evo.energy_drift > 1e-12


def test_phases_cost_anchors_plus_offsets(matched_field, monkeypatch):
    # per k_z node each block takes e^{-iEJh} and e^{-iEh}, plus e^{-iE t_0} off
    # t = 0, and its anchor and offset phases follow by repeated products: a
    # silent fallback to one exp per anchor or per offset, or per sample (a
    # split tolerance too tight, say), or per eigenvalue fails.  Every node
    # weighs: the 16 signed nodes run, and for a k0z = 0 packet the K//2 + 1 = 9
    # folded ones, so a fold that falls back to the signed nodes fails.  A
    # geometric grid takes one exp per sample
    kz_order, n_levels = 16, 10
    uniform = PHASE_GRIDS["step-0.1"]
    assert np.any(oracle._split_times(uniform)[2])
    signed = phase_test_packet("3+1")
    folded = dataclasses.replace(signed, k0z=0.0)
    real_exp = np.exp
    nodes, weights = packet_mod.axial_grid(signed, kz_order)
    assert np.all(weights > 0.0)
    node_counts = [(signed, kz_order), (folded, kz_order // 2 + 1)]
    edge = oracle.build(n_levels, matched_field, k_z=nodes[np.argmax(np.abs(nodes))])
    blocks = len(oracle._components(*np.nonzero(edge.matrix), edge.dimension)[0])
    geometric = PHASE_GRIDS["geometric"]
    # one phase per block, not per eigenvalue: e^{+iEt} is the conjugate of e^{-iEt}
    for times, per_block in ((uniform, 2), (uniform + 5.0, 3), (geometric, geometric.size)):
        for pkt, node_count in node_counts:
            counted = []

            def counting_exp(x, *args, **kwargs):
                if np.iscomplexobj(x):
                    counted.append(np.size(x))
                return real_exp(x, *args, **kwargs)

            monkeypatch.setattr(oracle.np, "exp", counting_exp)
            oracle.evolve_expectations(pkt, matched_field, times, n_levels=n_levels, guard=0,
                                       kz_order=kz_order)
            monkeypatch.undo()
            assert 0 < sum(counted) <= node_count * blocks * per_block


def test_pencil_reproduces_the_build_at_every_node(matched_field):
    # H_0 + k_z H_z from two builds equals the build at each node exactly,
    # the k_z = 0 node and the unpaired edge node included
    pkt = GaussianPacket(d_x=1.2, d_y=1.0, d_z=1.5, k0x=0.5, dimensionality="3+1")
    nodes = packet_mod.axial_grid(pkt, 16)[0]
    assert 0.0 in nodes and -nodes[0] > np.max(nodes)
    h_0 = oracle.build(10, matched_field).matrix
    h_z = oracle.build(10, matched_field, k_z=1.0).matrix - h_0
    for k_z in nodes:
        assert np.array_equal(h_0 + k_z * h_z, oracle.build(10, matched_field, k_z=k_z).matrix)


@pytest.mark.parametrize("dims", ["2+1", "3+1"])
def test_one_element_list_per_call(matched_field, monkeypatch, dims):
    # H_0 and H_z, whatever the number of k_z nodes, and no dense build
    calls = []
    real_elements = oracle._elements

    def counting_elements(*args):
        calls.append(args)
        return real_elements(*args)

    def no_build(*args, **kwargs):
        raise AssertionError("the oracle built a dense Hamiltonian")

    monkeypatch.setattr(oracle, "_elements", counting_elements)
    monkeypatch.setattr(oracle, "build", no_build)
    pkt, kz_order = phase_test_packet(dims), (16 if dims == "3+1" else None)
    oracle.evolve_expectations(pkt, matched_field, np.linspace(0.0, 10.0, 21), n_levels=10,
                               guard=0, kz_order=kz_order)
    assert calls == [(10, matched_field)]


def patched_build(monkeypatch, change):
    """Let change(matrix, k_z) edit the pencil of every `oracle._elements` list for the
    rest of a test: the dense H at k_z = 0 and 1, rebuilt from the real elements and
    changed, give back H_0 = H(0) and H_z = H(1) - H(0) as their nonzeros."""
    real_elements = oracle._elements

    def elements(n_levels, field):
        rows, cols, h_0, h_z = real_elements(n_levels, field)
        dense = np.zeros((2, 4 * (n_levels + 1), 4 * (n_levels + 1)))
        for matrix, k_z in zip(dense, (0.0, 1.0)):
            matrix[rows, cols] = h_0 + k_z * h_z
            change(matrix, k_z)
        h_0, h_z = dense[0], dense[1] - dense[0]
        rows, cols = np.nonzero((h_0 != 0) | (h_z != 0))
        return rows, cols, h_0[rows, cols], h_z[rows, cols]

    monkeypatch.setattr(oracle, "_elements", elements)


def scale_mass_entry(matrix, k_z):
    matrix[0, 0] *= 1.001    # same pattern, but that block's square is no longer scalar


def unsigned_axial_term(matrix, k_z):
    # k_z sigma_z -> k_z 1 in the spin block: H_z^2 = I and H_0^2 stay scalar,
    # but H_0 H_z + H_z H_0 does not, so only the check on S1 can see it
    size = matrix.shape[0] // 4
    matrix[size : 2 * size, 3 * size :] *= -1.0
    matrix[3 * size :, size : 2 * size] *= -1.0


def scale_mass_term(matrix, k_z):
    # every block still squares to a scalar, but the mass term beta squares to
    # 1.002001 I, so S0 - 1 is not tr(V^2)/w for V = H_0 - beta
    np.fill_diagonal(matrix, 1.001 * np.diag(matrix))


@pytest.mark.parametrize("change", [scale_mass_entry, unsigned_axial_term, scale_mass_term])
@pytest.mark.parametrize("dims", ["2+1", "3+1"])
def test_block_that_does_not_square_to_a_scalar_raises(matched_field, monkeypatch, change, dims):
    patched_build(monkeypatch, change)
    pkt, kz_order = phase_test_packet(dims), (16 if dims == "3+1" else None)
    with pytest.raises(ValueError, match="square"):
        oracle.evolve_expectations(pkt, matched_field, np.linspace(0.0, 10.0, 21),
                                   n_levels=10, guard=0, kz_order=kz_order)


def split_level_three(matrix, k_z):
    # no field coupling of levels 3 and 4: the block (0, 3), (2, 3), (1, 4), (3, 4)
    # of (spinor row, level) splits into two that each still square to a scalar,
    # and the position's pair (0, 3) -> (0, 4) then has no transposed velocity pair
    size = matrix.shape[0] // 4
    for i, j in ((3, 3 * size + 4), (size + 4, 2 * size + 3)):
        matrix[i, j] = matrix[j, i] = 0.0


@pytest.mark.parametrize("dims", ["2+1", "3+1"])
def test_velocity_that_does_not_link_the_position_pairs_transposed_raises(matched_field,
                                                                         monkeypatch, dims):
    # both operators run on the position's pair table, which holds only if the
    # velocity links exactly the position's block pairs, transposed
    patched_build(monkeypatch, split_level_three)
    pkt, kz_order = phase_test_packet(dims), (16 if dims == "3+1" else None)
    with pytest.raises(ValueError, match="transposed"):
        oracle.evolve_expectations(pkt, matched_field, np.linspace(0.0, 10.0, 21),
                                   n_levels=10, guard=0, kz_order=kz_order)


def test_square_linear_in_k_z_matches_dense_reference(matched_field, monkeypatch):
    # the physical pencil has S1 = 0, so E^2 has no term linear in k_z; every
    # node shifted by 1/4 gives e1 != 0, and the block path must follow it.
    # E is then not even in k_z, so a k0z = 0 packet must keep the signed grid
    real_elements = oracle._elements

    def shifted(n_levels, field):    # H_0 + (k_z + 1/4) H_z, for the oracle and `build`
        rows, cols, h_0, h_z = real_elements(n_levels, field)
        return rows, cols, h_0 + 0.25 * h_z, h_z

    monkeypatch.setattr(oracle, "_elements", shifted)
    times = np.linspace(0.0, 10.0, 21)
    signed = phase_test_packet("3+1")
    for pkt in (signed, dataclasses.replace(signed, k0z=0.0)):
        evo = oracle.evolve_expectations(pkt, matched_field, times, n_levels=10, guard=0,
                                         kz_order=16)
        assert_matches_dense(evo, dense_reference(pkt, matched_field, times, 10, 16))


@pytest.mark.parametrize("dims", ["2+1", "3+1"])
def test_block_path_runs_without_eigh(matched_field, monkeypatch, dims):
    def no_eigh(*args, **kwargs):
        raise AssertionError("the oracle diagonalized a block")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    pkt, kz_order = phase_test_packet(dims), (16 if dims == "3+1" else None)
    evo = oracle.evolve_expectations(pkt, matched_field, np.linspace(0.0, 10.0, 21),
                                     n_levels=10, guard=0, kz_order=kz_order)
    assert evo.norm_drift < 1e-13 and evo.energy_drift < 1e-13


def series_deviation(traj, evo):
    """Positions relative to the oracle's peak, velocities in c.  The peak is
    floored at 1e-6 lambda_c: a packet with no transverse motion (k0x = 0 and
    one spinor component) has a peak of pure rounding."""
    scale = max(np.max(np.abs(evo.x)), np.max(np.abs(evo.y)), 1e-6)
    pos = max(np.max(np.abs(traj.x - evo.x)), np.max(np.abs(traj.y - evo.y))) / scale
    return max(pos, np.max(np.abs(traj.vx - evo.vx)), np.max(np.abs(traj.vy - evo.vy)))


def field_and_phase_packets(kappa, d_x, k0x, theta, phase, d_y=1.25, k0z=0.4):
    """2+1 and 3+1 packets of widths and momenta in units of L, complex spinor
    amplitudes with relative phase `phase`, and the 2+1 packet's coefficients."""
    field = FieldConfig.from_kappa(kappa)
    L = field.magnetic_length
    amps = dict(a1=math.cos(theta) * np.exp(0.4j), a2=math.sin(theta) * np.exp(1j * (0.4 + phase)))
    shape = dict(d_x=d_x * L, d_y=d_y * L, k0x=k0x / L, relax_momentum_bound=True, **amps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # k0x beyond the nominal velocity bound
        flat = GaussianPacket(dimensionality="2+1", **shape)
        axial = GaussianPacket(d_z=1.5 * L, k0z=k0z / L, dimensionality="3+1", **shape)
    return field, flat, axial, coefficient_matrix(flat, field)


D_X = st.one_of(
    st.floats(min_value=0.5, max_value=0.95),                               # narrow
    st.floats(min_value=-1e-6, max_value=1e-6).map(lambda eps: 1.0 + eps),  # equal
    st.floats(min_value=1.05, max_value=2.5),                               # wide
)


@settings(max_examples=20, deadline=None)
@given(
    kappa=st.floats(min_value=math.log(1e-4), max_value=math.log(20.0)).map(math.exp),
    d_x=D_X,
    k0x=st.floats(min_value=0.0, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=0.5 * math.pi),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    d_y=D_X,
    k0z=st.sampled_from([0.0, 0.4]),
)
# the oracle's automatic rule is the ceiling of its aliasing bound, one node at a
# time; for this 5 t_c window it crosses 64 nodes (the series' floor) at kappa
# 0.5813 (k0z = 0) and 0.5787 (k0z = 0.4), bisected.  Just below, its 64 nodes
# meet KZ_ALIAS with no slack; just above, it takes 65.  The derandomized draws
# cluster at kappa = 1
@example(kappa=0.575, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.0)
@example(kappa=0.575, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.4)
@example(kappa=0.585, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.0)
@example(kappa=0.585, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.4)
# just below and above the kappa where the series' aliasing bound for this
# 5 t_c window crosses 32 nodes (0.0851 at k0z = 0.4, 0.0892 at k0z = 0), below
# which the 64-node floor covers its half; and on either side of its rule's
# crossings from 64 to 80 nodes (kappa 0.607-0.610) and from 128 to 160
# (kappa 2.636-2.644), at both k0z
@example(kappa=0.083, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.0)
@example(kappa=0.083, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.4)
@example(kappa=0.092, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.0)
@example(kappa=0.092, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.4)
@example(kappa=0.60, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.0)
@example(kappa=0.60, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.4)
@example(kappa=0.62, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.0)
@example(kappa=0.62, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.4)
@example(kappa=2.62, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.0)
@example(kappa=2.62, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.4)
@example(kappa=2.66, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.0)
@example(kappa=2.66, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.25, k0z=0.4)
# the first component alone (series rows from pair 1 on), and a relative phase
# that gives the spin-mixing rows a weight with real and imaginary parts
@example(kappa=0.2, d_x=1.0, k0x=0.7, theta=0.0, phase=1.5708, d_y=1.25, k0z=0.4)
@example(kappa=0.6, d_x=1.0, k0x=0.7, theta=0.6435, phase=0.5, d_y=1.25, k0z=0.4)
# narrow (d_y = 0.5 L) and equal (d_y = L) widths in the kappa 0.2-0.6 band: the
# oracle shares no line code with the series, so these check the interband
# lines summed on their 2 mc^2 carrier
@example(kappa=0.2, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=0.5, k0z=0.0)
@example(kappa=0.2, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=0.5, k0z=0.4)
@example(kappa=0.6, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=0.5, k0z=0.0)
@example(kappa=0.6, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=0.5, k0z=0.4)
@example(kappa=0.2, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.0, k0z=0.0)
@example(kappa=0.2, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.0, k0z=0.4)
@example(kappa=0.6, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.0, k0z=0.0)
@example(kappa=0.6, d_x=1.0, k0x=0.7, theta=0.6435, phase=1.5708, d_y=1.0, k0z=0.4)
def test_oracle_matches_series_over_field_and_spinor_phase(kappa, d_x, k0x, theta, phase,
                                                           d_y, k0z):
    # the oracle's aliasing bound is held to the 1e-6 gate of `oracle-check`, and
    # its rule to the series at 1e-8.  k0z = 0 runs both sides folded, with the
    # spin-mixing terms of complex a1, a2 cancelled rather than summed
    field, flat, axial, coeffs = field_and_phase_packets(kappa, d_x, k0x, theta, phase,
                                                         d_y, k0z)
    times = np.linspace(0.0, 20.0, 41)
    evo = oracle.evolve_expectations(flat, field, times, n_levels=coeffs.n_max + 20)
    assert series_deviation(dynamics.trajectory_2p1(flat, coeffs, field, times), evo) < 1e-8
    times = np.linspace(0.0, 5.0, 11)
    evo = oracle.evolve_expectations(axial, field, times, n_levels=coeffs.n_max + 20)
    assert series_deviation(dynamics.trajectory_3p1(axial, coeffs, field, times), evo) < 1e-8
    assert evo.kz_residual <= 1e-6


def twice_the_nodes_deviation(pkt, field, times, n_levels, times_nodes=2):
    """(automatic rule's nodes, its kz_residual, |S_K - S_2K| in kz_residual's units),
    or against `times_nodes` times K."""
    nodes, evo = automatic_rule(pkt, field, times, n_levels)
    fine = oracle.evolve_expectations(pkt, field, times, n_levels=n_levels,
                                      kz_order=times_nodes * nodes)
    return nodes, evo.kz_residual, deviation(evo, fine)


@pytest.mark.parametrize("name, nodes", [
    ("relativistic_3p1", 464), ("collapse_revival_3p1", 2304), ("mixing_3p1", 116),
    ("lowfield_zb_3p1", 20),
])
def test_automatic_axial_rule_is_within_its_bound_of_twice_its_nodes(name, nodes):
    # the bound kz_residual reports covers the rule against twice its nodes, and
    # meets the 1e-6 gate of `oracle-check`, on every bundled 3+1 config.  On the
    # critical-field window of criterion 2 the bound asks for 462 nodes, which the
    # nested subgrids round up to 464 (462 -> 464, 2298 -> 2304, 113 -> 116; the 20 of
    # lowfield_zb_3p1 gains no level).  Every fourth sample keeps each window, and so
    # its rule, at a quarter of the cost
    cfg = cli.load_config(str(CONFIG_DIR / f"{name}.json"))
    field, _, pkt, num, coeffs = cli._build_everything(cfg)
    found, residual, deviation = twice_the_nodes_deviation(
        pkt, field, cli.resolve_times(cfg)[::4], coeffs.n_max + num["oracle_guard"])
    assert found == nodes
    assert residual <= 1e-6
    assert deviation <= residual


def _random_axial_packets(count, seed=2026):
    """3+1 packets and windows drawn in the ranges of the series' random sweep
    (`test_dynamics::test_accepted_axial_rule_is_within_kz_rtol_of_four_times_its_nodes`)."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        kappa = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
        d_z = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        k0z = 0.0 if rng.random() < 0.5 else rng.uniform(-0.8, 0.8)
        t_max = math.exp(rng.uniform(0.0, math.log(200.0)))
        k0x, theta = rng.uniform(0.05, 0.9), rng.uniform(0.0, 0.5 * math.pi)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        cases.append((kappa, d_z, k0z, t_max, k0x, theta, phase))
    return cases


@pytest.mark.parametrize("kappa, d_z, k0z, t_max, k0x, theta, phase", _random_axial_packets(30),
                         ids=[f"packet{i}" for i in range(30)])
def test_automatic_axial_rule_is_within_its_bound_over_random_packets(kappa, d_z, k0z, t_max,
                                                                      k0x, theta, phase):
    # widths and momenta in units of L, 41 samples of [0, t_max]
    field = FieldConfig.from_kappa(kappa)
    L = field.magnetic_length
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # momenta beyond the nominal velocity bound
        pkt = GaussianPacket(d_x=1.2 * L, d_y=1.4 * L, d_z=d_z * L, k0x=k0x / L, k0z=k0z / L,
                             a1=math.cos(theta), a2=math.sin(theta) * np.exp(1j * phase),
                             dimensionality="3+1", relax_momentum_bound=True)
    n_levels = coefficient_matrix(pkt, field).n_max + 20
    _, residual, deviation = twice_the_nodes_deviation(pkt, field, np.linspace(0.0, t_max, 41),
                                                       n_levels)
    assert deviation <= residual <= 1e-6


# the certify benchmark's critical-field packet (configs/relativistic_3p1.json, k0z = 0)
CERTIFY_PACKET = dict(d_x=1.5, d_y=1.5, d_z=1.8, k0x=0.998, a1=0.0, a2=np.exp(0.3j),
                      dimensionality="3+1")


def bundled_call(name):
    """(packet, field, times, levels) of certify's critical-field call (101 samples of
    200 t_c) or of a bundled config's oracle-check call at every fourth sample."""
    if name == "certify":
        field = FieldConfig.from_magnetic_length(1.0)
        pkt = GaussianPacket(**CERTIFY_PACKET)
        return pkt, field, np.linspace(0.0, 200.0, 101), coefficient_matrix(pkt, field).n_max + 20
    cfg = cli.load_config(str(CONFIG_DIR / f"{name}.json"))
    field, _, pkt, num, coeffs = cli._build_everything(cfg)
    return pkt, field, cli.resolve_times(cfg)[::4], coeffs.n_max + num["oracle_guard"]


def automatic_levels(pkt, field, times, n_levels):
    """(the arguments of the call's `_aliasing`, its (K, level, G), the expectations)."""
    seen, real = [], oracle._aliasing

    def spy(*args):
        seen.append((args, real(*args)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_aliasing", spy)
        evo = oracle.evolve_expectations(pkt, field, times, n_levels=n_levels)
    (args, found), = seen
    return args, found, evo


@pytest.mark.parametrize("name", ["certify", "relativistic_3p1", "collapse_revival_3p1",
                                  "mixing_3p1", "lowfield_zb_3p1"])
def test_nested_rules_are_within_their_bound_of_four_times_the_nodes(name):
    # each line sums on the subgrid R_l of its level; the explicit rule of 4K nodes sums
    # every line on all of them.  certify's call puts 45 of its 61 D lines on K/16
    pkt, field, times, n_levels = bundled_call(name)
    _, residual, apart = twice_the_nodes_deviation(pkt, field, times, n_levels, times_nodes=4)
    assert apart <= residual <= 1e-6


def test_each_line_takes_the_coarsest_level_its_bound_meets():
    # on certify's critical-field call: the fewest nodes the steepest S line needs, 462,
    # rounded up to 2^L for the top level L = 4; every line's bound meets KZ_ALIAS on
    # its own subgrid of those 462 and, below the top, fails on the next coarser one
    pkt, field, times, n_levels = bundled_call("certify")
    args, (nodes, level, alias), _ = automatic_levels(pkt, field, times, n_levels)
    strip, v_t, bound = oracle._line_bounds(*args[:5])
    log_g, d_z = math.log(2.0 / oracle.KZ_ALIAS), pkt.d_z
    assert math.sqrt(log_g) > d_z * strip              # y sits at the strip's edge
    need = math.ceil(packet_mod.AXIAL_HALF_WIDTH / (math.pi * d_z)
                     * (np.max(v_t) + log_g / strip + d_z * d_z * strip))
    top = int(level.max())
    assert (need, top, nodes) == (462, 4, 464)
    fits = math.log(oracle.KZ_ALIAS)
    assert np.all(bound(need / 2.0 ** level) <= fits)
    assert np.all(bound(need / 2.0 ** (level + 1))[level < top] > fits)
    # uncapped, a line would take every level it meets; L is the cap of fewest line-nodes
    meets = bound(need / 2.0 ** np.arange(1, 9)[:, None, None]) <= fits
    free = np.sum(np.cumprod(meets, axis=0), axis=0)
    assert np.array_equal(level, np.minimum(free, top))
    cost = [-(-need >> cap) * 2**cap * np.sum(0.5 ** np.minimum(free, cap)) for cap in range(9)]
    assert top == int(np.argmin(cost))
    # 32 S lines meet the bound on half the nodes; every D line is at least as coarse
    assert np.count_nonzero(level[1]) == 32 and np.all(level[0] >= level[1])
    assert np.bincount(level[0]).tolist() == [1, 1, 3, 11, 45]
    assert np.array_equal(alias, np.exp(bound(nodes / 2.0 ** level)))


@pytest.mark.parametrize("omega_sq, root", [(2.0, 1.0), (2.0, 0.7), (1e-8, 1.0)])
def test_intraband_slope_bounds_the_phase_off_the_real_axis(omega_sq, root):
    # E_n = r sqrt(u^2 + 1 + omega^2 n): the critical field, a scaled H_z and a weak field.
    # Over a real line far past the grid, at heights up to 0.99 c, |Im(E_{n+1} - E_n)| stays
    # within y v(y); the real slope |E_{n+1}' - E_n'| does not bound it off the axis
    c_sq = 1.0 + omega_sq * np.arange(41.0)
    floor, gap = c_sq[:-1], np.diff(c_sq)
    x = np.linspace(-60.0, 60.0, 24001)[:, None]
    real = x * root * (1.0 / np.sqrt(x * x + c_sq[1:]) - 1.0 / np.sqrt(x * x + floor))
    for fraction in (0.05, 0.3, 0.6, 0.9, 0.99):
        y = fraction * np.sqrt(floor)
        u = x + 1j * y
        phase = np.max(np.abs((root * (np.sqrt(u * u + c_sq[1:]) - np.sqrt(u * u + floor))).imag),
                       axis=0)
        assert np.all(phase <= y * oracle._intraband_slope(y, floor, gap, np.full(40, root)))
        if fraction == 0.9 and omega_sq == 2.0:
            assert phase[0] > y[0] * np.max(np.abs(real[:, 0]))


def test_coarser_intraband_levels_alias_beyond_the_four_times_rule():
    # every D line forced onto K/8 moves certify's positions far from the 4K rule (2e-3
    # of their scale measured), while its own levels keep within 1e-14: where a line's
    # level sits matters, and the four-times check sees it
    pkt, field, times, n_levels = bundled_call("certify")
    real = oracle._aliasing

    def coarse(*args):
        nodes, level, alias = real(*args)
        return nodes, np.stack([np.full_like(level[0], 3), level[1]]), alias

    fine = oracle.evolve_expectations(pkt, field, times, n_levels=n_levels, kz_order=4 * 464)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_aliasing", coarse)
        forced = oracle.evolve_expectations(pkt, field, times, n_levels=n_levels)
    assert deviation(forced, fine) > 1e-4
    assert deviation(oracle.evolve_expectations(pkt, field, times, n_levels=n_levels), fine) < 1e-13


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.floats(min_value=math.log(1e-3), max_value=math.log(20.0)).map(math.exp),
    d_z=st.floats(min_value=math.log(0.2), max_value=math.log(5.0)).map(math.exp),
    k0z=st.sampled_from([0.0, 0.4, -0.25]),
    t_max=st.floats(min_value=0.0, max_value=math.log(200.0)).map(math.exp),
    start=st.sampled_from([0.0, 0.5]),
    theta=st.floats(min_value=0.0, max_value=0.5 * math.pi),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_nested_rules_hold_their_bound_over_a_sweep(kappa, d_z, k0z, t_max, start, theta, phase):
    # widths and momenta in units of L; windows [start t, (start + 1) t] of 41 samples.
    # Every line on its own level's subgrid stays within kz_residual of the rule with
    # twice the nodes, k0z = 0 folded and k0z != 0 signed, and nothing raises
    field = FieldConfig.from_kappa(kappa)
    L = field.magnetic_length
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # momenta beyond the nominal velocity bound
        pkt = GaussianPacket(d_x=1.2 * L, d_y=1.4 * L, d_z=d_z * L, k0x=0.6 / L, k0z=k0z / L,
                             a1=math.cos(theta), a2=math.sin(theta) * np.exp(1j * phase),
                             dimensionality="3+1", relax_momentum_bound=True)
    n_levels = coefficient_matrix(pkt, field).n_max + 20
    times = t_max * np.linspace(start, start + 1.0, 41)
    _, residual, apart = twice_the_nodes_deviation(pkt, field, times, n_levels)
    assert apart <= residual <= 1e-6


def test_oracle_calls_leave_numpy_ma_unimported():
    # a bare np.unique(x) imports numpy.ma at its first call (1.6 MiB of peak RSS);
    # fresh 3+1 (automatic nested rule, folded) and 2+1 calls must not
    code = """if True:
        import sys
        import numpy as np
        from landauzb import FieldConfig, GaussianPacket, oracle
        field = FieldConfig.from_magnetic_length(1.0)
        axial = GaussianPacket(d_x=1.5, d_y=1.5, d_z=1.8, k0x=0.998, a2=1.0,
                               dimensionality="3+1")
        oracle.evolve_expectations(axial, field, np.linspace(0.0, 200.0, 101), 60)
        flat = GaussianPacket(d_x=1.5, d_y=1.2, k0x=0.5, a1=0.6, a2=0.8)
        oracle.evolve_expectations(flat, field, np.linspace(0.0, 50.0, 33), 40)
        print("numpy.ma" in sys.modules)
    """
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.split() == ["False"]


def test_leak_gate_fails_on_nan(critical_field, monkeypatch):
    # `tail > LEAK_TOL` passed a NaN mass
    density = oracle._density_from_nodes

    def nan_density(*args):
        spin, gram, shift = density(*args)
        return spin, gram * math.nan, shift

    monkeypatch.setattr(oracle, "_density_from_nodes", nan_density)
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, k0x=0.5)
    with pytest.raises(oracle.TruncationLeakError):
        oracle.evolve_expectations(pkt, critical_field, np.linspace(0.0, 1.0, 5), 40)


def test_critical_field_call_stays_within_its_memory(critical_field):
    # the certify benchmark's critical-field pair (configs/relativistic_3p1.json on
    # 101 samples of 200 t_c, 232 folded k_z nodes, d = 244): the chunked tables
    # bound the working set: a pair table per operator peaks at 2.11 MiB, and
    # weights hoisted over every node at 9.8 MiB
    pkt = GaussianPacket(d_x=1.5, d_y=1.5, d_z=1.8, k0x=0.998, a1=0.0,
                         a2=np.exp(0.3j), dimensionality="3+1")
    n_levels = coefficient_matrix(pkt, critical_field).n_max + 20
    times = np.linspace(0.0, 200.0, 101)
    oracle.evolve_expectations(pkt, critical_field, times, n_levels)     # warm caches
    tracemalloc.start()
    try:
        oracle.evolve_expectations(pkt, critical_field, times, n_levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 2**20


def test_set_up_is_linear_in_the_levels():
    # a 2+1 call at 240 levels allocates no (4(N+1))^2 array: the blocks come from
    # the element list, not a dense H_0, H_z and pattern (18.2 MiB traced peak)
    field = FieldConfig.from_magnetic_length(1.0)
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, k0x=0.5, a1=0.6, a2=0.8)
    times = np.linspace(0.0, 200.0, 101)
    oracle.evolve_expectations(pkt, field, times, 240)     # warm caches
    tracemalloc.start()
    try:
        oracle.evolve_expectations(pkt, field, times, 240)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


@pytest.mark.parametrize("t_end", [1e308, 8e307])
def test_phase_overflow_is_a_time_range_error(critical_field, mixed_packet_3p1,
                                              mixed_coeffs_3p1, t_end):
    # E t beyond the float range made every channel NaN; the oracle checks its
    # own block phases, with no help from the series
    times = np.linspace(0.0, t_end, 3)
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, k0x=0.5, a1=0.6, a2=0.8)
    with pytest.raises(TimeRangeError, match="float range"):
        oracle.evolve_expectations(pkt, critical_field, times, 40)
    with pytest.raises(TimeRangeError, match="float range"):
        oracle.evolve_expectations(mixed_packet_3p1, critical_field, times,
                                   mixed_coeffs_3p1.n_max + 20, kz_order=64)


@pytest.mark.parametrize("t_end", [1e200, 1e300])
def test_phases_with_no_correct_digit_are_a_time_range_error(critical_field, t_end):
    # finite block phases whose rounding 2 eps E max|t| passes a radian gave finite
    # channels of no correct digit (deviation 0.70 and 0.10 from the series)
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, k0x=0.5, a1=0.6, a2=0.8)
    with pytest.raises(TimeRangeError, match="more than a radian"):
        oracle.evolve_expectations(pkt, critical_field, np.linspace(0.0, t_end, 3), 40)


@pytest.mark.parametrize("d_z", [1.5e-154, 4.8e-154])
def test_span_squared_overflow_is_a_quadrature_error_unwarned(critical_field, d_z):
    # the oracle's own bound squared the k_z span 6.56/d_z: an overflow warning
    # (an error here) before the QuadratureConvergenceError
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, d_z=d_z, k0x=0.5, dimensionality="3+1")
    with pytest.raises(packet_mod.QuadratureConvergenceError, match="above the cap"):
        oracle.evolve_expectations(pkt, critical_field, np.linspace(0.0, 5.0, 9), 40)
