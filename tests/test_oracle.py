import math

import numpy as np
import pytest

from landauzb import FieldConfig, GaussianPacket
from landauzb.landau import LandauIndex, jl_spinor, landau_energy
from landauzb import dynamics, oracle
from landauzb.packet import coefficient_matrix


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
        worst = max(worst, oracle.spinor_check(idx, ham))
    assert worst < 1e-10


def test_spinor_residual_ground_state(matched_field):
    ham = oracle.build(30, matched_field, k_z=0.0)
    assert oracle.spinor_check(LandauIndex(n=0, epsilon=+1, s=-1), ham) < 1e-12


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

    size = ham.n_levels + 1
    analytic = []
    for s in (-1, +1):
        w = jl_spinor(LandauIndex(n=n, k_z=k_z, epsilon=eps, s=s), matched_field)
        vec = np.zeros(4 * size, dtype=complex)
        for sigma, (comp, level) in enumerate(zip(w.components, w.levels)):
            if level >= 0:
                vec[sigma * size + level] = comp
        analytic.append(vec)
    analytic = np.stack(analytic, axis=1)
    proj_analytic = analytic @ analytic.T.conj()
    assert np.max(np.abs(proj_dense - proj_analytic)) < 1e-10


def test_eigenvector_matches_spinor_up_to_phase(matched_field):
    # the s=+1, negative-branch state at n=2 from the dense null space
    idx = LandauIndex(n=2, k_z=0.0, epsilon=-1, s=+1)
    ham = oracle.build(30, matched_field, k_z=0.0)
    w = jl_spinor(idx, matched_field)
    size = ham.n_levels + 1
    vec = np.zeros(4 * size, dtype=complex)
    for sigma, (comp, level) in enumerate(zip(w.components, w.levels)):
        if level >= 0:
            vec[sigma * size + level] = comp
    energy = -landau_energy(2, 0.0, matched_field)
    residual = np.linalg.norm(ham.matrix @ vec - energy * vec)
    assert residual < 1e-12


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
