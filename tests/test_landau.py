import cmath
import math
import warnings

import numpy as np
import pytest

from landauzb import FieldConfig, GaussianPacket, coefficient_matrix, oracle
from landauzb.dynamics import spectral_decomposition
from landauzb.landau import (
    BranchEdgeError,
    LandauIndex,
    heisenberg_ladder_element,
    jl_spinor,
    ladder_matrix_element,
    landau_energies,
    landau_energy,
)
from landauzb.units import COMPTON_TIME
from test_oracle import embedded_spinor


def test_ground_energy_is_rest_energy(critical_field):
    assert landau_energy(0, 0.0, critical_field) == 1.0


def test_energy_at_matched_scale():
    # hbar*omega = mc^2 happens at L = sqrt(2) lambda_c
    field = FieldConfig.from_magnetic_length(math.sqrt(2.0))
    assert math.isclose(landau_energy(1, 0.0, field), math.sqrt(2.0), rel_tol=1e-14)


def test_energy_reference_value():
    # 50-digit evaluation at hbar*omega = 0.7 mc^2, k_z = 0.4
    field = FieldConfig.from_magnetic_length(math.sqrt(2.0) / 0.7)
    ref = 1.621727474022685477424268
    assert math.isclose(landau_energy(3, 0.4, field), ref, rel_tol=1e-14)


def test_energy_monotone(critical_field):
    energies = [landau_energy(n, 0.0, critical_field) for n in range(60)]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    kz = [landau_energy(3, k, critical_field) for k in (0.0, 0.2, 0.5, 0.9)]
    assert all(b > a for a, b in zip(kz, kz[1:]))


def test_square_difference_identity(critical_field):
    for n in range(0, 80, 7):
        for kz in (0.0, 0.3, 0.7):
            lo = landau_energy(n, kz, critical_field)
            hi = landau_energy(n + 1, kz, critical_field)
            assert math.isclose(hi * hi - lo * lo, critical_field.omega**2, rel_tol=1e-12)


def test_energies_table_matches_scalar(critical_field):
    table = landau_energies(20, np.array([0.0, 0.4]), critical_field)
    assert math.isclose(table[7, 1], landau_energy(7, 0.4, critical_field), rel_tol=1e-15)


def test_complex_axial_wavenumbers_give_principal_roots(critical_field):
    # nodes on a rotated k_z contour: each energy is the principal root of
    # 1 + omega^2 n + k_z^2, where a float cast kept only Re k_z (k_z = 0.5 e^{-0.3 i}
    # gave 1.108 and 1.797 with a ComplexWarning); a real table stays bit for bit
    kz = np.array([0.5, 1.0, 1.5]) * np.exp(-1j * np.array([0.3, 0.7, -0.7]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = landau_energies(6, kz, critical_field)
        real = landau_energies(6, kz.real, critical_field)
    assert table.dtype == complex and real.dtype == float
    for n in range(7):
        for k, value in zip(kz, table[n]):
            want = cmath.sqrt(1.0 + critical_field.omega**2 * n + k * k)
            assert abs(value - want) <= 4 * np.finfo(float).eps * abs(want)
    n = np.arange(7.0)[:, None]
    assert real.tobytes() == np.sqrt(1.0 + critical_field.omega**2 * n + kz.real**2).tobytes()
    assert landau_energies(2, 0.5, critical_field).dtype == float


def line_frequencies(field, d_x, d_y, k0x):
    """Intraband and interband line frequencies by level, as the 2+1 series
    (k_z = 0) sums them, for the levels this packet populates."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the high-field packet exceeds |k0| < 1
        pkt = GaussianPacket(d_x=d_x, d_y=d_y, k0x=k0x, relax_momentum_bound=True)
    coeffs = coefficient_matrix(pkt, field)
    lines = spectral_decomposition(pkt, coeffs, field)
    return tuple(
        {line.n: line.frequency for line in lines if line.kind == kind}
        for kind in ("intraband", "interband")
    )


def test_mode_frequencies_low_field_limit():
    field = FieldConfig.from_magnetic_length(1000.0)
    intra, inter = line_frequencies(field, 1000.0, 300.0, 0.005)
    for n in (0, 10, 50):
        omega_c, omega_z = intra[n], inter[n]
        assert math.isclose(omega_c, field.omega_cyclotron, rel_tol=1e-3)
        assert math.isclose(omega_z, 2.0, rel_tol=1e-3)
        assert omega_z > omega_c > 0


def test_interband_frequency_si_value():
    # 2 mc^2 / hbar for the physical electron
    field = FieldConfig.from_magnetic_length(1000.0)
    _, inter = line_frequencies(field, 1000.0, 300.0, 0.005)
    assert math.isclose(inter[0] / COMPTON_TIME, 1.5527e21, rel_tol=1e-3)


def test_mode_frequencies_high_field_limit():
    field = FieldConfig.from_magnetic_length(1e-3)
    omega = field.omega
    intra, inter = line_frequencies(field, 1e-3, 1e-3, 2500.0)
    for n in (1, 4, 9):
        omega_c, omega_z = intra[n], inter[n]
        assert math.isclose(omega_c, omega * (math.sqrt(n + 1) - math.sqrt(n)), rel_tol=1e-5)
        assert math.isclose(omega_z, omega * (math.sqrt(n + 1) + math.sqrt(n)), rel_tol=1e-6)


def test_jl_spinor_ground_state(critical_field):
    w = jl_spinor(LandauIndex(n=0, epsilon=+1, s=-1), critical_field)
    assert np.allclose(w.as_array(), [0.0, 1.0, 0.0, 0.0], atol=1e-14)
    assert w.levels == (-1, 0, -1, 0)


def test_jl_spinor_normalized(critical_field):
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        idx = LandauIndex(
            n=n,
            k_z=float(rng.uniform(-0.8, 0.8)),
            epsilon=int(rng.choice([-1, 1])),
            s=int(rng.choice([-1, 1])),
        )
        w = jl_spinor(idx, critical_field)
        assert math.isclose(np.linalg.norm(w.as_array()), 1.0, rel_tol=1e-12)
        energy = landau_energy(idx.n, idx.k_z, critical_field)
        assert math.isclose(
            w.chi**2, 0.5 + idx.epsilon / (2.0 * energy), rel_tol=1e-12
        )


def test_jl_spinor_branch_edge_rejected(critical_field):
    with pytest.raises(BranchEdgeError):
        jl_spinor(LandauIndex(n=0, k_z=0.0, epsilon=-1, s=-1), critical_field)


def test_jl_spinor_spin_up_needs_level(critical_field):
    with pytest.raises(ValueError):
        jl_spinor(LandauIndex(n=0, epsilon=+1, s=+1), critical_field)


def test_ladder_low_field_cyclotron_element():
    field = FieldConfig.from_magnetic_length(300.0)
    t = 37.0
    for n in (0, 3, 9):
        bra = LandauIndex(n=n, epsilon=+1, s=-1)
        ket = LandauIndex(n=n + 1, epsilon=+1, s=-1)
        elem = ladder_matrix_element(t, bra, ket, field)
        expected = math.sqrt(n + 1) * cmath.exp(-1j * field.omega_cyclotron * t)
        assert elem.allowed
        assert abs(elem.lowering - expected) < 2e-4 * abs(expected)
        assert elem.raising == 0.0


def test_ladder_low_field_interband_amplitude():
    field = FieldConfig.from_magnetic_length(300.0)
    # positive-branch bra, negative-branch ket: amplitude
    # sqrt(hbar omega_c / 2 mc^2), independent of the level
    for n in (0, 5):
        bra = LandauIndex(n=n, epsilon=+1, s=-1)
        ket = LandauIndex(n=n + 1, epsilon=-1, s=-1)
        elem = ladder_matrix_element(0.0, bra, ket, field)
        expected = math.sqrt(field.omega_cyclotron / 2.0)
        assert math.isclose(abs(elem.lowering), expected, rel_tol=2e-3)
    # carrier rotates at twice the rest energy
    t = 0.3
    bra = LandauIndex(n=1, epsilon=+1, s=-1)
    ket = LandauIndex(n=2, epsilon=-1, s=-1)
    base = ladder_matrix_element(0.0, bra, ket, field).lowering
    phase = ladder_matrix_element(t, bra, ket, field).lowering / base
    assert abs(abs(phase) - 1.0) < 1e-12
    assert abs(phase - cmath.exp(2j * t)) < 1e-4


def test_ladder_selection_rules(critical_field):
    bra = LandauIndex(n=2, epsilon=+1, s=-1)
    same = ladder_matrix_element(0.0, bra, LandauIndex(n=2, epsilon=+1, s=-1), critical_field)
    assert not same.allowed and same.lowering == 0.0 and same.raising == 0.0
    far = ladder_matrix_element(0.0, bra, LandauIndex(n=5, epsilon=+1, s=-1), critical_field)
    assert not far.allowed
    offset = ladder_matrix_element(
        0.0, bra, LandauIndex(n=3, k_x=0.2, epsilon=+1, s=-1), critical_field
    )
    assert not offset.allowed


def random_level_pair(rng, n_top=120):
    """Valid (bra, ket) indices obeying the n' = n +- 1 selection rule."""
    n = int(rng.integers(1, n_top))
    dn = int(rng.choice([-1, 1]))
    kz = float(rng.uniform(-0.9, 0.9))

    def spin_for(level):
        s = int(rng.choice([-1, 1]))
        return -1 if (level == 0 and s == +1) else s

    def branch_for(level):
        eps = int(rng.choice([-1, 1]))
        if level == 0 and kz == 0.0 and eps == -1:
            return +1
        return eps

    bra = LandauIndex(n=n, k_z=kz, epsilon=branch_for(n), s=spin_for(n))
    ket = LandauIndex(n=n + dn, k_z=kz, epsilon=branch_for(n + dn), s=spin_for(n + dn))
    return bra, ket


def test_heisenberg_equivalence_random(critical_field):
    rng = np.random.default_rng(11)
    for _ in range(60):
        bra, ket = random_level_pair(rng)
        t = float(rng.uniform(0.0, 50.0))
        explicit = ladder_matrix_element(t, bra, ket, critical_field)
        heis = heisenberg_ladder_element(t, bra, ket, critical_field)
        scale = max(abs(explicit.lowering), abs(explicit.raising), 1e-30)
        assert abs(explicit.lowering - heis.lowering) <= 1e-12 * scale
        assert abs(explicit.raising - heis.raising) <= 1e-12 * scale


@pytest.mark.parametrize("length", [1.0, 3.0, 300.0, 0.01])
def test_ladder_amplitude_matches_dense_operator(length):
    # the t = 0 element against v_bra^dagger (I_4 x a) v_ket (a^dagger when
    # raising), built from the oracle's truncated basis
    field = FieldConfig.from_magnetic_length(length)
    rng = np.random.default_rng(29)
    for _ in range(200):
        bra, ket = random_level_pair(rng, n_top=40)
        lowering = ket.n > bra.n
        ham = oracle.build(max(bra.n, ket.n), field, k_z=bra.k_z)
        a = np.diag(np.sqrt(np.arange(1.0, ham.n_levels + 1)), 1)
        op = np.kron(np.eye(4), a if lowering else a.T)
        dense = embedded_spinor(bra, ham).conj() @ op @ embedded_spinor(ket, ham)
        elem = ladder_matrix_element(0.0, bra, ket, field)
        value, zero = (elem.lowering, elem.raising) if lowering else (elem.raising, elem.lowering)
        assert elem.allowed and zero == 0.0
        assert abs(value - dense) <= 1e-14 * math.sqrt(ham.n_levels)
