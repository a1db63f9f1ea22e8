import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landauzb import FieldConfig
from landauzb.hermite import CapacityError, gauss_hermite
from landauzb.packet import (
    MAX_GRID_NODES,
    ClosedFormUnavailable,
    DimensionalityError,
    GaussianPacket,
    PacketError,
    QuadratureConvergenceError,
    TruncationError,
    axial_grid,
    axial_ladder,
    coefficient_matrix,
    f_n,
    f_table,
    g_xy,
    g_z,
    kx_rule,
    sum_rules,
    u_closed_equal_width,
    u_closed_general,
)


def test_packet_validation():
    with pytest.raises(PacketError):
        GaussianPacket(d_x=-1.0, d_y=1.0)
    with pytest.raises(PacketError):
        GaussianPacket(d_x=1.0, d_y=1.0, a1=1.0, a2=1.0)  # norm 2
    with pytest.raises(PacketError):
        GaussianPacket(d_x=1.0, d_y=1.0, dimensionality="3+1")  # missing d_z
    with pytest.raises(PacketError):
        GaussianPacket(d_x=1.0, d_y=1.0, k0x=1.5)  # above the velocity bound
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        GaussianPacket(d_x=1.0, d_y=1.0, k0x=1.5, relax_momentum_bound=True)
    assert any("velocity bound" in str(w.message) for w in log)


def test_g_xy_peak_and_width(packet_2p1):
    peak = g_xy(packet_2p1, packet_2p1.k0x, 0.0)
    assert math.isclose(peak, math.sqrt(packet_2p1.d_x / (math.pi * packet_2p1.d_y)),
                        rel_tol=1e-14)
    displaced = g_xy(packet_2p1, packet_2p1.k0x + 1.0 / packet_2p1.d_x, 0.0)
    assert math.isclose(displaced, peak * math.exp(-0.5), rel_tol=1e-13)


def test_g_xy_normalization(packet_2p1):
    # integral |g|^2 dk dy = 1, two nested Gauss-Hermite rules
    rule = gauss_hermite(48)
    kx = packet_2p1.k0x + rule.nodes / packet_2p1.d_x
    y = rule.nodes * packet_2p1.d_y
    vals = g_xy(packet_2p1, kx[:, None], y[None, :]) ** 2
    vals = vals * np.exp(rule.nodes**2)[:, None] * np.exp(rule.nodes**2)[None, :]
    total = rule.weights @ vals @ rule.weights / packet_2p1.d_x * packet_2p1.d_y
    assert math.isclose(total, 1.0, rel_tol=1e-10)


def test_g_z_profile(packet_3p1):
    peak = g_z(packet_3p1, packet_3p1.k0z)
    assert math.isclose(peak, (packet_3p1.d_z**2 / math.pi) ** 0.25, rel_tol=1e-14)
    # normalization and second moment of |g_z|^2
    kz, w = axial_grid(packet_3p1, 64)
    assert math.isclose(w.sum(), 1.0, rel_tol=1e-12)
    second = np.dot(w, (kz - packet_3p1.k0z) ** 2)
    assert math.isclose(second, 1.0 / (2.0 * packet_3p1.d_z**2), rel_tol=1e-12)


def test_axial_grid_nests_under_doubling(mixed_packet_3p1):
    # the even-index nodes with doubled weights are the rule at half the size
    for points in (64, 1024):
        kz, w = axial_grid(mixed_packet_3p1, 2 * points)
        kz_half, w_half = axial_grid(mixed_packet_3p1, points)
        assert np.allclose(kz[::2], kz_half, rtol=0.0, atol=1e-14)
        assert np.allclose(2.0 * w[::2], w_half, rtol=1e-13, atol=0.0)


def test_axial_ladder_doubles_to_the_cap(critical_field, packet_3p1):
    short = axial_ladder(packet_3p1, critical_field, 40, 1.0)
    assert short[0] == 64                       # the floor
    assert short == [64 << i for i in range(11)]
    assert short[-1] == MAX_GRID_NODES
    # 200 t_c of the critical-field packet starts at 1024 nodes
    assert axial_ladder(packet_3p1, critical_field, 40, 200.0)[0] == 1024
    with pytest.raises(QuadratureConvergenceError) as info:
        axial_ladder(packet_3p1, critical_field, 40, 1.0e6)
    assert info.value.nodes_needed > MAX_GRID_NODES
    with pytest.raises(DimensionalityError):
        axial_ladder(GaussianPacket(d_x=1.0, d_y=1.0), critical_field, 40, 1.0)


def test_g_z_rejected_for_2p1(packet_2p1):
    with pytest.raises(DimensionalityError):
        g_z(packet_2p1, 0.0)


def test_level_amplitude_parity_at_equal_width(critical_field):
    pkt = GaussianPacket(d_x=1.3, d_y=1.0, k0x=0.0, dimensionality="2+1")
    for n in (1, 3, 7, 12):
        assert f_n(pkt, critical_field, n, 0.0) == 0.0
        quad = f_n(pkt, critical_field, n, 0.0, method="quadrature")
        assert abs(quad) < 1e-12


def test_level_amplitude_ground_row_at_equal_width_and_zero_momentum(critical_field):
    # n = 0 at k_x = 0 and d_y = L used to evaluate 0 * log 0 and return NaN
    pkt = GaussianPacket(d_x=1.5, d_y=1.0, k0x=0.3, dimensionality="2+1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = f_n(pkt, critical_field, 0, 0.0)
    quad = f_n(pkt, critical_field, 0, 0.0, method="quadrature")
    assert math.isfinite(closed)
    assert abs(closed - quad) < 1e-9


def test_level_amplitude_paths_agree(critical_field):
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, d_z=1.8, k0x=0.5, dimensionality="3+1")
    closed = f_n(pkt, critical_field, 7, 0.3)
    quad = f_n(pkt, critical_field, 7, 0.3, method="quadrature")
    assert math.isclose(closed, quad, rel_tol=1e-8)


@pytest.mark.parametrize("d_y", [0.7, 1.35, 1.0, 1.0 + 1e-8])
def test_level_amplitude_paths_agree_both_regimes(critical_field, d_y):
    pkt = GaussianPacket(d_x=1.2, d_y=d_y, k0x=0.4, dimensionality="2+1")
    k = np.array([-0.4, 0.05, 0.3, 1.1])
    closed = f_table(pkt, critical_field, 30, k)
    quad = f_table(pkt, critical_field, 30, k, method="quadrature")
    scale = np.max(np.abs(quad))
    assert np.max(np.abs(closed - quad)) < 1e-8 * scale


def test_closed_form_agrees_with_quadrature_near_equal_width(critical_field):
    # one closed form at every width: no singular window around d_y = L
    k = np.array([-0.4, 0.0, 0.2, 1.1])
    for d_y in (1.0 - 1e-8, 1.0 + 1e-8):
        pkt = GaussianPacket(d_x=1.2, d_y=d_y, k0x=0.4, dimensionality="2+1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = f_table(pkt, critical_field, 30, k)
            single = f_n(pkt, critical_field, 3, 0.2)
        quad = f_table(pkt, critical_field, 30, k, method="quadrature")
        assert np.max(np.abs(closed - quad)) <= 1e-12 * np.max(np.abs(quad))
        assert abs(single - f_n(pkt, critical_field, 3, 0.2, method="quadrature")) <= 1e-12


def test_high_level_amplitude_finite(critical_field):
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, k0x=0.5, dimensionality="2+1")
    vals = f_table(pkt, critical_field, 400, np.array([0.3, 2.0, 20.0]))
    assert np.all(np.isfinite(vals))


def test_sum_rules_generic(critical_field, packet_2p1, coeffs_2p1):
    rep = sum_rules(coeffs_2p1, packet_2p1, critical_field)
    assert rep.norm_residual < 1e-10
    assert rep.momentum_residual < 1e-10
    assert rep.tail_mass < 1e-10


def test_momentum_rule_zero_at_rest(critical_field):
    pkt = GaussianPacket(d_x=1.4, d_y=0.9, k0x=0.0, dimensionality="2+1")
    coeffs = coefficient_matrix(pkt, critical_field)
    rep = sum_rules(coeffs, pkt, critical_field)
    assert abs(rep.momentum_sum) < 1e-12


def test_overlap_matrix_symmetric_real(coeffs_2p1):
    u = coeffs_2p1.u
    assert np.isrealobj(u)
    assert np.max(np.abs(u - u.T)) < 1e-12
    assert np.min(np.diagonal(u)) >= -1e-12


def test_overlap_concentrates_at_low_levels(critical_field):
    # matched scales put the dominant weight at small level index
    pkt = GaussianPacket(d_x=1.0, d_y=1.0, k0x=1.0, relax_momentum_bound=True,
                         dimensionality="2+1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coeffs = coefficient_matrix(pkt, critical_field)
    assert int(np.argmax(np.diagonal(coeffs.u))) <= 3


def test_truncation_honesty(critical_field, packet_2p1):
    small = coefficient_matrix(packet_2p1, critical_field, n_max=10, tail_tol=1.0)
    large = coefficient_matrix(packet_2p1, critical_field, n_max=20, tail_tol=1.0)
    assert large.diagonal_sum() >= small.diagonal_sum() - 1e-15
    assert math.isclose(small.tail_mass, 1.0 - small.diagonal_sum(), abs_tol=1e-15)


def test_truncation_error_advises(critical_field):
    pkt = GaussianPacket(d_x=6.0, d_y=0.2, k0x=0.9, dimensionality="2+1")
    with pytest.raises(TruncationError, match="increase n_max"):
        coefficient_matrix(pkt, critical_field, n_max=5)


def test_capacity_guard(critical_field, packet_2p1):
    with pytest.raises(CapacityError):
        coefficient_matrix(packet_2p1, critical_field, n_max=451)
    assert kx_rule(packet_2p1, critical_field, 511)[0].size == 512
    with pytest.raises(CapacityError, match="513 levels exceed the 512-node"):
        kx_rule(packet_2p1, critical_field, 512)


def test_equal_width_closed_form_matches_quadrature(critical_field):
    pkt = GaussianPacket(d_x=0.9, d_y=1.0, k0x=1.4, relax_momentum_bound=True,
                         dimensionality="2+1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coeffs = coefficient_matrix(pkt, critical_field)
    for m, n in [(0, 0), (3, 3), (5, 4), (10, 11), (20, 20), (33, 12)]:
        closed = u_closed_equal_width(pkt, critical_field, m, n)
        quad = coeffs.u[m, n]
        assert abs(closed - quad) <= 1e-8 * max(abs(quad), 1e-12)


@pytest.mark.parametrize("d_y", [0.8, 1.2])
def test_general_closed_form_matches_quadrature(critical_field, d_y):
    pkt = GaussianPacket(d_x=1.1, d_y=d_y, k0x=0.6, dimensionality="2+1")
    coeffs = coefficient_matrix(pkt, critical_field)
    for m, n in [(0, 0), (2, 1), (5, 5), (8, 3), (12, 13), (0, 7)]:
        closed = u_closed_general(pkt, critical_field, m, n)
        quad = coeffs.u[m, n]
        assert abs(closed - quad) <= 1e-8 * max(abs(quad), 1e-12)


def test_general_closed_form_needs_distinct_widths(critical_field):
    pkt = GaussianPacket(d_x=1.1, d_y=1.0, k0x=0.6, dimensionality="2+1")
    with pytest.raises(ClosedFormUnavailable):
        u_closed_general(pkt, critical_field, 2, 2)


def test_equal_width_window_computes_the_given_packet(critical_field):
    pkt = GaussianPacket(d_x=1.2, d_y=1.0 + 3e-7, k0x=0.3, dimensionality="2+1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs = coefficient_matrix(pkt, critical_field)
    rep = sum_rules(coeffs, pkt, critical_field)
    assert rep.norm_residual < 1e-10
    assert rep.momentum_residual < 1e-10
    equal = coefficient_matrix(
        GaussianPacket(d_x=1.2, d_y=1.0, k0x=0.3, dimensionality="2+1"),
        critical_field, n_max=coeffs.n_max,
    )
    assert not np.array_equal(coeffs.u, equal.u)


def test_auto_truncation_matches_manual(critical_field, packet_2p1):
    auto = coefficient_matrix(packet_2p1, critical_field)
    manual = coefficient_matrix(packet_2p1, critical_field, n_max=auto.n_max)
    assert np.allclose(auto.u, manual.u, atol=1e-15)


@settings(max_examples=15, deadline=None)
@given(
    d_x=st.floats(min_value=0.7, max_value=2.5),
    d_y=st.one_of(
        st.floats(min_value=0.7, max_value=2.5),
        st.floats(min_value=-1e-6, max_value=1e-6).map(lambda eps: 1.0 + eps),
    ),
    k0x=st.floats(min_value=0.0, max_value=0.9),
)
def test_sum_rules_property(d_x, d_y, k0x):
    # d_y = L (1 + eps), |eps| <= 1e-6, takes the one closed form like any width
    field = FieldConfig.from_magnetic_length(1.0)
    pkt = GaussianPacket(d_x=d_x, d_y=d_y, k0x=k0x, dimensionality="2+1")
    coeffs = coefficient_matrix(pkt, field)
    rep = sum_rules(coeffs, pkt, field)
    assert rep.norm_residual < 1e-10
    assert rep.momentum_residual < 1e-10
