import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landauzb import FieldConfig, cli, dynamics, packet
from landauzb.hermite import CapacityError, gauss_hermite
from landauzb.packet import (
    DimensionalityError,
    GaussianPacket,
    PacketError,
    QuadratureConvergenceError,
    TruncationError,
    axial_grid,
    axial_ray,
    coefficient_matrix,
    f_n,
    f_table,
    g_xy,
    g_z,
    kx_rule,
    ray_nodes,
    sum_rules,
)
from u_reference import (
    ClosedFormUnavailable,
    f_quadrature,
    full_build,
    full_rows,
    rung_build,
    u_closed_equal_width,
    u_closed_general,
)

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
# (d_x/L, d_y/L, k0x L) at kappa = 1/2 (L = 1) with the cut each places past
# the first rung of 64 levels; the last two take the 512-node rung of 401
CLIMBING = [((5.0, 2.0, 8.0), 160), ((1.0, 3.0, 6.0), 235),
            ((0.3, 1.0, 9.0), 346), ((2.0, 0.2, 12.0), 390)]
# (k0x L, cut) at d_x = d_y = L: crossings on the last level of a rung and
# on the first level of the next
RUNG_EDGES = [(4.375, 63), (4.531, 64), (9.062, 127), (9.141, 128),
              (15.664, 255), (15.703, 256)]


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


@settings(max_examples=60, deadline=None)
@given(
    d_z=st.floats(min_value=math.log(1e-2), max_value=math.log(1e5)).map(math.exp),
    k0z=st.one_of(st.just(0.0), st.floats(min_value=-0.9, max_value=0.9)),
    points=st.one_of(
        st.integers(min_value=2, max_value=16).map(lambda e: 1 << e),
        st.builds(lambda m, e: m << e, st.integers(min_value=5, max_value=7),
                  st.integers(min_value=3, max_value=13)),
        st.integers(min_value=1, max_value=4095).map(lambda n: 2 * n + 1),
    ),
)
def test_axial_grid_floor_property(d_z, k0z, points):
    # the grid ends where the density is eps/1024 of its peak: every node
    # weighs, and an even grid starts at k0z - AXIAL_HALF_WIDTH/d_z.  Sizes
    # divisible by 4 keep the even-index half bit for bit the rule of half the
    # size, and a k0z = 0 grid is mirror-symmetric, so both folds (`_fold` and
    # the oracle's bincount) are the mirror sum.  Sizes: powers of two 4..65536
    # and odd sizes, as an oracle kz_order may be, and m 2^e with m in 5..7 and
    # e >= 3, the others `packet.ray_nodes` gives above the 64-node floor
    pkt = GaussianPacket(d_x=1.0, d_y=1.0, d_z=d_z, k0z=k0z, dimensionality="3+1")
    kz, w = axial_grid(pkt, points)
    centre = points // 2
    assert np.all(w > 0.0) and kz[centre] == k0z
    if points % 2 == 0:
        edge = packet.AXIAL_HALF_WIDTH / d_z
        assert abs(kz[0] - (k0z - edge)) <= 4 * np.finfo(float).eps * max(abs(k0z), edge)
        assert math.isclose(w[0] / w[centre], np.finfo(float).eps / 1024.0, rel_tol=1e-9)
    if points % 4 == 0:
        kz_half, w_half = axial_grid(pkt, points // 2)
        assert np.array_equal(kz[::2], kz_half) and np.array_equal(2.0 * w[::2], w_half)
    if k0z == 0.0:
        paired = slice(centre - 1, None if points % 2 else 0, -1)
        assert np.array_equal(kz[centre + 1 :], -kz[paired])
        assert np.array_equal(w[centre + 1 :], w[paired])
        bucket = np.abs(np.arange(points) - centre)
        oracle_fold = np.bincount(bucket, w)
        assert np.array_equal(oracle_fold[1 : points - centre], 2.0 * w[centre + 1 :])
        assert oracle_fold[0] == w[centre]
        if points % 2 == 0:
            nodes, folded = dynamics._fold(pkt, (kz, w))
            assert np.array_equal(nodes, -kz[centre::-1])
            assert np.array_equal(folded, oracle_fold) and folded[-1] == w[0]


# node counts m 2^e, m in 5..8, that 8 divides, with 0 below the smallest
RULE_SIZES = [0] + sorted({m << e for m in range(5, 9) for e in range(40) if (m << e) % 8 == 0})


def real_axis(pkt, field, t_max, kind="interband"):
    """`axial_ray` of the window [0, t_max]: its theta = 0 contour, the real axis."""
    return axial_ray(pkt, field, np.array([0.0, t_max]), kind, 40)


def aliasing_bound(ray, ratio):
    """The node count `ray_nodes` rounds up, from the formula of its docstring."""
    return min(ray.half_width * (math.log(ratio) + cost) / (math.pi * y) for y, cost in ray.costs)


def axial_rule(pkt, field, t_max, ratio, kind="interband"):
    """`ray_nodes` on the real axis of [0, t_max], or the count it raises with above the cap."""
    try:
        return ray_nodes(real_axis(pkt, field, t_max, kind), ratio)
    except QuadratureConvergenceError as info:
        return info.nodes_needed


def strip_packet(kappa, d_z, k0z):
    """(field, 3+1 packet) with widths and axial momentum in units of L."""
    field = FieldConfig.from_kappa(kappa)
    L = field.magnetic_length
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # k0z beyond the nominal velocity bound
        pkt = GaussianPacket(d_x=L, d_y=L, d_z=d_z * L, k0z=k0z / L, dimensionality="3+1",
                             relax_momentum_bound=True)
    return field, pkt


@settings(max_examples=80, deadline=None)
@given(
    kappa=st.floats(min_value=math.log(1e-3), max_value=math.log(20.0)).map(math.exp),
    d_z=st.floats(min_value=math.log(0.2), max_value=math.log(5.0)).map(math.exp),
    k0z=st.one_of(st.just(0.0), st.floats(min_value=-0.8, max_value=0.8)),
    t_max=st.floats(min_value=0.0, max_value=math.log(200.0)).map(math.exp),
    ratio=st.floats(min_value=0.0, max_value=math.log(1e14)).map(math.exp),
    more=st.floats(min_value=1.0, max_value=64.0),
)
def test_real_axis_rule_rounds_the_bound_to_a_two_bit_mantissa(kappa, d_z, k0z, t_max, ratio,
                                                               more):
    # K = m 2^e with m in 5..8 and 8 | K, the smallest at least the bound: at
    # most 25 % over it, or 7 nodes where the grain is 8.  K never falls as the
    # target ratio or the window grows
    field, pkt = strip_packet(kappa, d_z, k0z)
    nodes = axial_rule(pkt, field, t_max, ratio)
    bound = aliasing_bound(real_axis(pkt, field, t_max), ratio)
    assert nodes in RULE_SIZES
    assert RULE_SIZES[RULE_SIZES.index(nodes) - 1] < bound * (1.0 + 1e-12)
    assert bound * (1.0 - 1e-12) <= nodes < 1.25 * bound + 8.0
    assert axial_rule(pkt, field, t_max, more * ratio) >= nodes
    assert axial_rule(pkt, field, more * t_max, ratio) >= nodes


def test_real_axis_rule_refuses_a_nan_ratio(critical_field, packet_3p1):
    # max(nan, 1.0) kept the NaN and math.ceil raised ValueError: a traceback.
    # The doubling message then read "changed by nan relative on doubling
    # (target nan)", naming neither a doubling nor a target
    for kind in ("interband", "intraband"):
        with pytest.raises(QuadratureConvergenceError) as info:
            ray_nodes(axial_ray(packet_3p1, critical_field, np.linspace(0.0, 5.0, 9), kind, 40),
                      math.nan)
        assert str(info.value) == ("axial quadrature has no error target to size a k_z rule "
                                   "for: the amplitude mass or the signal scale is NaN")


def dense_costs(pkt, field, t_max, kind, ray):
    """`ray`'s costs, its y each, from an 8193-point line of |x| <= half_width and pairs n <= 40.

    M(y) = d_z^2 y^2 + max(t_max |Im w_n(k0z + x + i y)| - d_z^2 x^2), plus ln P."""
    x = ray.half_width * np.linspace(-1.0, 1.0, 8193)
    omega_sq = field.omega**2
    spread = math.log(8.0 * ray.half_width * pkt.d_z / math.sqrt(math.pi))
    costs = []
    for y, _ in ray.costs:
        z = pkt.k0z + x + 1j * y
        log = -math.inf
        for n in (0, 1, 2, 5, 10, 20, 40):
            total = np.sqrt(1.0 + omega_sq * n + z * z) + np.sqrt(1.0 + omega_sq * (n + 1) + z * z)
            w = total if kind == "interband" else omega_sq / total
            log = max(log, float(np.max(t_max * np.abs(w.imag) - (pkt.d_z * x) ** 2)))
        costs.append((y, (pkt.d_z * y) ** 2 + log + spread))
    return ray._replace(costs=tuple(costs))


def covers_a_dense_line(kind, kappa, d_z, k0z, t_max):
    """Each theta = 0 cost is at least that of the dense line, so the rule is too."""
    field, pkt = strip_packet(kappa, d_z, k0z)
    ray = real_axis(pkt, field, t_max, kind)
    dense = dense_costs(pkt, field, t_max, kind, ray)
    assert ray.theta == 0.0 and ray.half_width == packet.AXIAL_HALF_WIDTH / pkt.d_z
    for (y, cost), (_, sample) in zip(ray.costs, dense.costs, strict=True):
        assert sample <= cost + 1e-12 * max(1.0, abs(cost)), y
    return pkt, field, dense


STRIP = dict(
    kappa=st.floats(min_value=math.log(1e-3), max_value=math.log(20.0)).map(math.exp),
    d_z=st.floats(min_value=math.log(0.2), max_value=math.log(5.0)).map(math.exp),
    k0z=st.one_of(st.just(0.0), st.floats(min_value=-0.8, max_value=0.8)),
    t_max=st.one_of(st.just(0.0),
                    st.floats(min_value=0.0, max_value=math.log(200.0)).map(math.exp)),
)


@settings(max_examples=40, deadline=None)
@given(**STRIP)
def test_intraband_strip_bound_covers_every_pair(kappa, d_z, k0z, t_max):
    # the real axis' cost at each of its shifts y, up to the strip's edge y = 1
    # (narrow packets) and inside the strip, bounds the line between its points:
    # at least the cost from a dense sample of every pair n <= 40
    covers_a_dense_line("intraband", kappa, d_z, k0z, t_max)


@settings(max_examples=40, deadline=None)
@given(**STRIP)
def test_interband_strip_bound_covers_every_pair(kappa, d_z, k0z, t_max):
    covers_a_dense_line("interband", kappa, d_z, k0z, t_max)


@settings(max_examples=40, deadline=None)
@given(
    kappa=st.floats(min_value=math.log(1e-3), max_value=math.log(20.0)).map(math.exp),
    d_z=st.floats(min_value=math.log(0.2), max_value=math.log(5.0)).map(math.exp),
    k0z=st.one_of(st.just(0.0), st.floats(min_value=-0.8, max_value=0.8)),
    t_max=st.floats(min_value=0.0, max_value=math.log(200.0)).map(math.exp),
    ratio=st.floats(min_value=0.0, max_value=math.log(1e14)).map(math.exp),
    more=st.floats(min_value=1.0, max_value=64.0),
)
def test_intraband_rule_covers_the_dense_strip_bound(kappa, d_z, k0z, t_max, ratio, more):
    # the intraband rule covers the rule of the dense line's costs, never exceeds
    # the interband rule, and never falls as the target ratio or the window grows
    pkt, field, dense = covers_a_dense_line("intraband", kappa, d_z, k0z, t_max)
    nodes = axial_rule(pkt, field, t_max, ratio, "intraband")
    try:
        assert nodes >= ray_nodes(dense, ratio)
    except QuadratureConvergenceError as info:
        assert nodes >= info.nodes_needed
    assert nodes in RULE_SIZES
    assert nodes <= axial_rule(pkt, field, t_max, ratio)
    assert axial_rule(pkt, field, t_max, more * ratio, "intraband") >= nodes
    assert axial_rule(pkt, field, more * t_max, ratio, "intraband") >= nodes


def test_axial_ray_refuses_an_unknown_line_class(critical_field, packet_3p1):
    with pytest.raises(ValueError, match="kind must be"):
        axial_ray(packet_3p1, critical_field, np.linspace(0.0, 5.0, 9), "all", 40)


@pytest.mark.parametrize("k0z", [1e155, -1.4e154, math.inf, math.nan])
def test_axial_momentum_whose_square_is_no_finite_float_rejected(k0z):
    # k0z^2 past the float range overflowed in the line energies of every 3+1
    # sum (a RuntimeWarning, an error under the test settings); a NaN k0z
    # passed the velocity bound and gave NaN sums
    with pytest.raises(PacketError, match="k0z = .*square"):
        GaussianPacket(d_x=1.0, d_y=1.0, d_z=1.0, k0z=k0z, dimensionality="3+1",
                       relax_momentum_bound=True)
    with pytest.warns(UserWarning, match="velocity bound"):
        GaussianPacket(d_x=1.0, d_y=1.0, d_z=1.0, k0z=math.copysign(1.3e154, k0z),
                       dimensionality="3+1", relax_momentum_bound=True)


def test_g_z_rejected_for_2p1(packet_2p1):
    with pytest.raises(DimensionalityError):
        g_z(packet_2p1, 0.0)


def test_level_amplitude_parity_at_equal_width(critical_field):
    pkt = GaussianPacket(d_x=1.3, d_y=1.0, k0x=0.0, dimensionality="2+1")
    for n in (1, 3, 7, 12):
        assert f_n(pkt, critical_field, n, 0.0) == 0.0
        quad = f_quadrature(pkt, critical_field, n, [0.0])[n, 0]
        assert abs(quad) < 1e-12


def test_level_amplitude_ground_row_at_equal_width_and_zero_momentum(critical_field):
    # n = 0 at k_x = 0 and d_y = L used to evaluate 0 * log 0 and return NaN
    pkt = GaussianPacket(d_x=1.5, d_y=1.0, k0x=0.3, dimensionality="2+1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = f_n(pkt, critical_field, 0, 0.0)
    quad = f_quadrature(pkt, critical_field, 0, [0.0])[0, 0]
    assert math.isfinite(closed)
    assert abs(closed - quad) < 1e-9


def test_level_amplitude_paths_agree(critical_field):
    pkt = GaussianPacket(d_x=1.5, d_y=1.2, d_z=1.8, k0x=0.5, dimensionality="3+1")
    closed = f_n(pkt, critical_field, 7, 0.3)
    quad = f_quadrature(pkt, critical_field, 7, [0.3])[7, 0]
    assert math.isclose(closed, quad, rel_tol=1e-8)


@pytest.mark.parametrize("d_y", [0.7, 1.35, 1.0, 1.0 + 1e-8])
def test_level_amplitude_paths_agree_both_regimes(critical_field, d_y):
    pkt = GaussianPacket(d_x=1.2, d_y=d_y, k0x=0.4, dimensionality="2+1")
    k = np.array([-0.4, 0.05, 0.3, 1.1])
    closed = f_table(pkt, critical_field, 30, k)
    quad = f_quadrature(pkt, critical_field, 30, k)
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
        quad = f_quadrature(pkt, critical_field, 30, k)
        assert np.max(np.abs(closed - quad)) <= 1e-12 * np.max(np.abs(quad))
        assert abs(single - f_quadrature(pkt, critical_field, 3, [0.2])[3, 0]) <= 1e-12


def test_level_amplitude_reference_raises_unconverged(critical_field):
    # d_y = 3 L: the doubling test fails at order 512, so the reference
    # returns no value it has not certified
    pkt = GaussianPacket(d_x=1.0, d_y=3.0, k0x=0.5, dimensionality="2+1")
    with pytest.raises(RuntimeError, match="did not converge"):
        f_quadrature(pkt, critical_field, 100, [0.2])


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
        coefficient_matrix(packet_2p1, critical_field, n_max=512)
    # the one level cap is the 512-node k_x rule's: 512 levels still hold
    # both sum rules
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pkt = GaussianPacket(d_x=2.0, d_y=0.2, k0x=16.0, relax_momentum_bound=True)
    rep = sum_rules(coefficient_matrix(pkt, critical_field, n_max=511), pkt, critical_field)
    assert max(rep.norm_residual, rep.momentum_residual) <= 1e-10
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


def bundled(path):
    cfg = cli.load_config(str(path))
    field, _ = cli.resolve_field(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the trap configs relax the velocity bound
        return cli.resolve_packet(cfg, field), field


def scaled_packet(d_x, d_y, k0x, field=None):
    """Packet of widths d_x L, d_y L and momentum k0x/L; L = 1 by default."""
    L = 1.0 if field is None else field.magnetic_length
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # k0x beyond the nominal velocity bound
        return GaussianPacket(d_x=d_x * L, d_y=d_y * L, k0x=k0x / L,
                              relax_momentum_bound=True, dimensionality="2+1")


def assert_matches_full_build(ladder, full):
    assert ladder.n_max == full.n_max
    assert np.max(np.abs(ladder.u - full.u)) <= 1e-14
    assert abs(ladder.tail_mass - full.tail_mass) <= 1e-14


def built_levels(monkeypatch):
    """Reads the rows built by every F_n recurrence started from now on, in call order."""
    tables = []
    closed_log = packet._f_closed_log

    def recording(pkt, field, k_x, levels):
        rows, column = closed_log(pkt, field, k_x, levels)
        tables.append(rows)
        return rows, column

    monkeypatch.setattr(packet, "_f_closed_log", recording)
    return lambda: [rows.built for rows in tables]


def rows_to_cut(cut):
    """The rows an automatic cut at `cut` builds on its rule: whole blocks up to it."""
    return packet.ROW_BLOCK * (cut // packet.ROW_BLOCK + 1)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_ladder_matches_full_build_on_bundled_configs(path, monkeypatch):
    pkt, field = bundled(path)
    built = built_levels(monkeypatch)
    ladder = coefficient_matrix(pkt, field)
    assert built() == [rows_to_cut(ladder.n_max)]
    assert_matches_full_build(ladder, full_build(pkt, field))
    assert ladder.kx_order == 256


@pytest.mark.parametrize("case", [pytest.param(path, id=path.stem) for path in CONFIGS] + [
    pytest.param(widths, id=f"cut-{cut}")
    for widths, cut in CLIMBING + [((1.0, 1.0, k0x), cut) for k0x, cut in RUNG_EDGES]])
def test_ladder_is_bit_identical_to_whole_tables_of_its_rule(critical_field, case):
    # rows grown in blocks, exponentiated once per run of rows sharing a scale,
    # against the whole 256- or 401-row table of the same rule
    pkt, field = bundled(case) if isinstance(case, Path) else (scaled_packet(*case), critical_field)
    ladder, whole = coefficient_matrix(pkt, field), rung_build(pkt, field)
    assert np.array_equal(ladder.u, whole.u)
    assert ladder.tail_mass == whole.tail_mass
    assert ladder.n_max == whole.n_max
    assert ladder.kx_order == whole.kx_order


def test_a_cut_of_26_builds_two_blocks_of_rows(monkeypatch):
    # the 20 T packet of lowfield_zb_3p1: a first rung of 64 rows built twice as many
    pkt, field = bundled(next(path for path in CONFIGS if path.stem == "lowfield_zb_3p1"))
    built = built_levels(monkeypatch)
    assert coefficient_matrix(pkt, field).n_max == 26
    assert built() == [32]


@pytest.mark.parametrize("widths, cut", CLIMBING + [((1.0, 1.0, k0x), cut) for k0x, cut in RUNG_EDGES])
def test_ladder_matches_full_build_past_the_first_rung(critical_field, widths, cut):
    pkt = scaled_packet(*widths)
    ladder = coefficient_matrix(pkt, critical_field)
    assert ladder.n_max == cut
    assert_matches_full_build(ladder, full_build(pkt, critical_field))
    assert ladder.kx_order == (256 if cut < 256 else 512)


def test_ladder_and_full_build_truncate_alike(critical_field):
    # this packet needs more than the 401 levels of the top rung
    pkt = scaled_packet(8.0, 8.0, 1.5)
    for build in (coefficient_matrix, full_build):
        with pytest.raises(TruncationError, match="at n_max=400 leaves"):
            build(pkt, critical_field)


def test_truncation_counts_the_momentum_rule(critical_field):
    # 401 levels leave tail mass 4.3e-11, under tail_tol, but the momentum
    # rule, which misses about sqrt(400) times the tail, is off by 5.2e-10
    pkt = scaled_packet(2.0, 0.2, 16.0)
    with pytest.raises(TruncationError, match="momentum residual 5.1"):
        coefficient_matrix(pkt, critical_field)
    coeffs = coefficient_matrix(pkt, critical_field, tail_tol=1e-9)
    assert coeffs.n_max == 400
    assert coeffs.tail_mass < 1e-10
    # an explicit n_max is held to the momentum rule too
    with pytest.raises(TruncationError, match="momentum residual 5.1"):
        coefficient_matrix(pkt, critical_field, n_max=400)
    assert np.array_equal(coefficient_matrix(pkt, critical_field, n_max=400, tail_tol=1e-9).u,
                          coeffs.u)


@pytest.mark.parametrize("n_max", [40, 255, 256, 400])
def test_explicit_n_max_builds_every_level(critical_field, packet_2p1, n_max):
    coeffs = coefficient_matrix(packet_2p1, critical_field, n_max=n_max)
    z, _ = full_rows(packet_2p1, critical_field, n_max)
    assert coeffs.n_max == n_max
    assert coeffs.kx_order == (256 if n_max < 256 else 512)
    assert np.array_equal(coeffs.u, z @ z.T)


@pytest.mark.parametrize("widths, rungs", [
    ((1.0, 1.0, 4.375), [64]),                  # cut 63: the fourth block's last row
    ((1.0, 1.0, 4.531), [80]),                  # cut 64
    (CLIMBING[0][0], [176]),                    # cut 160
    (CLIMBING[-1][0], [256, 400]),              # cut 390, past the 256-node rule
])
def test_ladder_doubles_only_past_the_crossing(critical_field, widths, rungs, monkeypatch):
    # rows grow to the crossing's block; only a crossing past the 256 rows of
    # the 256-node rule starts over on the 512-node rule
    built = built_levels(monkeypatch)
    coefficient_matrix(scaled_packet(*widths), critical_field)
    assert built() == rungs


WIDTH = st.one_of(
    st.floats(min_value=0.2, max_value=0.95),                               # narrow
    st.floats(min_value=-1e-6, max_value=1e-6).map(lambda eps: 1.0 + eps),  # equal
    st.floats(min_value=1.05, max_value=6.0),                               # wide
)


@settings(max_examples=40, deadline=None)
@given(
    kappa=st.floats(min_value=math.log(1e-4), max_value=math.log(20.0)).map(math.exp),
    d_x=WIDTH,
    d_y=WIDTH,
    k0x=st.floats(min_value=0.0, max_value=10.0),
)
def test_ladder_property_over_field_and_widths(kappa, d_x, d_y, k0x):
    # widths and momentum in units of L: kappa changes only the packet's scale
    field = FieldConfig.from_kappa(kappa)
    pkt = scaled_packet(d_x, d_y, k0x, field)
    try:
        full = full_build(pkt, field)
    except TruncationError:
        with pytest.raises(TruncationError):
            coefficient_matrix(pkt, field)
        return
    ladder = coefficient_matrix(pkt, field)
    assert ladder.n_max == full.n_max
    assert np.max(np.abs(ladder.u - full.u)) <= 1e-14
    rep = sum_rules(ladder, pkt, field)
    assert rep.norm_residual < 1e-10
    assert rep.momentum_residual < 1e-10


@pytest.mark.parametrize("width", [1e160, 1e-160, 1e-155])
@pytest.mark.parametrize("name", ["d_x", "d_y", "d_z"])
def test_width_whose_square_is_no_normal_float_rejected(name, width):
    # d_x^2 overflowed (OverflowError) or underflowed in the closed forms
    with pytest.raises(PacketError, match=f"{name} = .*square"):
        GaussianPacket(**{"d_x": 1.0, "d_y": 1.0, "d_z": 1.0, name: width}, dimensionality="3+1")
    for edge in (1e154, 1.5e-154):
        GaussianPacket(**{"d_x": 1.0, "d_y": 1.0, "d_z": 1.0, name: edge}, dimensionality="3+1")


def test_range_corners_keep_the_closed_form_finite():
    # 2 L d_x d_y overflows at the top corner and underflows at the bottom one;
    # the prefactor's log stays finite at both
    field = FieldConfig(1e77)
    pkt = GaussianPacket(d_x=1e154, d_y=1e77)
    coeffs = coefficient_matrix(pkt, field)
    report = sum_rules(coeffs, pkt, field)
    assert max(report.norm_residual, report.momentum_residual) <= 1e-10
    assert np.all(np.isfinite(f_table(pkt, field, 3, np.array([-1e-77, 0.0, 1e-77]))))
    # the bottom corner is a packet far narrower than L: its levels run past 400
    with pytest.raises(TruncationError, match="tail mass 1.000e\\+00"):
        coefficient_matrix(GaussianPacket(d_x=1.6e-154, d_y=1.6e-154), FieldConfig(1.6e-77))


@pytest.mark.parametrize("factor", [1.01, math.nan])
def test_tail_gate_is_two_sided_and_fails_on_nan(critical_field, monkeypatch, factor):
    # a diagonal sum 2 % above 1 (tail -0.02) or a NaN one certifies no cut;
    # at k0x = 0 the momentum rule reads 0 either way and cannot catch it
    closed = packet._f_closed_log

    def scaled(*args):
        rows, column = closed(*args)
        return rows, column + math.log(factor)

    monkeypatch.setattr(packet, "_f_closed_log", scaled)
    with pytest.raises(TruncationError, match="tail mass"):
        coefficient_matrix(GaussianPacket(d_x=1.5, d_y=1.2), critical_field, n_max=10,
                           tail_tol=1e-3)
