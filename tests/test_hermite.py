import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landauzb import hermite
from u_reference import log_norm_constant


def test_psi_ground_state():
    assert math.isclose(hermite.psi_table(0, [0.0])[0, 0], math.pi**-0.25, rel_tol=1e-14)


def test_psi_first_level_odd():
    assert hermite.psi_table(1, [0.0])[1, 0] == 0.0


def test_psi_high_level_reference():
    # 50-digit recurrence evaluation
    ref = -0.1106613332341846193157366
    assert math.isclose(hermite.psi_table(400, [3.7])[400, 0], ref, rel_tol=1e-11)


def test_psi_no_overflow_far_tail():
    val = hermite.psi_table(450, [40.0])[450, 0]
    assert np.isfinite(val)
    assert abs(val) < 1.0


def test_psi_capacity_error():
    hermite.psi_table(2 * hermite.MAX_GH_ORDER, [0.0])
    with pytest.raises(hermite.CapacityError):
        hermite.psi_table(2 * hermite.MAX_GH_ORDER + 1, [0.0])


def test_psi_table_far_tail_matches_extended_precision():
    # e^{-x^2/2} = e^{-800} underflows on its own; psi_1000(40) does not
    mpmath = pytest.importorskip("mpmath")
    xi = np.array([40.0, 39.0])
    table = hermite.psi_table(1000, xi)
    with mpmath.workdps(40):
        for j, xj in enumerate(xi):
            x = mpmath.mpf(float(xj))
            prev = mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-x * x / 2)
            cur = mpmath.sqrt(2) * x * prev
            for k in range(1, 1000):
                prev, cur = cur, (x * mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * cur
                                  - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * prev)
            assert abs(table[1000, j] - cur) <= 1e-12 * abs(cur), (xj, table[1000, j], float(cur))


def test_three_term_recurrence_residual():
    xi = np.linspace(-20.0, 20.0, 801)
    table = hermite.psi_table(401, xi)
    for n in range(1, 400):
        res = (
            math.sqrt(2.0 * (n + 1)) * table[n + 1]
            - 2.0 * xi * table[n]
            + math.sqrt(2.0 * n) * table[n - 1]
        )
        assert np.max(np.abs(res)) < 1e-11


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=400), st.floats(min_value=-20, max_value=20))
def test_recurrence_property(n, xi):
    grid = np.array([xi])
    table = hermite.psi_table(n + 1, grid)
    res = (
        math.sqrt(2.0 * (n + 1)) * table[n + 1]
        - 2.0 * xi * table[n]
        + math.sqrt(2.0 * n) * table[n - 1]
    )
    assert abs(res[0]) < 1e-11


def orthonormality_deviation(n_top, order):
    rule = hermite.gauss_hermite(order)
    table = hermite.psi_table(n_top, rule.nodes)
    # weights with the Gaussian already inside psi_n psi_m: w_i e^{x_i^2}
    wtilde = 1.0 / (order * hermite.psi_table(order - 1, rule.nodes)[order - 1] ** 2)
    gram = (table * wtilde) @ table.T
    return float(np.max(np.abs(gram - np.eye(n_top + 1))))


def test_orthonormality_matrix():
    assert orthonormality_deviation(100, 256) < 1e-10


def test_orthonormality_matrix_full_range():
    # the rule stays exact through the level cap used in production
    assert orthonormality_deviation(400, 512) < 1e-10


def test_gauss_hermite_order_two_closed_form():
    rule = hermite.gauss_hermite(2)
    assert np.allclose(np.sort(rule.nodes), [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)
    assert np.allclose(rule.weights, math.sqrt(math.pi) / 2, atol=1e-14)


@pytest.mark.parametrize("order", [8, 32, 64, 256, 512])
def test_gauss_hermite_weight_sum(order):
    rule = hermite.gauss_hermite(order)
    assert math.isclose(rule.weights.sum(), math.sqrt(math.pi), rel_tol=1e-12)
    assert np.all(rule.weights > 0)


def test_gauss_hermite_second_moment():
    rule = hermite.gauss_hermite(8)
    assert math.isclose(np.dot(rule.weights, rule.nodes**2), math.sqrt(math.pi) / 2, rel_tol=1e-14)


def test_gauss_hermite_cosine_transform():
    rule = hermite.gauss_hermite(64)
    val = np.dot(rule.weights, np.cos(3.0 * rule.nodes))
    assert math.isclose(val, math.sqrt(math.pi) * math.exp(-2.25), rel_tol=1e-10)


@pytest.mark.parametrize("order", [64, 256, 512])
def test_gauss_hermite_nodes_match_long_double_newton(order):
    # one Newton step on H_N/C_N in 80-bit arithmetic moves no node by more
    # than about an ulp of the largest one (|x| < 32)
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is no wider than double on this platform")
    x = hermite.gauss_hermite(order).nodes.astype(np.longdouble)
    prev = np.full_like(x, np.pi ** -0.25)
    cur = np.sqrt(np.longdouble(2)) * x * prev
    for k in range(1, order):
        k1 = np.longdouble(k + 1)
        prev, cur = cur, x * np.sqrt(2 / k1) * cur - np.sqrt(k / k1) * prev
    step = cur / (np.sqrt(np.longdouble(2 * order)) * prev)
    assert float(np.max(np.abs(step))) <= 5e-15


def test_gauss_hermite_rule_is_cached_read_only():
    rule = hermite.gauss_hermite(64)
    assert hermite.gauss_hermite(64) is rule
    for values in (rule.nodes, rule.weights, rule.log_fused):
        with pytest.raises(ValueError):
            values[0] = 1.0
    assert np.allclose(np.exp(rule.log_fused - rule.nodes**2), rule.weights, rtol=1e-15, atol=0)


def test_gauss_hermite_order_bounds():
    with pytest.raises(hermite.CapacityError):
        hermite.gauss_hermite(1)
    with pytest.raises(hermite.CapacityError):
        hermite.gauss_hermite(hermite.MAX_GH_ORDER + 1)


def test_normalized_hermite_table_both_signs():
    # K_n(z; s) = s^{n/2} H_n(z/sqrt s): s = 1 gives H_n, s = -1 gives G_n with
    # H_n(iz) = i^n G_n(z), s = 0 gives (2z)^n
    z = np.array([-1.3, 0.0, 0.4, 2.5])
    for s in (1.0, -1.0, 0.0, 0.37, -1e-9):
        values = [np.ones_like(z), 2 * z, 4 * z**2 - 2 * s, 8 * z**3 - 12 * s * z]
        mant, scale = hermite.normalized_hermite_table(3, z, s=s)
        for n, ref in enumerate(values):
            scaled = ref / math.exp(log_norm_constant(n))
            assert np.allclose(mant[n] * np.exp(scale[n]), scaled, rtol=1e-14, atol=1e-15)


def test_normalized_hermite_table_matches_extended_precision():
    # the same recurrence at 50 digits; large z means short renormalization
    # blocks, and z = 2.5e5 (blocks of 50) puts a block edge on the last rows
    mpmath = pytest.importorskip("mpmath")
    n_max = 450
    z = np.array([0.0, 1e-30, 0.3, 40.0, 1e5, 2.5e5])
    with mpmath.workdps(50):
        c1 = [mpmath.sqrt(mpmath.mpf(2) / (k + 1)) for k in range(n_max)]
        c2 = [mpmath.sqrt(mpmath.mpf(k) / (k + 1)) for k in range(n_max)]
        for s in (1.0, 0.5, 1e-16, 0.0, -1e-16, -1.0):
            mant, scale = hermite.normalized_hermite_table(n_max, z, s=s)
            for j, zj in enumerate(z):
                x = mpmath.mpf(float(zj))
                ref = [mpmath.pi ** mpmath.mpf(-0.25)]
                ref.append(mpmath.sqrt(2) * x * ref[0])
                for k in range(1, n_max):
                    ref.append(x * c1[k] * ref[k] - s * c2[k] * ref[k - 1])
                peak = max(abs(v) for v in ref)
                err = max(
                    abs(mant[n, j] * mpmath.exp(scale[n, j]) - ref[n])
                    for n in range(n_max + 1)
                )
                assert err <= 1e-12 * peak, (s, zj, float(err / peak))


@pytest.mark.parametrize("s", [1.0, 0.37, -1.0])
def test_rows_grown_in_pieces_are_those_of_the_whole_table(s):
    # z = 2.5e5 renormalizes every 50 steps: pieces that end on a block edge,
    # one row before or after it, must expose only rows no later step rescales
    n_max = 300
    z = np.array([0.0, 0.3, 40.0, 2.5e5])
    mant, scale = hermite.normalized_hermite_table(n_max, z, s=s)
    rows = hermite.HermiteRows(z, s, n_max + 1)
    for size in (1, 2, 3, 16, 49, 50, 51, 99, 100, 101, 150, 256, 299, 300, 301):
        rows.grow(size)
        assert size <= rows.built <= min(size + 2, n_max + 1)
        assert np.array_equal(rows.m[:size], mant[:size])
        for start, stop, run in rows.runs(0, size):
            assert np.array_equal(np.broadcast_to(rows.scales[run], (stop - start, z.size)),
                                  scale[start:stop])
