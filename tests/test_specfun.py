"""Special-function accuracy against independent references.

Reference values are multiprecision (50-digit) evaluations rounded to double;
scipy and mpmath serve as independent oracles on randomized grids. The
implementations under test share no code with either.
"""

import math

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats
from scipy.integrate import quad

from fasmon import (AccuracyError, DomainError, bessel_j, hyp1f2_half,
                    integrate_expweighted, lambert_w0, marcum_q1)

# (order, z, Jn(z)) multiprecision references
J_REFS = (
    (0, 0.5, 0.93846980724081290423),
    (1, 0.5, 0.24226845767487388638),
    (0, 1.0, 0.76519768655796655145),
    (1, 1.0, 0.44005058574493351596),
    (0, 5.0, -0.17759677131433830435),
    (1, 5.0, -0.32757913759146522204),
    (0, 20.0, 0.16702466434058315473),
    (1, 20.0, 0.066833124175850045579),
    (0, 100.0, 0.019985850304223122424),
    (1, 100.0, -0.077145352014112158033),
    (0, 200.0, -0.015437439930565091592),
    (1, 200.0, -0.054304538182378222711),
)

# (W, 1F2(1/2; 1, 3/2; -pi^2 W^2)) multiprecision references
HYP_REFS = (
    (0.1, 0.96758456732623218116),
    (0.25, 0.81250442252206341208),
    (0.5, 0.42893094785354070486),
    (5.0, 0.028566694755893892481),
)

# ((a, b), Q1(a, b)) multiprecision references, including extreme tails
MARCUM_REFS = (
    ((1.0, 1.0), 0.73287980379682021825),
    ((0.5, 2.0), 0.16914063850946718271),
    ((3.0, 1.0), 0.98917055017845214902),
    ((2.0, 30.0), 3.154841566119971084e-172),
    ((10.0, 10.0), 0.51997218964954834132),
    ((30.0, 25.0), 0.9999997392599443065),
    ((25.0, 30.0), 3.150364313692310177e-7),
    ((50.0, 50.0), 0.50398962232005424592),
)


class TestBesselJ:
    def test_reference_values(self):
        for order, z, ref in J_REFS:
            assert bessel_j(order, z) == pytest.approx(ref, abs=1e-12)

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(2024)
        zs = np.sort(rng.uniform(0.0, 200.0, 300))
        for z in zs:
            assert bessel_j(0, z) == pytest.approx(float(sp.j0(z)), abs=1e-12)
            assert bessel_j(1, z) == pytest.approx(float(sp.j1(z)), abs=1e-12)

    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            bessel_j(2, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0, -1.0)


class TestHyp1F2Half:
    def test_reference_values(self):
        for w, ref in HYP_REFS:
            assert hyp1f2_half(w) == pytest.approx(ref, rel=1e-12)

    def test_against_series_small_w(self):
        # the defining series converges without cancellation for small W,
        # giving a route independent of the integral identity used inside
        for w in (0.05, 0.1, 0.25, 0.5):
            a = math.pi * math.pi * w * w
            term = 1.0
            total = 1.0
            poch_half, poch_one, poch_three = 0.5, 1.0, 1.5
            for k in range(1, 60):
                term *= -a * poch_half / (poch_one * poch_three * k)
                total += term
                poch_half += 1.0
                poch_one += 1.0
                poch_three += 1.0
            assert hyp1f2_half(w) == pytest.approx(total, rel=1e-12)

    def test_small_w_limit(self):
        # the function tends to 1 as W -> 0; W = 0 itself is out of domain
        assert hyp1f2_half(1e-8) == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(DomainError):
            hyp1f2_half(0.0)


class TestMarcumQ1:
    def test_reference_values(self):
        for (a, b), ref in MARCUM_REFS:
            assert marcum_q1(a, b) == pytest.approx(ref, abs=1e-10)
            if ref > 1e-300:
                assert marcum_q1(a, b) == pytest.approx(ref, rel=1e-9)

    def test_boundary_identities(self):
        for a in (0.0, 0.3, 1.0, 5.0, 20.0, 50.0):
            assert marcum_q1(a, 0.0) == 1.0
        for b in (0.1, 1.0, 3.0, 10.0):
            assert marcum_q1(0.0, b) == pytest.approx(
                math.exp(-0.5 * b * b), rel=1e-14)

    def test_against_scipy_noncentral_chi2(self):
        # Q1(a, b) is the survival of a noncentral chi-square with 2 dof
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = float(rng.uniform(0.0, 50.0))
            b = float(rng.uniform(0.0, 50.0))
            ref = float(scipy.stats.ncx2.sf(b * b, 2, a * a))
            assert marcum_q1(a, b) == pytest.approx(ref, abs=1e-10)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = float(rng.uniform(0.0, 30.0))
            b = float(rng.uniform(0.0, 30.0))
            q = marcum_q1(a, b)
            assert 0.0 <= q <= 1.0
            assert marcum_q1(a + 0.05, b) >= q - 1e-12
            assert marcum_q1(a, b + 0.05) <= q + 1e-12

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            marcum_q1(-1.0, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, -1.0)

    def test_underflowing_arguments_take_exact_limits(self):
        # a^2/2 or b^2/2 rounds to 0: the b = 0 and a = 0 limits are exact
        assert marcum_q1(1.0, 1e-170) == 1.0
        assert marcum_q1(1e-170, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert marcum_q1(1e-200, 1e-200) == 1.0

    def test_array_grid_against_scipy(self):
        a = np.linspace(0.0, 50.0, 101)
        b = np.linspace(0.0, 50.0, 101)
        q = marcum_q1(a[:, None], b[None, :])
        assert q.shape == (101, 101)
        ref = scipy.stats.ncx2.sf(b[None, :] ** 2, 2, a[:, None] ** 2)
        assert np.max(np.abs(q - ref)) <= 1e-10

    def test_array_pairs_against_scipy(self):
        rng = np.random.default_rng(15)
        a = rng.uniform(0.0, 50.0, 400)
        b = rng.uniform(0.0, 50.0, 400)
        q = marcum_q1(a, b)
        assert q.shape == (400,)
        ref = scipy.stats.ncx2.sf(b * b, 2, a * a)
        assert np.max(np.abs(q - ref)) <= 1e-10

    def test_windowed_large_lambda_against_scipy(self):
        # the regime of near-unit port correlation: a = 11 sqrt(t) at the
        # nodes t of a 2048-node Laguerre rule reaches a^2/2 ~ 5e5, and only
        # the nodes with |a - b| < 11 take the Poisson sum
        rng = np.random.default_rng(16)
        b = rng.uniform(100.0, 900.0, 150)
        a = b + rng.uniform(-10.9, 10.9, 150)
        ref = scipy.stats.ncx2.sf(b * b, 2, a * a)
        assert np.max(np.abs(marcum_q1(a, b) - ref)) <= 1e-10
        a_nodes = 11.0 * np.sqrt(np.geomspace(1e-3, 4000.0, 400))
        b_cols = np.array([150.0, 400.0, 800.0])
        q = marcum_q1(a_nodes[:, None], b_cols[None, :])
        ref = scipy.stats.ncx2.sf(b_cols[None, :] ** 2, 2, a_nodes[:, None] ** 2)
        assert np.max(np.abs(q - ref)) <= 1e-10

    def test_array_boundary_identities(self):
        a = np.array([0.0, 0.3, 1.0, 5.0, 20.0, 50.0, 300.0])
        b = np.array([0.0, 0.1, 1.0, 3.0, 10.0, 300.0])
        q = marcum_q1(a[:, None], b[None, :])
        assert np.all(q[:, 0] == 1.0)
        np.testing.assert_allclose(q[0, 1:], np.exp(-0.5 * b[1:] ** 2), rtol=1e-14)

    def test_values_do_not_depend_on_the_other_b_values(self):
        a = np.linspace(0.0, 40.0, 81)
        b = np.linspace(0.0, 40.0, 17)
        grid = marcum_q1(a[:, None], b[None, :])
        for j in (0, 3, 16):
            assert np.array_equal(marcum_q1(a, b[j]), grid[:, j])
            assert np.array_equal(marcum_q1(a[:, None], b[None, j:]), grid[:, j:])
        # elementwise pairs with distinct b: each value as if alone
        pairs = marcum_q1(a[::5], b[::-1][:a[::5].size])
        for x, y, q in zip(a[::5], b[::-1], pairs):
            assert marcum_q1(x, y) == q

    def test_scalar_and_array_returns(self):
        assert isinstance(marcum_q1(1.0, 2.0), float)
        assert isinstance(marcum_q1(np.float64(1.0), 2), float)
        q = marcum_q1(np.array([1.0, 2.0]), 2.0)
        assert isinstance(q, np.ndarray) and q.shape == (2,)
        assert marcum_q1(np.ones((3, 1)), np.ones(4)).shape == (3, 4)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_elements(self, bad):
        with pytest.raises(DomainError):
            marcum_q1(np.array([1.0, bad, 2.0]), 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, np.array([[0.5], [bad]]))

    def test_rejects_shapes_that_do_not_broadcast(self):
        with pytest.raises(DomainError):
            marcum_q1(np.ones(3), np.ones(2))


class TestLambertW0:
    def test_exact_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, rel=1e-12)
        assert lambert_w0(1.0) == pytest.approx(0.56714329040978387, rel=1e-14)

    def test_residuals_on_log_grid(self):
        rng = np.random.default_rng(13)
        xs = np.concatenate([
            10.0 ** rng.uniform(-8, 8, 300),
            -np.exp(-1.0) + 10.0 ** rng.uniform(-14, -0.5, 60),
            [1e150, 1e300, 1e308],
        ])
        for x in xs:
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_against_scipy(self):
        rng = np.random.default_rng(14)
        for x in 10.0 ** rng.uniform(-6, 6, 100):
            ref = float(sp.lambertw(x).real)
            assert lambert_w0(float(x)) == pytest.approx(ref, rel=1e-12)

    def test_rejects_below_branch_point(self):
        with pytest.raises(DomainError):
            lambert_w0(-1.0 / math.e - 1e-12)


class TestQuadrature:
    def test_factorial_moments(self):
        # integral of e^{-t} t^k is k!, exact for polynomial degree < 2n
        for k in range(13):
            val = integrate_expweighted(lambda t, k=k: t ** k)
            assert val == pytest.approx(float(math.factorial(k)), rel=1e-12)

    def test_oscillatory_value(self):
        # integral of e^{-t} cos(t) = 1/2
        val = integrate_expweighted(np.cos)
        assert val == pytest.approx(0.5, rel=1e-10)

    def test_against_scipy_quad(self):
        f = lambda t: np.exp(-0.3 * t) / (1.0 + t)
        ours = integrate_expweighted(f)
        ref, _ = quad(lambda t: math.exp(-t) * f(t), 0.0, np.inf)
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_unresolvable_integrand_raises(self):
        # oscillation beyond what the 2048-node rule resolves
        with pytest.raises(AccuracyError) as err:
            integrate_expweighted(lambda t: np.cos(80.0 * t))
        assert err.value.last_estimate != err.value.previous_estimate

    def test_block_columns_keep_their_own_estimates(self):
        # cos(2t) settles at 128 nodes, cos(4t) only at 256; the block runs
        # the 256-node rule for both, and cos(2t) keeps its 128-node value
        sizes = []

        def block(t):
            sizes.append(t.size)
            return np.stack([np.cos(2.0 * t), np.cos(4.0 * t)], axis=1)

        values = integrate_expweighted(block)
        assert sizes == [64, 128, 256]
        assert values.shape == (2,)
        assert values[0] == integrate_expweighted(lambda t: np.cos(2.0 * t))
        assert values[1] == integrate_expweighted(lambda t: np.cos(4.0 * t))
        assert values == pytest.approx([1.0 / 5.0, 1.0 / 17.0], rel=1e-9)

    def test_one_unsettled_column_fails_the_block(self):
        with pytest.raises(AccuracyError) as err:
            integrate_expweighted(
                lambda t: np.stack([t ** 2, np.cos(80.0 * t)], axis=1))
        assert err.value.last_estimate != err.value.previous_estimate
