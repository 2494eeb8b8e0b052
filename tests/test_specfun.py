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
