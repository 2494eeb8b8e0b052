"""Special-function accuracy against independent references.

Reference values are multiprecision (50-digit) evaluations rounded to double;
scipy and mpmath serve as independent oracles on randomized grids. The
implementations under test share no code with either.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special as sp
import scipy.stats
from numpy.polynomial.laguerre import laggauss
from scipy.integrate import quad

from fasmon import (AccuracyError, ComputationError, DomainError, bessel_j,
                    correlation_mu, hyp1f2_half, integrate_expweighted,
                    lambert_w0, marcum_q1, specfun)

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

    def test_rejects_arguments_above_the_limit(self):
        z_max = 2.0 * math.pi * 1e4
        assert bessel_j(0, z_max) == pytest.approx(float(sp.j0(z_max)), abs=1e-12)
        for z in (math.nextafter(z_max, math.inf), 1e300):
            for order in (0, 1):
                with pytest.raises(DomainError, match="z = "):
                    bessel_j(order, z)


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

    def test_rejects_apertures_above_the_limit(self):
        # at the limit the rounding error is ~1e-16 a relative, a = 2 pi W
        with mpmath.workdps(30):
            ref = float(mpmath.hyp1f2(0.5, 1, 1.5, -(mpmath.pi * 10**4) ** 2))
        assert hyp1f2_half(1e4) == pytest.approx(ref, rel=1e-10)
        for w in (math.nextafter(1e4, math.inf), 1e300):
            with pytest.raises(DomainError, match="aperture_w"):
                hyp1f2_half(w)


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
        # the regime of near-unit port correlation: a reaches ~900, a^2/2
        # ~ 4e5, and only the rows with |a - b| < 11 take the Poisson sum
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

    def test_refuses_past_the_certified_range_before_allocating(self):
        # a^2/2 = 1.1e6 needs a window of ~18000 Poisson terms per row; the
        # kernel names the cause before building any of them
        tracemalloc.start()
        try:
            with pytest.raises(ComputationError, match="a\\^2/2 = 1.125e\\+06"):
                marcum_q1(np.full(120, 1500.0), 1500.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # where |a - b| >= 11 the exits need no weights: nothing is refused
        assert marcum_q1(1500.0, 10.0) == 1.0
        assert marcum_q1(10.0, 1500.0) == 0.0

    def test_work_cap_splits_large_windows(self, empty_weight_cache):
        # 120 rows near a = 950 (a^2/2 ~ 4.5e5) against 16 columns: one
        # unsplit weight matrix would hold ~120 x 30000 doubles (29 MB), and
        # its temporaries took the unsplit kernel to a 140 MB peak; the
        # peak includes the weight cache filling from empty
        a = np.linspace(940.0, 960.0, 120)
        b = np.linspace(941.0, 959.0, 16)
        tracemalloc.start()
        try:
            grid = marcum_q1(a[:, None], b[None, :])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20
        kept = [weights.nbytes for weights in specfun._WEIGHT_CACHE.values()]
        assert sum(kept) == specfun._weight_cache_bytes <= specfun._WEIGHT_CACHE_BYTES
        ref = scipy.stats.ncx2.sf(b[None, :] ** 2, 2, a[:, None] ** 2)
        assert np.max(np.abs(grid - ref)) <= 1e-10
        for j in (0, 7, 15):
            assert np.array_equal(marcum_q1(a, b[j]), grid[:, j])

    def test_weight_cache_is_bitwise_neutral(self, empty_weight_cache):
        a = np.linspace(0.0, 60.0, 121)
        b = np.linspace(0.5, 50.0, 9)
        cold = marcum_q1(a[:, None], b[None, :])
        chunks = set(specfun._WEIGHT_CACHE)
        assert chunks
        for weights in specfun._WEIGHT_CACHE.values():
            assert not weights.flags.writeable
        assert np.array_equal(marcum_q1(a[:, None], b[None, :]), cold)
        assert set(specfun._WEIGHT_CACHE) == chunks
        # the chunks follow from a alone: one column asks for some of the
        # grid's chunks, built anew, and keeps its value with or without them
        empty_weight_cache()
        for j in (0, 4, 8):
            single = marcum_q1(a, b[j])
            assert np.array_equal(single, cold[:, j])
            assert np.array_equal(marcum_q1(a, b[j]), single)
        assert set(specfun._WEIGHT_CACHE) <= chunks

    def test_weight_cache_keeps_recent_blocks_within_budget(self, empty_weight_cache,
                                                            monkeypatch):
        # rows at a = 19 and 29 (or 20 and 30, or 21 and 31) are one chunk of
        # 8624 (8976, 9328) bytes; against b = 12 and 36 each row is one
        # column's window, so two runs view the chunk and it is kept once. A
        # budget of 18400 bytes keeps the last two chunks.
        def kept():  # the a values of each kept chunk, least recently used first
            return [tuple(np.sqrt(2.0 * np.frombuffer(key[0]))) for key in specfun._WEIGHT_CACHE]

        monkeypatch.setattr(specfun, "_WEIGHT_CACHE_BYTES", 18400)
        chunks = ((19.0, 29.0), (20.0, 30.0), (21.0, 31.0))
        b = np.array([12.0, 36.0])
        values = [marcum_q1(np.array(rows)[:, None], b[None, :]) for rows in chunks]
        assert kept() == [(20.0, 30.0), (21.0, 31.0)]
        assert specfun._weight_cache_bytes == 8976 + 9328
        marcum_q1(np.array(chunks[1])[:, None], b[None, :])  # a hit makes it the most recent
        assert kept() == [(21.0, 31.0), (20.0, 30.0)]
        # a chunk past the budget is computed but not kept
        monkeypatch.setattr(specfun, "_WEIGHT_CACHE_BYTES", 8000)
        empty_weight_cache()
        for rows, value in zip(chunks, values):
            assert np.array_equal(marcum_q1(np.array(rows)[:, None], b[None, :]), value)
        assert not specfun._WEIGHT_CACHE and specfun._weight_cache_bytes == 0

    def test_mass_check_runs_on_every_hit(self, empty_weight_cache, monkeypatch):
        # two columns with different windows view the one chunk of 41 rows
        a = np.linspace(20.0, 40.0, 41)
        b = np.array([25.0, 35.0])
        monkeypatch.setattr(specfun, "_MASS_TOL", -1.0)  # no mass passes
        for _ in range(2):
            with pytest.raises(ComputationError, match="captured Poisson mass"):
                marcum_q1(a[:, None], b[None, :])
            assert len(specfun._WEIGHT_CACHE) == 1
        monkeypatch.setattr(specfun, "_MASS_TOL", 1e-14)
        grid = marcum_q1(a[:, None], b[None, :])
        assert np.array_equal(grid, marcum_q1(a[::-1, None], b[None, :])[::-1])

    def test_each_chunk_is_built_once_per_call(self, empty_weight_cache, monkeypatch):
        # one lattice group of 120 quadrature nodes at W = 0.1 against three
        # spread b values: each column has its own active rows, and all three
        # view the same chunks, which a second call finds in the cache
        mu = correlation_mu(0.1)
        a_scale = math.sqrt(2.0 * mu * mu / (1.0 - mu * mu))
        u = (np.arange(8, 16)[:, None] + 0.5 + 0.5 * specfun._GK_NODES[None, :]).ravel() / a_scale
        a = a_scale * u
        b = np.array([4.9, 12.0, 19.9])
        active = np.abs(a[:, None] - b[None, :]) < specfun._MARCUM_EXIT_GAP
        assert len({tuple(np.flatnonzero(column)) for column in active.T}) == 3
        lam = 0.5 * a * a
        built = []
        pmf = specfun._poisson_pmf

        def counted(k, rate):
            if np.isin(rate, lam).all():  # a weight build, not a gamma column
                built.append(np.ravel(rate).copy())
            return pmf(k, rate)

        monkeypatch.setattr(specfun, "_poisson_pmf", counted)
        grid = marcum_q1(a[:, None], b[None, :])
        # disjoint chunks, each built once, covering every active row
        rows = np.concatenate(built)
        assert np.unique(rows).size == rows.size
        assert len(built) == len(specfun._WEIGHT_CACHE)
        assert set(lam[active.any(axis=1)]) <= set(rows)
        built.clear()
        assert np.array_equal(marcum_q1(a[:, None], b[None, :]), grid)
        assert not built
        ref = scipy.stats.ncx2.sf(b[None, :] ** 2, 2, a[:, None] ** 2)
        assert np.max(np.abs(grid - ref)) <= 1e-10

    def test_sorted_grids_skip_the_gather_with_equal_values(self):
        rng = np.random.default_rng(17)
        a = np.linspace(0.0, 60.0, 97)
        b = np.linspace(0.0, 50.0, 13)
        grid = marcum_q1(a[:, None], b[None, :])
        pa, pb = rng.permutation(a.size), rng.permutation(b.size)
        assert np.array_equal(marcum_q1(a[pa][:, None], b[pb][None, :]), grid[pa][:, pb])
        # b's axis before a's, and repeated values, take the gather
        assert np.array_equal(marcum_q1(a[None, :], b[:, None]), grid.T)
        twice = np.repeat(a, 2)
        assert np.array_equal(marcum_q1(twice[:, None], b[None, :]), np.repeat(grid, 2, axis=0))
        assert np.array_equal(marcum_q1(a, b[5]), grid[:, 5])
        assert marcum_q1(a[40], b[5]) == marcum_q1(a[[40, 40]], b[5])[0]

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
        # empty arrays, paired or as an outer grid, give an empty array
        for a, b in ((np.array([]), np.array([])), (np.empty((2, 0)), np.empty((2, 0))),
                     (np.empty((0, 3)), np.ones(3)), (np.empty((0, 1)), np.ones(2))):
            q = marcum_q1(a, b)
            assert isinstance(q, np.ndarray) and q.shape == np.broadcast_shapes(a.shape, b.shape)

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
    def test_kronrod_and_gauss_exactness(self):
        # on [-1, 1] the 15-point Kronrod rule integrates x^k exactly up to
        # degree 22 and its embedded 7-point Gauss rule up to degree 13; odd
        # degrees vanish by symmetry, and the next even degree is missed
        x = specfun._GK_NODES
        kronrod = specfun._KRONROD_WEIGHTS
        gauss = specfun._GAUSS_WEIGHTS
        for k in range(0, 26):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            kron_err = abs(math.fsum(kronrod * x ** k) - exact)
            gauss_err = abs(math.fsum(gauss * x[1::2] ** k) - exact)
            assert (kron_err <= 1e-15) == (k <= 22 or k % 2 == 1), k
            assert (gauss_err <= 1e-15) == (k <= 13 or k % 2 == 1), k
        nodes, weights = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(x[1::2], nodes, rtol=0, atol=2e-16)
        np.testing.assert_allclose(gauss, weights, rtol=0, atol=3e-16)
        assert math.fsum(kronrod) == pytest.approx(2.0, abs=1e-15)

    def test_oscillatory_value(self):
        # integral of e^{-t} cos(t) = 1/2
        val = integrate_expweighted(np.cos)
        assert val == pytest.approx(0.5, rel=1e-10)

    def test_against_scipy_quad(self):
        f = lambda t: np.exp(-0.3 * t) / (1.0 + t)
        ours = integrate_expweighted(f)
        ref, _ = quad(lambda t: math.exp(-t) * f(t), 0.0, np.inf)
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_bounds_agree_with_the_full_range(self):
        # a step at u = sqrt(t) = 2 that rounds to exactly 1 below u = 1.25
        # and to exactly 0 above u = 5.5: the closed-form head below u_lo and
        # the cut above u_hi leave the value where the full range puts it
        f = lambda t: 0.5 * sp.erfc(8.0 * (np.sqrt(t) - 2.0))
        assert f(np.array([1.25 ** 2]))[0] == 1.0
        assert f(np.array([5.5 ** 2]))[0] == 0.0
        bounded = integrate_expweighted(f, 1.25, 5.5, 0.125)
        full = integrate_expweighted(f, 0.0, math.inf, 0.125)
        ref, _ = quad(lambda u: 2.0 * u * math.exp(-u * u) * f(np.array([u * u]))[0],
                      0.0, 7.0, points=[2.0], epsabs=1e-15, limit=200)
        assert bounded == pytest.approx(ref, abs=1e-13)
        assert full == pytest.approx(ref, abs=1e-13)

    def test_unresolvable_integrand_raises(self):
        # oscillation beyond what panels of width 1/16 resolve
        with pytest.raises(AccuracyError) as err:
            integrate_expweighted(lambda t: np.cos(80.0 * t))
        assert err.value.last_estimate != err.value.previous_estimate

    def test_error_carries_the_last_two_estimates(self, monkeypatch):
        # with one halving fewer the integral stops at width 1/8; that last
        # estimate is the one before last when it stops at width 1/16
        f = lambda t: np.cos(300.0 * t)
        with pytest.raises(AccuracyError, match="not settled") as full:
            integrate_expweighted(f)
        monkeypatch.setattr(specfun, "_PANEL_HALVINGS", specfun._PANEL_HALVINGS - 1)
        with pytest.raises(AccuracyError) as shorter:
            integrate_expweighted(f)
        assert full.value.previous_estimate == shorter.value.last_estimate
        assert full.value.last_estimate != full.value.previous_estimate

    def test_block_columns_keep_their_own_estimates(self):
        # cos(2t) settles on panels of width 1/2, cos(12t) only at 1/16; the
        # block refines for cos(12t) alone, and cos(2t) keeps its value
        sizes = []

        def block(t):
            sizes.append(t.size)
            return np.stack([np.cos(2.0 * t), np.cos(12.0 * t)], axis=1)

        values = integrate_expweighted(block, np.zeros(2), np.full(2, np.inf))
        assert values.shape == (2,)
        # 1, 2, 4, 7 and 13 lattice groups of 8 panels (120 nodes) each
        assert sizes == [120] * 27
        alone = []
        assert values[0] == integrate_expweighted(
            lambda t: (alone.append(t.size), np.cos(2.0 * t))[1])
        assert alone == [120] * 3
        assert values[1] == integrate_expweighted(lambda t: np.cos(12.0 * t))
        assert values == pytest.approx([1.0 / 5.0, 1.0 / 145.0], rel=1e-9)

    def test_one_unsettled_column_fails_the_block(self):
        with pytest.raises(AccuracyError) as err:
            integrate_expweighted(
                lambda t: np.stack([np.exp(-t), np.cos(80.0 * t)], axis=1),
                np.zeros(2), np.full(2, np.inf))
        assert err.value.last_estimate != err.value.previous_estimate

    def test_integrand_columns_must_match_the_bounds(self):
        with pytest.raises(DomainError, match="2 columns for 1 integrals"):
            integrate_expweighted(lambda t: np.stack([t, t], axis=1))


LADDER = (64, 128, 256, 512, 1024, 2048)


def _golub_welsch(n):
    """The dense-eigh Golub-Welsch rule the recurrence construction replaced,
    kept here as an accuracy yardstick."""
    k = np.arange(n, dtype=float)
    jacobi = np.diag(2.0 * k + 1.0)
    off = np.arange(1.0, n)
    idx = np.arange(n - 1)
    jacobi[idx, idx + 1] = off
    jacobi[idx + 1, idx] = off
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, vectors[0] ** 2


def _mp_laguerre(n, x):
    """L_n(x) and L_{n-1}(x) in multiprecision."""
    prev, cur = mpmath.mpf(1), 1 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur, prev


def _mp_root_and_weight(n, x0):
    """The zero of L_n next to x0 (one Newton step from a double-precision
    start gives ~30 digits) and its weight x / (n^2 L_{n-1}(x)^2)."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        ln, lm = _mp_laguerre(n, x)
        x -= x * ln / (n * (ln - lm))
        _, lm = _mp_laguerre(n, x)
        return x, x / (n * n * lm * lm)


@pytest.fixture
def fresh_rules(monkeypatch):
    """An empty rule cache for one test, so the test builds the rules it
    asks for; the process cache is restored afterwards."""
    monkeypatch.setattr(specfun, "_LAGUERRE_RULES", {})


class TestLaguerreRule:
    @pytest.mark.parametrize("n", LADDER)
    def test_against_mpmath_and_golub_welsch(self, n):
        nodes, weights = specfun._laguerre_rule(n)
        old_nodes, old_weights = _golub_welsch(n)
        node_err, old_node_err, weight_err, old_weight_err = [], [], [], []
        for i in sorted({0, 1, 2, n // 16, n // 4, n // 2, n - 2, n - 1}):
            root, weight = _mp_root_and_weight(n, nodes[i])
            node_err.append(float(abs(nodes[i] - root) / root))
            old_node_err.append(float(abs(old_nodes[i] - root) / root))
            if weight > 1e-300:  # away from subnormal underflow
                weight_err.append(float(abs(weights[i] - weight) / weight))
                old_weight_err.append(float(abs(old_weights[i] - weight) / weight))
        # the worst sampled node and weight at least as accurate as in the
        # dense eigh rule (whose smallest node is off by 7e-11 at n = 2048
        # and whose far weights are noise), and at rounding level outright;
        # a weight's error grows like eps x, up to 5e-14 at x ~ 700
        assert max(node_err) <= max(old_node_err)
        assert max(weight_err) <= max(old_weight_err)
        assert max(node_err) <= 5e-15
        assert max(weight_err) <= 1e-13

    @pytest.mark.parametrize("n", LADDER)
    def test_moments(self, n):
        # sum w x^k = k!, exact for degree < 2n
        nodes, weights = specfun._laguerre_rule(n)
        for k in range(5):
            moment = math.fsum(weights * nodes ** k)
            assert moment == pytest.approx(math.factorial(k), rel=1e-13)

    @pytest.mark.parametrize("n", LADDER)
    def test_shape_order_and_weights(self, n):
        nodes, weights = specfun._laguerre_rule(n)
        assert nodes.shape == weights.shape == (n,)
        assert nodes[0] > 0.0 and np.all(np.diff(nodes) > 0.0)
        assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
        # far-out weights underflow to true zeros, not eigenvector noise
        if n >= 256:
            assert weights[-1] == 0.0

    def test_small_rules_against_numpy(self):
        for n in range(1, 21):
            nodes, weights = specfun._laguerre_rule(n)
            ref_nodes, ref_weights = laggauss(n)
            np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-13)
            np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=1e-300)

    def test_read_only_and_built_once(self, fresh_rules, monkeypatch):
        passes = []
        run_pass = specfun._laguerre_pass

        def counted(x, n):
            passes.append(x.size)
            return run_pass(x, n)

        monkeypatch.setattr(specfun, "_laguerre_pass", counted)
        nodes, weights = specfun._laguerre_rule(128)
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 1.0
        # the guesses are close enough that one Halley pass lands every
        # node and a second confirms it
        assert passes == [128, 128]
        again = specfun._laguerre_rule(128)
        assert again[0] is nodes and again[1] is weights
        assert passes == [128, 128]

    @pytest.mark.parametrize("n", LADDER)
    def test_guesses_within_3e_6(self, n):
        nodes, _ = specfun._laguerre_rule(n)
        guess = specfun._laguerre_guess(n)
        assert np.max(np.abs(guess - nodes) / nodes) <= 3e-6

    def test_edge_zero_tables(self):
        np.testing.assert_allclose(specfun._J0_ZEROS, sp.jn_zeros(0, 3), rtol=1e-15)
        np.testing.assert_allclose(specfun._AIRY_ZEROS, -sp.ai_zeros(3)[0], rtol=1e-15)

    def test_memory_stays_linear(self, fresh_rules):
        # the dense Jacobi matrix of the eigh construction alone was 33.5 MB
        tracemalloc.start()
        try:
            specfun._laguerre_rule(2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_unsettled_nodes_raise(self, fresh_rules, monkeypatch):
        monkeypatch.setattr(specfun, "_LAGUERRE_PASSES", 1)
        with pytest.raises(ComputationError, match="did not settle"):
            specfun._laguerre_rule(64)
        assert 64 not in specfun._LAGUERRE_RULES

    def test_colliding_nodes_raise(self, fresh_rules, monkeypatch):
        # guesses that all sit next to one zero settle onto it together
        monkeypatch.setattr(specfun, "_laguerre_guess",
                            lambda n: np.full(n, 0.0224))
        with pytest.raises(ComputationError, match="strictly increasing"):
            specfun._laguerre_rule(64)
