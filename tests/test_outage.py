"""Outage probabilities and the feasible-rate band.

The destination outage has a closed form; its oracle here is direct numeric
integration over the interferer power. The monitor outage quadrature is
checked against frozen multiprecision values of the defining integral,
against its own closed-form special cases, and, up to near-unit port
correlation, against scipy's noncentral chi-square CDF under adaptive
quadrature.
"""

import contextlib
import dataclasses
import math
import sys
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import chndtr

from fasmon import (ComputationError, ConstraintInfeasibleError,
                    DegenerateRateError, DerivedLink, DomainError,
                    FasmonError, RatePoint,
                    SystemParams, correlation_mu, derive_link, eta_factor,
                    monitor_outage_approx, monitor_outage_bound,
                    monitor_outage_true, pm_for_rate, rate_approx,
                    rate_bound, rate_bounds, rate_for_pm, rate_true,
                    sd_outage)
import fasmon.optimize
import fasmon.outage
from fasmon.channel import _MAX_PORTS
from fasmon.optimize import RateJob, exact_rates
from fasmon.outage import _outage_true, link_rates_true

R_MIN_REF = 0.39114170868809469468
R_MAX_REF = 2.6157292487448686686

# ((gamma_th, n_ports, mu, gamma_cap), outage) multiprecision references
MONITOR_REFS = (
    ((2.0 ** 1.5 - 1.0, 8, 0.25192418235400032489, 1.5848931924611134852),
     0.049581589715836483548),
    ((2.0 ** 1.5 - 1.0, 2, 0.25192418235400032489, 1.5848931924611134852),
     0.46910136801224887251),
    ((0.5, 4, 0.6, 2.0), 0.0038451954723015535808),
    ((3.0, 16, 0.85, 0.7), 0.90701185529456746628),
)


# mu near 1 with many ports (22 of them): a = 6.6 sqrt(t)
_HIGH_LINK = DerivedLink(mu=0.9781149303682883, gamma_cap=16.342607691885046)


def _one_rate(job):
    """A task for exact_rates: one request, job, whose exact rate it
    returns."""
    return float((yield job)[0])


def _oracle_outage(link, gamma_th, n_ports):
    """The exact outage from scipy: the noncentral chi-square CDF (chndtr,
    the kernel of scipy.stats.ncx2.cdf), which is 1 - Q1, under adaptive
    quadrature in u = sqrt(t), split into pieces 1/a wide across the step at
    u = b/a. Below u = (b - 12)/a the CDF is 1 within e^{-72}, so that part
    is the closed form 1 - e^{-u^2}."""
    mu2 = link.mu * link.mu
    a = math.sqrt(2.0 * mu2 / (1.0 - mu2))
    b = math.sqrt(2.0 * gamma_th / (link.gamma_cap * (1.0 - mu2)))

    def integrand(u):
        return 2.0 * u * math.exp(-u * u) * chndtr(b * b, 2, (a * u) ** 2) ** n_ports

    lo = max(0.0, (b - 12.0) / a)
    hi = min((b + 12.0) / a, 9.0)
    edges = sorted({min(max(b / a + k / a, lo), hi) for k in range(-12, 13)} | {lo, hi})
    total = -math.expm1(-lo * lo)
    with warnings.catch_warnings():
        # the pieces far out in the tails are at the rounding floor
        warnings.simplefilter("ignore", IntegrationWarning)
        for x0, x1 in zip(edges, edges[1:]):
            total += quad(integrand, x0, x1, epsabs=1e-17, epsrel=1e-14, limit=200)[0]
    return total


class TestRatePoint:
    def test_threshold(self):
        rp = RatePoint(1.5)
        assert rp.gamma_th == pytest.approx(2.0 ** 1.5 - 1.0, rel=1e-15)
        assert RatePoint(0.0).gamma_th == 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            RatePoint(-0.1)


class TestSdOutage:
    def test_against_numeric_integral(self, ref_params):
        # condition on the interferer power and integrate it out
        for r, p_m in ((0.8, 50.0), (1.5, 115.80906), (2.2, 800.0), (1.0, 0.0)):
            rp = RatePoint(r)
            closed = sd_outage(ref_params, rp, p_m)
            p = ref_params

            def integrand(y):
                sinr_scale = rp.gamma_th * (p_m * p.sigma_f2 * y + p.sigma_d2)
                return math.exp(-y) * math.exp(-sinr_scale / (p.p_s * p.sigma_h2))

            ref, _ = quad(integrand, 0.0, np.inf)
            assert closed == pytest.approx(1.0 - ref, rel=1e-9, abs=1e-12)

    def test_frozen_reference(self, ref_params):
        closed = sd_outage(ref_params, RatePoint(1.5), 115.80906)
        assert closed == pytest.approx(0.049999998922613911726, rel=1e-12)

    def test_zero_rate_never_fails(self, ref_params):
        out = sd_outage(ref_params, RatePoint(0.0), 500.0)
        assert out == 0.0


class TestRateBand:
    def test_reference_endpoints(self, ref_params):
        r_min, r_max = rate_bounds(ref_params)
        assert r_min == pytest.approx(R_MIN_REF, rel=1e-12)
        assert r_max == pytest.approx(R_MAX_REF, rel=1e-12)

    def test_endpoints_meet_target(self, ref_params):
        r_min, r_max = rate_bounds(ref_params)
        lo = sd_outage(ref_params, RatePoint(r_min), ref_params.p_m_max)
        hi = sd_outage(ref_params, RatePoint(r_max), 0.0)
        assert lo == pytest.approx(ref_params.delta, abs=1e-9)
        assert hi == pytest.approx(ref_params.delta, abs=1e-9)

    def test_r_max_closed_form(self, ref_params):
        # at p_m = 0 the band top solves a pure Rayleigh outage equation
        p = ref_params
        expected = math.log2(
            1.0 - p.p_s * p.sigma_h2 * math.log1p(-p.delta) / p.sigma_d2)
        _, r_max = rate_bounds(p)
        assert r_max == pytest.approx(expected, rel=1e-14)

    def test_extreme_jamming_regime(self, ref_params):
        # huge p_m sigma_f2 (A/B = 1e-10): the constraint must still hold
        # at the band bottom
        strong = dataclasses.replace(ref_params, p_m_max=1e9, sigma_f2=10.0)
        r_min, _ = rate_bounds(strong)
        out = sd_outage(strong, RatePoint(r_min), strong.p_m_max)
        assert out == pytest.approx(strong.delta, abs=1e-10)

    def test_tiny_delta_with_a_weak_direct_link(self):
        # r_max = log2(1 + x) with x = 1.5e-18 rounded to 0 and failed the
        # band check; the band top must meet the outage target to rounding,
        # which needs the expm1 form of sd_outage at delta = 1.5e-12
        params = SystemParams(p_s=1e-3, p_m_max=10, sigma_h2=1e-3, sigma_g2=1,
                              sigma_f2=1, sigma_d2=1, sigma_m2=1, delta=1.5e-12,
                              n_ports=4, aperture_w=1)
        r_min, r_max = rate_bounds(params)
        assert 0.0 < r_min < r_max
        assert r_max == pytest.approx(1.5e-18 / math.log(2.0), rel=1e-9, abs=0.0)
        hi = sd_outage(params, RatePoint(r_max), 0.0)
        assert hi == pytest.approx(params.delta, rel=1e-12, abs=0.0)
        # the band bottom's root meets the target to rounding even at this
        # delta, where the Lambert-W form W(.)/A - 1/B would cancel to about
        # 1e-4 relative
        lo = sd_outage(params, RatePoint(r_min), params.p_m_max)
        assert lo == pytest.approx(params.delta, rel=1e-12, abs=0.0)

    def test_tiny_delta_with_a_large_jamming_ratio(self):
        # B/A = 1.2e6 at delta = 4.59e-5: a Newton step from the right of
        # the root of the concave d + log1p(d B/A) overshoots below d = -A/B,
        # where log1p is undefined
        params = SystemParams(p_s=0.633, p_m_max=4.81e4, sigma_h2=1.0,
                              sigma_g2=0.305, sigma_f2=0.305, sigma_d2=0.0118,
                              sigma_m2=0.078, delta=4.59e-5, n_ports=8,
                              aperture_w=5.0)
        r_min, r_max = rate_bounds(params)
        # 50-digit root of e^{-A g}/(1 + B g) = 1 - delta, in bits
        assert r_min == pytest.approx(2.8573642293351387562e-9, rel=1e-12)
        lo = sd_outage(params, RatePoint(r_min), params.p_m_max)
        assert lo == pytest.approx(params.delta, rel=1e-12, abs=0.0)
        assert r_min < r_max

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_r_max_is_named(self, ref_params):
        # fig2 at -18 dB with p_s = 100 dB and sigma_d2 = 1e-300: the no-jamming
        # threshold -p_s sigma_h2 ln(1 - delta) / sigma_d2 overflows, and r_max
        # with it; named before any band or grid is built on it
        params = dataclasses.replace(ref_params, p_s=1e10, sigma_d2=1e-300)
        for call in (rate_bounds, lambda p: rate_for_pm(p, 0.0),
                     lambda p: pm_for_rate(p, RatePoint(1.0))):
            with pytest.raises(ComputationError, match="r_max overflows"):
                call(params)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_jamming_ratio_takes_the_closed_form_root(self, ref_params):
        # B/A = p_m sigma_f2 / sigma_d2 = 1e3 * 1e10 / 1e-300 overflows while
        # A = 1e-302 does not underflow: the noise term is lost to rounding,
        # and the root is 1/(1 + B g) = 1 - delta's, which meets the target
        params = dataclasses.replace(ref_params, sigma_f2=1e10, sigma_d2=1e-300)
        r_min = rate_for_pm(params, params.p_m_max)
        out = sd_outage(params, RatePoint(r_min), params.p_m_max)
        assert out == pytest.approx(params.delta, rel=1e-15, abs=0.0)
        assert rate_bounds(params)[0] == r_min
        assert 0.0 < r_min < rate_bounds(params)[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_jamming_coefficient_is_named(self, ref_params):
        # B = p_m sigma_f2 / (p_s sigma_h2) = 1e300 * 1e100 / 100 overflows:
        # no threshold is left above 0, and the error names B, not the
        # band it leaves empty
        params = dataclasses.replace(ref_params, p_m_max=1e300, sigma_f2=1e100)
        for call in (rate_bounds, lambda p: rate_for_pm(p, p.p_m_max)):
            with pytest.raises(ComputationError, match=r"B = p_m sigma_f2 / \(p_s sigma_h2\)"):
                call(params)
        assert rate_for_pm(params, 1e200) > 0.0

    def test_subnormal_jamming_product_keeps_the_constraint(self):
        # at r_min, gamma_th = 1.05e-300 and gamma_th p_m = 1.05e-320 is
        # subnormal, while gamma_th B = 0.0526 is not: formed left to right,
        # the outage missed delta by 2.0e-4 relative
        params = SystemParams(p_s=1e-19, p_m_max=1e-20, sigma_h2=2.0,
                              sigma_g2=1.0, sigma_f2=1e300, sigma_d2=1e-30,
                              sigma_m2=1.0, delta=0.05, n_ports=8, aperture_w=5.0)
        r_min = rate_bounds(params)[0]
        out = sd_outage(params, RatePoint(r_min), params.p_m_max)
        assert out == pytest.approx(params.delta, rel=1e-14, abs=0.0)

    def test_band_bottom_is_the_full_power_rate(self, ref_params):
        # one root for both, so bit for bit
        assert rate_bounds(ref_params)[0] == rate_for_pm(ref_params,
                                                          ref_params.p_m_max)

    def test_weak_jamming_regime(self, ref_params):
        weak = dataclasses.replace(ref_params, p_m_max=1e-6)
        r_min, r_max = rate_bounds(weak)
        assert r_max - r_min < 1e-5
        out = sd_outage(weak, RatePoint(r_min), weak.p_m_max)
        assert out == pytest.approx(weak.delta, abs=1e-10)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


class TestDestinationProperties:
    # sigma_g2 and sigma_m2 play no part on the destination side; the
    # example has d = A gamma_min near 1e-17, where a stop test absolute
    # below d = 1 ends Newton after one step, delta/2 off the target
    @settings(max_examples=60, deadline=None, database=None)
    @example(p_s=1.0, p_m_max=1e6, sigma_h2=1.0, sigma_f2=100.0, sigma_d2=1e-3,
             delta=1e-6, frac=0.5)
    @given(p_s=_log_uniform(1e-2, 1e4), p_m_max=_log_uniform(1e-2, 1e6),
           sigma_h2=_log_uniform(1e-2, 1e2), sigma_f2=_log_uniform(1e-3, 1e2),
           sigma_d2=_log_uniform(1e-3, 1e2), delta=_log_uniform(1e-6, 0.8),
           frac=st.floats(0.0, 1.0))
    def test_constraint_holds_across_the_band(self, p_s, p_m_max, sigma_h2,
                                              sigma_f2, sigma_d2, delta, frac):
        params = SystemParams(p_s=p_s, p_m_max=p_m_max, sigma_h2=sigma_h2,
                              sigma_g2=1.0, sigma_f2=sigma_f2, sigma_d2=sigma_d2,
                              sigma_m2=1.0, delta=delta, n_ports=8, aperture_w=5.0)
        try:
            r_min, r_max = rate_bounds(params)
        except FasmonError:
            return
        assert 0.0 < r_min <= r_max
        rate = r_min + frac * (r_max - r_min)
        p_m = pm_for_rate(params, RatePoint(rate))
        # worst seen on 20000 random sets and the ranges' corners: 2.7e-15
        # delta at the band ends, 4e-15 delta and 4.4e-15 relative inside
        for r, power, tol in ((r_min, p_m_max, 1e-14), (r_max, 0.0, 1e-14),
                              (rate, p_m, 1e-13)):
            residual = sd_outage(params, RatePoint(r), power) - delta
            assert abs(residual) <= tol * delta, (r, power)
        assert rate_for_pm(params, p_m) == pytest.approx(rate, rel=1e-13, abs=0.0)
        assert r_min == rate_for_pm(params, p_m_max)

    # every power and variance in 10^[-300, 300], where p_s sigma_h2,
    # gamma_th sigma_f2 and A = sigma_d2 / (p_s sigma_h2) may underflow to 0
    # or overflow; the example is default fig2 at -18 dB with sigma_h2 =
    # 1e-200, whose gamma_th sigma_f2 underflows at every rate of the band
    @settings(max_examples=200, deadline=None, database=None)
    @example(p_s=100.0, p_m_max=1000.0, sigma_h2=1e-200, sigma_f2=1.5848931924611134e-202,
             sigma_d2=1.0, delta=0.05, frac=0.5)
    @given(p_s=_log_uniform(1e-300, 1e300), p_m_max=_log_uniform(1e-300, 1e300),
           sigma_h2=_log_uniform(1e-300, 1e300), sigma_f2=_log_uniform(1e-300, 1e300),
           sigma_d2=_log_uniform(1e-300, 1e300), delta=_log_uniform(1e-6, 0.8),
           frac=st.floats(0.0, 1.0))
    def test_in_range_or_fasmon_error_at_any_scale(self, p_s, p_m_max, sigma_h2,
                                                   sigma_f2, sigma_d2, delta, frac):
        params = SystemParams(p_s=p_s, p_m_max=p_m_max, sigma_h2=sigma_h2,
                              sigma_g2=1.0, sigma_f2=sigma_f2, sigma_d2=sigma_d2,
                              sigma_m2=1.0, delta=delta, n_ports=8, aperture_w=5.0)
        with contextlib.suppress(FasmonError):
            assert rate_for_pm(params, frac * p_m_max) >= 0.0
        try:
            r_min, r_max = rate_bounds(params)
        except FasmonError:
            return
        # an r_max that would overflow to inf raises ComputationError
        assert 0.0 < r_min <= r_max < math.inf
        rate = min(r_min + frac * (r_max - r_min), r_max)
        with contextlib.suppress(FasmonError):
            assert 0.0 <= pm_for_rate(params, RatePoint(rate)) <= p_m_max


class TestMonitorOutageProperties:
    # down to W = 1e-3, where mu is within 1e-6 of 1; the exact outage
    # refuses a^2/2 > 5e5 with a ComputationError
    @settings(max_examples=15, deadline=None, database=None)
    @given(aperture_w=_log_uniform(1e-3, 20.0), n_ports=st.integers(1, 64),
           frac=st.floats(0.0, 1.0))
    def test_outage_in_range_and_above_bound_and_approx(self, ref_params,
                                                        aperture_w, n_ports,
                                                        frac):
        params = dataclasses.replace(ref_params, aperture_w=aperture_w,
                                     n_ports=n_ports)
        r_min, r_max = rate_bounds(params)
        rp = RatePoint(r_min + frac * (r_max - r_min))
        try:
            link = derive_link(params)
            true = monitor_outage_true(link, rp, n_ports)
            bound = monitor_outage_bound(link, rp, n_ports)
            approx = monitor_outage_approx(link, rp, n_ports)
        except FasmonError:
            return
        assert 0.0 <= true <= 1.0
        assert bound <= true + 1e-9
        assert approx <= true + 1e-9


# links of the batch property: the reference link, the same mu at another
# gain, mu = 0 (the closed form) and mu near 1 with a sharp step
_BATCH_LINKS = (
    DerivedLink(mu=0.25192418235400032489, gamma_cap=1.5848931924611134852),
    DerivedLink(mu=0.25192418235400032489, gamma_cap=0.7),
    DerivedLink(mu=0.0, gamma_cap=1.5848931924611135),
    _HIGH_LINK,
)
_BATCH_JOB = st.tuples(st.integers(0, len(_BATCH_LINKS) - 1),
                       st.sampled_from([0.0, 0.5, 2.4, 2.6]) | st.floats(0.0, 4.0),
                       st.sampled_from([1, 2, 8, 22]))


# one mu at two gains, the second twice the first: R = 2 on the first and
# R = log2 7 on the second have equal gamma_th/Gamma (3/Gamma)
_BLOCK_LINKS = (_BATCH_LINKS[0], DerivedLink(mu=_BATCH_LINKS[0].mu,
                                             gamma_cap=2.0 * _BATCH_LINKS[0].gamma_cap))
_BLOCK_COLUMN = st.tuples(st.integers(0, 1),
                          st.sampled_from([0.0, 1.0, 2.0, math.log2(7.0)]) | st.floats(0.0, 4.0),
                          st.sampled_from([1, 2, 8]))


class TestRateBatchProperties:
    @settings(max_examples=10, deadline=None, database=None)
    @given(columns=st.lists(_BLOCK_COLUMN, min_size=1, max_size=8),
           repeats=st.lists(st.integers(0, 7), min_size=1, max_size=8))
    def test_block_with_repeats_equals_each_column_alone(self, columns, repeats):
        # one link_rates_true block on one mu, each repeat a copy of one of
        # its columns: every value is the column's alone, bit for bit
        block = columns + [columns[k % len(columns)] for k in repeats]
        values = link_rates_true([_BLOCK_LINKS[k] for k, _, _ in block],
                                 [r for _, r, _ in block], [n for _, _, n in block])
        for (k, r, n), value in zip(block, values):
            assert value.hex() == link_rates_true(_BLOCK_LINKS[k], [r], n)[0].hex(), (k, r, n)

    @settings(max_examples=10, deadline=None, database=None)
    @example(jobs=[(3, 2.6, 22), (0, 2.4, 8), (2, 0.5, 8), (3, 0.0, 22),
                   (0, 0.5, 1), (1, 2.4, 8), (0, 2.4, 8), (3, 2.4, 2),
                   (0, 0.0, 8), (3, 2.6, 8)])
    @given(jobs=st.lists(_BATCH_JOB, min_size=1, max_size=24))
    def test_batch_equals_one_rate_at_a_time(self, ref_params, jobs):
        # several links, unsorted and repeated rates, port counts mixed in
        # one block, N = 1, mu = 0 and R = 0: every value is the one-point
        # rate_true's, bit for bit
        batch = exact_rates([_one_rate(RateJob(_BATCH_LINKS[k], r, n)) for k, r, n in jobs])
        for (k, r, n), value in zip(jobs, batch):
            params = dataclasses.replace(ref_params, n_ports=n)
            try:
                alone = rate_true(params, _BATCH_LINKS[k], RatePoint(r))
            except FasmonError as exc:
                alone = exc
            if isinstance(alone, FasmonError):
                assert type(value) is type(alone) and str(value) == str(alone)
            else:
                assert value.hex() == alone.hex(), (k, r, n)


class TestPmForRate:
    def test_round_trip(self, ref_params):
        r_min, r_max = rate_bounds(ref_params)
        for r in np.linspace(r_min, r_max, 50):
            p_m = pm_for_rate(ref_params, RatePoint(float(r)))
            assert 0.0 <= p_m <= ref_params.p_m_max
            assert rate_for_pm(ref_params, p_m) == pytest.approx(float(r), abs=1e-10)

    def test_band_endpoints(self, ref_params):
        r_min, r_max = rate_bounds(ref_params)
        assert pm_for_rate(ref_params, RatePoint(r_min)) == pytest.approx(
            ref_params.p_m_max, rel=1e-9)
        assert pm_for_rate(ref_params, RatePoint(r_max)) == pytest.approx(0.0, abs=1e-9)
        assert rate_for_pm(ref_params, 0.0) == pytest.approx(r_max, rel=1e-14)

    def test_out_of_band_rejed(self, ref_params):
        r_min, r_max = rate_bounds(ref_params)
        with pytest.raises(ConstraintInfeasibleError):
            pm_for_rate(ref_params, RatePoint(r_max + 0.01))
        with pytest.raises(ConstraintInfeasibleError):
            pm_for_rate(ref_params, RatePoint(r_min - 0.01))

    def test_zero_rate_degenerate(self, ref_params):
        with pytest.raises(DegenerateRateError):
            pm_for_rate(ref_params, RatePoint(0.0))


class TestMonitorOutage:
    def test_frozen_references(self):
        for (gamma_th, n_ports, mu, gcap), ref in MONITOR_REFS:
            link = DerivedLink(mu=mu, gamma_cap=gcap)
            rp = RatePoint(math.log2(1.0 + gamma_th))
            assert monitor_outage_true(link, rp, n_ports) == pytest.approx(
                ref, abs=1e-10, rel=1e-8)

    def test_single_port_closed_form(self, ref_link):
        for r in (0.3, 1.0, 1.5, 2.4):
            rp = RatePoint(r)
            closed = 1.0 - math.exp(-rp.gamma_th / ref_link.gamma_cap)
            assert monitor_outage_true(ref_link, rp, 1) == pytest.approx(
                closed, abs=1e-8)

    def test_single_port_near_full_correlation(self, ref_params):
        # at W = 1e-3 the best-port quadrature would need Marcum Q1 past its
        # Poisson mass check; one port takes the closed form at any mu
        params = dataclasses.replace(ref_params, aperture_w=1e-3, n_ports=1)
        link = derive_link(params)
        rp = RatePoint(rate_bounds(params)[0])
        assert monitor_outage_true(link, rp, 1) == \
            -math.expm1(-rp.gamma_th / link.gamma_cap)

    def test_uncorrelated_closed_form(self):
        link = DerivedLink(mu=0.0, gamma_cap=1.5848931924611135)
        for r, n in ((0.8, 2), (1.5, 8), (2.0, 32)):
            rp = RatePoint(r)
            closed = (1.0 - math.exp(-rp.gamma_th / link.gamma_cap)) ** n
            assert monitor_outage_true(link, rp, n) == pytest.approx(
                closed, rel=1e-10, abs=1e-12)

    def test_zero_threshold(self, ref_link):
        assert monitor_outage_true(ref_link, RatePoint(0.0), 8) == 0.0

    @pytest.mark.parametrize("n_ports", [_MAX_PORTS + 1, 2 ** 64])
    def test_port_count_past_int64_is_a_domain_error(self, ref_link, n_ports):
        rp = RatePoint(1.0)
        with pytest.raises(DomainError, match="n_ports must lie in"):
            monitor_outage_true(ref_link, rp, n_ports)
        with pytest.raises(DomainError, match="n_ports must lie in"):
            link_rates_true(ref_link, [1.0, 2.0], [8, n_ports])

    def test_port_count_past_int64_fails_only_its_job(self, ref_params, ref_link):
        # exact_rates, the path of evaluate_scheme and of a run, reports the
        # DomainError as that job's result
        rates = exact_rates([_one_rate(RateJob(ref_link, 1.0, 8)),
                             _one_rate(RateJob(ref_link, 1.0, 2 ** 64))])
        assert rates[0] == rate_true(ref_params, ref_link, RatePoint(1.0))
        assert isinstance(rates[1], DomainError)

    def test_overflowing_threshold_fails_only_its_job(self, ref_params, ref_link):
        # R = 2000 has no finite 2^R - 1: that request gets the DomainError
        # RatePoint raises, and the request evaluated with it keeps its value
        rates = exact_rates([_one_rate(RateJob(ref_link, 1.0, 8)),
                             _one_rate(RateJob(ref_link, 2000.0, 8))])
        assert rates[0] == rate_true(ref_params, ref_link, RatePoint(1.0))
        assert isinstance(rates[1], DomainError)
        with pytest.raises(DomainError) as alone:
            RatePoint(2000.0)
        assert str(rates[1]) == str(alone.value)
        assert RatePoint(1024.0).gamma_th < math.inf

    def test_equal_looking_jobs_stay_apart(self, ref_link):
        # exact_rates evaluates a round's requests on one mu in one call,
        # with one port count when all share it; True == 1 and -0.0 == 0.0,
        # but a bool port count is still refused and R = -0.0 still gives
        # -0.0, as each does alone
        rates = exact_rates([_one_rate(RateJob(ref_link, 1.0, 1)),
                             _one_rate(RateJob(ref_link, 1.0, True))])
        assert rates[0] == link_rates_true(ref_link, [1.0], 1)[0]
        assert isinstance(rates[1], DomainError)
        rates = exact_rates([_one_rate(RateJob(ref_link, 0.0, 8)),
                             _one_rate(RateJob(ref_link, -0.0, 8))])
        assert [r.hex() for r in rates] == ["0x0.0p+0", "-0x0.0p+0"]

    def test_repeated_columns_are_evaluated_once(self, ref_link, monkeypatch):
        # a block's columns with equal (N, b) are integrated once: repeated
        # rates, and two links whose gamma_th/Gamma is equal (3/Gamma at
        # R = 2 and 6/(2 Gamma) at R = log2 7); every value is its column's
        # alone, bit for bit
        def recording(f, u_lo, u_hi, width):
            columns.append(np.size(u_lo))
            return real_integrate(f, u_lo, u_hi, width)

        real_integrate = fasmon.outage.integrate_expweighted
        other = DerivedLink(mu=ref_link.mu, gamma_cap=2.0 * ref_link.gamma_cap)
        links = [ref_link, ref_link, other, ref_link, ref_link, ref_link, other]
        rates = [2.0, 1.0, math.log2(7.0), 2.0, 1.0, 3.0, math.log2(7.0)]
        ports = [8, 8, 8, 8, 4, 8, 8]
        assert RatePoint(2.0).gamma_th / ref_link.gamma_cap == \
            RatePoint(math.log2(7.0)).gamma_th / other.gamma_cap
        alone = [link_rates_true(link, [r], n)[0].hex()
                 for link, r, n in zip(links, rates, ports)]
        columns = []
        monkeypatch.setattr(fasmon.outage, "integrate_expweighted", recording)
        block = link_rates_true(links, rates, ports)
        # (8, b(2)), (8, b(1)), (4, b(1)) and (8, b(3))
        assert columns == [4]
        assert [value.hex() for value in block] == alone

    def test_failing_group_is_evaluated_again_one_request_at_a_time(
            self, ref_link, monkeypatch):
        # a two-request group with one failing column makes one shared call,
        # then one call per request, and only the failing request fails; a
        # lone failing request is evaluated once and takes its error at once.
        # A retry runs outside the handler of the shared call's error, whose
        # traceback would keep that call's frames and arrays alive
        def failing_rates(link, rates, n_ports):
            assert sys.exc_info()[1] is None
            calls.append(len(rates))
            if 2.0 in np.asarray(rates):
                raise ComputationError("synthetic failure at R = 2")
            return link_rates_true(link, rates, n_ports)

        monkeypatch.setattr(fasmon.optimize, "link_rates_true", failing_rates)
        calls = []
        rates = exact_rates([_one_rate(RateJob(ref_link, 1.0, 8)),
                             _one_rate(RateJob(ref_link, 2.0, 8))])
        assert calls == [2, 1, 1]
        assert rates[0] == link_rates_true(ref_link, [1.0], 8)[0]
        assert isinstance(rates[1], ComputationError)
        calls = []
        rates = exact_rates([_one_rate(RateJob(ref_link, 2.0, 8))])
        assert calls == [1]
        assert isinstance(rates[0], ComputationError)

    def test_sharp_transition_matches_the_oracle(self):
        # mu near 1 with many ports: a = 6.6 sqrt(t), so the integrand
        # steps within about 1/6.6 in u = sqrt(t)
        link = _HIGH_LINK
        rp = RatePoint(2.6157292487448686686)
        value = monitor_outage_true(link, rp, 22)
        assert value == pytest.approx(_oracle_outage(link, rp.gamma_th, 22), abs=1e-12)
        assert value == pytest.approx(0.06861206041387832, abs=1e-9)

    def test_block_values_equal_one_point_values(self, ref_params, ref_link):
        # bitwise: a rate's exact outage may not depend on the block it is in
        rates = np.linspace(*rate_bounds(ref_params), 37)
        block = link_rates_true(ref_link, rates, ref_params.n_ports)
        for r, value in zip(rates, block):
            assert value == rate_true(ref_params, ref_link, RatePoint(float(r)))
        high = _HIGH_LINK
        rates = np.array([2.4, 2.5, 2.6157292487448686686, 2.7])
        gammas = np.array([RatePoint(r).gamma_th for r in rates])
        block = _outage_true(high, gammas, 22)[0]
        for r, value in zip(rates, block):
            assert value == monitor_outage_true(high, RatePoint(r), 22)

    def test_cold_and_warm_weight_cache_agree(self, empty_weight_cache):
        # the integrand's nodes repeat from call to call, so the second
        # evaluation takes every Poisson-weight block from the cache
        high = _HIGH_LINK
        gammas = np.array([RatePoint(r).gamma_th for r in (2.4, 2.5, 2.6, 2.7)])
        cold = _outage_true(high, gammas, 22)[0]
        assert np.array_equal(_outage_true(high, gammas, 22)[0], cold)
        for gamma, value in zip(gammas, cold):
            empty_weight_cache()
            single = _outage_true(high, np.array([gamma]), 22)[0]
            assert single[0] == value
            assert np.array_equal(_outage_true(high, np.array([gamma]), 22)[0], single)

    def test_bound_formula_and_direction(self, ref_link):
        n = 8
        for r in (0.5, 1.2, 2.0, 2.6):
            rp = RatePoint(r)
            c = ref_link.gamma_cap * (1.0 - ref_link.mu ** 2)
            expected = eta_factor(ref_link.mu, n) * (-math.expm1(-rp.gamma_th / c)) ** n
            lower = monitor_outage_bound(ref_link, rp, n)
            assert lower == pytest.approx(expected, rel=1e-14)
            assert lower <= monitor_outage_true(ref_link, rp, n) + 1e-9

    def test_approx_formula_and_direction(self, ref_link):
        n = 8
        for r in (0.5, 1.2, 2.0, 2.6):
            rp = RatePoint(r)
            expected = 1.0 - n * math.exp(-rp.gamma_th / ref_link.gamma_cap)
            approx = monitor_outage_approx(ref_link, rp, n)
            assert approx == pytest.approx(expected, rel=1e-14)
            assert approx <= monitor_outage_true(ref_link, rp, n) + 1e-9


# the grid of apertures and port counts on which the Laguerre rules used
# before failed for every W <= 0.05 and for N >= 8 at W = 0.1
ORACLE_GRID = [(w, n) for w in (0.01, 0.02, 0.05, 0.1, 0.5, 1.0, 5.0)
               for n in (2, 8, 32, 64)]
# a^2/2 grows like 1/(1 - mu^2); 1 - mu^2 is 1.5e-5 at W = 0.003
EXTREME_GRID = [(w, n, r) for w in (0.003, 0.001, 1e-4) for n in (2, 64)
                for r in (0.5, 4.0)]


class TestHighCorrelation:
    @pytest.mark.parametrize("aperture_w, n_ports", ORACLE_GRID)
    def test_against_the_oracle(self, ref_params, aperture_w, n_ports):
        params = dataclasses.replace(ref_params, aperture_w=aperture_w,
                                     n_ports=n_ports)
        link = derive_link(params)
        for r in (0.5, 2.0, 4.0):
            rp = RatePoint(r)
            value = monitor_outage_true(link, rp, n_ports)
            oracle = _oracle_outage(link, rp.gamma_th, n_ports)
            assert value == pytest.approx(oracle, abs=1e-12), r

    @pytest.mark.parametrize("aperture_w, n_ports, rate", EXTREME_GRID)
    def test_extreme_correlation_is_right_or_typed(self, ref_params, aperture_w,
                                                   n_ports, rate):
        # computed within bounded memory and time, or refused with a
        # FasmonError
        params = dataclasses.replace(ref_params, aperture_w=aperture_w,
                                     n_ports=n_ports)
        link = derive_link(params)
        rp = RatePoint(rate)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            value = monitor_outage_true(link, rp, n_ports)
        except FasmonError:
            value = None
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert peak < 32 * 2 ** 20
        if value is not None:
            assert value == pytest.approx(
                _oracle_outage(link, rp.gamma_th, n_ports), abs=1e-12)


class TestRateWrappers:
    def test_block_thresholds_are_the_rate_point_ones(self, ref_params, ref_link,
                                                      monkeypatch):
        seen = []

        def fake_outage(link, gammas, n_ports):
            seen.append(gammas)
            return np.zeros(gammas.shape), np.ones(gammas.shape)

        monkeypatch.setattr(fasmon.outage, "_outage_true", fake_outage)
        rates = np.linspace(*rate_bounds(ref_params), 4096)
        assert np.array_equal(link_rates_true(ref_link, rates, ref_params.n_ports), rates)
        expected = [RatePoint(float(r)).gamma_th for r in rates]
        assert seen[0].tolist() == expected

    def test_links_that_share_mu_share_a_block(self, ref_link):
        # one link per rate: each value is its own link's, bit for bit
        other = dataclasses.replace(ref_link, gamma_cap=3.0 * ref_link.gamma_cap)
        links = [ref_link, other, other, ref_link, other]
        rates = [1.0, 1.0, 1.5, 2.0, 0.5]
        ports = [8, 8, 2, 1, 16]
        block = link_rates_true(links, rates, ports)
        for link, r, n, value in zip(links, rates, ports, block):
            assert value.hex() == link_rates_true(link, [r], n)[0].hex()

    @pytest.mark.parametrize("bad", [-1.0, -math.inf, math.inf, math.nan])
    def test_block_rejects_bad_rates(self, ref_params, ref_link, bad):
        with pytest.raises(DomainError, match="rate_r must be finite"):
            link_rates_true(ref_link, np.array([1.0, bad, 2.0]), ref_params.n_ports)

    @pytest.mark.parametrize("n_ports", [1, 8])
    @pytest.mark.parametrize("mu", [0.0, None], ids=["mu0", "ref-mu"])
    def test_zero_rate_is_zero(self, ref_params, ref_link, n_ports, mu):
        # no shortcut: each formula gives exactly +0.0 at R = 0
        link = ref_link if mu is None else dataclasses.replace(ref_link, mu=mu)
        params = dataclasses.replace(ref_params, n_ports=n_ports)
        for rate in (rate_true, rate_bound, rate_approx):
            value = rate(params, link, RatePoint(0.0))
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, rate.__name__

    def test_definitions(self, ref_params, ref_link):
        rp = RatePoint(1.5)
        n = ref_params.n_ports
        assert rate_true(ref_params, ref_link, rp) == pytest.approx(
            rp.rate_r * (1.0 - monitor_outage_true(ref_link, rp, n)), rel=1e-14)
        assert rate_bound(ref_params, ref_link, rp) == pytest.approx(
            rp.rate_r * (1.0 - monitor_outage_bound(ref_link, rp, n)), rel=1e-14)
        assert rate_approx(ref_params, ref_link, rp) == pytest.approx(
            rp.rate_r * (1.0 - monitor_outage_approx(ref_link, rp, n)), rel=1e-14)

    def test_ordering(self, ref_params, ref_link):
        for r in (0.5, 1.0, 1.9, 2.6):
            rp = RatePoint(r)
            true = rate_true(ref_params, ref_link, rp)
            assert rate_bound(ref_params, ref_link, rp) >= true - 1e-9
            assert rate_approx(ref_params, ref_link, rp) >= true - 1e-9


class TestClosedFormSuccess:
    """At one port or at mu = 0 the success probability S = 1 - P is a
    closed form, so the exact rate R S keeps its relative precision where
    1 - P would round to 0."""

    def test_one_port_rate_in_the_deep_tail(self):
        # gamma_th/Gamma = 58.5, where 1 - (1 - e^{-58.5}) is exactly 0
        link = DerivedLink(mu=correlation_mu(0.41), gamma_cap=1.0)
        rate = link_rates_true(link, [math.log2(59.5)], 1)[0]
        assert rate == pytest.approx(2.3133598413680654e-25, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n_ports", [2, 8])
    def test_independent_ports_against_mpmath(self, n_ports):
        # S = 1 - (1 - e^{-x})^N, from 0.4 down to about 1e-54
        link = DerivedLink(mu=0.0, gamma_cap=1.0)
        rates = np.linspace(0.5, 7.0, 14)
        values = link_rates_true(link, rates, n_ports)
        with mpmath.workdps(40):
            for r, value in zip(rates.tolist(), values):
                x = mpmath.mpf(RatePoint(r).gamma_th)
                exact = r * -mpmath.expm1(n_ports * mpmath.log1p(-mpmath.exp(-x)))
                assert value == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("mu", [0.0, 0.25])
    def test_one_point_rate_is_the_block_rate(self, ref_params, mu):
        link = DerivedLink(mu=mu, gamma_cap=1.0)
        params = dataclasses.replace(ref_params, n_ports=1)
        rates = [0.0, 1.0, 5.0, 9.0]
        block = link_rates_true(link, rates, 1)
        assert block[-1] > 0.0
        assert [rate_true(params, link, RatePoint(r)) for r in rates] == block.tolist()
