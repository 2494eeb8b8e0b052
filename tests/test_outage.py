"""Outage probabilities and the feasible-rate band.

The destination outage has a closed form; its oracle here is direct numeric
integration over the interferer power. The monitor outage quadrature is
checked against frozen multiprecision values of the defining integral and
against its own closed-form special cases.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fasmon import (ConstraintInfeasibleError, DegenerateRateError,
                    DerivedLink, DomainError, RatePoint, eta_factor,
                    monitor_outage_approx, monitor_outage_bound,
                    monitor_outage_true, pm_for_rate, rate_approx,
                    rate_bound, rate_bounds, rate_for_pm, rate_true,
                    sd_outage)
from fasmon.outage import _outage_true, rates_true

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


def _make_link(mu, n_ports, gamma_cap):
    return DerivedLink(mu=mu, eta=eta_factor(mu, n_ports), gamma_cap=gamma_cap)


class TestRatePoint:
    def test_threshold(self):
        rp = RatePoint(1.5)
        assert rp.gamma_th == pytest.approx(2.0 ** 1.5 - 1.0, rel=1e-15)
        assert RatePoint(0.0).gamma_th == 0.0

    def test_explicit_threshold_consistency(self):
        ok = RatePoint(2.0, gamma_th=3.0)
        assert ok.gamma_th == 3.0
        with pytest.raises(DomainError):
            RatePoint(2.0, gamma_th=3.5)

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
        # huge p_m sigma_f2 pushes the solver onto the logarithmic form;
        # the constraint must still hold at the band bottom
        strong = dataclasses.replace(ref_params, p_m_max=1e9, sigma_f2=10.0)
        r_min, _ = rate_bounds(strong)
        out = sd_outage(strong, RatePoint(r_min), strong.p_m_max)
        assert out == pytest.approx(strong.delta, abs=1e-10)

    def test_weak_jamming_regime(self, ref_params):
        weak = dataclasses.replace(ref_params, p_m_max=1e-6)
        r_min, r_max = rate_bounds(weak)
        assert r_max - r_min < 1e-5
        out = sd_outage(weak, RatePoint(r_min), weak.p_m_max)
        assert out == pytest.approx(weak.delta, abs=1e-10)


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
            link = _make_link(mu, n_ports, gcap)
            rp = RatePoint(math.log2(1.0 + gamma_th))
            assert monitor_outage_true(link, rp, n_ports) == pytest.approx(
                ref, abs=1e-10, rel=1e-8)

    def test_single_port_closed_form(self, ref_link):
        for r in (0.3, 1.0, 1.5, 2.4):
            rp = RatePoint(r)
            closed = 1.0 - math.exp(-rp.gamma_th / ref_link.gamma_cap)
            assert monitor_outage_true(ref_link, rp, 1) == pytest.approx(
                closed, abs=1e-8)

    def test_uncorrelated_closed_form(self):
        link = _make_link(0.0, 8, 1.5848931924611135)
        for r, n in ((0.8, 2), (1.5, 8), (2.0, 32)):
            rp = RatePoint(r)
            closed = (1.0 - math.exp(-rp.gamma_th / link.gamma_cap)) ** n
            assert monitor_outage_true(link, rp, n) == pytest.approx(
                closed, rel=1e-10, abs=1e-12)

    def test_zero_threshold(self, ref_link):
        assert monitor_outage_true(ref_link, RatePoint(0.0), 8) == 0.0

    def test_sharp_transition_escalates_rule(self):
        # mu near 1 with many ports needs the 2048-node rule to converge
        link = _make_link(0.9781149303682883, 22, 16.342607691885046)
        rp = RatePoint(2.6157292487448686686)
        value = monitor_outage_true(link, rp, 22)
        assert value == pytest.approx(0.06861206041387832, abs=1e-9)

    def test_block_values_equal_one_point_values(self, ref_params, ref_link):
        # bitwise: a rate's exact outage may not depend on the block it is in
        rates = np.linspace(*rate_bounds(ref_params), 37)
        block = rates_true(ref_params, ref_link, rates)
        for r, value in zip(rates, block):
            assert value == rate_true(ref_params, ref_link, RatePoint(float(r)))
        high = _make_link(0.9781149303682883, 22, 16.342607691885046)
        rates = np.array([2.4, 2.5, 2.6157292487448686686, 2.7])
        gammas = np.array([RatePoint(r).gamma_th for r in rates])
        block = _outage_true(high, gammas, 22)
        for r, value in zip(rates, block):
            assert value == monitor_outage_true(high, RatePoint(r), 22)

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


class TestRateWrappers:
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
