"""Solvers for the optimal jamming power.

The bisection solver is checked against a dense evaluation of its own
objective (same function, exhaustive method); the closed-form solver against
an exact Lambert-W identity and a numeric stationarity residual; the grid
solver against a frozen value from the default configuration, and its pruned
scan against the exhaustive one on the same grid. The scheme
table is checked for completeness and for one exact-rate evaluation per
scheme at the solver's operating point.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fasmon
from fasmon import (DerivedLink, DomainError, FasmonError, RatePoint, Scheme,
                    SystemParams, db_to_linear, derive_link, evaluate_scheme,
                    monitor_outage_true, objective_terms, pm_for_rate,
                    rate_approx, rate_bound, rate_bounds, rate_true,
                    solve_bound_bisect, solve_closed_form, solve_true_grid)
from fasmon.optimize import (_PRUNE_MARGIN, _SCHEMES, _argmax_upward,
                             _rate_caps, _refine_grid_max)
from fasmon.outage import rates_true

_LN2 = math.log(2.0)

BISECT_R_REF = 1.9128737138
BISECT_PM_DB_REF = 17.3696
GRID_R_REF = 1.7810599203
GRID_VALUE_REF = 1.5193353483
CLOSED_R_REF = 1.0809081099202666073
CLOSED_PM_REF = 231.68652881863209666


def _second_link():
    return DerivedLink(mu=0.7, gamma_cap=3.0)


class TestObjectiveTerms:
    def test_derivative_split(self, ref_params, ref_link):
        # central difference of the bound objective F(x), the bound rate at
        # R = log2(1+x), against the claimed h - g decomposition
        for link, n in ((ref_link, 8), (_second_link(), 4)):
            params = dataclasses.replace(ref_params, n_ports=n)

            def big_f(x):
                return rate_bound(params, link, RatePoint(math.log1p(x) / _LN2))

            for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
                eps = 1e-6 * (1.0 + x)
                h, g = objective_terms(link, n, x)
                numeric = (big_f(x + eps) - big_f(x - eps)) / (2.0 * eps)
                assert numeric == pytest.approx(h - g, rel=1e-6, abs=1e-10)

    def test_origin_values(self, ref_link):
        h0, g0 = objective_terms(ref_link, 8, 0.0)
        assert h0 == pytest.approx(1.0 / _LN2, rel=1e-15)
        assert g0 == 0.0

    def test_sign_change_brackets_known_root(self, ref_link):
        x_lo = math.expm1((BISECT_R_REF - 0.1) * _LN2)
        x_hi = math.expm1((BISECT_R_REF + 0.1) * _LN2)
        h, g = objective_terms(ref_link, 8, x_lo)
        assert h - g > 0.0
        h, g = objective_terms(ref_link, 8, x_hi)
        assert h - g < 0.0

    def test_far_tail_negative_for_uncorrelated(self):
        link = DerivedLink(mu=0.0, gamma_cap=1.0)
        h, g = objective_terms(link, 8, 20.0)
        assert h - g < 0.0

    def test_vectorized_matches_scalar(self, ref_link):
        xs = np.array([0.0, 0.3, 1.7, 6.0])
        hv, gv = objective_terms(ref_link, 8, xs)
        for i, x in enumerate(xs):
            assert (hv[i], gv[i]) == objective_terms(ref_link, 8, float(x))

    def test_rejects_bad_input(self, ref_link):
        with pytest.raises(DomainError):
            objective_terms(ref_link, 1, 1.0)
        with pytest.raises(DomainError):
            objective_terms(ref_link, 8, -0.5)


class TestBoundBisect:
    def test_reference_point(self, ref_params, ref_link):
        res = solve_bound_bisect(ref_params, ref_link)
        assert res.r_star == pytest.approx(BISECT_R_REF, abs=1e-8)
        assert 10.0 * math.log10(res.pm_star) == pytest.approx(
            BISECT_PM_DB_REF, abs=1e-3)
        assert not res.clamped

    def test_interior_root_is_stationary(self, ref_params, ref_link):
        res = solve_bound_bisect(ref_params, ref_link)
        x = math.expm1(res.r_star * _LN2)
        h, g = objective_terms(ref_link, ref_params.n_ports, x)
        assert abs(h - g) <= 1e-6 * g

    def test_agrees_with_dense_grid(self, ref_params, ref_link):
        # exhaustive scan of the same objective: positional and value match
        res = solve_bound_bisect(ref_params, ref_link)
        r_min, r_max = rate_bounds(ref_params)
        grid = np.linspace(r_min, r_max, 10001)
        vals = [fasmon.rate_bound(ref_params, ref_link, RatePoint(float(r)))
                for r in grid]
        idx = int(np.argmax(vals))
        spacing = (r_max - r_min) / 10000.0
        assert abs(res.r_star - float(grid[idx])) <= spacing
        assert vals[idx] <= rate_bound(ref_params, ref_link,
                                       RatePoint(res.r_star)) + 1e-9

    def test_iteration_budget(self, ref_params, ref_link):
        res = solve_bound_bisect(ref_params, ref_link)
        r_min, r_max = rate_bounds(ref_params)
        per_bracket = math.ceil(math.log2((r_max - r_min) / 1e-9))
        assert 0 < res.iterations <= per_bracket + 10

    def test_clamps_to_band_top(self, ref_params):
        # strong monitor channel: the derivative stays positive over the band
        strong = dataclasses.replace(
            ref_params, sigma_g2=10.0 ** -0.4, sigma_f2=10.0 ** -0.4)
        link = derive_link(strong)
        res = solve_bound_bisect(strong, link)
        _, r_max = rate_bounds(strong)
        assert res.r_star == r_max
        assert res.clamped
        assert res.pm_star == pytest.approx(0.0, abs=1e-9)
        assert res.iterations == 0  # no sign change to bisect inside the band

    def test_consistency_fields(self, ref_params, ref_link):
        res = solve_bound_bisect(ref_params, ref_link)
        rp = RatePoint(res.r_star)
        assert res.pm_star == pytest.approx(pm_for_rate(ref_params, rp), rel=1e-12)
        assert rate_bound(ref_params, ref_link, rp) >= \
            rate_true(ref_params, ref_link, rp) - 1e-9

    def test_rejects_bad_input(self, ref_params, ref_link):
        single = dataclasses.replace(ref_params, n_ports=1)
        with pytest.raises(DomainError):
            solve_bound_bisect(single, ref_link)


class TestClosedForm:
    def test_reference_point(self, ref_params, ref_link):
        res = solve_closed_form(ref_params, ref_link)
        assert res.r_star == pytest.approx(CLOSED_R_REF, rel=1e-12)
        assert res.pm_star == pytest.approx(CLOSED_PM_REF, rel=1e-10)
        assert not res.clamped

    def test_exact_lambert_identity(self, ref_params):
        # W(2 ln 2) = ln 2 exactly, so the stationary rate is exactly 1
        link = DerivedLink(mu=0.3, gamma_cap=2.0 * _LN2)
        res = solve_closed_form(ref_params, link)
        assert res.r_star == pytest.approx(1.0, rel=1e-12)
        assert not res.clamped

    def test_stationarity_residual(self, ref_params, ref_link):
        res = solve_closed_form(ref_params, ref_link)
        gamma = math.expm1(res.r_star * _LN2)
        slope = math.exp(-gamma / ref_link.gamma_cap) * (
            1.0 - res.r_star * (gamma + 1.0) * _LN2 / ref_link.gamma_cap)
        assert abs(slope) <= 1e-10

    def test_clamps_when_stationary_point_leaves_band(self, ref_params):
        # Gamma = 10^1.6 puts the unconstrained optimum above r_max
        link = DerivedLink(mu=0.3, gamma_cap=39.81071705534972)
        r_bar = 2.6933502747977004754 / _LN2
        _, r_max = rate_bounds(ref_params)
        assert r_bar > r_max
        res = solve_closed_form(ref_params, link)
        assert res.r_star == r_max
        assert res.clamped


def _ratio_params(params, ratio_db):
    cross = db_to_linear(ratio_db) * params.sigma_h2
    return dataclasses.replace(params, sigma_g2=cross, sigma_f2=cross)


# (name, changes to the reference setup, whether the bound prunes nothing):
# the fig2 ratios, fig3 port counts, a high-correlation aperture, and a
# narrow band (a -20 dB jamming cap) whose rates all stay within the
# bound's reach of the best one
_PRUNING_CASES = (
    [(f"ratio{db}", {"ratio_db": float(db)}, False) for db in range(-20, 1, 2)]
    + [(f"ports{n}", {"n_ports": n}, False) for n in (2, 8, 16)]
    + [("aperture0.1", {"aperture_w": 0.1, "n_ports": 2}, False),
       ("narrow-band", {"p_m_max": 0.01}, True)])


class TestTrueGrid:
    @pytest.mark.parametrize("changes, prunes_nothing",
                             [case[1:] for case in _PRUNING_CASES],
                             ids=[case[0] for case in _PRUNING_CASES])
    def test_pruning_changes_no_result(self, ref_params, changes,
                                       prunes_nothing):
        # the exhaustive scan: every grid rate, the same argmax and golden pass
        changes = dict(changes)
        params = ref_params
        if "ratio_db" in changes:
            params = _ratio_params(params, changes.pop("ratio_db"))
        params = dataclasses.replace(params, **changes)
        link = derive_link(params)
        grid = np.linspace(*rate_bounds(params), 4096)
        exhaustive = _refine_grid_max(params, link, grid,
                                      rates_true(params, link, grid), grid.size)
        res = solve_true_grid(params, link)
        assert (res.r_star, res.pm_star, res.clamped) == \
            (exhaustive.r_star, exhaustive.pm_star, exhaustive.clamped)
        assert res.iterations <= exhaustive.iterations
        assert (res.iterations == exhaustive.iterations) == prunes_nothing

    def test_pruning_skips_most_of_the_grid(self, ref_params):
        params = _ratio_params(ref_params, -10.0)
        res = solve_true_grid(params, derive_link(params))
        assert res.iterations < 4096 // 8

    @settings(max_examples=25, deadline=None, database=None)
    @given(p_s_db=st.floats(0.0, 30.0), p_m_max_db=st.floats(-10.0, 40.0),
           ratio_db=st.floats(-30.0, 5.0), noise_d_db=st.floats(-10.0, 10.0),
           noise_m_db=st.floats(-10.0, 10.0), delta=st.floats(0.005, 0.5),
           n_ports=st.integers(1, 16), log_w=st.floats(-1.0, 1.0))
    def test_bound_caps_the_exact_rate(self, p_s_db, p_m_max_db, ratio_db,
                                       noise_d_db, noise_m_db, delta, n_ports,
                                       log_w):
        # the union bound min(R, rate_approx) that pruning relies on holds
        # for the computed exact rate, within the pruning margin
        cross = db_to_linear(ratio_db)
        params = SystemParams(
            p_s=db_to_linear(p_s_db), p_m_max=db_to_linear(p_m_max_db),
            sigma_h2=1.0, sigma_g2=cross, sigma_f2=cross,
            sigma_d2=db_to_linear(noise_d_db), sigma_m2=db_to_linear(noise_m_db),
            delta=delta, n_ports=n_ports, aperture_w=10.0 ** log_w)
        try:
            link = derive_link(params)
            grid = np.linspace(*rate_bounds(params), 33)
            exact = rates_true(params, link, grid)
        except FasmonError:
            assume(False)
        union = np.array([min(r, rate_approx(params, link, RatePoint(float(r))))
                          for r in grid])
        assert np.all(exact <= union + _PRUNE_MARGIN * grid)
        np.testing.assert_allclose(_rate_caps(params, link, grid),
                                   union + _PRUNE_MARGIN * grid, rtol=1e-13)

    def test_near_reference_argmax(self, ref_params, ref_link):
        res = solve_true_grid(ref_params, ref_link)
        r_min, r_max = rate_bounds(ref_params)
        spacing = (r_max - r_min) / 4095.0
        assert abs(res.r_star - GRID_R_REF) <= spacing + 1e-7
        value = rate_true(ref_params, ref_link, RatePoint(res.r_star))
        assert value == pytest.approx(GRID_VALUE_REF, abs=1e-4)
        assert not res.clamped
        # the block evaluation the solver ranks by is the caller's one-point one
        assert value == rates_true(ref_params, ref_link, np.array([res.r_star]))[0]

    def test_argmax_upward_tie_break(self):
        assert _argmax_upward([1.0, 3.0, 3.0, 2.0]) == 2
        assert _argmax_upward([5.0, 5.0, 5.0]) == 2
        assert _argmax_upward([4.0]) == 0


class TestEvaluateScheme:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_every_scheme_has_a_table_entry(self, scheme):
        operating_point, single_port = _SCHEMES[scheme]
        assert callable(operating_point)
        assert single_port == (scheme is Scheme.CONVENTIONAL_SINGLE)

    def test_proposed_routes(self, ref_params, ref_link):
        for scheme, solver in ((Scheme.PROPOSED_BISECT, solve_bound_bisect),
                               (Scheme.PROPOSED_CLOSED_FORM, solve_closed_form)):
            res = evaluate_scheme(ref_params, ref_link, scheme)
            point = solver(ref_params, ref_link)
            assert (res.r_star, res.pm_star, res.clamped, res.iterations) == \
                (point.r_star, point.pm_star, point.clamped, point.iterations)
            assert res.rate_true == rate_true(ref_params, ref_link,
                                              RatePoint(point.r_star))
            assert res.n_ports == ref_params.n_ports

    def test_true_grid_route(self, ref_params, ref_link, monkeypatch):
        # a cheap stand-in for the exact rate, looked up where the solver
        # (block of rates) and evaluate_scheme (one rate) find it
        def fake_rate(params, link, rp):
            return rp.rate_r * math.exp(-rp.rate_r)

        def fake_rates(params, link, rates):
            return np.array([fake_rate(params, link, RatePoint(float(r))) for r in rates])

        monkeypatch.setattr(fasmon.optimize, "rate_true", fake_rate)
        monkeypatch.setattr(fasmon.optimize, "rates_true", fake_rates)
        res = evaluate_scheme(ref_params, ref_link, Scheme.TRUE_GRID)
        point = solve_true_grid(ref_params, ref_link)
        assert (res.r_star, res.pm_star, res.clamped, res.iterations) == \
            (point.r_star, point.pm_star, point.clamped, point.iterations)
        assert res.rate_true == fake_rate(ref_params, ref_link,
                                          RatePoint(point.r_star))

    def test_constant_jamming(self, ref_params, ref_link):
        res = evaluate_scheme(ref_params, ref_link, Scheme.CONSTANT_JAMMING)
        r_min, _ = rate_bounds(ref_params)
        assert res.r_star == r_min
        assert res.pm_star == ref_params.p_m_max
        assert res.rate_true == pytest.approx(
            rate_true(ref_params, ref_link, RatePoint(r_min)), rel=1e-12)

    def test_passive(self, ref_params, ref_link):
        res = evaluate_scheme(ref_params, ref_link, Scheme.PASSIVE)
        _, r_max = rate_bounds(ref_params)
        assert res.r_star == r_max
        assert res.pm_star == 0.0
        assert res.rate_true == pytest.approx(
            rate_true(ref_params, ref_link, RatePoint(r_max)), rel=1e-12)

    def test_single_antenna_shares_closed_form_point(self, ref_params, ref_link):
        single = evaluate_scheme(ref_params, ref_link, Scheme.CONVENTIONAL_SINGLE)
        closed = evaluate_scheme(ref_params, ref_link, Scheme.PROPOSED_CLOSED_FORM)
        assert (single.r_star, single.pm_star, single.clamped) == \
            (closed.r_star, closed.pm_star, closed.clamped)
        assert single.n_ports == 1

    def test_single_antenna_closed_vs_quadrature(self, ref_params, ref_link):
        # the exponential closed form must match the one-port Marcum-Q
        # integral, which takes an entirely different evaluation path
        res = evaluate_scheme(ref_params, ref_link, Scheme.CONVENTIONAL_SINGLE)
        rp = RatePoint(res.r_star)
        quad_rate = rp.rate_r * (1.0 - monitor_outage_true(ref_link, rp, 1))
        assert res.rate_true == pytest.approx(quad_rate, abs=1e-8)
        assert res.r_star == pytest.approx(CLOSED_R_REF, rel=1e-12)

    def test_tiny_delta_with_a_large_jamming_ratio(self):
        # a band bottom that needs the root solve at B/A = 1.2e6 and tiny
        # delta: every scheme gives a row
        params = SystemParams(p_s=0.633, p_m_max=4.81e4, sigma_h2=1.0,
                              sigma_g2=0.305, sigma_f2=0.305, sigma_d2=0.0118,
                              sigma_m2=0.078, delta=4.59e-5, n_ports=8,
                              aperture_w=5.0)
        link = derive_link(params)
        r_min, r_max = rate_bounds(params)
        for scheme in Scheme:
            res = evaluate_scheme(params, link, scheme)
            assert r_min <= res.r_star <= r_max
            assert 0.0 < res.rate_true <= res.r_star

    def test_rejects_unknown_scheme(self, ref_params, ref_link):
        with pytest.raises(DomainError):
            evaluate_scheme(ref_params, ref_link, "ProposedBisect")
