"""Solvers for the optimal jamming power.

The bisection solver is checked against a dense evaluation of its own
objective (same function, exhaustive method); the closed-form solver against
an exact Lambert-W identity and a numeric stationarity residual; the grid
solver against a frozen value from the default configuration, its pruned
scan against the exhaustive one on the same grid, and its refined r* against
a bounded scalar maximiser of the exact rate. The scheme
table is checked for completeness and for one exact-rate evaluation per
scheme at the solver's operating point.
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize_scalar

import fasmon
from fasmon import (ComputationError, DerivedLink, DomainError, FasmonError,
                    RatePoint, Scheme, SystemParams, db_to_linear, derive_link,
                    evaluate_scheme, objective_terms, pm_for_rate, rate_bound,
                    rate_bounds, rate_true, solve_bound_bisect,
                    solve_closed_form, solve_true_grid)
from fasmon.optimize import (_COARSE_BLOCK, _COARSE_STEP, _FINE_STEP,
                             _PRUNE_MARGIN, _REFINE_POINTS, _SCHEMES, RateJob,
                             _alone, _argmax_upward, _refine_steps, _round)
from fasmon.outage import link_rates_true
from fasmon.validation import _laguerre_outage

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


def _changed_params(params, changes):
    """params with changes applied, a "ratio_db" entry as _ratio_params."""
    changes = dict(changes)
    if "ratio_db" in changes:
        params = _ratio_params(params, changes.pop("ratio_db"))
    return dataclasses.replace(params, **changes)


# (name, changes to the reference setup): the fig2 ratios, fig3 port counts,
# two high-correlation apertures, and a narrow band (a -20 dB jamming cap)
_PRUNING_CASES = (
    [(f"ratio{db}", {"ratio_db": float(db)}) for db in range(-20, 1, 2)]
    + [(f"ports{n}", {"n_ports": n}) for n in (2, 8, 16)]
    + [("aperture0.1", {"aperture_w": 0.1, "n_ports": 2}),
       ("aperture0.1-ports8", {"aperture_w": 0.1, "n_ports": 8}),
       ("narrow-band", {"p_m_max": 0.01})])


class TestTrueGrid:
    @pytest.mark.parametrize("changes", [case[1] for case in _PRUNING_CASES],
                             ids=[case[0] for case in _PRUNING_CASES])
    def test_pruning_changes_no_result(self, ref_params, changes):
        # the exhaustive scan: every grid rate, the same argmax and refinement
        params = _changed_params(ref_params, changes)
        link = derive_link(params)
        grid = np.linspace(*rate_bounds(params), 4096)
        exhaustive = _alone(_refine_steps(params, link, grid,
                                          link_rates_true(link, grid, params.n_ports),
                                          grid.size))[0]
        res = solve_true_grid(params, link)
        assert (res.r_star, res.pm_star, res.clamped) == \
            (exhaustive.r_star, exhaustive.pm_star, exhaustive.clamped)
        assert res.iterations < exhaustive.iterations

    def test_pruning_skips_most_of_the_grid(self, ref_params):
        params = _ratio_params(ref_params, -10.0)
        res = solve_true_grid(params, derive_link(params))
        assert res.iterations < 4096 // 8

    @settings(max_examples=25, deadline=None, database=None)
    @given(p_s_db=st.floats(0.0, 30.0), p_m_max_db=st.floats(-10.0, 40.0),
           ratio_db=st.floats(-30.0, 5.0), noise_d_db=st.floats(-10.0, 10.0),
           noise_m_db=st.floats(-10.0, 10.0), delta=st.floats(0.005, 0.5),
           n_ports=st.integers(1, 16), log_w=st.floats(-1.0, 1.0))
    def test_monotone_cap_bounds_the_exact_rate(self, p_s_db, p_m_max_db,
                                                ratio_db, noise_d_db,
                                                noise_m_db, delta, n_ports,
                                                log_w):
        # the exact outage never decreases as R grows, so on an ascending
        # grid the computed rate at R_j is at most R_j (value_i / R_i) for
        # every i <= j, within the pruning margin
        cross = db_to_linear(ratio_db)
        params = SystemParams(
            p_s=db_to_linear(p_s_db), p_m_max=db_to_linear(p_m_max_db),
            sigma_h2=1.0, sigma_g2=cross, sigma_f2=cross,
            sigma_d2=db_to_linear(noise_d_db), sigma_m2=db_to_linear(noise_m_db),
            delta=delta, n_ports=n_ports, aperture_w=10.0 ** log_w)
        try:
            link = derive_link(params)
            grid = np.linspace(*rate_bounds(params), 33)
            exact = link_rates_true(link, grid, params.n_ports)
        except FasmonError:
            assume(False)
        # caps[i, j] = R_j (value_i / R_i + margin), checked where i <= j
        caps = grid[None, :] * (exact / grid + _PRUNE_MARGIN)[:, None]
        assert np.all((exact[None, :] <= caps)[np.triu_indices(grid.size)])

    def test_near_reference_argmax(self, ref_params, ref_link):
        res = solve_true_grid(ref_params, ref_link)
        r_min, r_max = rate_bounds(ref_params)
        spacing = (r_max - r_min) / 4095.0
        assert abs(res.r_star - GRID_R_REF) <= spacing + 1e-7
        value = rate_true(ref_params, ref_link, RatePoint(res.r_star))
        assert value == pytest.approx(GRID_VALUE_REF, abs=1e-4)
        assert not res.clamped
        # the block evaluation the solver ranks by is the caller's one-point one
        assert value == link_rates_true(ref_link, np.array([res.r_star]), ref_params.n_ports)[0]

    def test_refinement_scans(self, ref_params, ref_link, monkeypatch):
        # one request of every _COARSE_STEP-th grid rate and the last (the
        # coarse pass does not raise here); then two fine levels, every
        # _FINE_STEP-th grid rate and then the rest, each in grid order, no
        # rate evaluated twice; then two link_rates_true calls of 32 rates
        # each, strictly inside the previous argmax's bracket and on no rate
        # the grid evaluated or pruned
        calls = []

        def recording_rates(link, rates, n_ports):
            calls.append(np.array(rates))
            return link_rates_true(link, rates, n_ports)

        monkeypatch.setattr(fasmon.optimize, "link_rates_true", recording_rates)
        params, link = ref_params, ref_link
        res = solve_true_grid(params, link)
        blocks, scans = calls[:-2], calls[-2:]
        grid = np.linspace(*rate_bounds(params), 4096)
        coarse = grid[np.append(np.arange(0, grid.size - 1, _COARSE_STEP),
                                grid.size - 1)]
        assert len(blocks) == 3
        np.testing.assert_array_equal(blocks[0], coarse)
        levels = [np.searchsorted(grid, block) for block in blocks[1:]]
        for block, level in zip(blocks[1:], levels):
            np.testing.assert_array_equal(grid[level], block)
            assert np.all(np.diff(level) > 0)
        assert np.all(levels[0] % _FINE_STEP == 0)
        assert np.any(levels[1] % _FINE_STEP != 0)
        evaluated = np.concatenate(blocks)
        assert np.unique(evaluated).size == evaluated.size
        assert [scan.size for scan in scans] == [_REFINE_POINTS] * 2
        assert res.iterations == evaluated.size + 64

        values = np.full(grid.size, -math.inf)
        for block in blocks:
            values[np.searchsorted(grid, block)] = link_rates_true(link, block, params.n_ports)
        rates, scores = grid, values
        for scan in scans:
            idx = _argmax_upward(scores)
            assert rates[idx - 1] < scan.min() and scan.max() < rates[idx + 1]
            assert np.intersect1d(scan, grid).size == 0
            rates = np.concatenate(([rates[idx - 1]], scan, [rates[idx + 1]]))
            scores = np.concatenate(([scores[idx - 1]],
                                     link_rates_true(link, scan, params.n_ports),
                                     [scores[idx + 1]]))
        assert res.r_star == rates[_argmax_upward(scores)]
        assert np.intersect1d(scans[0], scans[1]).size == 0

        # the scheme makes the same calls and none after the second scan:
        # its exact rate at r* is that scan's value
        solo = list(calls)
        calls.clear()
        row = evaluate_scheme(params, link, Scheme.TRUE_GRID)
        assert len(calls) == len(solo)
        for call, solo_call in zip(calls, solo):
            np.testing.assert_array_equal(call, solo_call)
        assert row.r_star == res.r_star
        assert row.rate_true.hex() == float(scores[_argmax_upward(scores)]).hex()

    def test_coarse_blocks_stop_short_of_a_raising_tail(self, ref_params, monkeypatch):
        # at -20 dB the rate collapses toward the band top; once the one
        # coarse request raises there, the coarse rates are taken again in
        # blocks of _COARSE_BLOCK, which stop after three, short of the
        # raising tail, and the point is the exhaustive scan's
        params = _ratio_params(ref_params, -20.0)
        link = derive_link(params)
        grid = np.linspace(*rate_bounds(params), 4096)
        exhaustive = _alone(_refine_steps(params, link, grid,
                                          link_rates_true(link, grid, params.n_ports),
                                          grid.size))[0]
        tail = grid[60 * _COARSE_STEP]
        calls = []

        def raising_rates(link, rates, n_ports):
            calls.append(len(rates))
            if np.max(rates) >= tail:
                raise ComputationError("synthetic far-tail failure")
            return link_rates_true(link, rates, n_ports)

        monkeypatch.setattr(fasmon.optimize, "link_rates_true", raising_rates)
        res = solve_true_grid(params, link)
        assert calls[:4] == [66] + [_COARSE_BLOCK] * 3
        assert (res.r_star, res.pm_star, res.clamped) == \
            (exhaustive.r_star, exhaustive.pm_star, exhaustive.clamped)

    @pytest.mark.parametrize("changes", [{"ratio_db": -20.0}, {"n_ports": 2},
                                         {"n_ports": 3}, {"n_ports": 4}],
                             ids=["fig2-ratio-20", "fig3-ports2", "fig3-ports3",
                                  "fig3-ports4"])
    def test_resolution(self, ref_params, changes):
        # r* lies within half the final spacing, the grid's times (2/33)^2,
        # of scipy's bounded maximiser of the exact rate on the grid
        # argmax's bracket (at most 0.86 of it seen on these four points)
        params = _changed_params(ref_params, changes)
        link = derive_link(params)
        grid = np.linspace(*rate_bounds(params), 4096)
        idx = _argmax_upward(link_rates_true(link, grid, params.n_ports))
        found = minimize_scalar(
            lambda r: -rate_true(params, link, RatePoint(r)), method="bounded",
            bounds=(grid[idx - 1], grid[idx + 1]), options={"xatol": 1e-12})
        spacing = (grid[1] - grid[0]) * (2.0 / (_REFINE_POINTS + 1)) ** 2
        res = solve_true_grid(params, link)
        assert not res.clamped
        assert abs(res.r_star - found.x) <= 0.5 * spacing

    def test_rows_independent_of_the_cpu_kernels(self, tmp_path):
        # fig3's TrueGrid rows at N = 2, 3, 4 in fresh processes: as is,
        # under another OpenBLAS core type and with numpy's SIMD dispatch
        # cut back (names this CPU lacks are ignored); a search that
        # compares values below the exact rate's rounding moves r* here
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = fig3\nsweep_values = 2, 3, 4\n"
                       "schemes = TrueGrid\n")
        src = os.path.dirname(os.path.dirname(fasmon.optimize.__file__))
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        cpu_settings = ({}, {"OPENBLAS_CORETYPE": "Prescott"},
                        {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"})
        outputs = []
        for i, setting in enumerate(cpu_settings):
            out = tmp_path / f"rows{i}.csv"
            subprocess.run([sys.executable, "-m", "fasmon.cli", "run", "--config",
                            str(cfg), "--out", str(out)], env=dict(env, **setting),
                           check=True, capture_output=True, timeout=120)
            outputs.append(out.read_bytes())
        assert outputs[0].count(b"\n") == 4
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_argmax_upward_tie_break(self):
        assert _argmax_upward([1.0, 3.0, 3.0, 2.0]) == 2
        assert _argmax_upward([5.0, 5.0, 5.0]) == 2
        assert _argmax_upward([4.0]) == 0


def _assert_points_in_the_band(params, schemes):
    """Each scheme gives r* in the band and a rate in [0, r*], or raises a
    FasmonError; any other exception fails the caller."""
    try:
        link = derive_link(params)
        r_min, r_max = rate_bounds(params)
    except FasmonError:
        return
    for scheme in schemes:
        try:
            res = evaluate_scheme(params, link, scheme)
        except FasmonError:
            continue
        assert r_min <= res.r_star <= r_max, scheme
        assert 0.0 <= res.rate_true <= res.r_star, scheme


class TestRateRounds:
    def test_stored_errors_keep_no_traceback(self, ref_link, monkeypatch):
        # a failed request's error is stored without its traceback, whose
        # frames hold the failed call's arrays: an invalid rate, a request
        # that fails alone after its mu's group call failed, and a mu's
        # only request
        other = DerivedLink(mu=0.5, gamma_cap=ref_link.gamma_cap)
        real_rates = fasmon.optimize.link_rates_true

        def rates(link, rate_r, n_ports):
            if np.any(np.asarray(rate_r) == 2.5):
                raise ComputationError("synthetic failure")
            return real_rates(link, rate_r, n_ports)

        monkeypatch.setattr(fasmon.optimize, "link_rates_true", rates)
        replies = _round([RateJob(ref_link, -1.0, 8), RateJob(ref_link, 1.5, 8),
                          RateJob(ref_link, 2.5, 8), RateJob(other, 2.5, 8)])
        assert np.array_equal(replies[1], real_rates(ref_link, [1.5], 8))
        assert isinstance(replies[0], DomainError)
        assert [str(reply) for reply in replies[2:]] == ["synthetic failure"] * 2
        for reply in (replies[0], *replies[2:]):
            assert reply.__traceback__ is None


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
        # a cheap stand-in for the exact rate, looked up where the solver's
        # scans and evaluate_scheme's exact_rates both find it
        def fake_rate(params, link, rp):
            return rp.rate_r * math.exp(-rp.rate_r)

        def fake_rates(link, rates, n_ports):
            return np.array([fake_rate(None, link, RatePoint(float(r))) for r in rates])

        monkeypatch.setattr(fasmon.optimize, "link_rates_true", fake_rates)
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

    def test_single_antenna_rate_is_the_one_port_exact_rate(self, ref_params, ref_link):
        # no closed form of its own: the single-antenna monitor's rate is
        # rate_true over one port, bit for bit
        res = evaluate_scheme(ref_params, ref_link, Scheme.CONVENTIONAL_SINGLE)
        one_port = dataclasses.replace(ref_params, n_ports=1)
        assert res.rate_true.hex() == \
            rate_true(one_port, ref_link, RatePoint(res.r_star)).hex()

    def test_single_antenna_closed_vs_quadrature(self, ref_params, ref_link):
        # the exponential closed form must match the one-port Marcum-Q
        # integral on the Gauss-Laguerre rule, an entirely different
        # evaluation path
        res = evaluate_scheme(ref_params, ref_link, Scheme.CONVENTIONAL_SINGLE)
        rp = RatePoint(res.r_star)
        quad_rate = rp.rate_r * (1.0 - _laguerre_outage(ref_link, rp.gamma_th, 1, 2048))
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

    @settings(max_examples=15, deadline=None, database=None)
    @given(log_w=st.floats(math.log10(0.05), math.log10(20.0)),
           n_ports=st.integers(1, 32), log_delta=st.floats(-6.0, math.log10(0.8)))
    def test_every_scheme_gives_a_point_in_the_band(self, ref_params, log_w,
                                                    n_ports, log_delta):
        # every scheme, TrueGrid included, gives r* in the band and a rate
        # in [0, r*], or a FasmonError
        _assert_points_in_the_band(dataclasses.replace(
            ref_params, aperture_w=10.0 ** log_w, n_ports=n_ports,
            delta=10.0 ** log_delta), list(Scheme))

    @settings(max_examples=15, deadline=None, database=None)
    @given(corner=st.one_of(
               st.tuples(st.floats(-3.0, math.log10(0.05), exclude_max=True),
                         st.integers(1, 64)),
               st.tuples(st.floats(math.log10(0.05), math.log10(20.0)),
                         st.integers(33, 64))),
           log_delta=st.floats(-6.0, math.log10(0.8)))
    def test_every_scheme_gives_a_point_at_high_correlation(self, ref_params,
                                                            corner, log_delta):
        # the rest of the domain: W below 0.05 or N above 32. TrueGrid runs
        # only from W = 0.05 up, where its pruned scan stays cheap; below,
        # a CI step compares it with the exhaustive scan instead
        log_w, n_ports = corner
        schemes = [s for s in Scheme
                   if s is not Scheme.TRUE_GRID or log_w >= math.log10(0.05)]
        _assert_points_in_the_band(dataclasses.replace(
            ref_params, aperture_w=10.0 ** log_w, n_ports=n_ports,
            delta=10.0 ** log_delta), schemes)

    def test_rejects_unknown_scheme(self, ref_params, ref_link):
        with pytest.raises(DomainError):
            evaluate_scheme(ref_params, ref_link, "ProposedBisect")
