"""Sweep runner: row structure, seeding, Monte Carlo wiring, partial failure."""

import dataclasses
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import fasmon.config
import fasmon.experiments
import fasmon.mcsim
import fasmon.optimize
import fasmon.outage
from fasmon import (ComputationError, DerivedLink, RatePoint, Scheme,
                    derive_link, estimate_monitoring_rate, evaluate_scheme,
                    expected_row_count, rate_bounds, rate_for_pm, rate_true,
                    resolve_config, run_experiment, row_seed, solve_true_grid)
from fasmon.config import parse_overrides


def _spec(*pairs):
    return resolve_config({}, parse_overrides(list(pairs)))


def _point_params(spec, x_value):
    # the parameters of one sweep point, from the sweep variable's row
    _, point_params = fasmon.config._SWEEPS[spec.sweep_variable]
    return point_params(spec.params, x_value)


# a short custom sweep of each sweep variable, with two schemes where the
# variable runs schemes
_SWEEPS = [
    ("sweep_variable=p_m_db", "sweep_values=0,10,20"),
    ("sweep_variable=ratio_db", "sweep_values=-12,-8",
     "schemes=ProposedBisect,Passive"),
    ("sweep_variable=n_ports", "sweep_values=2,4",
     "schemes=ProposedBisect,Passive"),
]
_SWEEP_IDS = ["p_m_db", "ratio_db", "n_ports"]


def _tiny_fig2(*extra):
    return _spec("experiment=custom", "sweep_variable=ratio_db",
                 "sweep_values=-12,-8", "schemes=ProposedBisect,Passive",
                 *extra)


class TestRowLayout:
    def test_expected_counts(self):
        assert expected_row_count(_spec("experiment=fig1")) == 121 * 3
        assert expected_row_count(_spec("experiment=fig2")) == 11 * 6
        assert expected_row_count(_tiny_fig2()) == 4

    def test_sweep_outer_schemes_inner(self):
        rows = run_experiment(_tiny_fig2())
        key = [(r.x_value, r.scheme) for r in rows]
        assert key == [(-12.0, "ProposedBisect"), (-12.0, "Passive"),
                       (-8.0, "ProposedBisect"), (-8.0, "Passive")]
        assert all(r.experiment == "custom" and r.x_name == "ratio_db"
                   for r in rows)

    def test_deterministic(self):
        spec = _tiny_fig2("mc_samples=20000")
        assert run_experiment(spec) == run_experiment(spec)

    def test_point_params_follow_ratio(self):
        spec = _tiny_fig2()
        rows = run_experiment(spec)
        passive = [r for r in rows if r.scheme == "Passive"]
        for row in passive:
            cross = 10.0 ** (row.x_value / 10.0) * spec.params.sigma_h2
            params = dataclasses.replace(spec.params, sigma_g2=cross,
                                         sigma_f2=cross)
            _, r_max = rate_bounds(params)
            assert row.r_star_bits == pytest.approx(r_max, rel=1e-12)
            assert row.rate_analytic == pytest.approx(
                rate_true(params, derive_link(params), RatePoint(r_max)),
                rel=1e-12)
            assert math.isinf(row.pm_star_db) and row.pm_star_db < 0.0

    def test_port_sweep_replaces_n_ports(self):
        spec = _spec("experiment=custom", "sweep_variable=n_ports",
                     "sweep_values=2,4", "schemes=ConstantJamming")
        rows = run_experiment(spec)
        assert [r.x_value for r in rows] == [2.0, 4.0]
        # more ports cannot hurt the best-port monitor at a fixed rate
        assert rows[1].rate_analytic >= rows[0].rate_analytic

    @pytest.mark.parametrize("experiment, variable, values", [
        ("fig1", "p_m_db", "0,15,30"),
        ("fig2", "ratio_db", "-18,-10"),
        ("fig3", "n_ports", "2,8"),
    ])
    def test_custom_part_of_a_named_grid(self, experiment, variable, values):
        # a point's rows depend on its parameters alone, not on the
        # experiment that names it or on the other points of its sweep
        named = run_experiment(_spec(f"experiment={experiment}"))
        spec = _spec("experiment=custom", f"sweep_variable={variable}",
                     f"sweep_values={values}")
        custom = run_experiment(spec)
        assert len(custom) == expected_row_count(spec)
        assert custom == [dataclasses.replace(row, experiment="custom")
                          for row in named if row.x_value in spec.sweep_values]


class TestCurveSweep:
    def test_three_tagged_rows_per_point(self):
        spec = _spec("experiment=custom", "sweep_variable=p_m_db",
                     "sweep_values=0,10", "mc_samples=20000")
        rows = run_experiment(spec)
        assert [r.scheme for r in rows] == ["true", "bound", "approx"] * 2
        for row in rows:
            assert row.pm_star_db == row.x_value
            assert not row.clamped
            if row.scheme == "true":
                assert row.rate_mc_mean is not None
                assert row.rate_mc_ci95 is not None
            else:
                assert row.rate_mc_mean is None

    def test_rate_matches_constraint_inversion(self):
        spec = _spec("experiment=custom", "sweep_variable=p_m_db",
                     "sweep_values=0,10")
        rows = run_experiment(spec)
        for row in rows:
            expected = rate_for_pm(spec.params, 10.0 ** (row.x_value / 10.0))
            assert row.r_star_bits == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("pairs", _SWEEPS, ids=_SWEEP_IDS)
    def test_correlation_derived_once_per_scheme_sweep(self, monkeypatch, pairs):
        # every sweep variable, the p_m_db curve sweep included, keeps the
        # aperture here: one mu per run, and every point's link is the one
        # derive_link gives that point
        calls, links = [], []
        real_mu = fasmon.experiments.correlation_mu
        real_link = fasmon.experiments.link_for_mu

        def counted(aperture_w):
            calls.append(aperture_w)
            return real_mu(aperture_w)

        def recorded(params, mu):
            link = real_link(params, mu)
            links.append((params, link))
            return link

        monkeypatch.setattr(fasmon.experiments, "correlation_mu", counted)
        monkeypatch.setattr(fasmon.experiments, "link_for_mu", recorded)
        spec = _spec("experiment=custom", *pairs)
        assert len(run_experiment(spec)) == expected_row_count(spec)
        assert calls == [spec.params.aperture_w]
        assert len(links) == len(spec.sweep_values)
        assert all(link == derive_link(params) for params, link in links)

    def test_bound_dominates_true(self):
        spec = _spec("experiment=fig1")
        rows = run_experiment(spec)
        by_x = {}
        for row in rows:
            by_x.setdefault(row.x_value, {})[row.scheme] = row.rate_analytic
        for vals in by_x.values():
            assert vals["bound"] >= vals["true"] - 1e-9
            assert vals["approx"] >= vals["true"] - 1e-9


class TestMonteCarloWiring:
    def test_disabled_by_default(self):
        rows = run_experiment(_tiny_fig2())
        assert all(r.rate_mc_mean is None and r.rate_mc_ci95 is None
                   for r in rows)

    def test_enabled_and_consistent(self):
        rows = run_experiment(_tiny_fig2("mc_samples=50000", "seed=5"))
        for row in rows:
            assert row.rate_mc_mean is not None
            sigma = row.rate_mc_ci95 / 1.959963984540054
            assert abs(row.rate_mc_mean - row.rate_analytic) <= 4.0 * sigma

    def test_single_antenna_scheme_simulates_one_port(self):
        spec = _spec("experiment=custom", "sweep_variable=ratio_db",
                     "sweep_values=-12", "schemes=ConventionalSingle",
                     "mc_samples=200000", "seed=31")
        row = run_experiment(spec)[0]
        sigma = row.rate_mc_ci95 / 1.959963984540054
        assert abs(row.rate_mc_mean - row.rate_analytic) <= 4.0 * sigma
        # the all-ports rate at the same operating point is far outside the
        # interval, so the estimator cannot have used the full array
        cross = 10.0 ** -1.2 * spec.params.sigma_h2
        params = dataclasses.replace(spec.params, sigma_g2=cross,
                                     sigma_f2=cross)
        full_array = rate_true(params, derive_link(params),
                               RatePoint(row.r_star_bits))
        assert abs(row.rate_mc_mean - full_array) > 20.0 * sigma

    def test_row_estimate_reproducible_in_isolation(self):
        spec = _tiny_fig2("mc_samples=50000", "seed=5")
        rows = run_experiment(spec)
        cross = 10.0 ** (-8.0 / 10.0) * spec.params.sigma_h2
        params = dataclasses.replace(spec.params, sigma_g2=cross,
                                     sigma_f2=cross)
        link = derive_link(params)
        row = rows[3]  # sweep point -8, scheme index 1 (Passive)
        est = estimate_monitoring_rate(
            params, link, RatePoint(row.r_star_bits), params.n_ports,
            50000, row_seed(5, "custom", 1, 1))
        assert row.rate_mc_mean == est.mean
        assert row.rate_mc_ci95 == est.half_width_95


    @pytest.mark.parametrize("pairs", [
        ("experiment=fig1", "sweep_values=0,10,20,30", "mc_samples=300000"),
        ("experiment=fig2", "sweep_values=-18,-10", "mc_samples=20000"),
    ], ids=["fig1", "fig2"])
    def test_rows_independent_of_workers(self, worker_cap, pairs):
        # fig1 rows take three blocks each, fig2 rows one block per scheme
        runs = {}
        for cap in (1, 3):
            worker_cap(cap)
            runs[cap] = run_experiment(_spec(*pairs))
        assert any(r.rate_mc_mean is not None for r in runs[1])
        assert runs[1] == runs[3]

    def test_no_pool_without_monte_carlo(self):
        # a fresh process: importing fasmon and running an analytic sweep
        # must neither import concurrent.futures nor start a thread, and the
        # sweep must not import numpy.random (numpy 2 loads it lazily) just
        # to derive row seeds it never uses
        src = os.path.dirname(os.path.dirname(fasmon.experiments.__file__))
        code = ("import sys, threading\n"
                "import fasmon\n"
                "print('concurrent.futures' in sys.modules, threading.active_count(),\n"
                "      'numpy.random' in sys.modules)\n"
                "spec = fasmon.resolve_config({'experiment': 'fig1',\n"
                "                              'sweep_values': '0, 10'})\n"
                "assert len(fasmon.run_experiment(spec)) == 6\n"
                "print('concurrent.futures' in sys.modules, threading.active_count(),\n"
                "      'numpy.random' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        after_import, after_run = out.stdout.splitlines()
        assert after_import.split()[:2] == after_run.split()[:2] == ["False", "1"]
        assert after_run.split()[2] == after_import.split()[2]


    def test_exact_sweep_does_not_import_numpy_ma(self):
        # the benchmark's sweep-exact config in a fresh process: np.unique,
        # np.setdiff1d and np.isin import numpy.ma on first use, which costs
        # more than the rest of such a run
        src = os.path.dirname(os.path.dirname(fasmon.experiments.__file__))
        code = ("import sys\n"
                "import fasmon\n"
                "spec = fasmon.resolve_config({'experiment': 'fig2',\n"
                "                              'sweep_values': '-18, -10'})\n"
                "assert len(fasmon.run_experiment(spec)) == 12\n"
                "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False"]


def _counted_rates(calls):
    # link_rates_true, with each call's rate count appended to calls
    real_rates = fasmon.optimize.link_rates_true

    def rates(link, rate_block, n_ports):
        calls.append(len(rate_block))
        return real_rates(link, rate_block, n_ports)
    return rates


def _counted_quadrature(columns):
    # integrate_expweighted as outage calls it, with each call's column
    # count appended to columns
    real_integrate = fasmon.outage.integrate_expweighted

    def integrate(f, u_lo, u_hi, width):
        columns.append(np.size(u_lo))
        return real_integrate(f, u_lo, u_hi, width)
    return integrate


class TestExactRateBlocks:
    # a run evaluates its exact rates in rounds, one link_rates_true call per
    # round for the links that share mu (every run here has one mu): fig1,
    # and fig3 without TrueGrid, need one round; a fig2 run takes as many as
    # its longest TrueGrid point makes calls alone, its plain rates riding in
    # the first, and a TrueGrid row's exact rate at r* is its last scan's
    # value, with no request
    @pytest.mark.parametrize("pairs", [
        ("experiment=fig1",),
        ("experiment=fig3", "aperture_w=0.1",
         "schemes=ProposedBisect,ProposedClosedForm,ConstantJamming,Passive,"
         "ConventionalSingle"),
        ("experiment=fig2",),
    ], ids=["fig1", "fig3-w0.1", "fig2"])
    def test_one_quadrature_per_link(self, monkeypatch, pairs):
        spec = _spec(*pairs)
        rounds = 1
        if Scheme.TRUE_GRID in spec.schemes:
            for x_value in spec.sweep_values:
                alone = []
                monkeypatch.setattr(fasmon.optimize, "link_rates_true", _counted_rates(alone))
                params = _point_params(spec, x_value)
                solve_true_grid(params, derive_link(params))
                rounds = max(rounds, len(alone))
        calls = []
        monkeypatch.setattr(fasmon.optimize, "link_rates_true", _counted_rates(calls))
        assert len(run_experiment(spec)) == expected_row_count(spec)
        assert len(calls) == rounds
        assert (rounds > 1) == (Scheme.TRUE_GRID in spec.schemes)

    def test_repeated_rates_evaluated_once(self, monkeypatch):
        # default fig3 makes one link_rates_true call per round. Its first
        # round asks 1065 rates, 44 of them twice (ConventionalSingle's rows
        # at one rate on one link, ConstantJamming and Passive at TrueGrid's
        # grid ends), and the single-port ones need no integral: the
        # quadrature sees 1020 distinct (N, b) columns. The third round's
        # 2007 columns take two quadrature blocks of at most 1024
        calls, columns = [], []
        monkeypatch.setattr(fasmon.optimize, "link_rates_true", _counted_rates(calls))
        monkeypatch.setattr(fasmon.outage, "integrate_expweighted",
                            _counted_quadrature(columns))
        spec = _spec("experiment=fig3")
        assert len(run_experiment(spec)) == expected_row_count(spec)
        assert calls == [1065, 675, 2007, 480, 480]
        assert columns == [1020, 675, 1024, 983, 480, 480]

    @pytest.mark.parametrize("pairs", [("experiment=fig2",),
                                       ("experiment=fig3", "aperture_w=0.1")],
                             ids=["fig2", "fig3-w0.1"])
    def test_lockstep_rows_equal_solo_rows(self, pairs):
        # every row of a run, TrueGrid's in lockstep, is bit for bit the
        # scheme run alone: solve_true_grid plus rate_true at r* for
        # TrueGrid, evaluate_scheme for the others
        spec = _spec(*pairs, "schemes=" + ",".join(s.value for s in Scheme))
        rows = run_experiment(spec)
        assert len(rows) == expected_row_count(spec)
        for row in rows:
            params = _point_params(spec, row.x_value)
            link = derive_link(params)
            if row.scheme == "TrueGrid":
                r_star = solve_true_grid(params, link).r_star
                rate = rate_true(params, link, RatePoint(r_star))
            else:
                res = evaluate_scheme(params, link, Scheme(row.scheme))
                r_star, rate = res.r_star, res.rate_true
            assert (row.r_star_bits.hex(), row.rate_analytic.hex()) == \
                (r_star.hex(), rate.hex()), (row.x_value, row.scheme)

    def test_failed_scan_drops_only_its_true_grid_row(self, monkeypatch, capsys):
        # one point's columns around its coarse grid rate 63 raise: its
        # TrueGrid row drops with the error its solver raises alone (the
        # coarse request fails, then the first 17-rate block), every other
        # row keeps its bits, and an operating-point failure at a later
        # point, met earlier, is still reported after it
        spec = _spec("experiment=fig2", "schemes=" + ",".join(s.value for s in Scheme))
        reference = run_experiment(spec)
        failing = _point_params(spec, -10.0)
        failing_link = derive_link(failing)
        grid = np.linspace(*rate_bounds(failing), 4096)
        lo, hi = grid[62], grid[64]
        assert not any(lo < r.r_star_bits < hi for r in reference if r.x_value == -10.0)
        real_rates = fasmon.optimize.link_rates_true

        def failing_rates(link, rates, n_ports):
            links = [link] * len(rates) if isinstance(link, DerivedLink) else link
            bad = sum(one == failing_link and lo < r < hi
                      for one, r in zip(links, np.asarray(rates).tolist()))
            if bad:
                raise ComputationError(f"synthetic failure at {bad} of {len(rates)} rates")
            return real_rates(link, rates, n_ports)

        monkeypatch.setattr(fasmon.optimize, "link_rates_true", failing_rates)
        with pytest.raises(ComputationError) as alone:
            solve_true_grid(failing, failing_link)
        assert str(alone.value) == "synthetic failure at 1 of 17 rates"
        last = _point_params(spec, spec.sweep_values[-1])
        real_bisect, single_port = fasmon.optimize._SCHEMES[Scheme.PROPOSED_BISECT]

        def bisect(params, link):
            if params == last:
                raise ComputationError("synthetic operating-point failure")
            return real_bisect(params, link)

        monkeypatch.setitem(fasmon.optimize._SCHEMES, Scheme.PROPOSED_BISECT,
                            (bisect, single_port))
        rows = run_experiment(spec)
        dropped = {(-10.0, "TrueGrid"), (spec.sweep_values[-1], "ProposedBisect")}
        kept = [r for r in reference if (r.x_value, r.scheme) not in dropped]
        assert [repr(r) for r in rows] == [repr(r) for r in kept]
        assert capsys.readouterr().err.splitlines() == [
            f"fasmon: ratio_db=-10 TrueGrid: ComputationError: {alone.value}",
            f"fasmon: ratio_db={spec.sweep_values[-1]:g} ProposedBisect: "
            "ComputationError: synthetic operating-point failure"]

    def test_single_antenna_rows_are_one_port_exact_rates(self):
        # ConventionalSingle's rows share their link's block with the N-port
        # rows; each rate is rate_true over one port, bit for bit (at -2 dB
        # that is one ulp off R e^{-gamma_th/Gamma})
        spec = _spec("experiment=fig2", "schemes=ProposedClosedForm,ConventionalSingle")
        rows = [r for r in run_experiment(spec) if r.scheme == "ConventionalSingle"]
        assert len(rows) == len(spec.sweep_values)
        for row in rows:
            params = dataclasses.replace(_point_params(spec, row.x_value), n_ports=1)
            alone = rate_true(params, derive_link(params), RatePoint(row.r_star_bits))
            assert row.rate_analytic.hex() == alone.hex(), row.x_value


class TestExtremeInputs:
    @pytest.mark.parametrize("experiment", ["fig1", "fig2", "fig3"])
    def test_huge_destination_noise_gives_every_row(self, experiment):
        # sigma_d2 = 1e308 drives b^2/2 far below 1e-300, where the Poisson
        # weights' quotient overflows to an exact zero without a warning
        spec = _spec(f"experiment={experiment}", "sigma_d2=1e308")
        assert len(run_experiment(spec)) == expected_row_count(spec)


    def test_underflowing_jamming_scale_gives_every_row(self):
        # at -18 dB with sigma_h2 = 1e-200, gamma_th sigma_f2 underflows to 0
        # at every rate of the band, and p_m* must still be a number
        spec = _spec("experiment=fig2", "sweep_values=-18", "sigma_h2=1e-200")
        rows = run_experiment(spec)
        assert len(rows) == expected_row_count(spec) == 6
        assert all(r.pm_star_db <= 30.0 and r.rate_analytic > 0.0 for r in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_r_max_drops_every_row_by_name(self, capsys):
        # at p_s = 100 dB with sigma_d2 = 1e-300 the band top overflows: each
        # row drops with that cause, with no NaN grid and no numpy warning
        spec = _spec("experiment=fig2", "sweep_values=-18", "sigma_d2=1e-300",
                     "p_s_db=100")
        assert run_experiment(spec) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 6
        assert all(": ComputationError: r_max overflows: " in line for line in err)


class TestSeeding:
    def test_row_seeds_distinct(self):
        seeds = {row_seed(12345, exp, i, j)
                 for exp in ("custom", "fig1", "fig2", "fig3")
                 for i in range(6) for j in range(6)}
        assert len(seeds) == 4 * 6 * 6

    def test_row_seed_stable(self):
        assert row_seed(12345, "fig2", 3, 2) == row_seed(12345, "fig2", 3, 2)


class TestPartialFailure:
    def test_failed_scheme_skipped_with_diagnostic(self, monkeypatch, capsys):
        def flaky(params, link):
            raise ComputationError("synthetic failure")

        monkeypatch.setitem(fasmon.optimize._SCHEMES, Scheme.PASSIVE, (flaky, False))
        spec = _tiny_fig2()
        rows = run_experiment(spec)
        assert [r.scheme for r in rows] == ["ProposedBisect", "ProposedBisect"]
        assert len(rows) < expected_row_count(spec)
        assert capsys.readouterr().err.splitlines() == [
            f"fasmon: ratio_db={x} Passive: ComputationError: synthetic failure"
            for x in ("-12", "-8")]

    def test_failed_rate_drops_only_its_row(self, monkeypatch, capsys):
        # the exact rates are evaluated after every operating point, in one
        # call per mu; a call that raises is evaluated again one rate at a
        # time, so only the failing rate's row drops, and the failures are
        # reported in row order, not in the order they were met
        spec = _spec("experiment=custom", "sweep_variable=ratio_db",
                     "sweep_values=-12,-8",
                     "schemes=ProposedBisect,ProposedClosedForm,Passive,"
                     "ConventionalSingle")
        reference = run_experiment(spec)
        params = {x: _point_params(spec, x) for x in (-12.0, -8.0)}
        # ProposedClosedForm's rate at -12 dB is interior; ConventionalSingle
        # shares it and its kernel call, but on one port, so only the column
        # with N > 1 fails
        failing = next(r for r in reference
                       if (r.x_value, r.scheme) == (-12.0, "ProposedClosedForm"))
        failing_link = derive_link(params[-12.0])
        failing_gamma = RatePoint(failing.r_star_bits).gamma_th
        real_kernel = fasmon.outage._outage_true

        def kernel(link, gammas, n_ports):
            # both points share mu, so their rates share a block, one link
            # per threshold
            links = [link] * gammas.size if isinstance(link, DerivedLink) else link
            ports = np.broadcast_to(n_ports, gammas.shape)
            if any(one == failing_link and gamma == failing_gamma and n > 1
                   for one, gamma, n in zip(links, gammas, ports)):
                raise ComputationError("synthetic rate failure")
            return real_kernel(link, gammas, n_ports)

        def failing_at(x_value, scheme):
            real, single_port = fasmon.optimize._SCHEMES[scheme]

            def operating_point(point_params, link):
                if point_params == params[x_value]:
                    raise ComputationError("synthetic operating-point failure")
                return real(point_params, link)
            return operating_point, single_port

        monkeypatch.setattr(fasmon.outage, "_outage_true", kernel)
        for x_value, scheme in ((-12.0, Scheme.PASSIVE),
                                (-8.0, Scheme.PROPOSED_BISECT)):
            monkeypatch.setitem(fasmon.optimize._SCHEMES, scheme,
                                failing_at(x_value, scheme))
        rows = run_experiment(spec)
        dropped = {(-12.0, "ProposedClosedForm"), (-12.0, "Passive"),
                   (-8.0, "ProposedBisect")}
        kept = [r for r in reference if (r.x_value, r.scheme) not in dropped]
        assert [repr(r) for r in rows] == [repr(r) for r in kept]
        assert capsys.readouterr().err.splitlines() == [
            "fasmon: ratio_db=-12 ProposedClosedForm: ComputationError: "
            "synthetic rate failure",
            "fasmon: ratio_db=-12 Passive: ComputationError: "
            "synthetic operating-point failure",
            "fasmon: ratio_db=-8 ProposedBisect: ComputationError: "
            "synthetic operating-point failure"]

    def test_failed_curve_rate_drops_its_point(self, monkeypatch, capsys):
        # a curve point's three rows share its exact rate, which fails the
        # point as a whole, reported without a scheme
        spec = _spec("experiment=custom", "sweep_variable=p_m_db",
                     "sweep_values=0,10,20")
        reference = run_experiment(spec)
        failing_gamma = RatePoint(rate_for_pm(spec.params, 10.0)).gamma_th
        real_kernel = fasmon.outage._outage_true

        def kernel(link, gammas, n_ports):
            if failing_gamma in gammas:
                raise ComputationError("synthetic rate failure")
            return real_kernel(link, gammas, n_ports)

        monkeypatch.setattr(fasmon.outage, "_outage_true", kernel)
        rows = run_experiment(spec)
        assert [repr(r) for r in rows] == [repr(r) for r in reference
                                           if r.x_value != 10.0]
        assert capsys.readouterr().err.splitlines() == [
            "fasmon: p_m_db=10: ComputationError: synthetic rate failure"]

    def test_failed_curve_rate_for_pm_drops_its_point(self, monkeypatch, capsys):
        # a curve point's rate is found inside its row task; its failure
        # drops the point's three rows, reported once without a scheme
        spec = _spec("experiment=custom", "sweep_variable=p_m_db",
                     "sweep_values=0,10,20")
        reference = run_experiment(spec)
        real = fasmon.experiments.rate_for_pm

        def rate_for_pm(params, p_m):
            if p_m == 10.0:
                raise ComputationError("synthetic rate failure")
            return real(params, p_m)

        monkeypatch.setattr(fasmon.experiments, "rate_for_pm", rate_for_pm)
        rows = run_experiment(spec)
        assert [repr(r) for r in rows] == [repr(r) for r in reference
                                           if r.x_value != 10.0]
        assert capsys.readouterr().err.splitlines() == [
            "fasmon: p_m_db=10: ComputationError: synthetic rate failure"]

    def test_failed_link_reported_between_failed_tasks(self, monkeypatch, capsys):
        # the middle point fails while its link is built, before any task
        # runs; the points around it fail inside their tasks, one in its
        # operating point and one in its exact rate, and the lines still
        # come in row order
        spec = _tiny_fig2("sweep_values=-12,-10,-8")
        reference = run_experiment(spec)
        params = {x: _point_params(spec, x) for x in spec.sweep_values}
        real_link = fasmon.experiments.link_for_mu

        def link_for_mu(point_params, mu):
            if point_params == params[-10.0]:
                raise ComputationError("synthetic link failure")
            return real_link(point_params, mu)

        real_bisect, single_port = fasmon.optimize._SCHEMES[Scheme.PROPOSED_BISECT]

        def bisect(point_params, link):
            if point_params == params[-12.0]:
                raise ComputationError("synthetic operating-point failure")
            return real_bisect(point_params, link)

        failing_link = derive_link(params[-8.0])
        real_rates = fasmon.optimize.link_rates_true

        def rates(link, rate_r, n_ports):
            # the points share mu, so a call may hold both points' links
            if failing_link in (link if isinstance(link, list) else [link]):
                raise ComputationError("synthetic rate failure")
            return real_rates(link, rate_r, n_ports)

        monkeypatch.setattr(fasmon.experiments, "link_for_mu", link_for_mu)
        monkeypatch.setitem(fasmon.optimize._SCHEMES, Scheme.PROPOSED_BISECT,
                            (bisect, single_port))
        monkeypatch.setattr(fasmon.optimize, "link_rates_true", rates)
        rows = run_experiment(spec)
        assert [repr(r) for r in rows] == [
            repr(r) for r in reference if (r.x_value, r.scheme) == (-12.0, "Passive")]
        assert capsys.readouterr().err.splitlines() == [
            "fasmon: ratio_db=-12 ProposedBisect: ComputationError: "
            "synthetic operating-point failure",
            "fasmon: ratio_db=-10: ComputationError: synthetic link failure",
            "fasmon: ratio_db=-8 ProposedBisect: ComputationError: synthetic rate failure",
            "fasmon: ratio_db=-8 Passive: ComputationError: synthetic rate failure"]

    @pytest.mark.parametrize("pairs", _SWEEPS, ids=_SWEEP_IDS)
    def test_scheme_sweep_mu_failure_reports_every_point(self, monkeypatch,
                                                          capsys, pairs):
        # a failed mu is not memoized: each point retries it and reports it
        calls = []

        def broken(aperture_w):
            calls.append(aperture_w)
            raise ComputationError("synthetic correlation failure")

        monkeypatch.setattr(fasmon.experiments, "correlation_mu", broken)
        spec = _spec("experiment=custom", *pairs)
        assert run_experiment(spec) == []
        assert len(calls) == len(spec.sweep_values)
        assert capsys.readouterr().err.splitlines() == [
            f"fasmon: {spec.sweep_variable}={x:g}: ComputationError: "
            "synthetic correlation failure" for x in spec.sweep_values]

    def test_worker_fault_propagates(self, monkeypatch, worker_cap):
        # a non-fasmon exception in one block ends the run with that
        # exception once the blocks in flight finish; nothing is left running
        worker_cap(3)
        spec = _tiny_fig2("mc_samples=300000")
        failing_seed = row_seed(spec.seed, "custom", 0, 1)
        real = fasmon.mcsim._monitor_block_hits

        def faulty(mu, sigma_g2, n_ports, g2_th, seed, idx, size):
            if seed == failing_seed and idx == 0:
                raise RuntimeError("synthetic worker fault")
            return real(mu, sigma_g2, n_ports, g2_th, seed, idx, size)

        monkeypatch.setattr(fasmon.mcsim, "_monitor_block_hits", faulty)
        threads = threading.active_count()
        raised = []

        def run():
            try:
                run_experiment(spec)
            except RuntimeError as exc:
                raised.append(exc)

        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive()
        assert [str(exc) for exc in raised] == ["synthetic worker fault"]
        assert threading.active_count() == threads
