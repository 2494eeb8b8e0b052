"""End-to-end acceptance checks.

Each test covers one numbered criterion and records a single PASS/FAIL line
(echoed in the terminal summary) before asserting, so a red run still shows
the measured numbers. Random draws are seeded; Monte Carlo tolerances are
multiples of the known-probability binomial standard error.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from fasmon import (DerivedLink, RatePoint, Scheme, SystemParams,
                    estimate_monitor_outage, eta_factor, hyp1f2_half,
                    lambert_w0, marcum_q1, monitor_outage_approx,
                    monitor_outage_bound, monitor_outage_true,
                    objective_terms, pm_for_rate, rate_approx, rate_bound,
                    rate_bounds, rate_true, resolve_config, run_experiment,
                    sd_outage, solve_bound_bisect)
from fasmon.config import parse_overrides

_LN2 = math.log(2.0)


def _verdict(acceptance_report, number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    acceptance_report(line)
    print(line)
    assert ok, line


def _rate_point(gamma_th):
    return RatePoint(math.log1p(gamma_th) / _LN2)


def test_criterion_1_peak_jamming_powers(acceptance_report):
    spec = resolve_config({"experiment": "fig1"})
    start = time.monotonic()
    rows = run_experiment(spec)
    elapsed = time.monotonic() - start
    peak = {}
    for tag in ("bound", "approx", "true"):
        curve = [(r.rate_analytic, r.x_value) for r in rows if r.scheme == tag]
        peak[tag] = max(curve)[1]
    targets = {"bound": 17.0, "approx": 24.0, "true": 19.0}
    ok = all(abs(peak[t] - targets[t]) <= 1.0 for t in targets) and elapsed < 60.0
    _verdict(acceptance_report, 1, ok,
             f"peak jamming power {peak['bound']:.2f}/{peak['approx']:.2f}/"
             f"{peak['true']:.2f} dB for bound/closed-form/true vs targets "
             f"17/24/19 (+/-1 dB), ran {elapsed:.1f}s")


def test_criterion_2_ratio_sweep_orderings(acceptance_report):
    spec = resolve_config({}, parse_overrides(
        ["schemes=ProposedBisect,TrueGrid,ConventionalSingle,Passive"]))
    start = time.monotonic()
    rows = run_experiment(spec)
    elapsed = time.monotonic() - start
    curve = {}
    for row in rows:
        curve.setdefault(row.scheme, {})[row.x_value] = row.rate_analytic
    xs = sorted(curve["ProposedBisect"])
    gaps = [abs(curve["ProposedBisect"][x] - curve["TrueGrid"][x]) for x in xs]
    scale = max(curve["TrueGrid"].values())
    rel_scale = max(gaps) / scale
    rel_point = max(g / curve["TrueGrid"][x] for g, x in zip(gaps, xs))
    dominates = all(curve["ProposedBisect"][x] >= curve["ConventionalSingle"][x] - 1e-12
                    for x in xs)
    passive_gap = abs(curve["ProposedBisect"][xs[-1]] - curve["Passive"][xs[-1]])
    ok = (rel_scale <= 0.01 and dominates and passive_gap < 1e-3
          and elapsed < 300.0)
    _verdict(acceptance_report, 2, ok,
             f"bisect vs exhaustive gap {100 * rel_scale:.3f}% of curve scale "
             f"(pointwise {100 * rel_point:.3f}%), dominates single-antenna at "
             f"all {len(xs)} ratios, |bisect-passive| {passive_gap:.1e} bits "
             f"at {xs[-1]:g} dB, ran {elapsed:.0f}s")


def test_criterion_3_port_count_trends(acceptance_report):
    spec = resolve_config({}, parse_overrides(
        ["experiment=fig3", "schemes=ProposedBisect,ConstantJamming"]))
    rows = run_experiment(spec)
    pb = [r.rate_analytic for r in rows if r.scheme == "ProposedBisect"]
    cj = {int(r.x_value): r.rate_analytic for r in rows
          if r.scheme == "ConstantJamming"}
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(pb, pb[1:]))
    growth = (cj[16] - cj[5]) / cj[5]
    ok = nondecreasing and growth < 0.02
    _verdict(acceptance_report, 3, ok,
             f"bisect rate nondecreasing over N=2..16: {nondecreasing}, "
             f"constant-jamming growth N=5..16 {100 * growth:.3f}% (< 2%)")


def test_criterion_4_quadrature_vs_simulation(acceptance_report,
                                              ref_params, ref_link):
    z_max = 0.0
    n_draws = 10 ** 6
    for i, gamma_th in enumerate((0.5, 1.0, 2.0, 4.0, 8.0)):
        rp = _rate_point(gamma_th)
        for j, n_ports in enumerate((1, 2, 4, 8, 16)):
            p = monitor_outage_true(ref_link, rp, n_ports)
            est = estimate_monitor_outage(ref_params, ref_link, rp, n_ports,
                                          n_draws, seed=777000 + 5 * i + j)
            sigma = math.sqrt(p * (1.0 - p) / n_draws)
            z_max = max(z_max, abs(est.mean - p) / sigma)
    n1_err = max(
        abs(monitor_outage_true(ref_link, _rate_point(g), 1)
            - (-math.expm1(-g / ref_link.gamma_cap)))
        for g in (0.5, 1.0, 2.0, 4.0, 8.0))
    ok = z_max <= 3.0 and n1_err <= 1e-8
    _verdict(acceptance_report, 4, ok,
             f"max |z| {z_max:.2f} over the 5x5 (threshold, ports) grid at "
             f"10^6 draws (<= 3), single-port quadrature vs closed form "
             f"{n1_err:.1e} (<= 1e-8)")


def test_criterion_5_bound_directions(acceptance_report, ref_params):
    rng = np.random.default_rng(55501)
    worst_bound = -math.inf
    worst_approx = -math.inf
    worst_rate = -math.inf
    for _ in range(200):
        n_ports = int(rng.integers(2, 33))
        mu = float(rng.uniform(0.0, 0.9))
        gamma_cap = float(10.0 ** rng.uniform(-1.0, 2.0))
        gamma_th = float(10.0 ** rng.uniform(math.log10(0.05), math.log10(6.0)))
        link = DerivedLink(mu=mu, eta=eta_factor(mu, n_ports),
                           gamma_cap=gamma_cap)
        rp = _rate_point(gamma_th)
        true = monitor_outage_true(link, rp, n_ports)
        worst_bound = max(worst_bound,
                          monitor_outage_bound(link, rp, n_ports) - true)
        worst_approx = max(worst_approx,
                           monitor_outage_approx(link, rp, n_ports) - true)
        params = dataclasses.replace(ref_params, n_ports=n_ports)
        rt = rate_true(params, link, rp)
        worst_rate = max(worst_rate,
                         rt - rate_bound(params, link, rp),
                         rt - rate_approx(params, link, rp))
    ok = worst_bound <= 1e-9 and worst_approx <= 1e-9 and worst_rate <= 1e-9
    _verdict(acceptance_report, 5, ok,
             f"max outage excess over 200 random points: lower bound "
             f"{worst_bound:.1e}, linearized {worst_approx:.1e}; max rate "
             f"ordering violation {worst_rate:.1e} (all <= 1e-9)")


def test_criterion_6_derivative_split_and_bisection(acceptance_report,
                                                    ref_params):
    rng = np.random.default_rng(66601)
    max_transitions = 0
    max_value_gap = 0.0
    positions_ok = True
    for _ in range(200):
        n_ports = int(rng.integers(2, 33))
        mu = float(rng.uniform(0.0, 0.99))
        gamma_cap = float(10.0 ** rng.uniform(-1.0, 2.0))
        cross = gamma_cap / 100.0
        params = dataclasses.replace(ref_params, n_ports=n_ports,
                                     sigma_g2=cross, sigma_f2=cross)
        link = DerivedLink(mu=mu, eta=eta_factor(mu, n_ports),
                           gamma_cap=gamma_cap)

        # sign pattern of h - g up to the peak of g: at most one change
        c = gamma_cap * (1.0 - mu * mu)
        xs = np.linspace(1e-9, 30.0 * c, 2000)
        _, h, g = objective_terms(link, n_ports, xs)
        scope = slice(0, int(np.argmax(g)) + 1)
        signs = np.sign((h - g)[scope])
        signs = signs[signs != 0.0]
        transitions = int(np.count_nonzero(signs[1:] != signs[:-1]))
        max_transitions = max(max_transitions, transitions)

        # bisection against an exhaustive scan of the same objective,
        # written out independently here
        res = solve_bound_bisect(params, link)
        r_min, r_max = rate_bounds(params)
        grid = np.linspace(r_min, r_max, 10000)
        eta = (1.0 - mu * mu) / (1.0 + (n_ports - 1) * mu * mu)

        def bound_objective(r):
            u = -np.expm1(-np.expm1(r * _LN2) / c)
            return r * (1.0 - eta * u ** n_ports)

        values = bound_objective(grid)
        idx = int(np.argmax(values))
        gap = abs(float(bound_objective(res.r_star)) - float(values[idx]))
        max_value_gap = max(max_value_gap, gap)
        spacing = (r_max - r_min) / 9999.0
        if abs(res.r_star - float(grid[idx])) > 1.5 * spacing and gap > 1e-9:
            positions_ok = False
    ok = max_transitions <= 1 and max_value_gap <= 1e-4 and positions_ok
    _verdict(acceptance_report, 6, ok,
             f"derivative sign changes before the g-peak <= 1 on all 200 "
             f"sets (max {max_transitions}), bisect vs 10^4-point grid "
             f"objective gap {max_value_gap:.1e} bits (<= 1e-4), argmax "
             f"positions consistent: {positions_ok}")


def test_criterion_7_constraint_residuals(acceptance_report, ref_params):
    r_min, r_max = rate_bounds(ref_params)
    worst = 0.0
    for r in np.linspace(r_min, r_max, 201):
        rp = RatePoint(float(r))
        out = sd_outage(ref_params, rp, pm_for_rate(ref_params, rp))
        worst = max(worst, abs(out - ref_params.delta))
    low = sd_outage(ref_params, RatePoint(r_min), ref_params.p_m_max)
    high = sd_outage(ref_params, RatePoint(r_max), 0.0)
    end_res = max(abs(low - ref_params.delta), abs(high - ref_params.delta))
    r_max_direct = math.log2(1.0 - 100.0 * math.log(0.95))
    r_max_err = abs(r_max - r_max_direct)
    ok = worst <= 1e-10 and end_res <= 1e-9 and r_max_err <= 1e-6
    _verdict(acceptance_report, 7, ok,
             f"outage residual along the band {worst:.1e} (<= 1e-10), at the "
             f"endpoints {end_res:.1e} (<= 1e-9), band top vs direct form "
             f"{r_max_err:.1e} (<= 1e-6)")


def test_criterion_8_special_function_suite(acceptance_report):
    grid = (0.0, 0.5, 1.0, 3.0, 10.0, 30.0, 50.0)
    marcum_err = max(
        max(abs(marcum_q1(a, 0.0) - 1.0) for a in grid),
        max(abs(marcum_q1(0.0, b) - math.exp(-0.5 * b * b)) for b in grid))

    xs = list(np.geomspace(1e-8, 1e8, 50)) + [-0.36, -0.25, -0.05]
    lambert_err = max(
        abs(lambert_w0(x) * math.exp(lambert_w0(x)) - x) / abs(x) for x in xs)

    def series(w):
        z = (math.pi * w) ** 2
        total, term, k = 1.0, 1.0, 0
        while abs(term) > 1e-18 * abs(total):
            term *= -(0.5 + k) / ((1.0 + k) * (1.5 + k) * (1.0 + k)) * z
            total += term
            k += 1
        return total

    hyp_err = max(abs(hyp1f2_half(w) - series(w)) for w in (0.05, 0.1, 0.25, 0.5))
    ok = marcum_err <= 1e-14 and lambert_err <= 1e-12 and hyp_err <= 1e-9
    _verdict(acceptance_report, 8, ok,
             f"Marcum boundary identities {marcum_err:.1e} (<= 1e-14), "
             f"Lambert residual {lambert_err:.1e} (<= 1e-12), confluent "
             f"series agreement {hyp_err:.1e} (<= 1e-9)")
