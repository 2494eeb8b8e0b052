"""The one table of numerical checks, behind ``fasmon validate`` and the
acceptance tests.

Each entry of CHECKS holds a name, a check function ``(rng, full) ->
(ok, detail)`` and whether it runs only at the full level. ``run_check``
runs one entry and returns its ``[PASS]/[FAIL] name: detail`` line, counting
a check that raises as failed. ``fasmon validate`` runs the quick level
through it; ``validate --full`` and tests/test_acceptance.py run the full
level. Every tolerance, sample count and seed is written once, in the check
that uses it.

The full level adds 10^6-draw Monte Carlo, which takes most of its time,
wider scans, scans under fixed seeds whose figures repeat from run to run,
and the fig1, fig2 and fig3 end-to-end sweeps. README gives both levels'
measured run times.

These checks deliberately cross implementation routes: quadrature against
simulation, panels in sqrt(t) against a Gauss-Laguerre rule in t, series
against integral identities, closed forms against generic solvers. Agreement between independent routes is the whole point; a check
that reuses the code under test would be vacuous.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from .channel import DerivedLink, derive_link
from .config import resolve_config
from .experiments import run_experiment
from .mcsim import estimate_monitor_outage, estimate_sd_outage
from .optimize import objective_terms, solve_bound_bisect, solve_closed_form
from .outage import (RatePoint, monitor_outage_approx, monitor_outage_bound,
                     monitor_outage_true, pm_for_rate, rate_approx, rate_bound,
                     rate_bounds, rate_true, sd_outage)
from . import specfun
from .specfun import bessel_j, hyp1f2_half, lambert_w0, marcum_q1

DEFAULT_SEED = 12345

_LN2 = math.log(2.0)

# reference values, multiprecision (50-digit) evaluations rounded to double
_MARCUM_REFS = (
    ((1.0, 1.0), 0.73287980379682022),
    ((0.5, 2.0), 0.16914063850946718),
    ((3.0, 1.0), 0.98917055017845215),
    ((10.0, 10.0), 0.51997218964954834),
)
_HYP_REFS = (
    (0.25, 0.81250442252206341),
    (0.5, 0.42893094785354070),
    (5.0, 0.028566694755893892),
)
_BESSEL_REFS = (
    (0, 5.0, -0.17759677131433830),
    (1, 5.0, -0.32757913759146522),
    (0, 100.0, 0.019985850304223122),
    (1, 20.0, 0.066833124175850045),
)


def _threshold_point(gamma_th: float) -> RatePoint:
    return RatePoint(math.log1p(gamma_th) / _LN2)


def _random_links(rng, count, mu_max=0.9):
    for _ in range(count):
        n_ports = int(rng.integers(2, 33))
        mu = float(rng.uniform(0.0, mu_max))
        gamma_cap = float(10.0 ** rng.uniform(-1, 2))
        yield DerivedLink(mu=mu, gamma_cap=gamma_cap), n_ports


def _check_marcum_q1(rng, full):
    pairs, ref = zip(*_MARCUM_REFS)
    a_ref, b_ref = np.array(pairs).T
    ref_err = np.max(np.abs(marcum_q1(a_ref, b_ref) - ref))
    grid = np.array([0.0, 0.3, 0.5, 1.0, 2.0, 3.0, 4.0, 7.0, 9.0, 10.0, 30.0, 50.0])
    zeros = np.zeros_like(grid)
    # Q1(x, 0) = 1 and Q1(0, x) = e^{-x^2/2}, the latter from math.exp
    expected = np.concatenate([np.ones_like(grid), [math.exp(-0.5 * x * x) for x in grid]])
    identities = marcum_q1(np.concatenate([grid, zeros]), np.concatenate([zeros, grid]))
    identity_err = np.max(np.abs(identities - expected))
    n = 400 if full else 80
    a = rng.uniform(0.0, 20.0, n)
    b = rng.uniform(0.0, 20.0, n)
    # one call per side: in one call each b would pair with two a values, whose
    # shared window can move the last bits of the rounding-level step printed
    mono = np.min(marcum_q1(a + 0.1, b) - marcum_q1(a, b))
    ok = ref_err <= 1e-10 and identity_err <= 1e-14 and mono >= -1e-12
    return ok, (f"reference abs err {ref_err:.2e}, boundary identities "
                f"{identity_err:.1e}, worst monotonicity step {mono:.2e}")


def _check_lambert_w(rng, full):
    xs = np.concatenate([
        10.0 ** rng.uniform(-6, 6, 400 if full else 100),
        -np.exp(-1.0) + 10.0 ** rng.uniform(-12, -0.5, 50),
        np.geomspace(1e-8, 1e8, 50),
        [-0.36, -0.25, -0.05, 1.0, math.e, 1e150, 1e300],
    ])
    worst = 0.0
    for x in xs:
        w = lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / abs(x))
    zero_exact = lambert_w0(0.0) == 0.0
    return worst <= 1e-12 and zero_exact, (
        f"max residual relative to |x| {worst:.2e}, W(0) = 0 exactly: {zero_exact}")


def _check_bessel_values(rng, full):
    worst = 0.0
    for order, z, ref in _BESSEL_REFS:
        worst = max(worst, abs(bessel_j(order, z) - ref))
    return worst <= 1e-12, f"J abs err {worst:.2e}"


def _confluent_series(w):
    """1F2(1/2; 1, 3/2; -pi^2 W^2) by its defining series (small W only)."""
    z = (math.pi * w) ** 2
    total, term, k = 1.0, 1.0, 0
    while abs(term) > 1e-18 * abs(total):
        term *= -(0.5 + k) / ((1.0 + k) * (1.5 + k) * (1.0 + k)) * z
        total += term
        k += 1
    return total


def _check_confluent_series(rng, full):
    ref_err = max(abs(hyp1f2_half(w) - ref) / abs(ref) for w, ref in _HYP_REFS)
    series_err = max(abs(hyp1f2_half(w) - _confluent_series(w))
                     for w in (0.05, 0.1, 0.25, 0.5))
    ok = ref_err <= 1e-11 and series_err <= 1e-9
    return ok, (f"reference rel err {ref_err:.2e}, small-W series agreement "
                f"{series_err:.1e}")


def _direction_excesses(points):
    """Worst excess of the outage lower bound and of the linearized outage
    over the exact outage, and worst excess of the exact rate over the bound
    and approximate rates."""
    params = resolve_config({}).params
    worst_bound = worst_approx = worst_rate = -math.inf
    for link, n_ports, rp in points:
        true = monitor_outage_true(link, rp, n_ports)
        worst_bound = max(worst_bound, monitor_outage_bound(link, rp, n_ports) - true)
        worst_approx = max(worst_approx, monitor_outage_approx(link, rp, n_ports) - true)
        at_n = dataclasses.replace(params, n_ports=n_ports)
        rt = rate_true(at_n, link, rp)
        worst_rate = max(worst_rate, rt - rate_bound(at_n, link, rp),
                         rt - rate_approx(at_n, link, rp))
    return worst_bound, worst_approx, worst_rate


def _check_outage_directions(rng, full):
    scans = {"random": [(link, n_ports, RatePoint(float(rng.uniform(0.05, 6.0))))
                        for link, n_ports in _random_links(rng, 200 if full else 60)]}
    if full:
        seeded = np.random.default_rng(55501)
        lo, hi = math.log10(0.05), math.log10(6.0)
        scans["seed 55501"] = [
            (link, n_ports, _threshold_point(float(10.0 ** seeded.uniform(lo, hi))))
            for link, n_ports in _random_links(seeded, 200)]
    ok = True
    parts = []
    for label, points in scans.items():
        bound, approx, rate = _direction_excesses(points)
        ok = ok and max(bound, approx, rate) <= 1e-9
        parts.append(f"{label} ({len(points)} points): lower bound {bound:.1e}, "
                     f"linearized {approx:.1e}, rate ordering {rate:.1e}")
    return ok, f"max excess over exact, {'; '.join(parts)} (all <= 1e-9)"


def _laguerre_outage(link, gamma_th, n_ports, n_nodes):
    """The exact best-port outage integrated in t on the n_nodes-point
    Gauss-Laguerre rule, the route that monitor_outage_true's panels in
    u = sqrt(t) do not take."""
    nodes, weights = specfun._laguerre_rule(n_nodes)
    mu2 = link.mu * link.mu
    a = np.sqrt((2.0 * mu2 / (1.0 - mu2)) * nodes)
    b = math.sqrt(2.0 * gamma_th / (link.gamma_cap * (1.0 - mu2)))
    return math.fsum(weights * (1.0 - specfun.marcum_q1(a, b)) ** n_ports)


def _check_outage_quadrature_routes(rng, full):
    # mu <= 0.8 keeps the integrand smooth enough for one global rule
    worst_rule = worst = 0.0
    for link, n_ports in _random_links(rng, 60 if full else 12, mu_max=0.8):
        gamma = float(rng.uniform(0.05, 6.0))
        ref = _laguerre_outage(link, gamma, n_ports, 2048)
        worst_rule = max(worst_rule, abs(ref - _laguerre_outage(link, gamma, n_ports, 1024)))
        worst = max(worst, abs(monitor_outage_true(link, _threshold_point(gamma), n_ports)
                               - ref))
    return worst_rule <= 1e-12 and worst <= 1e-12, (
        f"panels in sqrt(t) vs 2048-node Gauss-Laguerre in t max |diff| "
        f"{worst:.1e}, 1024- vs 2048-node rule {worst_rule:.1e} (both <= 1e-12), "
        f"{60 if full else 12} random links with mu <= 0.8")


def _sign_pattern_violations(links):
    """Parameter sets where h - g, up to the peak of g, crosses downward more
    than once or upward at all."""
    bad = 0
    for link, n_ports in links:
        c = link.gamma_cap * (1.0 - link.mu * link.mu)
        xs = np.linspace(1e-9, 30.0 * c, 2000)
        h, g = objective_terms(link, n_ports, xs)
        scope = slice(0, int(np.argmax(g)) + 1)
        signs = np.sign(h[scope] - g[scope])
        down = int(np.count_nonzero((signs[:-1] > 0) & (signs[1:] <= 0)))
        up = int(np.count_nonzero((signs[:-1] < 0) & (signs[1:] >= 0)))
        if down > 1 or up > 0:
            bad += 1
    return bad


def _check_derivative_sign_pattern(rng, full):
    """h - g starts positive and crosses at most once before the peak of g."""
    count = 200 if full else 40
    bad = _sign_pattern_violations(_random_links(rng, count))
    detail = f"{bad}/{count} random parameter sets violated the sign pattern"
    if full:
        seeded = _sign_pattern_violations(
            _random_links(np.random.default_rng(66601), 200, mu_max=0.99))
        bad += seeded
        detail += f", {seeded}/200 under seed 66601 (mu up to 0.99)"
    return bad == 0, detail


def _check_constraint_residuals(rng, full):
    params = resolve_config({}).params
    r_min, r_max = rate_bounds(params)
    worst = 0.0
    for count in (200, 201) if full else (200,):
        for r in np.linspace(r_min, r_max, count):
            rp = RatePoint(float(r))
            p_m = pm_for_rate(params, rp)
            worst = max(worst, abs(sd_outage(params, rp, p_m) - params.delta))
    end_lo = sd_outage(params, RatePoint(r_min), params.p_m_max)
    end_hi = sd_outage(params, RatePoint(r_max), 0.0)
    worst_end = max(abs(end_lo - params.delta), abs(end_hi - params.delta))
    # without jamming the destination outage is Rayleigh: 1 - e^{-x/snr} = delta
    snr = params.p_s * params.sigma_h2 / params.sigma_d2
    r_max_err = abs(r_max - math.log1p(-snr * math.log(1.0 - params.delta)) / _LN2)
    ok = worst <= 1e-10 and worst_end <= 1e-9 and r_max_err <= 1e-6
    return ok, (f"interior residual {worst:.2e}, endpoint residual "
                f"{worst_end:.2e}, band top vs direct form {r_max_err:.1e}")


def _check_closed_form_stationarity(rng, full):
    params = resolve_config({}).params
    link = derive_link(params)
    res = solve_closed_form(params, link)
    gamma = RatePoint(res.r_star).gamma_th
    slope = math.exp(-gamma / link.gamma_cap) * (
        1.0 - res.r_star * (gamma + 1.0) * math.log(2.0) / link.gamma_cap)
    return abs(slope) <= 1e-8, f"derivative at the closed-form point {slope:.2e}"


def _bound_rate(r, mu, n_ports, gamma_cap):
    """The bound rate R (1 - eta u^N) on an R grid, written out here
    independently of the optimizer."""
    eta = (1.0 - mu * mu) / (1.0 + (n_ports - 1) * mu * mu)
    u = -np.expm1(-np.expm1(r * _LN2) / (gamma_cap * (1.0 - mu * mu)))
    return r * (1.0 - eta * u ** n_ports)


def _bisect_vs_grid_sets(params):
    """Bisection against a 10^4-point scan of the bound rate on 200 parameter
    sets under seed 66601: the worst objective gap, and whether every argmax
    that lies apart also differs in value."""
    max_value_gap = 0.0
    positions_ok = True
    for link, n_ports in _random_links(np.random.default_rng(66601), 200,
                                       mu_max=0.99):
        cross = link.gamma_cap * params.sigma_m2 / params.p_s
        at_set = dataclasses.replace(params, n_ports=n_ports,
                                     sigma_g2=cross, sigma_f2=cross)
        r_star = solve_bound_bisect(at_set, link).r_star
        r_min, r_max = rate_bounds(at_set)
        grid = np.linspace(r_min, r_max, 10000)
        values = _bound_rate(grid, link.mu, n_ports, link.gamma_cap)
        idx = int(np.argmax(values))
        gap = abs(float(_bound_rate(r_star, link.mu, n_ports, link.gamma_cap))
                  - float(values[idx]))
        max_value_gap = max(max_value_gap, gap)
        spacing = (r_max - r_min) / 9999.0
        if abs(r_star - float(grid[idx])) > 1.5 * spacing and gap > 1e-9:
            positions_ok = False
    return max_value_gap, positions_ok


def _check_bisect_vs_bound_grid(rng, full):
    params = resolve_config({}).params
    link = derive_link(params)
    r_min, r_max = rate_bounds(params)
    grid = np.linspace(r_min, r_max, 20001)
    vals = _bound_rate(grid, link.mu, params.n_ports, link.gamma_cap)
    gap = abs(float(grid[int(np.argmax(vals))])
              - solve_bound_bisect(params, link).r_star)
    ok = gap <= 2.0 * (r_max - r_min) / 20000
    detail = f"bisect vs grid argmax gap {gap:.2e} bits at the reference setup"
    if full:
        value_gap, positions_ok = _bisect_vs_grid_sets(params)
        ok = ok and value_gap <= 1e-4 and positions_ok
        detail += (f"; over 200 sets under seed 66601, objective gap "
                   f"{value_gap:.1e} bits (<= 1e-4), argmax positions "
                   f"consistent: {positions_ok}")
    return ok, detail


def _check_mc_sd_outage(rng, full):
    params = resolve_config({}).params
    n = 10 ** 6 if full else 10 ** 5
    rp = RatePoint(1.5)
    p_m = pm_for_rate(params, rp)
    analytic = sd_outage(params, rp, p_m)
    est = estimate_sd_outage(params, rp, p_m, n, int(rng.integers(2 ** 31)))
    sigma = est.half_width_95 / 1.959963984540054
    z = abs(est.mean - analytic) / sigma
    return z <= 4.0, f"simulation vs closed form {z:.2f} sigma at n={n}"


def _monitor_outage_z(params, link, rp, n_ports, n_draws, seed):
    """|simulated - quadrature outage| in binomial standard errors at the
    quadrature value."""
    p = monitor_outage_true(link, rp, n_ports)
    est = estimate_monitor_outage(params, link, rp, n_ports, n_draws, seed)
    return abs(est.mean - p) / math.sqrt(p * (1.0 - p) / n_draws)


def _check_mc_monitor_outage(rng, full):
    params = resolve_config({}).params
    link = derive_link(params)
    n = 10 ** 6 if full else 10 ** 5
    cases = ((1.0, 4), (1.5, 8), (2.2, 16)) if full else ((1.5, 8),)
    z_max = max(_monitor_outage_z(params, link, RatePoint(r), n_ports, n,
                                  int(rng.integers(2 ** 31)))
                for r, n_ports in cases)
    thresholds = (0.5, 1.0, 2.0, 4.0, 8.0)
    detail = f"simulation vs quadrature max |z| {z_max:.2f} at n={n}"
    if full:
        grid_z = max(_monitor_outage_z(params, link, _threshold_point(g),
                                       n_ports, n, 777000 + 5 * i + j)
                     for i, g in enumerate(thresholds)
                     for j, n_ports in enumerate((1, 2, 4, 8, 16)))
        z_max = max(z_max, grid_z)
        detail += (f", {grid_z:.2f} over the 5x5 (threshold, ports) grid "
                   f"under seeds 777000+5i+j")
    n1_err = max(abs(monitor_outage_true(link, _threshold_point(g), 1)
                     + math.expm1(-g / link.gamma_cap))
                 for g in thresholds)
    ok = z_max <= 3.0 and n1_err <= 1e-8
    return ok, (f"{detail} (<= 3); single-port quadrature vs closed form "
                f"{n1_err:.1e} (<= 1e-8)")


def _check_fig1_peak_powers(rng, full):
    start = time.monotonic()
    rows = run_experiment(resolve_config({"experiment": "fig1"}))
    elapsed = time.monotonic() - start
    peak = {}
    for tag in ("bound", "approx", "true"):
        curve = [(r.rate_analytic, r.x_value) for r in rows if r.scheme == tag]
        peak[tag] = max(curve)[1]
    targets = {"bound": 17.0, "approx": 24.0, "true": 19.0}
    ok = all(abs(peak[t] - targets[t]) <= 1.0 for t in targets) and elapsed < 60.0
    return ok, (f"peak jamming power {peak['bound']:.2f}/{peak['approx']:.2f}/"
                f"{peak['true']:.2f} dB for bound/closed-form/true vs targets "
                f"17/24/19 (+/-1 dB), ran {elapsed:.1f}s (< 60s)")


def _check_ratio_sweep_orderings(rng, full):
    spec = resolve_config(
        {"schemes": "ProposedBisect,TrueGrid,ConventionalSingle,Passive"})
    start = time.monotonic()
    rows = run_experiment(spec)
    elapsed = time.monotonic() - start
    curve = {}
    for row in rows:
        curve.setdefault(row.scheme, {})[row.x_value] = row.rate_analytic
    bisect, exhaustive = curve["ProposedBisect"], curve["TrueGrid"]
    xs = sorted(bisect)
    gaps = [abs(bisect[x] - exhaustive[x]) for x in xs]
    rel_scale = max(gaps) / max(exhaustive.values())
    rel_point = max(g / exhaustive[x] for g, x in zip(gaps, xs))
    dominates = all(bisect[x] >= curve["ConventionalSingle"][x] - 1e-12 for x in xs)
    passive_gap = abs(bisect[xs[-1]] - curve["Passive"][xs[-1]])
    ok = (rel_scale <= 0.01 and dominates and passive_gap < 1e-3
          and elapsed < 300.0)
    return ok, (f"bisect vs exhaustive gap {100 * rel_scale:.3f}% of curve "
                f"scale (pointwise {100 * rel_point:.3f}%), dominates "
                f"single-antenna at all {len(xs)} ratios: {dominates}, "
                f"|bisect-passive| {passive_gap:.1e} bits at {xs[-1]:g} dB, "
                f"ran {elapsed:.0f}s (< 300s)")


def _check_port_count_trends(rng, full):
    rows = run_experiment(resolve_config(
        {"experiment": "fig3", "schemes": "ProposedBisect,ConstantJamming"}))
    pb = [r.rate_analytic for r in rows if r.scheme == "ProposedBisect"]
    cj = {int(r.x_value): r.rate_analytic for r in rows
          if r.scheme == "ConstantJamming"}
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(pb, pb[1:]))
    growth = (cj[16] - cj[5]) / cj[5]
    return nondecreasing and growth < 0.02, (
        f"bisect rate nondecreasing over N=2..16: {nondecreasing}, "
        f"constant-jamming growth N=5..16 {100 * growth:.3f}% (< 2%)")


class Check(NamedTuple):
    name: str
    run: Callable[[np.random.Generator, bool], tuple[bool, str]]
    full_only: bool = False


CHECKS = (
    Check("marcum-q1", _check_marcum_q1),
    Check("lambert-w", _check_lambert_w),
    Check("bessel-values", _check_bessel_values),
    Check("confluent-series", _check_confluent_series),
    Check("outage-directions", _check_outage_directions),
    Check("derivative-sign-pattern", _check_derivative_sign_pattern),
    Check("delta-constraint-residuals", _check_constraint_residuals),
    Check("closed-form-stationarity", _check_closed_form_stationarity),
    Check("bisect-vs-bound-grid", _check_bisect_vs_bound_grid),
    Check("mc-sd-outage", _check_mc_sd_outage),
    Check("mc-monitor-outage", _check_mc_monitor_outage),
    # after the checks whose draws come from their index, so theirs stay put
    Check("outage-quadrature-routes", _check_outage_quadrature_routes),
    Check("fig1-peak-powers", _check_fig1_peak_powers, full_only=True),
    Check("ratio-sweep-orderings", _check_ratio_sweep_orderings, full_only=True),
    Check("port-count-trends", _check_port_count_trends, full_only=True),
)


def run_check(index: int, full: bool, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Run CHECKS[index]; returns (passed, its [PASS]/[FAIL] line). The
    check's draws come from (seed, index); a check that raises has failed."""
    check = CHECKS[index]
    rng = np.random.default_rng([seed, index])
    try:
        ok, detail = check.run(rng, full)
    except Exception as exc:  # a crashed check is a failed check
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    return ok, f"[{'PASS' if ok else 'FAIL'}] {check.name}: {detail}"


def run_validation(seed: int = DEFAULT_SEED, full: bool = False, out=None) -> int:
    """Run the checks of one level; returns 0 if all passed, 4 otherwise."""
    out = out or sys.stdout
    level = [i for i, check in enumerate(CHECKS) if full or not check.full_only]
    failures = []
    for index in level:
        ok, line = run_check(index, full, seed)
        print(line, file=out)
        if not ok:
            failures.append(CHECKS[index].name)
    if failures:
        print(f"validation failed: first failing check {failures[0]}", file=out)
        return 4
    print(f"all {len(level)} checks passed", file=out)
    return 0
