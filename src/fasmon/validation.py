"""Self-check suite behind the ``validate`` CLI command.

Each check prints one [PASS]/[FAIL] line with a measured figure of merit, so
a failing run names exactly what broke and by how much. The quick level runs
in well under a minute; ``full`` raises the Monte Carlo sample counts to 10^6
and widens the random scans.

These checks deliberately cross implementation routes: quadrature against
simulation, series against integral identities, closed forms against generic
solvers. Agreement between independent routes is the whole point; a check
that reuses the code under test would be vacuous.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .channel import SystemParams, DerivedLink, derive_link, eta_factor
from .mcsim import estimate_monitor_outage, estimate_sd_outage
from .optimize import objective_terms, solve_bound_bisect, solve_closed_form
from .outage import (RatePoint, monitor_outage_approx, monitor_outage_bound,
                     monitor_outage_true, pm_for_rate, rate_bounds, sd_outage)
from .specfun import bessel_j, hyp1f2_half, lambert_w0, marcum_q1

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


def _reference_setup() -> SystemParams:
    cross = 10.0 ** (-18.0 / 10.0)
    return SystemParams(p_s=100.0, p_m_max=1000.0, sigma_h2=1.0,
                        sigma_g2=cross, sigma_f2=cross, sigma_d2=1.0,
                        sigma_m2=1.0, delta=0.05, n_ports=8, aperture_w=5.0)


def _check_marcum_boundaries(rng, full):
    worst = 0.0
    for (a, b), ref in _MARCUM_REFS:
        worst = max(worst, abs(marcum_q1(a, b) - ref))
    for a in (0.0, 0.5, 2.0, 7.0):
        worst = max(worst, abs(marcum_q1(a, 0.0) - 1.0))
    for b in (0.3, 1.0, 4.0, 9.0):
        worst = max(worst, abs(marcum_q1(0.0, b) - math.exp(-0.5 * b * b)))
    n = 400 if full else 80
    a = rng.uniform(0.0, 20.0, n)
    b = rng.uniform(0.0, 20.0, n)
    q_lo = np.array([marcum_q1(x, y) for x, y in zip(a, b)])
    q_hi = np.array([marcum_q1(x + 0.1, y) for x, y in zip(a, b)])
    mono = float(np.min(q_hi - q_lo))
    ok = worst <= 1e-10 and mono >= -1e-12
    return ok, f"max abs err {worst:.2e}, worst monotonicity step {mono:.2e}"


def _check_lambert_residuals(rng, full):
    xs = np.concatenate([
        10.0 ** rng.uniform(-6, 6, 400 if full else 100),
        -np.exp(-1.0) + 10.0 ** rng.uniform(-12, -0.5, 50),
        [0.0, 1.0, math.e, 1e150, 1e300],
    ])
    worst = 0.0
    for x in xs:
        w = lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    return worst <= 1e-12, f"max rel residual {worst:.2e}"


def _check_bessel_values(rng, full):
    worst = 0.0
    for order, z, ref in _BESSEL_REFS:
        worst = max(worst, abs(bessel_j(order, z) - ref))
    return worst <= 1e-12, f"J abs err {worst:.2e}"


def _check_confluent_series(rng, full):
    worst = max(abs(hyp1f2_half(w) - ref) / abs(ref) for w, ref in _HYP_REFS)
    return worst <= 1e-11, f"max rel err {worst:.2e}"


def _random_links(rng, count):
    for _ in range(count):
        n_ports = int(rng.integers(2, 33))
        mu = float(rng.uniform(0.0, 0.9))
        gamma_cap = float(10.0 ** rng.uniform(-1, 2))
        link = DerivedLink(mu=mu, eta=eta_factor(mu, n_ports),
                           gamma_cap=gamma_cap)
        yield link, n_ports


def _check_bound_order(rng, full):
    worst = -math.inf
    for link, n_ports in _random_links(rng, 200 if full else 60):
        rp = RatePoint(float(rng.uniform(0.05, 6.0)))
        true = monitor_outage_true(link, rp, n_ports)
        slack = monitor_outage_bound(link, rp, n_ports) - true
        worst = max(worst, slack)
    return worst <= 1e-9, f"max lower-bound excess {worst:.2e}"


def _check_approx_order(rng, full):
    worst = -math.inf
    for link, n_ports in _random_links(rng, 200 if full else 60):
        rp = RatePoint(float(rng.uniform(0.05, 6.0)))
        true = monitor_outage_true(link, rp, n_ports)
        slack = monitor_outage_approx(link, rp, n_ports) - true
        worst = max(worst, slack)
    return worst <= 1e-9, f"max approx excess over true {worst:.2e}"


def _check_derivative_sign_pattern(rng, full):
    """h - g starts positive and crosses at most once before the peak of g."""
    bad = 0
    count = 200 if full else 40
    for link, n_ports in _random_links(rng, count):
        c = link.gamma_cap * (1.0 - link.mu * link.mu)
        xs = np.linspace(1e-9, 30.0 * c, 2000)
        _, h, g = objective_terms(link, n_ports, xs)
        scope = slice(0, int(np.argmax(g)) + 1)
        signs = np.sign(h[scope] - g[scope])
        down = int(np.count_nonzero((signs[:-1] > 0) & (signs[1:] <= 0)))
        up = int(np.count_nonzero((signs[:-1] < 0) & (signs[1:] >= 0)))
        if down > 1 or up > 0:
            bad += 1
    return bad == 0, f"{bad}/{count} parameter sets violated the sign pattern"


def _check_constraint_residuals(rng, full):
    params = _reference_setup()
    r_min, r_max = rate_bounds(params)
    worst = 0.0
    for r in np.linspace(r_min, r_max, 200):
        rp = RatePoint(float(r))
        p_m = pm_for_rate(params, rp)
        worst = max(worst, abs(sd_outage(params, rp, p_m) - params.delta))
    end_lo = sd_outage(params, RatePoint(r_min), params.p_m_max)
    end_hi = sd_outage(params, RatePoint(r_max), 0.0)
    worst_end = max(abs(end_lo - params.delta), abs(end_hi - params.delta))
    ok = worst <= 1e-10 and worst_end <= 1e-9
    return ok, f"interior residual {worst:.2e}, endpoint residual {worst_end:.2e}"


def _check_closed_form_stationarity(rng, full):
    params = _reference_setup()
    link = derive_link(params)
    res = solve_closed_form(params, link)
    gamma = RatePoint(res.r_star).gamma_th
    slope = math.exp(-gamma / link.gamma_cap) * (
        1.0 - res.r_star * (gamma + 1.0) * math.log(2.0) / link.gamma_cap)
    return abs(slope) <= 1e-8, f"derivative at the closed-form point {slope:.2e}"


def _check_bisect_vs_bound_grid(rng, full):
    params = _reference_setup()
    link = derive_link(params)
    res = solve_bound_bisect(params, link)
    r_min, r_max = rate_bounds(params)
    grid = np.linspace(r_min, r_max, 20001)
    # score the bound rate R (1 - eta u^N) directly on the R grid
    xs = np.exp2(grid) - 1.0
    eta = eta_factor(link.mu, params.n_ports)
    c = link.gamma_cap * (1.0 - link.mu * link.mu)
    u = -np.expm1(-xs / c)
    vals = grid * (1.0 - eta * u ** params.n_ports)
    gap = abs(float(grid[int(np.argmax(vals))]) - res.r_star)
    step = (r_max - r_min) / 20000
    return gap <= 2.0 * step, f"bisect vs grid argmax gap {gap:.2e} bits"


def _check_mc_sd_outage(rng, full):
    params = _reference_setup()
    n = 10 ** 6 if full else 10 ** 5
    rp = RatePoint(1.5)
    p_m = pm_for_rate(params, rp)
    analytic = sd_outage(params, rp, p_m)
    est = estimate_sd_outage(params, rp, p_m, n, int(rng.integers(2 ** 31)))
    sigma = est.half_width_95 / 1.959963984540054
    z = abs(est.mean - analytic) / sigma
    return z <= 4.0, f"simulation vs closed form {z:.2f} sigma at n={n}"


def _check_mc_monitor_outage(rng, full):
    params = _reference_setup()
    link = derive_link(params)
    n = 10 ** 6 if full else 10 ** 5
    worst = 0.0
    cases = ((1.0, 4), (1.5, 8), (2.2, 16)) if full else ((1.5, 8),)
    for r, n_ports in cases:
        rp = RatePoint(r)
        analytic = monitor_outage_true(link, rp, n_ports)
        est = estimate_monitor_outage(params, link, rp, n_ports, n,
                                      int(rng.integers(2 ** 31)))
        sigma = est.half_width_95 / 1.959963984540054
        worst = max(worst, abs(est.mean - analytic) / sigma)
    return worst <= 4.0, f"simulation vs quadrature {worst:.2f} sigma at n={n}"


_CHECKS = (
    ("marcum-q1-boundaries", _check_marcum_boundaries),
    ("lambert-w-residuals", _check_lambert_residuals),
    ("bessel-values", _check_bessel_values),
    ("confluent-series-values", _check_confluent_series),
    ("outage-bound-order", _check_bound_order),
    ("outage-approx-order", _check_approx_order),
    ("derivative-sign-pattern", _check_derivative_sign_pattern),
    ("delta-constraint-residuals", _check_constraint_residuals),
    ("closed-form-stationarity", _check_closed_form_stationarity),
    ("bisect-vs-bound-grid", _check_bisect_vs_bound_grid),
    ("mc-sd-outage", _check_mc_sd_outage),
    ("mc-monitor-outage", _check_mc_monitor_outage),
)


def run_validation(seed: int = 12345, full: bool = False, out=None) -> int:
    """Run all checks; returns 0 if everything passed, 4 otherwise."""
    out = out or sys.stdout
    failures = []
    for check_idx, (name, check) in enumerate(_CHECKS):
        rng = np.random.default_rng([seed, check_idx])
        try:
            ok, detail = check(rng, full)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name}: {detail}", file=out)
        if not ok:
            failures.append(name)
    if failures:
        print(f"validation failed: first failing check {failures[0]}", file=out)
        return 4
    print(f"all {len(_CHECKS)} checks passed", file=out)
    return 0
