"""Analytic outage probabilities and monitoring rates.

Three quantities describe the monitor's side: the exact port-selection
outage (a Marcum-Q integral), a closed-form lower bound on it, and a
large-eta approximation. The destination side has a Rayleigh/interference
outage in closed form, which pins the one-to-one correspondence between the
suspicious rate R and the jamming power p_m through the equality constraint
P_out = delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import _MAX_PORTS, DerivedLink, SystemParams, eta_factor
from .errors import (AccuracyError, ComputationError, ConstraintInfeasibleError,
                     DegenerateRateError, DomainError, check_count,
                     check_nonneg_array, check_real)
from .specfun import _MARCUM_EXIT_GAP, integrate_expweighted, marcum_q1

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class RatePoint:
    """A candidate suspicious rate R with its SNR threshold 2^R - 1, which
    is computed from R, not passed in."""

    rate_r: float
    gamma_th: float = field(init=False)

    def __post_init__(self):
        rate_r = check_real("rate_r", self.rate_r, "nonnegative", lambda v: v >= 0.0)
        object.__setattr__(self, "gamma_th", math.expm1(rate_r * _LN2))


def _ps_h(params: SystemParams) -> float:
    """p_s sigma_h2, the destination's signal scale; ComputationError where
    it underflows to 0, which no destination formula can divide by."""
    ps_h = params.p_s * params.sigma_h2
    if ps_h == 0.0:
        raise ComputationError(f"p_s * sigma_h2 = {params.p_s!r} * {params.sigma_h2!r} "
                               "underflows to 0")
    return ps_h


def sd_outage(params: SystemParams, rp: RatePoint, p_m: float) -> float:
    """Destination outage probability under jamming power p_m.

        P_out = 1 - exp(-gamma_th sigma_d2 / (p_s sigma_h2))
                    / (1 + gamma_th p_m sigma_f2 / (p_s sigma_h2))
    """
    p_m = check_real("p_m", p_m, "nonnegative", lambda v: v >= 0.0)
    ps_h = _ps_h(params)
    gamma = rp.gamma_th
    x = gamma * params.sigma_d2 / ps_h
    y = gamma * p_m * params.sigma_f2 / ps_h
    # 1 - e^{-x}/(1 + y) without the cancellation of 1 - e^{-x} at tiny x
    return (y - math.expm1(-x)) / (1.0 + y)


def _gamma_min_root(a_coef: float, b_coef: float, delta: float) -> float:
    """Solve exp(-A*g)/(1 + B*g) = 1 - delta for g > 0 via the substitution
    d = A*g:  d + log1p(d*B/A) = -ln(1-delta). The left side is increasing
    and concave, so Newton from d = 0, where the residual is negative,
    climbs to the root without overshooting it. The stop test is relative
    to d, which may be far below 1 (tiny delta with large B/A); 100 steps
    that do not settle raise AccuracyError."""
    target = -math.log1p(-delta)
    if a_coef == 0.0:  # A underflows: no noise term, 1/(1 + B g) = 1 - delta
        return math.expm1(target) / b_coef if b_coef > 0.0 else math.inf
    ratio = b_coef / a_coef
    d = 0.0
    for _ in range(100):
        f = d + math.log1p(d * ratio) - target
        fp = 1.0 + ratio / (1.0 + d * ratio)
        step = f / fp
        d -= step
        if abs(step) <= 1e-15 * d:
            return d / a_coef
    raise AccuracyError("destination root solve did not settle", d, d + step)


def _rate_without_jamming(params: SystemParams) -> float:
    """r_max: the rate at which the no-jamming outage equals delta."""
    # log1p, not log2(1 + x): x can be so small that 1 + x rounds to 1
    return math.log1p(-_ps_h(params) * math.log1p(-params.delta)
                      / params.sigma_d2) / _LN2


def rate_bounds(params: SystemParams) -> tuple[float, float]:
    """The feasible band [r_min, r_max] of suspicious rates.

    r_max comes from the no-jamming outage hitting delta; r_min from the
    full-power outage hitting delta, rate_for_pm(params, p_m_max).
    """
    r_max = _rate_without_jamming(params)
    r_min = rate_for_pm(params, params.p_m_max)
    if not (0.0 < r_min <= r_max * (1.0 + 1e-12)):
        raise ComputationError(
            f"inconsistent rate bounds r_min={r_min!r}, r_max={r_max!r}"
        )
    return min(r_min, r_max), r_max


def pm_for_rate(params: SystemParams, rp: RatePoint) -> float:
    """The unique jamming power making the destination outage equal delta at
    rate R; the closed inversion of sd_outage.

    R = 0 can never meet the constraint (outage is 0 for every p_m), and
    rates outside [r_min, r_max] would need p_m outside [0, p_m_max]; both
    raise.
    """
    if rp.rate_r == 0.0:
        raise DegenerateRateError("R = 0 has zero outage for every jamming power")
    r_min, r_max = rate_bounds(params)
    slack = 1e-9
    if rp.rate_r < r_min * (1.0 - slack) or rp.rate_r > r_max * (1.0 + slack):
        raise ConstraintInfeasibleError(
            f"rate {rp.rate_r!r} outside the feasible band [{r_min!r}, {r_max!r}]"
        )
    ps_h = _ps_h(params)
    gamma = rp.gamma_th
    # exp(x) / (1 - delta) - 1 as one expm1, which does not cancel for
    # small delta
    excess = math.expm1(-gamma * params.sigma_d2 / ps_h - math.log1p(-params.delta))
    if excess <= 0.0:  # R meets delta unjammed: it is r_max to rounding
        return 0.0
    scale = gamma * params.sigma_f2
    # scale may underflow to 0 where ps_h / scale is still a number
    base = ps_h / scale if scale > 0.0 else ps_h / gamma / params.sigma_f2
    p_m = base * excess
    if math.isnan(p_m):  # inf / inf
        raise ComputationError(f"jamming power at rate {rp.rate_r!r} is NaN: "
                               f"p_s sigma_h2 / (gamma_th sigma_f2) = {base!r}")
    return min(p_m, params.p_m_max)


def rate_for_pm(params: SystemParams, p_m: float) -> float:
    """The rate R at which the destination outage equals delta for a fixed
    jamming power; the inverse map of pm_for_rate. p_m = 0 lands on r_max,
    p_m = p_m_max on r_min.

    For p_m > 0, gamma_th = 2^R - 1 solves exp(-A g)/(1 + B g) = 1 - delta,

        A = sigma_d2/(p_s sigma_h2),  B = p_m sigma_f2/(p_s sigma_h2),

    by _gamma_min_root, which keeps the constraint to rounding where the
    closed form (1/A) W((A/B) e^{A/B}/(1-delta)) - 1/B would overflow (large
    A/B) or cancel (small delta).
    """
    p_m = check_real("p_m", p_m, "in [0, p_m_max]",
                     lambda v: 0.0 <= v <= params.p_m_max * (1.0 + 1e-12))
    if p_m == 0.0:
        return _rate_without_jamming(params)
    ps_h = _ps_h(params)
    a_coef = params.sigma_d2 / ps_h
    b_coef = p_m * params.sigma_f2 / ps_h
    gamma = _gamma_min_root(a_coef, b_coef, params.delta)
    return math.log1p(gamma) / _LN2


# ---------------------------------------------------------------------------
# Monitor-side outage
# ---------------------------------------------------------------------------

def _link_columns(link, size: int) -> tuple[float, float | np.ndarray]:
    """(mu, Gamma) of a block of size thresholds on link: one DerivedLink
    for them all, or a sequence of one per threshold that share mu, whose
    Gamma is then an array, one per threshold."""
    if isinstance(link, DerivedLink):
        return link.mu, link.gamma_cap
    links = list(link) if isinstance(link, (list, tuple)) else []
    if len(links) != size or not all(isinstance(one, DerivedLink) for one in links):
        raise DomainError(f"link must be a DerivedLink or a list of {size}, one per rate")
    mus = {one.mu for one in links}
    if len(mus) > 1:
        raise DomainError(f"the links of one block must share mu, got {sorted(mus)}")
    return (mus.pop() if mus else 0.0), np.array([one.gamma_cap for one in links])


def _outage_true(link, gammas: np.ndarray, n_ports) -> tuple[np.ndarray, np.ndarray]:
    """(P, S): monitor_outage_true and the success probability S at a block
    of SNR thresholds gamma_th, threshold j over n_ports[j] ports (one count
    serves them all) on link, one DerivedLink or one per threshold on a
    shared mu (_link_columns).

    The Marcum grid's nodes and the panels depend on mu alone, and Gamma
    enters only through each threshold's own ratio x_j = gamma_j / Gamma_j,
    so thresholds of links that share mu share one grid. At N = 1 or
    mu = 0, S = -expm1(N log1p(-e^{-x})), x = gamma_th/Gamma, keeps its
    relative precision however small it is. The thresholds that
    need the integral share one Marcum-Q grid per lattice group of panels,
    quadrature nodes against their sorted distinct second arguments b;
    1 - Q1 is raised to each distinct N on that N's columns, the same ** N
    that a threshold gets alone, and S = 1 - P. Each threshold's values are
    therefore the same alone as in any block, whatever comes with it."""
    try:
        ports = np.broadcast_to(np.asarray(n_ports, dtype=object), gammas.shape)
    except ValueError:
        raise DomainError(f"n_ports does not broadcast to {gammas.size} thresholds") from None
    mu, gamma_cap = _link_columns(link, gammas.size)
    ratio = gammas / gamma_cap
    out = np.empty(gammas.shape)
    success = np.empty(gammas.shape)
    # (N, columns) of the thresholds that need the integral; a set, not
    # np.unique, which imports numpy.ma for an integer array
    groups = []
    # each distinct (type, value) pair is checked: True == 1 would hide a bool
    distinct = {(type(n), n) for n in ports.tolist()}
    for n in sorted({check_count("n_ports", n, 1, _MAX_PORTS) for _, n in distinct}):
        cols = np.flatnonzero(ports == n)
        if mu == 0.0 or n == 1:
            out[cols] = (-np.expm1(-ratio[cols])) ** n
            with np.errstate(divide="ignore"):  # log1p(-1) = -inf at gamma_th = 0
                success[cols] = -np.expm1(n * np.log1p(-np.exp(-ratio[cols])))
        else:
            groups.append((n, cols))
    if not groups:
        return out, success
    quad = np.concatenate([cols for _, cols in groups])
    one_minus_mu2 = 1.0 - mu * mu
    a_scale = math.sqrt(2.0 * mu * mu / one_minus_mu2)
    b_vals = np.sqrt(2.0 * ratio[quad] / one_minus_mu2)
    # the grid's columns are the sorted distinct b values; b_col maps each
    # integral to its column
    order = np.argsort(b_vals, kind="stable")
    b_sorted = b_vals[order]
    distinct = np.concatenate(([True], b_sorted[1:] != b_sorted[:-1]))
    b_grid = b_sorted[distinct]
    b_col = np.empty(quad.size, dtype=np.int64)
    b_col[order] = np.cumsum(distinct) - 1
    spans = np.split(b_col, np.cumsum([cols.size for _, cols in groups])[:-1])

    def integrand(ts):
        cdf = 1.0 - marcum_q1(a_scale * np.sqrt(ts)[:, None], b_grid[None, :])
        return np.concatenate([cdf[:, span] ** n for (n, _), span in zip(groups, spans)],
                              axis=1)

    # Q1 is exactly 0 (integrand 1) where a_scale u <= b - 11 and exactly 1
    # (integrand 0) where a_scale u >= b + 11
    out[quad] = np.clip(integrate_expweighted(
        integrand, (b_vals - _MARCUM_EXIT_GAP) / a_scale,
        (b_vals + _MARCUM_EXIT_GAP) / a_scale, min(1.0, 1.0 / a_scale)), 0.0, 1.0)
    success[quad] = 1.0 - out[quad]
    return out, success


def monitor_outage_true(link: DerivedLink, rp: RatePoint, n_ports: int) -> float:
    """Exact port-selection outage probability.

        int_0^inf e^{-t} [1 - Q1( sqrt(2 mu^2/(1-mu^2)) sqrt(t),
                                  sqrt(2/(1-mu^2)) sqrt(gamma_th/Gamma) )]^N dt

    evaluated in u = sqrt(t), with A = sqrt(2 mu^2/(1-mu^2)) and b the
    second Marcum argument: the integrand is exactly 1 below
    u = (b - 11)/A, which gives the closed-form head 1 - e^{-u^2}, and
    exactly 0 above (b + 11)/A; the rest is integrated by Gauss-Kronrod
    7/15 panels of width min(1, 1/A), so the step of the integrand at
    u = b/A, however sharp near mu = 1, spans a fixed number of panels.
    mu = 0 collapses to the i.i.d. closed form (1 - e^{-gamma_th/Gamma})^N
    without quadrature, and so does a single port, whose outage is
    1 - e^{-gamma_th/Gamma} for every mu. Raises DomainError unless n_ports
    is an integer in [1, 2^63 - 1], ComputationError where the Marcum kernel
    needs Poisson weights past a^2/2 = 5e5 (b above about 990, 1 - mu^2
    below about 2e-5 at gamma_th/Gamma = 10), and AccuracyError if the
    panels do not settle.
    """
    return float(_outage_true(link, np.array([rp.gamma_th]), n_ports)[0][0])


def monitor_outage_bound(link: DerivedLink, rp: RatePoint, n_ports: int) -> float:
    """Closed-form lower bound on the exact outage:
    eta * (1 - e^{-gamma_th/(Gamma(1-mu^2))})^N."""
    n_ports = check_count("n_ports", n_ports, 1, _MAX_PORTS)
    eta = eta_factor(link.mu, n_ports)
    scale = link.gamma_cap * (1.0 - link.mu * link.mu)
    return eta * (-math.expm1(-rp.gamma_th / scale)) ** n_ports


def monitor_outage_approx(link: DerivedLink, rp: RatePoint, n_ports: int) -> float:
    """Small-outage approximation 1 - N e^{-gamma_th/Gamma}.

    Returned raw (it goes negative when N e^{-gamma_th/Gamma} > 1): the
    optimizer needs the smooth form. Reporting layers clamp to [0, 1].
    """
    n_ports = check_count("n_ports", n_ports, 1, _MAX_PORTS)
    return 1.0 - n_ports * math.exp(-rp.gamma_th / link.gamma_cap)


# ---------------------------------------------------------------------------
# Average monitoring rates
# ---------------------------------------------------------------------------

def rate_true(params: SystemParams, link: DerivedLink, rp: RatePoint) -> float:
    """R S, S = 1 - exact monitor outage: link_rates_true at one rate."""
    return float(link_rates_true(link, [rp.rate_r], params.n_ports)[0])


def link_rates_true(link, rates: np.ndarray, n_ports) -> np.ndarray:
    """R S, S the exact success probability of _outage_true, at a block of
    rates, rate j over n_ports[j] ports (one count serves them all) on link,
    one DerivedLink for every rate or a list of one per rate that share mu
    (DomainError otherwise); the thresholds are RatePoint's 2^R - 1, bit for
    bit. Each rate's value depends only on its own link, rate and port
    count, never on the others in the block."""
    rates = check_nonneg_array("rate_r", rates)
    gammas = np.array([math.expm1(r * _LN2) for r in rates.tolist()])
    return rates * _outage_true(link, gammas, n_ports)[1]


def rate_bound(params: SystemParams, link: DerivedLink, rp: RatePoint) -> float:
    """R * (1 - outage lower bound); an upper bound on rate_true."""
    return rp.rate_r * (1.0 - monitor_outage_bound(link, rp, params.n_ports))


def rate_approx(params: SystemParams, link: DerivedLink, rp: RatePoint) -> float:
    """N * R * e^{-gamma_th/Gamma}, the raw approximate rate (also an upper
    bound on rate_true)."""
    return params.n_ports * rp.rate_r * math.exp(-rp.gamma_th / link.gamma_cap)
