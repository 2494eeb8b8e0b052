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

from .channel import DerivedLink, SystemParams, eta_factor
from .errors import (AccuracyError, ComputationError,
                     ConstraintInfeasibleError, DegenerateRateError, DomainError)
from .specfun import _MARCUM_EXIT_GAP, integrate_expweighted, lambert_w0, marcum_q1

_LN2 = math.log(2.0)

# sigma_d2/(p_m_max*sigma_f2) beyond this would overflow exp() inside the
# Lambert-W argument; switch to the equivalent log-form root solve
_LAMBERT_FORM_LIMIT = 500.0
# below this gamma_min * B, W(.)/A - 1/B has cancelled most of its digits;
# the root solve is taken instead
_LAMBERT_CANCEL_LIMIT = 1e-3


@dataclass(frozen=True)
class RatePoint:
    """A candidate suspicious rate R with its SNR threshold 2^R - 1, which
    is computed from R, not passed in."""

    rate_r: float
    gamma_th: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.rate_r) and self.rate_r >= 0.0):
            raise DomainError(f"rate_r must be finite and >= 0, got {self.rate_r!r}")
        object.__setattr__(self, "gamma_th", math.expm1(self.rate_r * _LN2))


def sd_outage(params: SystemParams, rp: RatePoint, p_m: float) -> float:
    """Destination outage probability under jamming power p_m.

        P_out = 1 - exp(-gamma_th sigma_d2 / (p_s sigma_h2))
                    / (1 + gamma_th p_m sigma_f2 / (p_s sigma_h2))
    """
    if not (math.isfinite(p_m) and p_m >= 0.0):
        raise DomainError(f"p_m must be finite and >= 0, got {p_m!r}")
    ps_h = params.p_s * params.sigma_h2
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


def rate_bounds(params: SystemParams) -> tuple[float, float]:
    """The feasible band [r_min, r_max] of suspicious rates.

    r_max comes from the no-jamming outage hitting delta; r_min from the
    full-power outage hitting delta, via the principal Lambert W branch:

        gamma_min = (1/A) W( (A/B) e^{A/B} / (1-delta) ) - 1/B,
        A = sigma_d2/(p_s sigma_h2),  B = p_m_max sigma_f2/(p_s sigma_h2).

    For A/B > 500 the W argument would overflow, and for gamma_min * B
    below 1e-3 (tiny delta) the difference cancels, so there the equivalent
    well-conditioned root solve on d = A*gamma is used instead (both paths
    agree to 1e-12 where both are finite and the difference does not cancel).
    """
    a_coef = params.sigma_d2 / (params.p_s * params.sigma_h2)
    b_coef = params.p_m_max * params.sigma_f2 / (params.p_s * params.sigma_h2)
    # log1p, not log2(1 + x): x can be so small that 1 + x rounds to 1
    r_max = math.log1p(-params.p_s * params.sigma_h2 * math.log1p(-params.delta)
                       / params.sigma_d2) / _LN2
    ratio = a_coef / b_coef
    gamma_min = None
    if ratio <= _LAMBERT_FORM_LIMIT:
        arg = ratio * math.exp(ratio) / (1.0 - params.delta)
        gamma_min = lambert_w0(arg) / a_coef - 1.0 / b_coef
    if gamma_min is None or gamma_min * b_coef < _LAMBERT_CANCEL_LIMIT:
        gamma_min = _gamma_min_root(a_coef, b_coef, params.delta)
    r_min = math.log1p(gamma_min) / _LN2
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
    ps_h = params.p_s * params.sigma_h2
    gamma = rp.gamma_th
    p_m = (ps_h / (gamma * params.sigma_f2)) * (
        math.exp(-gamma * params.sigma_d2 / ps_h) / (1.0 - params.delta) - 1.0
    )
    return min(max(p_m, 0.0), params.p_m_max)


def rate_for_pm(params: SystemParams, p_m: float) -> float:
    """The rate R at which the destination outage equals delta for a fixed
    jamming power; the inverse map of pm_for_rate. p_m = 0 lands on r_max,
    p_m = p_m_max on r_min."""
    if not (math.isfinite(p_m) and 0.0 <= p_m <= params.p_m_max * (1.0 + 1e-12)):
        raise DomainError(f"p_m must lie in [0, p_m_max], got {p_m!r}")
    a_coef = params.sigma_d2 / (params.p_s * params.sigma_h2)
    if p_m == 0.0:
        return rate_bounds(params)[1]
    b_coef = p_m * params.sigma_f2 / (params.p_s * params.sigma_h2)
    gamma = _gamma_min_root(a_coef, b_coef, params.delta)
    return math.log1p(gamma) / _LN2


# ---------------------------------------------------------------------------
# Monitor-side outage
# ---------------------------------------------------------------------------

def _outage_true(link: DerivedLink, gammas: np.ndarray, n_ports: int) -> np.ndarray:
    """monitor_outage_true at a block of SNR thresholds gamma_th, one
    Marcum-Q grid (quadrature nodes x thresholds) per lattice group of
    panels. Each threshold's value is the same alone as in any block."""
    if n_ports < 1:
        raise DomainError(f"n_ports must be >= 1, got {n_ports!r}")
    mu = link.mu
    ratio = gammas / link.gamma_cap
    if mu == 0.0:
        return (-np.expm1(-ratio)) ** n_ports
    one_minus_mu2 = 1.0 - mu * mu
    a_scale = math.sqrt(2.0 * mu * mu / one_minus_mu2)
    b_vals = np.sqrt(2.0 * ratio / one_minus_mu2)

    def integrand(ts):
        return (1.0 - marcum_q1(a_scale * np.sqrt(ts)[:, None], b_vals[None, :])) ** n_ports

    # Q1 is exactly 0 (integrand 1) where a_scale u <= b - 11 and exactly 1
    # (integrand 0) where a_scale u >= b + 11
    return np.clip(integrate_expweighted(
        integrand, (b_vals - _MARCUM_EXIT_GAP) / a_scale,
        (b_vals + _MARCUM_EXIT_GAP) / a_scale, min(1.0, 1.0 / a_scale)), 0.0, 1.0)


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
    without quadrature. Raises ComputationError where the Marcum kernel
    would need Poisson weights past a^2/2 = 5e5, that is where b exceeds
    about 990 (1 - mu^2 below about 2e-5 at gamma_th/Gamma = 10), and
    AccuracyError if the panels do not settle.
    """
    return float(_outage_true(link, np.array([rp.gamma_th]), n_ports)[0])


def monitor_outage_bound(link: DerivedLink, rp: RatePoint, n_ports: int) -> float:
    """Closed-form lower bound on the exact outage:
    eta * (1 - e^{-gamma_th/(Gamma(1-mu^2))})^N."""
    if n_ports < 1:
        raise DomainError(f"n_ports must be >= 1, got {n_ports!r}")
    eta = eta_factor(link.mu, n_ports)
    scale = link.gamma_cap * (1.0 - link.mu * link.mu)
    return eta * (-math.expm1(-rp.gamma_th / scale)) ** n_ports


def monitor_outage_approx(link: DerivedLink, rp: RatePoint, n_ports: int) -> float:
    """Small-outage approximation 1 - N e^{-gamma_th/Gamma}.

    Returned raw (it goes negative when N e^{-gamma_th/Gamma} > 1): the
    optimizer needs the smooth form. Reporting layers clamp to [0, 1].
    """
    if n_ports < 1:
        raise DomainError(f"n_ports must be >= 1, got {n_ports!r}")
    return 1.0 - n_ports * math.exp(-rp.gamma_th / link.gamma_cap)


# ---------------------------------------------------------------------------
# Average monitoring rates
# ---------------------------------------------------------------------------

def rate_true(params: SystemParams, link: DerivedLink, rp: RatePoint) -> float:
    """R * (1 - exact monitor outage)."""
    if rp.rate_r == 0.0:
        return 0.0
    return rp.rate_r * (1.0 - monitor_outage_true(link, rp, params.n_ports))


def rates_true(params: SystemParams, link: DerivedLink, rates: np.ndarray) -> np.ndarray:
    """rate_true at a block of rates, each equal to its one-point value (the
    thresholds are RatePoint's 2^R - 1, bit for bit)."""
    rates = np.asarray(rates, dtype=float)
    valid = np.isfinite(rates) & (rates >= 0.0)
    if not valid.all():
        raise DomainError(f"rate_r must be finite and >= 0, got {float(rates[~valid][0])!r}")
    gammas = np.array([math.expm1(r * _LN2) for r in rates.tolist()])
    return rates * (1.0 - _outage_true(link, gammas, params.n_ports))


def rate_bound(params: SystemParams, link: DerivedLink, rp: RatePoint) -> float:
    """R * (1 - outage lower bound); an upper bound on rate_true."""
    if rp.rate_r == 0.0:
        return 0.0
    return rp.rate_r * (1.0 - monitor_outage_bound(link, rp, params.n_ports))


def rate_approx(params: SystemParams, link: DerivedLink, rp: RatePoint) -> float:
    """N * R * e^{-gamma_th/Gamma}, the raw approximate rate (also an upper
    bound on rate_true)."""
    if rp.rate_r == 0.0:
        return 0.0
    return params.n_ports * rp.rate_r * math.exp(-rp.gamma_th / link.gamma_cap)
