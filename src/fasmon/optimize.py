"""Solvers for the jamming-power / rate trade-off.

All three maximize an average monitoring rate over the feasible rate band
[r_min, r_max] (rate and jamming power are in one-to-one correspondence
through the destination outage constraint):

* solve_bound_bisect   - bisection on the derivative sign of the bound
                         objective F(x) = log2(1+x) (1 - eta u^N), which is
                         rate_bound at R = log2(1+x), split as
                         dF/dx = h - g;
* solve_closed_form    - Lambert-W stationary point of R e^{-(2^R-1)/Gamma};
* solve_true_grid      - grid search on the exact rate (the expensive
                         oracle the other two approximate); it evaluates
                         only the grid rates whose union-bound cap could
                         still beat the best exact rate found, which leaves
                         the exhaustive scan's result unchanged.

Each solver returns an operating point only: the rate, its jamming power,
whether a band endpoint was taken and the evaluations spent, never its own
objective's value. evaluate_scheme looks a scheme up in one table
(operating-point function, monitor port count) and evaluates the exact rate
once, at the returned point.

The derivative split is NOT globally single-crossing: g decays to zero at
large x while h keeps a positive floor for mu > 0, so h - g can go
+ -> - -> + and the best point may sit on the boundary. The bisection solver
therefore always compares its interior root against both band endpoints and
returns the best of the three.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import DerivedLink, SystemParams, eta_factor
from .errors import AccuracyError, DomainError
from .outage import (RatePoint, pm_for_rate, rate_bound, rate_bounds,
                     rate_true, rates_true)
from .specfun import lambert_w0

_LN2 = math.log(2.0)
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BISECT_TOL = 1e-9  # bracket width on R at which bisection stops
_GRID_POINTS = 4096  # uniform R grid of solve_true_grid
_GRID_BLOCK = 128  # exact rates per block in solve_true_grid
# relative margin on R added to solve_true_grid's bound (see _rate_caps)
_PRUNE_MARGIN = 1e-6


class Scheme(enum.Enum):
    PROPOSED_BISECT = "ProposedBisect"
    PROPOSED_CLOSED_FORM = "ProposedClosedForm"
    TRUE_GRID = "TrueGrid"
    CONSTANT_JAMMING = "ConstantJamming"
    PASSIVE = "Passive"
    CONVENTIONAL_SINGLE = "ConventionalSingle"


@dataclass(frozen=True)
class OptResult:
    """An operating point.

    r_star: chosen rate (bits/use); pm_star: jamming power meeting the
    destination constraint there; clamped: whether a band endpoint was
    returned instead of an interior stationary point; iterations:
    objective/derivative evaluations spent (for solve_true_grid, the exact
    rates actually evaluated, which excludes the grid rates its bound
    pruned). The rate at the point is the caller's to evaluate.
    """

    r_star: float
    pm_star: float
    clamped: bool
    iterations: int


@dataclass(frozen=True)
class SchemeResult:
    """A scheme's operating point and the exact average monitoring rate
    there.

    rate_true: R (1 - outage) of the scheme's monitor, which selects among
    n_ports ports (1 for ConventionalSingle); the other fields are the
    operating point's (see OptResult).
    """

    r_star: float
    pm_star: float
    rate_true: float
    n_ports: int
    clamped: bool
    iterations: int


def objective_terms(link: DerivedLink, n_ports: int, x):
    """(h, g) of the bound objective at threshold x = 2^R - 1.

        h(x) = (1 - eta u^N) / (ln2 (1+x)),      u = 1 - e^{-x/c},
        g(x) = (N log2(1+x) / c) eta u^{N-1} e^{-x/c},   c = Gamma (1-mu^2),

    with dF/dx = h - g for F(x) = log2(1+x) (1 - eta u^N), the bound rate
    rate_bound at R = log2(1+x). Accepts a float or an ndarray of x values.
    """
    if n_ports < 2:
        raise DomainError(f"objective split needs n_ports >= 2, got {n_ports!r}")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0):
        raise DomainError("x must be >= 0")
    eta = eta_factor(link.mu, n_ports)
    c = link.gamma_cap * (1.0 - link.mu * link.mu)
    decay = np.exp(-xs / c)
    u = -np.expm1(-xs / c)
    log_term = np.log1p(xs) / _LN2
    h = (1.0 - eta * u ** n_ports) / (_LN2 * (1.0 + xs))
    g = (n_ports * log_term / c) * eta * u ** (n_ports - 1) * decay
    if np.isscalar(x):
        return float(h), float(g)
    return h, g


def solve_bound_bisect(params: SystemParams, link: DerivedLink) -> OptResult:
    """Maximize the bound objective by bisection on sign(h - g).

    Scans a 129-point grid over [r_min, r_max] for + -> - derivative sign
    transitions, bisects each bracket to 1e-9 on R, and returns the best of
    {interior roots, r_min, r_max} under the bound objective. `clamped` is
    False only when an interior root wins.
    """
    if params.n_ports < 2:
        raise DomainError("solve_bound_bisect needs n_ports >= 2")
    r_min, r_max = rate_bounds(params)

    def deriv(r: float) -> float:
        h, g = objective_terms(link, params.n_ports, math.expm1(r * _LN2))
        return h - g

    grid = np.linspace(r_min, r_max, 129)
    h_vals, g_vals = objective_terms(link, params.n_ports, np.expm1(grid * _LN2))
    signs = h_vals - g_vals

    roots: list[float] = []
    iterations = 0
    for i in np.flatnonzero((signs[:-1] > 0.0) & (signs[1:] <= 0.0)):
        lo, hi = float(grid[i]), float(grid[i + 1])
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if deriv(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            iterations += 1
        roots.append(0.5 * (lo + hi))

    interior = [r for r in roots if r_min < r < r_max]
    candidates = [(r, False) for r in interior] + [(r_min, True), (r_max, True)]
    scored = [(rate_bound(params, link, RatePoint(r)), r, was_clamped)
              for r, was_clamped in candidates]
    _, r_star, clamped = max(scored, key=lambda s: (s[0], s[1]))

    return OptResult(
        r_star=r_star,
        pm_star=pm_for_rate(params, RatePoint(r_star)),
        clamped=clamped,
        iterations=iterations,
    )


def solve_closed_form(params: SystemParams, link: DerivedLink) -> OptResult:
    """Lambert-W maximizer of R e^{-(2^R-1)/Gamma}, clamped into the band.

    When the stationary point is interior, its stationarity is re-verified
    numerically to 1e-8 (the derivative has the closed form
    e^{-gamma/Gamma} (1 - R 2^R ln2 / Gamma)).
    """
    r_min, r_max = rate_bounds(params)
    r_bar = lambert_w0(link.gamma_cap) / _LN2
    r_star = min(max(r_min, r_bar), r_max)
    clamped = r_star != r_bar
    if not clamped:
        gamma = math.expm1(r_bar * _LN2)
        slope = math.exp(-gamma / link.gamma_cap) * (
            1.0 - r_bar * (gamma + 1.0) * _LN2 / link.gamma_cap
        )
        if abs(slope) > 1e-8:
            raise AccuracyError("closed-form stationarity check failed", r_bar, slope)
    return OptResult(
        r_star=r_star,
        pm_star=pm_for_rate(params, RatePoint(r_star)),
        clamped=clamped,
        iterations=0,
    )


def _argmax_upward(values) -> int:
    """Index of the maximum, ties broken toward the larger index."""
    arr = np.asarray(values)
    return arr.size - 1 - int(np.argmax(arr[::-1]))


def _rate_caps(params: SystemParams, link: DerivedLink, rates: np.ndarray) -> np.ndarray:
    """Upper bounds on the computed rates_true at rates.

    The union bound over ports, P_out >= 1 - N e^{-gamma_th/Gamma}, caps
    the exact rate at min(R, N R e^{-gamma_th/Gamma}), rate_approx capped at
    R. The computed outage is accurate to the panel quadrature's settle
    tolerance, at most 1e-9 for an outage in [0, 1], so the computed
    R (1 - outage) may exceed the exact rate by 1e-9 R; the margin added,
    _PRUNE_MARGIN R, is 1000 times that.
    """
    gammas = np.expm1(rates * _LN2)
    union = np.minimum(rates, params.n_ports * rates * np.exp(-gammas / link.gamma_cap))
    return union + _PRUNE_MARGIN * rates


def solve_true_grid(params: SystemParams, link: DerivedLink) -> OptResult:
    """Maximization of the exact rate on a uniform grid of _GRID_POINTS
    rates, refined by one golden-section pass inside the winning bracket.
    Ties prefer the larger R.

    The grid is evaluated in blocks of _GRID_BLOCK rates, in descending
    order of each rate's certified cap (_rate_caps), each block in grid
    order; the scan stops once the next rate's cap is below the best exact
    value so far. A rate left out could not have reached that value, and
    every evaluated value equals its one-point rate_true, so the winning
    index and the result are those of the exhaustive scan. A rate left out is
    never evaluated, so its FasmonError, had it one, cannot fail the solver.
    iterations counts the exact rates evaluated, grid and golden section
    together."""
    r_min, r_max = rate_bounds(params)
    grid = np.linspace(r_min, r_max, _GRID_POINTS)
    caps = _rate_caps(params, link, grid)
    order = np.argsort(-caps, kind="stable")
    values = np.full(_GRID_POINTS, -math.inf)
    best = -math.inf
    evals = 0
    for start in range(0, _GRID_POINTS, _GRID_BLOCK):
        if caps[order[start]] < best:
            break
        block = np.sort(order[start:start + _GRID_BLOCK])
        values[block] = rates_true(params, link, grid[block])
        best = max(best, float(values[block].max()))
        evals += block.size
    return _refine_grid_max(params, link, grid, values, evals)


def _refine_grid_max(params: SystemParams, link: DerivedLink, grid: np.ndarray,
                     values: np.ndarray, evals: int) -> OptResult:
    """The operating point at the upward argmax of the exact rates on grid
    (-inf where a rate was not evaluated), refined by golden section on the
    exact rate between the argmax's neighbours; evals is the count of grid
    rates evaluated."""
    def objective(r: float) -> float:
        return float(rates_true(params, link, np.array([r]))[0])

    idx = _argmax_upward(values)

    lo = float(grid[max(idx - 1, 0)])
    hi = float(grid[min(idx + 1, grid.size - 1)])
    best_r, best_val = float(grid[idx]), float(values[idx])
    a, b = lo, hi
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    evals += 2
    for _ in range(40):
        if b - a <= 1e-7:
            break
        if f2 >= f1:  # prefer the upper subinterval on ties
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = objective(x1)
        evals += 1
    for r, v in ((x1, f1), (x2, f2)):
        if v > best_val or (v == best_val and r > best_r):
            best_r, best_val = r, v

    return OptResult(
        r_star=best_r,
        pm_star=pm_for_rate(params, RatePoint(best_r)),
        clamped=idx in (0, grid.size - 1),
        iterations=evals,
    )


def _constant_jamming(params: SystemParams, link: DerivedLink) -> OptResult:
    r_min, _ = rate_bounds(params)
    return OptResult(r_star=r_min, pm_star=params.p_m_max, clamped=False,
                     iterations=0)


def _passive(params: SystemParams, link: DerivedLink) -> OptResult:
    _, r_max = rate_bounds(params)
    return OptResult(r_star=r_max, pm_star=0.0, clamped=False, iterations=0)


# scheme -> (operating-point function, whether the monitor has a single port)
_SCHEMES = {
    Scheme.PROPOSED_BISECT: (solve_bound_bisect, False),
    Scheme.PROPOSED_CLOSED_FORM: (solve_closed_form, False),
    Scheme.TRUE_GRID: (solve_true_grid, False),
    Scheme.CONSTANT_JAMMING: (_constant_jamming, False),
    Scheme.PASSIVE: (_passive, False),
    Scheme.CONVENTIONAL_SINGLE: (solve_closed_form, True),
}


def evaluate_scheme(params: SystemParams, link: DerivedLink,
                    scheme: Scheme) -> SchemeResult:
    """Run one monitoring scheme: its operating point and the exact rate there.

    ConstantJamming pins p_m = p_m_max (so R = r_min); Passive pins p_m = 0
    (so R = r_max); ConventionalSingle is the single-antenna monitor, whose
    exact rate R e^{-gamma_th/Gamma} the Lambert-W point maximizes. Every
    other scheme's rate is rate_true over all n_ports ports.
    """
    try:
        operating_point, single_port = _SCHEMES[scheme]
    except KeyError:
        raise DomainError(f"unknown scheme {scheme!r}") from None
    point = operating_point(params, link)
    rp = RatePoint(point.r_star)
    if single_port:
        n_ports = 1
        rate = rp.rate_r * math.exp(-rp.gamma_th / link.gamma_cap)
    else:
        n_ports = params.n_ports
        rate = rate_true(params, link, rp)
    return SchemeResult(r_star=point.r_star, pm_star=point.pm_star, rate_true=rate,
                        n_ports=n_ports, clamped=point.clamped,
                        iterations=point.iterations)
