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
                         oracle the other two approximate); the exact
                         outage never decreases as R grows, so a coarse
                         pass caps every grid rate by R times one minus the
                         outage at the coarse rate below it, and only the
                         rates whose cap could still beat the best exact
                         rate found are evaluated, which leaves the
                         exhaustive scan's result unchanged; it then
                         refines the argmax by two finer scans of the same
                         kind inside its bracket.

Each solver returns an operating point only: the rate, its jamming power,
whether a band endpoint was taken and the evaluations spent, never its own
objective's value. scheme_point looks a scheme up in one table
(operating-point function, whether the monitor has a single port) and
returns the point with the job of its exact rate; exact_rates evaluates the
jobs of many rows at once, grouped by link, and evaluate_scheme is the two
for one scheme. Every exact rate here, TrueGrid's scans and the
single-antenna monitor's included, comes from one block evaluator,
outage.link_rates_true, looked up in this module at call time.

The derivative split is NOT globally single-crossing: g decays to zero at
large x while h keeps a positive floor for mu > 0, so h - g can go
+ -> - -> + and the best point may sit on the boundary. The bisection solver
therefore always compares its interior root against both band endpoints and
returns the best of the three.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import _MAX_PORTS, DerivedLink, SystemParams, eta_factor
from .errors import (AccuracyError, DomainError, FasmonError, check_count,
                     check_nonneg_array)
from .outage import (RatePoint, link_rates_true, pm_for_rate, rate_bound,
                     rate_bounds)
from .specfun import lambert_w0

_LN2 = math.log(2.0)
_BISECT_TOL = 1e-9  # bracket width on R at which bisection stops
_GRID_POINTS = 4096  # uniform R grid of solve_true_grid
_GRID_BLOCK = 128  # exact rates per block in solve_true_grid
_COARSE_STEP = 63  # grid index step of solve_true_grid's coarse pass
_COARSE_BLOCK = 17  # coarse rates per block, left to right
_REFINE_POINTS = 32  # exact rates per refinement scan of solve_true_grid
_REFINE_LEVELS = 2  # refinement scans after solve_true_grid's grid scan
# relative margin on R added to solve_true_grid's caps: the computed outage
# is accurate to the panel quadrature's settle tolerance, at most 1e-9 for an
# outage in [0, 1], so R (1 - outage) at two rates may each be off by 1e-9 R;
# the margin is 1000 times that
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
    rates actually evaluated, which excludes the grid rates its caps
    pruned). The rate at the point is the caller's to evaluate.
    """

    r_star: float
    pm_star: float
    clamped: bool
    iterations: int


@dataclass(frozen=True)
class SchemeResult(OptResult):
    """A scheme's operating point and the exact average monitoring rate
    there.

    rate_true: R (1 - outage) of the scheme's monitor, which selects among
    n_ports ports (1 for ConventionalSingle); the inherited fields are the
    operating point's.
    """

    rate_true: float
    n_ports: int


def objective_terms(link: DerivedLink, n_ports: int, x):
    """(h, g) of the bound objective at threshold x = 2^R - 1.

        h(x) = (1 - eta u^N) / (ln2 (1+x)),      u = 1 - e^{-x/c},
        g(x) = (N log2(1+x) / c) eta u^{N-1} e^{-x/c},   c = Gamma (1-mu^2),

    with dF/dx = h - g for F(x) = log2(1+x) (1 - eta u^N), the bound rate
    rate_bound at R = log2(1+x). Accepts a float or an ndarray of finite,
    nonnegative x values, and an integer n_ports >= 2.
    """
    n_ports = check_count("n_ports", n_ports, 2, _MAX_PORTS)
    xs = check_nonneg_array("x", x)
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
    False only when an interior root wins. A single port has no objective
    split: objective_terms raises DomainError.
    """
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


def solve_true_grid(params: SystemParams, link: DerivedLink) -> OptResult:
    """Maximization of the exact rate on a uniform grid of _GRID_POINTS
    rates, refined by _REFINE_LEVELS scans of _REFINE_POINTS rates inside
    the winning bracket (_refine_grid_max). Ties prefer the larger R.

    The exact outage P never decreases as R grows, so a rate R_j at or above
    an evaluated R_i has exact rate at most R_j (1 - P(R_i)); plus
    _PRUNE_MARGIN R_j, that caps the computed rate too. A coarse pass
    evaluates every _COARSE_STEP-th grid rate and the last, left to right
    in blocks of _COARSE_BLOCK, and stops once the last one's cap on every
    rate above it, r_max (1 - P) plus the margin, is below the best value so
    far; the small blocks keep it out of the far tail of a band whose rate
    has collapsed, where near mu = 1 the Marcum kernel may raise. A fine
    pass caps each remaining rate by the nearest evaluated coarse rate at or
    below it, then evaluates blocks of _GRID_BLOCK rates in descending
    order of cap, each block in grid order, until the next cap is below the
    best value. A rate left out could not have reached
    that value, and every evaluated value equals its one-point rate_true,
    so the winning index and the result are those of the exhaustive scan.
    A rate left out is never evaluated, so its FasmonError, had it one,
    cannot fail the solver. iterations counts the exact rates evaluated,
    grid and refinement together."""
    r_min, r_max = rate_bounds(params)
    grid = np.linspace(r_min, r_max, _GRID_POINTS)
    values = np.full(_GRID_POINTS, -math.inf)
    coarse = np.append(np.arange(0, _GRID_POINTS - 1, _COARSE_STEP), _GRID_POINTS - 1)
    best = -math.inf
    for start in range(0, coarse.size, _COARSE_BLOCK):
        known = coarse[:start + _COARSE_BLOCK]
        block = known[start:]
        values[block] = link_rates_true(link, grid[block], params.n_ports)
        best = max(best, float(values[block].max()))
        if r_max * (values[known[-1]] / grid[known[-1]] + _PRUNE_MARGIN) < best:
            break
    rest = np.flatnonzero(values == -math.inf)
    # the nearest evaluated coarse rate below each remaining one; known
    # starts at grid index 0, so there always is one
    left = known[np.searchsorted(known, rest) - 1]
    caps = grid[rest] * (values[left] / grid[left] + _PRUNE_MARGIN)
    ranked = np.argsort(-caps, kind="stable")
    evals = known.size
    for start in range(0, rest.size, _GRID_BLOCK):
        if caps[ranked[start]] < best:
            break
        block = rest[np.sort(ranked[start:start + _GRID_BLOCK])]
        values[block] = link_rates_true(link, grid[block], params.n_ports)
        best = max(best, float(values[block].max()))
        evals += block.size
    return _refine_grid_max(params, link, grid, values, evals)


def _refine_grid_max(params: SystemParams, link: DerivedLink, grid: np.ndarray,
                     values: np.ndarray, evals: int) -> OptResult:
    """The operating point at the upward argmax of the exact rates on grid
    (-inf where a rate was not evaluated), refined by _REFINE_LEVELS more
    scans; evals is the count of grid rates evaluated.

    Each scan evaluates _REFINE_POINTS rates evenly spaced strictly between
    the current argmax's two neighbours, in one link_rates_true call, keeps
    the neighbours' known values and takes the upward argmax again, so no
    rate is evaluated twice and no pruned one at all. The final spacing is the
    grid's times (2/(_REFINE_POINTS + 1))^2: fine enough that r* lies within
    about half of it of the exact rate's maximiser (1e-6 on the default
    sweeps), coarse enough that the best and runner-up values differ far
    above the exact rate's rounding, so no last bit of that rounding picks
    another point. clamped is that of the grid argmax."""
    idx = _argmax_upward(values)
    clamped = idx in (0, grid.size - 1)
    rates, scores = grid, values
    for _ in range(_REFINE_LEVELS):
        lo, hi = max(idx - 1, 0), min(idx + 1, rates.size - 1)
        rates = np.linspace(rates[lo], rates[hi], _REFINE_POINTS + 2)
        scores = np.concatenate(([scores[lo]],
                                 link_rates_true(link, rates[1:-1], params.n_ports),
                                 [scores[hi]]))
        idx = _argmax_upward(scores)
    r_star = float(rates[idx])
    return OptResult(
        r_star=r_star,
        pm_star=pm_for_rate(params, RatePoint(r_star)),
        clamped=clamped,
        iterations=evals + _REFINE_LEVELS * _REFINE_POINTS,
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


class RateJob(NamedTuple):
    """An exact average monitoring rate to evaluate: R on link for a monitor
    that selects among n_ports ports (1 for the single-antenna monitor)."""

    link: DerivedLink
    rate_r: float
    n_ports: int


def scheme_point(params: SystemParams, link: DerivedLink,
                 scheme: Scheme) -> tuple[OptResult, RateJob]:
    """A monitoring scheme's operating point and the exact-rate job there.

    ConstantJamming pins p_m = p_m_max (so R = r_min); Passive pins p_m = 0
    (so R = r_max); ConventionalSingle is the single-antenna monitor. Every
    other scheme's monitor selects among all n_ports ports.
    """
    try:
        operating_point, single_antenna = _SCHEMES[scheme]
    except KeyError:
        raise DomainError(f"unknown scheme {scheme!r}") from None
    point = operating_point(params, link)
    n_ports = 1 if single_antenna else params.n_ports
    return point, RateJob(link, point.r_star, n_ports)


def exact_rates(jobs: Sequence[RateJob]) -> list[float | FasmonError]:
    """The exact average monitoring rate of every job, or the FasmonError
    that evaluating the job alone raises.

    The jobs are grouped by link and evaluated in blocks of at most
    _GRID_BLOCK rates, in job order, each block one link_rates_true call over
    all its rates and port counts, whose single-antenna columns take the
    closed form 1 - e^{-gamma_th/Gamma} with no quadrature. Every value
    equals the job's one-point rate_true. A block that raises a FasmonError is evaluated again one job
    at a time, so a job fails exactly when it fails alone, with the same
    error.
    """
    out: list[float | FasmonError] = [0.0] * len(jobs)
    by_link: dict[DerivedLink, list[int]] = {}
    for i, job in enumerate(jobs):
        by_link.setdefault(job.link, []).append(i)
    for link, idx in by_link.items():
        for start in range(0, len(idx), _GRID_BLOCK):
            block = idx[start:start + _GRID_BLOCK]
            for i, value in zip(block, _link_rates(link, [jobs[i] for i in block])):
                out[i] = value
    return out


def _link_rates(link: DerivedLink, jobs: list[RateJob]) -> list[float | FasmonError]:
    """exact_rates of jobs on one link in one block, or one job at a time
    once the block raises a FasmonError."""
    try:
        return link_rates_true(link, [job.rate_r for job in jobs],
                               [job.n_ports for job in jobs]).tolist()
    except FasmonError as exc:
        if len(jobs) == 1:
            return [exc]
    return [value for job in jobs for value in _link_rates(link, [job])]


def evaluate_scheme(params: SystemParams, link: DerivedLink,
                    scheme: Scheme) -> SchemeResult:
    """Run one monitoring scheme: its operating point (scheme_point) and the
    exact rate there, evaluated by exact_rates as a run evaluates its rows'
    rates; raises the FasmonError of either step."""
    point, job = scheme_point(params, link, scheme)
    rate = exact_rates([job])[0]
    if isinstance(rate, FasmonError):
        raise rate
    return SchemeResult(**vars(point), rate_true=rate, n_ports=job.n_ports)
