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
                         outage never decreases as R grows, so each grid
                         rate is capped by R times one minus the outage at
                         the nearest evaluated rate below it, and only the
                         rates whose cap could still beat the best exact
                         rate found are evaluated (one coarse request, then
                         two finer levels), which leaves the exhaustive
                         scan's result unchanged; it then refines the argmax
                         by two finer scans of the same kind inside its
                         bracket.

Each solver returns an operating point only: the rate, its jamming power,
whether a band endpoint was taken and the evaluations spent, never its own
objective's value. A scheme is one row of a table (operating-point
function, whether the monitor has a single port), and scheme_steps runs it
as steps: its operating point, then a request for the exact rate there.
TrueGrid's operating point is itself steps, which request their grid rates
and end with the exact rate at r*. exact_rates is the one rate scheduler:
it advances a run's steps in lockstep rounds and evaluates each round's
requests on links that share mu in one link_rates_true call per round and
mu; evaluate_scheme and solve_true_grid run their steps under it alone.
Every exact rate here, TrueGrid's scans and the single-antenna monitor's
included, comes from one block evaluator, outage.link_rates_true, looked
up in this module at call time.

The derivative split is NOT globally single-crossing: g decays to zero at
large x while h keeps a positive floor for mu > 0, so h - g can go
+ -> - -> + and the best point may sit on the boundary. The bisection solver
therefore always compares its interior root against both band endpoints and
returns the best of the three.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Generator, Sequence
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
_COARSE_STEP = 63  # grid index step of solve_true_grid's coarse pass
_COARSE_BLOCK = 17  # coarse rates per block, left to right, once it raises
_FINE_STEP = 8  # grid index step of the first level of the fine pass
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


def _true_grid_steps(params: SystemParams, link: DerivedLink):
    """solve_true_grid as steps for exact_rates, a run's TrueGrid point:
    the pruned grid scan's requests of grid rates, then the refinement's
    (_refine_steps); returns the OptResult and the exact rate at r*."""
    r_min, r_max = rate_bounds(params)
    grid = np.linspace(r_min, r_max, _GRID_POINTS)
    values = np.full(_GRID_POINTS, -math.inf)
    coarse = np.append(np.arange(0, _GRID_POINTS - 1, _COARSE_STEP), _GRID_POINTS - 1)
    try:
        values[coarse] = yield RateJob(link, grid[coarse], params.n_ports)
    except FasmonError:
        for start in range(0, coarse.size, _COARSE_BLOCK):
            known = coarse[:start + _COARSE_BLOCK]
            block = known[start:]
            values[block] = yield RateJob(link, grid[block], params.n_ports)
            if r_max * (values[known[-1]] / grid[known[-1]] + _PRUNE_MARGIN) < values.max():
                break
    for step in (_FINE_STEP, 1):
        block = _within_cap(grid, values, step)
        if block.size:
            values[block] = yield RateJob(link, grid[block], params.n_ports)
    evals = int(np.count_nonzero(values > -math.inf))
    return (yield from _refine_steps(params, link, grid, values, evals))


def _within_cap(grid: np.ndarray, values: np.ndarray, step: int) -> np.ndarray:
    """The grid indices, among every step-th, whose rate is unevaluated
    (-inf in values) and whose cap, by the nearest evaluated rate below,
    reaches the best value so far."""
    rest = np.flatnonzero(values[::step] == -math.inf) * step
    # grid index 0 is a coarse rate, so every rest has an evaluated one below
    done = np.flatnonzero(values > -math.inf)
    left = done[np.searchsorted(done, rest) - 1]
    return rest[grid[rest] * (values[left] / grid[left] + _PRUNE_MARGIN) >= values.max()]


def solve_true_grid(params: SystemParams, link: DerivedLink) -> OptResult:
    """Maximization of the exact rate on a uniform grid of _GRID_POINTS
    rates, refined by _REFINE_LEVELS scans of _REFINE_POINTS rates inside
    the winning bracket (_refine_steps). Ties prefer the larger R. Its steps
    (_true_grid_steps) run here alone under exact_rates, and in a run in
    lockstep with every other point's, with the same requests and values.

    The exact outage P never decreases as R grows, so a rate R_j at or above
    an evaluated R_i has exact rate at most R_j (1 - P(R_i)); plus
    _PRUNE_MARGIN R_j, that caps the computed rate too. A coarse pass
    evaluates every _COARSE_STEP-th grid rate and the last in one request.
    If that raises a FasmonError, it evaluates them again left to right in
    blocks of _COARSE_BLOCK and stops once the last one's cap on every rate
    above it, r_max (1 - P) plus the margin, is below the best value so far;
    the small blocks keep it out of the far tail of a band whose rate has
    collapsed, where near mu = 1 the Marcum kernel may raise. A fine pass
    then takes two levels, every _FINE_STEP-th grid rate and then all the
    rest: at each, every unevaluated rate is capped by the nearest evaluated
    rate at or below it, and those whose cap reaches the best value so far
    are evaluated in one request, in grid order. A rate left out could not
    have reached that value, and every evaluated value equals its one-point
    rate_true, so the winning index and the result are those of the
    exhaustive scan. A rate left out is never evaluated, so its
    FasmonError, had it one, cannot fail the solver. iterations counts the
    exact rates evaluated, grid and refinement together."""
    return _alone(_true_grid_steps(params, link))[0]


def _refine_steps(params: SystemParams, link: DerivedLink, grid: np.ndarray,
                  values: np.ndarray, evals: int):
    """The operating point at the upward argmax of the exact rates on grid
    (-inf where a rate was not evaluated), refined by _REFINE_LEVELS more
    scans, as steps for exact_rates; evals is the count of grid rates
    evaluated. Returns the OptResult and the exact rate at r*.

    Each scan requests _REFINE_POINTS rates evenly spaced strictly between
    the current argmax's two neighbours, keeps the neighbours' known values
    and takes the upward argmax again, so no rate is evaluated twice and no
    pruned one at all. The final spacing is the grid's times
    (2/(_REFINE_POINTS + 1))^2: fine enough that r* lies within about half
    of it of the exact rate's maximiser (1e-6 on the default sweeps),
    coarse enough that the best and runner-up values differ far above the
    exact rate's rounding, so no last bit of that rounding picks another
    point. clamped is that of the grid argmax."""
    idx = _argmax_upward(values)
    clamped = idx in (0, grid.size - 1)
    rates, scores = grid, values
    for _ in range(_REFINE_LEVELS):
        lo, hi = max(idx - 1, 0), min(idx + 1, rates.size - 1)
        rates = np.linspace(rates[lo], rates[hi], _REFINE_POINTS + 2)
        scan = yield RateJob(link, rates[1:-1], params.n_ports)
        scores = np.concatenate(([scores[lo]], scan, [scores[hi]]))
        idx = _argmax_upward(scores)
    r_star = float(rates[idx])
    point = OptResult(r_star=r_star, pm_star=pm_for_rate(params, RatePoint(r_star)),
                      clamped=clamped, iterations=evals + _REFINE_LEVELS * _REFINE_POINTS)
    return point, float(scores[idx])


def _constant_jamming(params: SystemParams, link: DerivedLink) -> OptResult:
    r_min, _ = rate_bounds(params)
    return OptResult(r_star=r_min, pm_star=params.p_m_max, clamped=False,
                     iterations=0)


def _passive(params: SystemParams, link: DerivedLink) -> OptResult:
    _, r_max = rate_bounds(params)
    return OptResult(r_star=r_max, pm_star=0.0, clamped=False, iterations=0)


# scheme -> (operating-point function, whether the monitor has a single
# port); TrueGrid's function gives steps for exact_rates, which return its
# point and the exact rate there
_SCHEMES = {
    Scheme.PROPOSED_BISECT: (solve_bound_bisect, False),
    Scheme.PROPOSED_CLOSED_FORM: (solve_closed_form, False),
    Scheme.TRUE_GRID: (_true_grid_steps, False),
    Scheme.CONSTANT_JAMMING: (_constant_jamming, False),
    Scheme.PASSIVE: (_passive, False),
    Scheme.CONVENTIONAL_SINGLE: (solve_closed_form, True),
}


class RateJob(NamedTuple):
    """Exact average monitoring rates to evaluate: R on link for a monitor
    that selects among n_ports ports (1 for the single-antenna monitor);
    rate_r is one rate or an array of them."""

    link: DerivedLink
    rate_r: float | np.ndarray
    n_ports: int


def scheme_steps(params: SystemParams, link: DerivedLink, scheme: Scheme):
    """A monitoring scheme as steps for exact_rates: the operating point,
    then a request for the exact rate there; returns the SchemeResult.
    TrueGrid's operating point is steps of its own, whose last scan already
    holds the exact rate at r*, so it requests no rate after them.

    ConstantJamming pins p_m = p_m_max (so R = r_min); Passive pins p_m = 0
    (so R = r_max); ConventionalSingle is the single-antenna monitor. Every
    other scheme's monitor selects among all n_ports ports.
    """
    try:
        operating_point, single_antenna = _SCHEMES[scheme]
    except KeyError:
        raise DomainError(f"unknown scheme {scheme!r}") from None
    n_ports = 1 if single_antenna else params.n_ports
    point = operating_point(params, link)
    if isinstance(point, Generator):
        point, rate = yield from point
    else:
        rate = (yield RateJob(link, point.r_star, n_ports))[0]
    return SchemeResult(**vars(point), rate_true=float(rate), n_ports=n_ports)


def exact_rates(tasks: Sequence[Generator]) -> list:
    """The run's one rate scheduler: the result of every task, or the
    FasmonError that the task raises alone.

    A task is a generator of steps (scheme_steps, _true_grid_steps, or a
    run's row task, which requests a curve point's exact rate or runs a
    scheme's steps and returns the finished rows), which yields RateJobs,
    receives each one's exact rates as an array, and whose result is its
    return value; a task that raises a FasmonError before its first request
    (a row task whose point failed) gets that error as its result. The
    tasks advance in rounds: every task's first request makes round one,
    and each round's replies bring the next requests. Each round's requests
    on links that share mu are evaluated in one call (_round). Every value
    equals the one the task gets alone: a column's value depends only on its
    own link, rate and port count. A request whose group raises is
    evaluated again alone, and its own FasmonError is thrown into its
    generator, so a task fails exactly when it fails alone, with the same
    error.
    """
    out: list = [None] * len(tasks)
    pending = []  # (task index, generator, its request)
    for i, task in enumerate(tasks):
        _advance(pending, out, i, task, None)
    while pending:
        current, pending = pending, []
        for (i, task, _), reply in zip(current, _round([job for _, _, job in current])):
            _advance(pending, out, i, task, reply)
    return out


def _advance(pending: list, out: list, i: int, task: Generator, reply) -> None:
    """Send reply into task i (None starts it; a FasmonError is thrown into
    it), then queue its next request on pending, or put its return value or
    FasmonError in out[i] once it finishes."""
    try:
        job = task.throw(reply) if isinstance(reply, FasmonError) else task.send(reply)
    except StopIteration as stop:
        out[i] = stop.value
    except FasmonError as exc:
        out[i] = exc
    else:
        pending.append((i, task, job))


def _round(jobs: list[RateJob]) -> list:
    """The exact rates of one round's requests, each an array in its rate
    order, or the FasmonError it raises alone.

    The requests on one mu are evaluated in one call (_evaluate) and their
    values split back. If that raises a FasmonError, each request is
    evaluated again alone, as a round of its own, so each gets its own value
    or error; a mu with one request takes the error at once. An error is
    stored without its traceback, whose frames would keep the failed call's
    arrays alive for as long as the reply is."""
    replies: list = [None] * len(jobs)
    by_mu: dict[float, list] = {}
    for j, job in enumerate(jobs):
        try:
            rates = check_nonneg_array("rate_r", job.rate_r).reshape(-1)
        except FasmonError as exc:
            replies[j] = exc.with_traceback(None)
        else:
            by_mu.setdefault(job.link.mu, []).append((j, job, rates))
    for group in by_mu.values():
        try:
            values = _evaluate(group)
        except FasmonError as exc:
            values = [exc.with_traceback(None)] if len(group) == 1 else None
        if values is None:  # out of the except clause, which held the failed call's frames
            values = [_round([job])[0] for _, job, _ in group]
        for (j, _, _), reply in zip(group, values):
            replies[j] = reply
    return replies


def _evaluate(group: list) -> list[np.ndarray]:
    """The exact rates of group, requests (index, RateJob, its rates) on
    one mu, one array each: one link_rates_true call over their rates end to
    end, given one link or one port count where every request shares it,
    split back per request; raises its FasmonError."""
    sizes = [rates.size for _, _, rates in group]
    values = link_rates_true(_per_column([job.link for _, job, _ in group], sizes),
                             np.concatenate([rates for _, _, rates in group]),
                             _per_column([job.n_ports for _, job, _ in group], sizes))
    return np.split(values, np.cumsum(sizes)[:-1])


def _per_column(items: list, sizes: list[int]):
    """items[0] when every item equals it in type and value (True == 1, but
    a bool port count must still be refused), or else each column's item,
    items[k] repeated sizes[k] times."""
    if len({(type(item), item) for item in items}) == 1:
        return items[0]
    return np.repeat(np.array(items, dtype=object), sizes).tolist()


def _alone(task: Generator):
    """The result of a task (see exact_rates) run alone; raises its
    FasmonError."""
    result = exact_rates([task])[0]
    if isinstance(result, FasmonError):
        raise result
    return result


def evaluate_scheme(params: SystemParams, link: DerivedLink,
                    scheme: Scheme) -> SchemeResult:
    """Run one monitoring scheme alone: its steps (scheme_steps) under
    exact_rates, as a run evaluates its rows; raises the FasmonError of
    either the operating point or the exact rate."""
    return _alone(scheme_steps(params, link, scheme))
