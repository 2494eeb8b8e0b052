"""Sweep runner: turns an ExperimentSpec into result rows.

Every sweep point takes one path: its parameters (the base parameters with
the swept one replaced), then its link, whose correlation factor the run
computes once per distinct aperture, then its rows. Two row flavors exist. A
``p_m_db`` sweep (the ``fig1`` experiment) fixes the jamming power at each
grid point, solves the destination outage constraint for R, and reports the
three analytic rate expressions as pseudo-schemes ``true``, ``bound``, and
``approx``. The other sweeps run the configured schemes at each point; each
scheme picks its own operating point.

Monte Carlo columns, when enabled, always estimate the TRUE monitoring rate
at the row's operating point, so simulation never inherits the analytic
shortcut it is meant to check. Row seeds are spawned from (seed, experiment
id, sweep index, scheme index), making every row reproducible in isolation.
A run evaluates in batches what each row would get alone. It first builds
every point's steps: a curve point's one exact-rate request, or each
scheme's (:func:`fasmon.optimize.scheme_steps`). It hands all of them to
:func:`fasmon.optimize.exact_rates`, the one rate scheduler, which advances
them, TrueGrid's searches included, in lockstep rounds and evaluates each
round's exact rates on links that share mu together. Then it hands all
rows' Monte Carlo jobs to
:func:`fasmon.mcsim.estimate_monitoring_rates` in one batch, whose blocks run
concurrently. Each Monte Carlo block returns an integer hit count and has no
failure of its own, so Monte Carlo cannot drop a row: a row is dropped, and
reported on stderr in row order, only when its analytic part, its exact
rate included, raises a FasmonError.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple

import numpy as np

from .channel import DerivedLink, SystemParams, correlation_mu, link_for_mu
from .config import _EXPERIMENTS, _SWEEPS, ExperimentSpec, db_to_linear
from .errors import FasmonError
from .mcsim import estimate_monitoring_rates
from .optimize import RateJob, SchemeResult, exact_rates, scheme_steps
from .outage import RatePoint, rate_approx, rate_bound, rate_for_pm

# pseudo-schemes of a p_m_db sweep's rows: the exact, bound and approximate
# rates at the point's rate
_CURVE_TAGS = ("true", "bound", "approx")


@dataclass(frozen=True)
class ResultRow:
    """One CSV row: a scheme (or analytic curve) at one sweep point."""

    experiment: str
    scheme: str
    x_name: str
    x_value: float
    r_star_bits: float
    pm_star_db: float
    rate_analytic: float
    rate_mc_mean: float | None
    rate_mc_ci95: float | None
    clamped: bool


class _Entry(NamedTuple):
    """The rows of a run that share one exact rate: a scheme's row, or a
    curve point's three (scheme None). task is their steps for exact_rates,
    or the FasmonError met before them; rows turns the task's result into
    the rows, in row order, each with its Monte Carlo job or None."""

    x_value: float
    scheme: str | None
    task: Generator | FasmonError
    rows: Callable | None


def row_seed(seed: int, experiment: str, sweep_idx: int, scheme_idx: int) -> int:
    """Deterministic per-row substream key, independent of run order."""
    seed_id, _, _ = _EXPERIMENTS[experiment]
    ss = np.random.SeedSequence([seed, seed_id, sweep_idx, scheme_idx])
    return int(ss.generate_state(1)[0])


def expected_row_count(spec: ExperimentSpec) -> int:
    per_point = len(_CURVE_TAGS) if spec.sweep_variable == "p_m_db" else len(spec.schemes)
    return len(spec.sweep_values) * per_point


def _pm_db(p_m: float) -> float:
    return 10.0 * math.log10(p_m) if p_m > 0.0 else float("-inf")


def _mc_job(spec: ExperimentSpec, params, link, rp: RatePoint, n_ports: int,
            sweep_idx: int, scheme_idx: int):
    """The Monte Carlo job of one row, or None when the run simulates
    nothing."""
    if spec.mc_samples == 0:
        return None
    return (params, link, rp, n_ports, spec.mc_samples,
            row_seed(spec.seed, spec.experiment, sweep_idx, scheme_idx))


def _curve_entries(spec: ExperimentSpec, params: SystemParams, link: DerivedLink,
                   sweep_idx: int, x_value: float) -> list[_Entry]:
    rp = RatePoint(rate_for_pm(params, db_to_linear(x_value)))
    others = (rate_bound(params, link, rp), rate_approx(params, link, rp))
    mc = _mc_job(spec, params, link, rp, params.n_ports, sweep_idx, 0)

    def exact_rate():
        return float((yield RateJob(link, rp.rate_r, params.n_ports))[0])

    def rows(rate: float):
        return [(ResultRow(experiment=spec.experiment, scheme=tag,
                           x_name=spec.sweep_variable, x_value=x_value,
                           r_star_bits=rp.rate_r, pm_star_db=x_value,
                           rate_analytic=value,
                           rate_mc_mean=None, rate_mc_ci95=None, clamped=False),
                 mc if tag == "true" else None)
                for tag, value in zip(_CURVE_TAGS, (rate, *others))]
    return [_Entry(x_value, None, exact_rate(), rows)]


def _scheme_rows(spec: ExperimentSpec, params: SystemParams, link: DerivedLink,
                 sweep_idx: int, x_value: float, scheme_idx: int, res: SchemeResult):
    row = ResultRow(experiment=spec.experiment, scheme=spec.schemes[scheme_idx].value,
                    x_name=spec.sweep_variable, x_value=x_value,
                    r_star_bits=res.r_star, pm_star_db=_pm_db(res.pm_star),
                    rate_analytic=res.rate_true, rate_mc_mean=None, rate_mc_ci95=None,
                    clamped=res.clamped)
    return [(row, _mc_job(spec, params, link, RatePoint(res.r_star), res.n_ports,
                          sweep_idx, scheme_idx))]


def _scheme_entries(spec: ExperimentSpec, params: SystemParams, link: DerivedLink,
                    sweep_idx: int, x_value: float) -> list[_Entry]:
    return [_Entry(x_value, scheme.value, scheme_steps(params, link, scheme),
                   functools.partial(_scheme_rows, spec, params, link, sweep_idx,
                                     x_value, scheme_idx))
            for scheme_idx, scheme in enumerate(spec.schemes)]


def _report_failure(spec: ExperimentSpec, x_value: float, exc: FasmonError,
                    scheme: str | None = None) -> None:
    where = f"{spec.sweep_variable}={x_value:g}"
    if scheme is not None:
        where += f" {scheme}"
    print(f"fasmon: {where}: {type(exc).__name__}: {exc}", file=sys.stderr)


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run every sweep point; failed points are reported and skipped.

    The caller can compare len(result) with expected_row_count(spec) to
    detect partial output. Each point builds its parameters and its link,
    then its steps: a curve point its rate and one request for its exact
    rate, a scheme point one set of steps per scheme. The correlation factor
    is memoized for this run alone, so it is computed once per distinct
    aperture, and a failure to compute it is not kept, so it is reported
    once for every point it fails. Once every point is built, all the work
    goes to :func:`fasmon.optimize.exact_rates`, which finds the operating
    points and evaluates the exact rates in rounds, each round's rates on
    links that share mu together, in link_rates_true calls of at most
    optimize._CALL_COLUMNS rates (one mu per default fig1, fig2 or fig3
    run), each value the one its row gets alone. A row is dropped only when
    its analytic part, its exact rate included, raises a FasmonError, and
    the failures are reported in row order. Then the Monte Carlo jobs of all
    rows run as one batch, which cannot drop a row, and fill in the rows'
    Monte Carlo cells.
    """
    mu_of = functools.cache(correlation_mu)
    _, point_params = _SWEEPS[spec.sweep_variable]
    point_entries = _curve_entries if spec.sweep_variable == "p_m_db" else _scheme_entries
    entries = []
    for sweep_idx, x_value in enumerate(spec.sweep_values):
        try:
            params = point_params(spec.params, x_value)
            link = link_for_mu(params, mu_of(params.aperture_w))
            entries.extend(point_entries(spec, params, link, sweep_idx, x_value))
        except FasmonError as exc:
            entries.append(_Entry(x_value, None, exc, None))
    results = iter(exact_rates([e.task for e in entries
                                if not isinstance(e.task, FasmonError)]))
    pairs = []
    for entry in entries:
        result = entry.task if isinstance(entry.task, FasmonError) else next(results)
        if isinstance(result, FasmonError):
            _report_failure(spec, entry.x_value, result, entry.scheme)
        else:
            pairs += entry.rows(result)
    estimates = iter(estimate_monitoring_rates(
        [job for _, job in pairs if job is not None]))
    rows = []
    for row, job in pairs:
        if job is not None:
            est = next(estimates)
            row = dataclasses.replace(row, rate_mc_mean=est.mean,
                                      rate_mc_ci95=est.half_width_95)
        rows.append(row)
    return rows
