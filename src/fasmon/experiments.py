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
one row task per row group: a curve point's three rows, or a scheme's row.
A task is a generator that yields its exact-rate requests (a scheme's are
:func:`fasmon.optimize.scheme_steps`) and returns its finished rows, each
with its Monte Carlo job; a point whose parameters or link fail is a task
that raises that FasmonError. It hands all of them to
:func:`fasmon.optimize.exact_rates`, the one rate scheduler, which advances
them, TrueGrid's searches included, in lockstep rounds and evaluates each
round's exact rates on links that share mu together, and returns each
task's rows or its FasmonError. Then it hands all rows' Monte Carlo jobs to
:func:`fasmon.mcsim.estimate_monitoring_rates` in one batch, whose blocks run
concurrently. Each Monte Carlo block returns an integer hit count and has no
failure of its own, so Monte Carlo cannot drop a row: a row group is
dropped, and reported on stderr in row order, only when its task raises a
FasmonError.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import DerivedLink, SystemParams, correlation_mu, link_for_mu
from .config import _EXPERIMENTS, _SWEEPS, ExperimentSpec, db_to_linear
from .errors import FasmonError
from .mcsim import estimate_monitoring_rates
from .optimize import RateJob, exact_rates, scheme_steps
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


def _curve_task(spec: ExperimentSpec, params: SystemParams, link: DerivedLink,
                sweep_idx: int, x_value: float):
    """A p_m_db point's row task: its rate, its bound and approximate rates,
    then a request for its exact rate; returns its three rows."""
    rp = RatePoint(rate_for_pm(params, db_to_linear(x_value)))
    others = (rate_bound(params, link, rp), rate_approx(params, link, rp))
    mc = _mc_job(spec, params, link, rp, params.n_ports, sweep_idx, 0)
    rate = float((yield RateJob(link, rp.rate_r, params.n_ports))[0])
    return [(ResultRow(experiment=spec.experiment, scheme=tag,
                       x_name=spec.sweep_variable, x_value=x_value,
                       r_star_bits=rp.rate_r, pm_star_db=x_value, rate_analytic=value,
                       rate_mc_mean=None, rate_mc_ci95=None, clamped=False),
             mc if tag == "true" else None)
            for tag, value in zip(_CURVE_TAGS, (rate, *others))]


def _scheme_task(spec: ExperimentSpec, params: SystemParams, link: DerivedLink,
                 sweep_idx: int, x_value: float, scheme_idx: int):
    """A scheme's row task: its steps (scheme_steps); returns its row."""
    scheme = spec.schemes[scheme_idx]
    res = yield from scheme_steps(params, link, scheme)
    row = ResultRow(experiment=spec.experiment, scheme=scheme.value,
                    x_name=spec.sweep_variable, x_value=x_value,
                    r_star_bits=res.r_star, pm_star_db=_pm_db(res.pm_star),
                    rate_analytic=res.rate_true, rate_mc_mean=None, rate_mc_ci95=None,
                    clamped=res.clamped)
    return [(row, _mc_job(spec, params, link, RatePoint(res.r_star), res.n_ports,
                          sweep_idx, scheme_idx))]


def _failed_task(exc: FasmonError):
    """The row task of a point whose parameters or link failed: raises exc."""
    raise exc
    yield  # unreachable; makes this a generator


def _report_failure(spec: ExperimentSpec, x_value: float, exc: FasmonError,
                    scheme: str | None = None) -> None:
    where = f"{spec.sweep_variable}={x_value:g}"
    if scheme is not None:
        where += f" {scheme}"
    print(f"fasmon: {where}: {type(exc).__name__}: {exc}", file=sys.stderr)


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run every sweep point; failed rows are reported and skipped.

    The caller can compare len(result) with expected_row_count(spec) to
    detect partial output. Each point builds its parameters and its link,
    then its row tasks: a curve point one task for its three rows, a scheme
    point one per scheme. A point whose parameters or link fail gets one
    task that raises that FasmonError. The correlation factor is memoized
    for this run alone, so it is computed once per distinct aperture, and a
    failure to compute it is not kept, so it is reported once for every
    point it fails. All the tasks go to :func:`fasmon.optimize.exact_rates`,
    which advances them in rounds and evaluates each round's exact rates on
    links that share mu together, in one link_rates_true call per round and
    mu (one mu per default fig1, fig2 or fig3 run), each value the one its
    row gets alone. Each task's result is its rows or the FasmonError that
    drops them, reported in row order. Then the Monte Carlo jobs of all rows
    run as one batch, which cannot drop a row, and fill in the rows' Monte
    Carlo cells.
    """
    mu_of = functools.cache(correlation_mu)
    _, point_params = _SWEEPS[spec.sweep_variable]
    entries = []  # (x_value, scheme or None, row task), in row order
    for sweep_idx, x_value in enumerate(spec.sweep_values):
        try:
            params = point_params(spec.params, x_value)
            link = link_for_mu(params, mu_of(params.aperture_w))
        except FasmonError as exc:
            entries.append((x_value, None, _failed_task(exc)))
        else:
            if spec.sweep_variable == "p_m_db":
                entries.append((x_value, None,
                                _curve_task(spec, params, link, sweep_idx, x_value)))
            else:
                entries += [(x_value, scheme.value, _scheme_task(
                    spec, params, link, sweep_idx, x_value, scheme_idx))
                    for scheme_idx, scheme in enumerate(spec.schemes)]
    pairs = []
    for (x_value, scheme, _), result in zip(
            entries, exact_rates([task for _, _, task in entries])):
        if isinstance(result, FasmonError):
            _report_failure(spec, x_value, result, scheme)
        else:
            pairs += result
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
