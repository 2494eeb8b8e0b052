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
Each row comes with its Monte Carlo job, or None; a run builds every
analytic row first and then hands all rows' jobs to
:func:`fasmon.mcsim.estimate_monitoring_rates` in one batch, whose blocks run
concurrently; the estimates are the ones each row gets alone. Each block
returns an integer hit count and has no failure of its own, so Monte Carlo
cannot drop a row: a row is dropped, and reported on stderr, only when its
analytic part raises a FasmonError.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import DerivedLink, SystemParams, correlation_mu, link_for_mu
from .config import ExperimentSpec, db_to_linear
from .errors import FasmonError
from .mcsim import estimate_monitoring_rates
from .optimize import evaluate_scheme
from .outage import RatePoint, rate_approx, rate_bound, rate_for_pm, rate_true

_EXPERIMENT_IDS = {"custom": 0, "fig1": 1, "fig2": 2, "fig3": 3}

# pseudo-scheme tag -> analytic rate of a p_m_db sweep's rows
_CURVES = {"true": rate_true, "bound": rate_bound, "approx": rate_approx}


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
    ss = np.random.SeedSequence(
        [seed, _EXPERIMENT_IDS[experiment], sweep_idx, scheme_idx])
    return int(ss.generate_state(1)[0])


def expected_row_count(spec: ExperimentSpec) -> int:
    per_point = len(_CURVES) if spec.sweep_variable == "p_m_db" else len(spec.schemes)
    return len(spec.sweep_values) * per_point


def _point_params(spec: ExperimentSpec, x_value: float) -> SystemParams:
    if spec.sweep_variable == "ratio_db":
        cross = db_to_linear(x_value) * spec.params.sigma_h2
        return dataclasses.replace(spec.params, sigma_g2=cross, sigma_f2=cross)
    if spec.sweep_variable == "n_ports":
        return dataclasses.replace(spec.params, n_ports=int(x_value))
    return spec.params


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


def _curve_rows(spec: ExperimentSpec, params: SystemParams, link: DerivedLink,
                sweep_idx: int,
                x_value: float) -> list[tuple[ResultRow, tuple | None]]:
    rp = RatePoint(rate_for_pm(params, db_to_linear(x_value)))
    return [(ResultRow(experiment=spec.experiment, scheme=tag,
                       x_name=spec.sweep_variable, x_value=x_value,
                       r_star_bits=rp.rate_r, pm_star_db=x_value,
                       rate_analytic=rate(params, link, rp),
                       rate_mc_mean=None, rate_mc_ci95=None, clamped=False),
             _mc_job(spec, params, link, rp, params.n_ports, sweep_idx, scheme_idx)
             if tag == "true" else None)
            for scheme_idx, (tag, rate) in enumerate(_CURVES.items())]


def _scheme_rows(spec: ExperimentSpec, params: SystemParams, link: DerivedLink,
                 sweep_idx: int,
                 x_value: float) -> list[tuple[ResultRow, tuple | None]]:
    pairs = []
    for scheme_idx, scheme in enumerate(spec.schemes):
        try:
            result = evaluate_scheme(params, link, scheme)
        except FasmonError as exc:
            _report_failure(spec, x_value, exc, scheme.value)
            continue
        pairs.append((
            ResultRow(experiment=spec.experiment, scheme=scheme.value,
                      x_name=spec.sweep_variable, x_value=x_value,
                      r_star_bits=result.r_star, pm_star_db=_pm_db(result.pm_star),
                      rate_analytic=result.rate_true,
                      rate_mc_mean=None, rate_mc_ci95=None,
                      clamped=result.clamped),
            _mc_job(spec, params, link, RatePoint(result.r_star), result.n_ports,
                    sweep_idx, scheme_idx)))
    return pairs


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
    then its rows; the correlation factor is memoized for this run alone, so
    it is computed once per distinct aperture, and a failure to compute it
    is not kept, so it is reported once for every point it fails. A row is
    dropped only when its analytic part raises a FasmonError. The analytic
    rows of every point come first; then the Monte Carlo jobs of all rows
    run as one batch, which cannot drop a row, and fill in the rows' Monte
    Carlo cells.
    """
    mu_of = functools.cache(correlation_mu)
    point_rows = _curve_rows if spec.sweep_variable == "p_m_db" else _scheme_rows
    pairs = []
    for sweep_idx, x_value in enumerate(spec.sweep_values):
        try:
            params = _point_params(spec, x_value)
            link = link_for_mu(params, mu_of(params.aperture_w))
            pairs.extend(point_rows(spec, params, link, sweep_idx, x_value))
        except FasmonError as exc:
            _report_failure(spec, x_value, exc)
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
