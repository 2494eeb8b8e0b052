"""Proactive-monitoring rate optimization for a fluid-antenna monitor.

The package computes, bounds, and simulates the average monitoring rate of a
port-switching monitor that jams a suspicious link, and finds the jamming
power maximizing that rate subject to a destination outage constraint.
"""

from .errors import (FasmonError, DomainError, ComputationError,
                     ConstraintInfeasibleError, DegenerateRateError,
                     AccuracyError, ConfigError)
from .specfun import (bessel_j, hyp1f2_half, marcum_q1, lambert_w0,
                      integrate_expweighted)
from .channel import (SystemParams, DerivedLink, correlation_mu, eta_factor,
                      derive_link)
from .outage import (RatePoint, sd_outage, rate_bounds,
                     pm_for_rate, rate_for_pm, monitor_outage_true,
                     monitor_outage_bound, monitor_outage_approx,
                     rate_true, rate_bound, rate_approx)
from .optimize import (Scheme, OptResult, objective_terms, solve_bound_bisect,
                       solve_closed_form, solve_true_grid, evaluate_scheme)
from .mcsim import (McEstimate, estimate_sd_outage, estimate_monitor_outage,
                    estimate_monitoring_rate)
from .config import ExperimentSpec, parse_config, resolve_config, db_to_linear
from .experiments import ResultRow, run_experiment, expected_row_count, row_seed
from .reporting import CSV_HEADER, format_rows, emit_csv, parse_csv, emit_svg
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "FasmonError", "DomainError", "ComputationError",
    "ConstraintInfeasibleError", "DegenerateRateError", "AccuracyError",
    "ConfigError",
    "bessel_j", "hyp1f2_half", "marcum_q1", "lambert_w0",
    "integrate_expweighted",
    "SystemParams", "DerivedLink", "correlation_mu", "eta_factor",
    "derive_link",
    "RatePoint", "sd_outage", "rate_bounds",
    "pm_for_rate", "rate_for_pm", "monitor_outage_true",
    "monitor_outage_bound", "monitor_outage_approx",
    "rate_true", "rate_bound", "rate_approx",
    "Scheme", "OptResult", "objective_terms", "solve_bound_bisect",
    "solve_closed_form", "solve_true_grid", "evaluate_scheme",
    "McEstimate", "estimate_sd_outage", "estimate_monitor_outage",
    "estimate_monitoring_rate",
    "ExperimentSpec", "parse_config", "resolve_config", "db_to_linear",
    "ResultRow", "run_experiment", "expected_row_count", "row_seed",
    "CSV_HEADER", "format_rows", "emit_csv", "parse_csv", "emit_svg",
    "run_validation",
    "__version__",
]
