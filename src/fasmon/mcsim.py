"""Monte Carlo estimators for the outage probabilities and the monitoring rate.

These are the simulation-side counterparts of the closed forms and quadratures
in :mod:`fasmon.outage`. They share no code with that module beyond the channel
sampler, so agreement between the two routes is meaningful evidence.

Reproducibility contract: every estimator consumes ``(seed, chunk_index)``
key pairs through :func:`numpy.random.default_rng`, so a given ``(seed,
n_samples)`` pair yields bit-identical results regardless of chunk scheduling
or platform BLAS. Within a chunk the draw order is fixed too: the best-port
estimator takes Re g0, Im g0, Re e, Im e, each block row-major (see
:func:`fasmon.channel._sample_port_powers`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SystemParams, DerivedLink, _sample_port_powers
from .errors import DomainError
from .outage import RatePoint

# Draws are processed in fixed-size blocks so memory stays flat and the
# per-block generator keying is independent of execution order.
_CHUNK = 1 << 17

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its 95% confidence half width."""

    mean: float
    half_width_95: float
    n_samples: int
    seed: int


def _check_run(n_samples: int, seed: int) -> None:
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")


def _binomial_estimate(hits: int, n_samples: int, seed: int) -> McEstimate:
    mean = hits / n_samples
    half = _Z95 * math.sqrt(mean * (1.0 - mean) / n_samples)
    return McEstimate(mean=mean, half_width_95=half,
                      n_samples=n_samples, seed=seed)


def _chunks(n_samples: int):
    start = 0
    idx = 0
    while start < n_samples:
        yield idx, min(_CHUNK, n_samples - start)
        start += _CHUNK
        idx += 1


def estimate_sd_outage(params: SystemParams, rate_point: RatePoint, p_m: float,
                       n_samples: int, seed: int) -> McEstimate:
    """Empirical P(log2(1 + SINR_d) < R) at the suspicious destination.

    The SINR is p_s |h|^2 / (p_m |f|^2 + sigma_d2) with |h|^2, |f|^2 drawn
    exponentially; the outage indicator uses a strict inequality, matching
    the analytic CDF convention.
    """
    _check_run(n_samples, seed)
    if p_m < 0.0:
        raise DomainError(f"p_m must be >= 0, got {p_m}")
    gamma_th = rate_point.gamma_th
    hits = 0
    for idx, size in _chunks(n_samples):
        rng = np.random.default_rng([seed, idx])
        h2 = rng.exponential(params.sigma_h2, size)
        f2 = rng.exponential(params.sigma_f2, size)
        sinr = params.p_s * h2 / (p_m * f2 + params.sigma_d2)
        hits += int(np.count_nonzero(sinr < gamma_th))
    return _binomial_estimate(hits, n_samples, seed)


def estimate_monitor_outage(params: SystemParams, link: DerivedLink,
                            rate_point: RatePoint, n_ports: int,
                            n_samples: int, seed: int) -> McEstimate:
    """Empirical P(log2(1 + SNR_m) < R) for the best-port monitor.

    Port powers |g_k|^2 come from the correlated sampler in
    :mod:`fasmon.channel`, so any change to the mixing model propagates here
    but not to the quadrature route; the best port is their maximum over the
    n_ports columns. n_ports = 1 degrades to the single-antenna monitor.
    """
    _check_run(n_samples, seed)
    if n_ports < 1:
        raise DomainError(f"n_ports must be >= 1, got {n_ports}")
    gamma_th = rate_point.gamma_th
    # SNR threshold expressed on |g_max|^2 to avoid per-draw division
    g2_th = gamma_th * params.sigma_m2 / params.p_s
    hits = 0
    for idx, size in _chunks(n_samples):
        rng = np.random.default_rng([seed, idx])
        powers = _sample_port_powers(link.mu, params.sigma_g2, n_ports, size, rng)
        # one np.maximum per column: max(axis=1) over short rows is far slower
        best = powers[:, 0].copy()
        for k in range(1, n_ports):
            np.maximum(best, powers[:, k], out=best)
        hits += int(np.count_nonzero(best < g2_th))
    return _binomial_estimate(hits, n_samples, seed)


def estimate_monitoring_rate(params: SystemParams, link: DerivedLink,
                             rate_point: RatePoint, n_ports: int,
                             n_samples: int, seed: int) -> McEstimate:
    """Empirical average monitoring rate R * (1 - monitor outage).

    The uncertainty is the outage half width scaled by R; R itself is exact.
    """
    out = estimate_monitor_outage(params, link, rate_point, n_ports,
                                  n_samples, seed)
    r = rate_point.rate_r
    return McEstimate(mean=r * (1.0 - out.mean),
                      half_width_95=r * out.half_width_95,
                      n_samples=n_samples, seed=seed)
