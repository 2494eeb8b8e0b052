"""Monte Carlo estimators for the outage probabilities and the monitoring rate.

These are the simulation-side counterparts of the closed forms and quadratures
in :mod:`fasmon.outage`. They share no code with that module beyond the channel
model, so agreement between the two routes is meaningful evidence.

Reproducibility contract: every estimator splits its draws into blocks of
2^17 and keys each block's generator as ``(seed, block_index)`` through
:func:`numpy.random.default_rng`, so a given ``(seed, n_samples)`` pair
yields bit-identical results regardless of block scheduling or platform
BLAS. The blocks of a call, and of every job of
:func:`estimate_monitoring_rates`, may run concurrently on a short-lived
pool of min(CPUs available to the process, 4) threads; each block returns
an integer hit count, and the counts add exactly, so no value depends on the
thread count or on the order the blocks finish in. Within a block the draw
order is fixed too: the best-port estimator screens 12288 rows at a time,
and each such row block takes its Re g0 then Im g0, then for each port in
turn Re e_k then Im e_k of the rows whose earlier ports are all below the
threshold, before the next row block draws (see
:func:`fasmon.channel._outage_hits`). A block of 2^17 draws therefore holds
two arrays of 2 * 12288 doubles, 384 KiB, while it runs, whatever the port
count.

Every argument is checked before any block runs, and a block only draws and
counts, so a simulation has no failure of its own to report: an exception
from a block is a fault, and it ends the whole call.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import _MAX_PORTS, SystemParams, DerivedLink, _outage_hits
from .errors import check_count, check_real
from .outage import RatePoint

# Draws are processed in fixed-size blocks so memory stays flat and the
# per-block generator keying is independent of execution order.
_CHUNK = 1 << 17

# Blocks in flight at once, at most; a best-port block holds two arrays of
# 2 * 12288 doubles while it runs, 384 KiB at any port count, whatever the
# block's size.
_MAX_WORKERS = 4

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its 95% confidence half width.

    The half width is Wald's, z sqrt(mean (1 - mean) / n), where some but
    not all of the n draws hit. Where none or all do, Wald's is 0, as if the
    mean were exact; it is then the distance from the mean to the exact
    (Clopper-Pearson) 95% bound, 1 - 0.025^(1/n), about 3.7 / n.
    """

    mean: float
    half_width_95: float
    n_samples: int
    seed: int


def _chunks(n_samples: int):
    start = 0
    idx = 0
    while start < n_samples:
        yield idx, min(_CHUNK, n_samples - start)
        start += _CHUNK
        idx += 1


def _estimates(jobs: list) -> list[McEstimate]:
    """The binomial estimate of each (count_block, n_samples, seed) job, from
    its total hit count, in job order.

    count_block(index, size) counts the hits of one block of draws. Every
    block of every job is one task; the tasks run on a thread pool opened
    and closed here, with min(CPUs available to the process, _MAX_WORKERS,
    tasks) workers, or in this thread when that is one. An exception from
    any block cancels the tasks not yet started and propagates once the
    running ones end.
    """
    tasks = [(job, count_block, block)
             for job, (count_block, n_samples, _) in enumerate(jobs)
             for block in _chunks(n_samples)]

    def run(task):
        _, count_block, (idx, size) = task
        return count_block(idx, size)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, _MAX_WORKERS, len(tasks))
    if workers <= 1:
        counts = [run(task) for task in tasks]
    else:
        # imported here: at module level it would add its import (which
        # pulls in logging) to the start-up of every run, simulating or not
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run, tasks))
    totals = [0] * len(jobs)
    for (job, _, _), hits in zip(tasks, counts):
        totals[job] += hits
    estimates = []
    for hits, (_, n_samples, seed) in zip(totals, jobs):
        mean = hits / n_samples
        if 0 < hits < n_samples:
            half = _Z95 * math.sqrt(mean * (1.0 - mean) / n_samples)
        else:
            half = -math.expm1(math.log(0.025) / n_samples)
        estimates.append(McEstimate(mean=mean, half_width_95=half,
                                    n_samples=n_samples, seed=seed))
    return estimates


def _sd_block_hits(params: SystemParams, p_m: float, gamma_th: float,
                   seed: int, idx: int, size: int) -> int:
    rng = np.random.default_rng([seed, idx])
    h2 = rng.exponential(params.sigma_h2, size)
    f2 = rng.exponential(params.sigma_f2, size)
    sinr = params.p_s * h2 / (p_m * f2 + params.sigma_d2)
    return int(np.count_nonzero(sinr < gamma_th))


def _monitor_block_hits(mu: float, sigma_g2: float, n_ports: int,
                        g2_th: float, seed: int, idx: int, size: int) -> int:
    return _outage_hits(mu, sigma_g2, n_ports, g2_th, size,
                        np.random.default_rng([seed, idx]))


def _monitor_job(params: SystemParams, link: DerivedLink,
                 rate_point: RatePoint, n_ports: int, n_samples: int,
                 seed: int):
    """The (count_block, n_samples, seed) job of one best-port outage
    estimate, its counts checked."""
    n_ports = check_count("n_ports", n_ports, 1, _MAX_PORTS)
    n_samples = check_count("n_samples", n_samples, 1)
    seed = check_count("seed", seed, 0)
    # SNR threshold expressed on |g_max|^2 to avoid per-draw division
    g2_th = rate_point.gamma_th * params.sigma_m2 / params.p_s
    return (functools.partial(_monitor_block_hits, link.mu, params.sigma_g2,
                              n_ports, g2_th, seed), n_samples, seed)


def _rate_estimate(outage: McEstimate, rate_point: RatePoint) -> McEstimate:
    r = rate_point.rate_r
    return McEstimate(mean=r * (1.0 - outage.mean),
                      half_width_95=r * outage.half_width_95,
                      n_samples=outage.n_samples, seed=outage.seed)


def estimate_sd_outage(params: SystemParams, rate_point: RatePoint, p_m: float,
                       n_samples: int, seed: int) -> McEstimate:
    """Empirical P(log2(1 + SINR_d) < R) at the suspicious destination.

    The SINR is p_s |h|^2 / (p_m |f|^2 + sigma_d2) with |h|^2, |f|^2 drawn
    exponentially; the outage indicator uses a strict inequality, matching
    the analytic CDF convention.
    """
    p_m = check_real("p_m", p_m, "nonnegative", lambda v: v >= 0.0)
    n_samples = check_count("n_samples", n_samples, 1)
    seed = check_count("seed", seed, 0)
    count_block = functools.partial(_sd_block_hits, params, p_m,
                                    rate_point.gamma_th, seed)
    return _estimates([(count_block, n_samples, seed)])[0]


def estimate_monitor_outage(params: SystemParams, link: DerivedLink,
                            rate_point: RatePoint, n_ports: int,
                            n_samples: int, seed: int) -> McEstimate:
    """Empirical P(log2(1 + SNR_m) < R) for the best-port monitor.

    The hits come from the screened counter in :mod:`fasmon.channel`, so
    any change to the mixing model propagates here but not to the
    quadrature route; a draw is in outage when all n_ports port powers lie
    below the threshold. n_ports = 1 degrades to the single-antenna monitor.
    """
    return _estimates([_monitor_job(params, link, rate_point, n_ports, n_samples, seed)])[0]


def estimate_monitoring_rate(params: SystemParams, link: DerivedLink,
                             rate_point: RatePoint, n_ports: int,
                             n_samples: int, seed: int) -> McEstimate:
    """Empirical average monitoring rate R * (1 - monitor outage).

    The uncertainty is the outage half width scaled by R; R itself is exact.
    """
    return _rate_estimate(estimate_monitor_outage(
        params, link, rate_point, n_ports, n_samples, seed), rate_point)


def estimate_monitoring_rates(jobs) -> list[McEstimate]:
    """estimate_monitoring_rate for each (params, link, rate_point, n_ports,
    n_samples, seed) job, with the blocks of all jobs sharing one pool.

    Each estimate is bitwise the one estimate_monitoring_rate returns for
    its job. Invalid job arguments raise DomainError before anything runs.
    """
    jobs = list(jobs)
    outages = _estimates([_monitor_job(*job) for job in jobs])
    return [_rate_estimate(outage, rate_point)
            for outage, (_, _, rate_point, *_) in zip(outages, jobs)]
