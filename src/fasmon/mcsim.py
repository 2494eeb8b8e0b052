"""Monte Carlo estimators for the outage probabilities and the monitoring rate.

These are the simulation-side counterparts of the closed forms and quadratures
in :mod:`fasmon.outage`. They share no code with that module beyond the channel
model, so agreement between the two routes is meaningful evidence.

Reproducibility contract: every estimator splits its draws into blocks of
2^17 and keys each block's generator as ``(seed, block_index)`` through
:func:`numpy.random.default_rng`, so a given ``(seed, n_samples)`` pair
yields bit-identical results regardless of block scheduling or platform
BLAS. Best-port outage jobs that share ``(seed, mu, n_ports, n_samples)``
form one group and share those draws: each block of the group draws every
row's best port power once, sorts the powers and counts the rows below each
job's threshold by binary search. A job's counts depend on the group's
draws alone, never on the other thresholds in the group, so every estimate
is bitwise the one its job gets alone. No draw is skipped for a row
already above every threshold, so a group of one draws every port of every
row as a large group does. The blocks of a call, and of every
group, may run concurrently on a short-lived pool of min(CPUs available to
the process, 4) threads; each block returns integer hit counts, and the
counts add exactly, so no value depends on the thread count or on the order
the blocks finish in.

Within a block the draw order is fixed too (see :func:`_best_port_powers`):
in row blocks of 16384 rows, one exponential E0 per row for |g0|^2, then,
for each port in turn, one exponential E_k per row for |e_k|^2 and one
angle per row from uniform points of the quarter disc. Each row block's
best powers are sorted and counted before the next row block draws, so a
block holds five arrays of one row block (640 KiB) and an angle round's
scratch, about 1.4 MiB in all whatever the port count and the block's size;
with one block per worker a call holds under 4 x 1.4 MiB, and under
2.9 MiB on two CPUs.

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

from . import channel
from .channel import _MAX_PORTS, SystemParams, DerivedLink
from .errors import check_count, check_real
from .outage import RatePoint

# Draws are processed in fixed-size blocks so memory stays flat and the
# per-block generator keying is independent of execution order.
_CHUNK = 1 << 17

# Rows per row block of the best-port sampler. The mc-monitor-outage grid's
# 25 jobs at 10^6 draws (2 vCPU, median of 5 interleaved rounds) and the
# traced peak of one 2^17-draw block at 64 ports, and of two workers:
#
#   rows    1 thread  2 threads  block     two workers
#   8192    0.77 s    0.62 s     0.69 MiB  1.52 MiB
#   12288   0.75 s    0.59 s     1.03 MiB  2.20 MiB
#   16384   0.82 s    0.43 s     1.37 MiB  2.88 MiB
#   20480   0.76 s    0.42 s     1.71 MiB  3.56 MiB
#   24576                        2.05 MiB  4.25 MiB
#
# One thread gains nothing from size. Two overlap better with longer row
# blocks, up to about 16384 rows, while memory grows about 0.34 MiB per
# 4096 rows; past 20480 rows two workers leave the pool's budget of 2 MiB
# per worker.
_ROW_BLOCK = 16384

# Blocks in flight at once, at most; a best-port block holds about 1.4 MiB
# while it runs (five arrays of one row block and an angle round's
# scratch), at any port count and whatever the block's size, so the pool
# holds under 4 x 1.4 MiB.
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


def _binomial(hits: int, n_samples: int, seed: int) -> McEstimate:
    mean = hits / n_samples
    if 0 < hits < n_samples:
        half = _Z95 * math.sqrt(mean * (1.0 - mean) / n_samples)
    else:
        half = -math.expm1(math.log(0.025) / n_samples)
    return McEstimate(mean=mean, half_width_95=half, n_samples=n_samples, seed=seed)


def _estimates(groups: list) -> list[list[McEstimate]]:
    """The binomial estimates of each (count_block, n_samples, seed) group,
    one per member, from the members' total hit counts, in group order.

    count_block(index, size) counts the hits of one block of draws, an
    integer array with one entry per member. Every block of every group is
    one task; the tasks run on a thread pool opened and closed here, with
    min(CPUs available to the process, _MAX_WORKERS, tasks) workers, or in
    this thread when that is one. An exception from any block cancels the
    tasks not yet started and propagates once the running ones end.
    """
    tasks = [(group, count_block, block)
             for group, (count_block, n_samples, _) in enumerate(groups)
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
    totals = [0] * len(groups)
    for (group, _, _), hits in zip(tasks, counts):
        totals[group] = totals[group] + hits
    return [[_binomial(int(hits), n_samples, seed) for hits in total]
            for total, (_, n_samples, seed) in zip(totals, groups)]


def _sd_block_hits(params: SystemParams, p_m: float, gamma_th: float,
                   seed: int, idx: int, size: int) -> np.ndarray:
    rng = np.random.default_rng([seed, idx])
    h2 = rng.exponential(params.sigma_h2, size)
    f2 = rng.exponential(params.sigma_f2, size)
    sinr = params.p_s * h2 / (p_m * f2 + params.sigma_d2)
    return np.array([np.count_nonzero(sinr < gamma_th)])


def _angle_cosines(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill out with cos(phi) for independent uniform angles phi.

    A uniform point (u, v) of the quarter disc has a uniform angle theta in
    [0, pi/2], so cos(2 theta) = (u^2 - v^2) / (u^2 + v^2) has the law of
    cos(phi). The points come by rejection from the unit square: a round
    that still needs k values draws k + 3k // 10 + 32 pairs, all u in one
    call then all v in another, and keeps the first k pairs, in order, with
    u^2 + v^2 < 1; rounds repeat until out is full (one round nearly always
    suffices). u is drawn as 1 - uniform, in (0, 1], so no kept pair has
    u^2 + v^2 = 0.
    """
    filled = 0
    while filled < out.size:
        need = out.size - filled
        n = need + 3 * need // 10 + 32
        u = rng.random(n)
        v = rng.random(n)
        np.subtract(1.0, u, out=u)
        u *= u
        v *= v
        s = u + v
        u -= v
        kept = np.flatnonzero(s < 1.0)[:need]
        k = kept.size
        dest = out[filled:filled + k]
        np.take(u, kept, out=dest)
        dest /= np.take(s, kept, out=v[:k])
        filled += k


def _best_port_powers(mu: float, n_ports: int, size: int,
                      rng: np.random.Generator):
    """Yield, one row block at a time, the best unit-variance port power
    max_k |g_k|^2 / sigma_g2 of each of size rows of the correlated port
    model; E0 itself, |g0|^2, at one port. Each yielded array is
    overwritten by the next row block.

    The model is rotation-invariant, so each row is drawn in the frame where
    mu g0 is real, in polar form: a = mu sqrt(E0) and, at port k,
    g_k = a + r e^{i phi} with r = w sqrt(E_k), w = channel._mix_weight(mu)
    (read at call time), the E standard exponentials and phi uniform and
    independent of E_k, so |g_k|^2 = a^2 + r (r + 2 a cos(phi)).

    The rows go in consecutive row blocks of at most _ROW_BLOCK. Each row
    block of m rows draws E0 for its rows in one call (so at one port the
    whole stream is size exponentials in row order), then for each port in
    turn E_k for its rows in one call and their cos(phi) from
    _angle_cosines, and keeps each row's largest power. This draw order is
    part of the Monte Carlo reproducibility contract. The draws take only
    the generator and the correctly rounded sqrt, multiply, add, subtract,
    divide, compare and maximum.

    Memory: five arrays of min(size, _ROW_BLOCK) doubles, and while an
    angle round runs its two arrays of uniforms, their sum, a mask and an
    index array, each of at most 1.3 x _ROW_BLOCK + 32 entries: about
    1.4 MiB at 16384 rows per row block, whatever size and n_ports are.
    """
    w = channel._mix_weight(mu)
    best, a_sq, two_a, r, power = np.empty((5, min(size, _ROW_BLOCK)))
    for start in range(0, size, _ROW_BLOCK):
        m = min(_ROW_BLOCK, size - start)
        row_best, a2, a, rk, p = best[:m], a_sq[:m], two_a[:m], r[:m], power[:m]
        if n_ports == 1:
            rng.standard_exponential(out=row_best)
            yield row_best
            continue
        row_best.fill(0.0)
        rng.standard_exponential(out=a2)
        np.sqrt(a2, out=a)
        a *= 2.0 * mu
        a2 *= mu * mu
        for _ in range(n_ports):
            rng.standard_exponential(out=rk)
            np.sqrt(rk, out=rk)
            rk *= w
            _angle_cosines(rng, p)
            p *= a
            p += rk
            p *= rk
            p += a2
            np.maximum(row_best, p, out=row_best)
        yield row_best


def _monitor_block_hits(mu: float, n_ports: int, thresholds: np.ndarray,
                        seed: int, idx: int, size: int) -> np.ndarray:
    """The hits of block idx of a best-port group: for each unit-variance
    threshold, the rows whose best port power lies below it, counted in each
    row block by sorting its powers and a binary search."""
    hits = np.zeros(len(thresholds), dtype=np.int64)
    for best in _best_port_powers(mu, n_ports, size, np.random.default_rng([seed, idx])):
        best.sort()
        hits += np.searchsorted(best, thresholds)
    return hits


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
    return _estimates([(count_block, n_samples, seed)])[0][0]


def estimate_monitor_outages(jobs) -> list[McEstimate]:
    """estimate_monitor_outage for each (params, link, rate_point, n_ports,
    n_samples, seed) job, in job order.

    The jobs that share (seed, link.mu, n_ports, n_samples) form one group,
    which draws its blocks once and counts every member's threshold on
    them; the blocks of all groups share one pool. Each estimate is bitwise
    the one its job gets alone. Invalid job arguments raise DomainError
    before anything runs.
    """
    groups = {}  # (seed, mu, n_ports, n_samples) -> [(job index, threshold)]
    for index, (params, link, rate_point, n_ports, n_samples, seed) in enumerate(jobs):
        n_ports = check_count("n_ports", n_ports, 1, _MAX_PORTS)
        n_samples = check_count("n_samples", n_samples, 1)
        seed = check_count("seed", seed, 0)
        # the SNR threshold on the unit-variance power |g_max|^2 / sigma_g2
        g2_th = rate_point.gamma_th * params.sigma_m2 / params.p_s
        groups.setdefault((seed, link.mu, n_ports, n_samples), []).append(
            (index, g2_th / params.sigma_g2))
    estimates = _estimates([
        (functools.partial(_monitor_block_hits, mu, n_ports,
                           np.array([t for _, t in members]), seed),
         n_samples, seed)
        for (seed, mu, n_ports, n_samples), members in groups.items()])
    ordered = [None] * sum(map(len, groups.values()))
    for members, group_estimates in zip(groups.values(), estimates):
        for (index, _), est in zip(members, group_estimates):
            ordered[index] = est
    return ordered


def estimate_monitor_outage(params: SystemParams, link: DerivedLink,
                            rate_point: RatePoint, n_ports: int,
                            n_samples: int, seed: int) -> McEstimate:
    """Empirical P(log2(1 + SNR_m) < R) for the best-port monitor.

    The hits come from the best-port sampler, which reads the mixing weight
    from :mod:`fasmon.channel`, so any change to the mixing model
    propagates here but not to the quadrature route; a draw is in outage
    when all n_ports port powers lie below the threshold. n_ports = 1
    degrades to the single-antenna monitor. A group of one job.
    """
    return estimate_monitor_outages(
        [(params, link, rate_point, n_ports, n_samples, seed)])[0]


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
    n_samples, seed) job, grouped as estimate_monitor_outages groups them.

    Each estimate is bitwise the one estimate_monitoring_rate returns for
    its job. Invalid job arguments raise DomainError before anything runs.
    """
    jobs = list(jobs)
    return [_rate_estimate(outage, rate_point)
            for outage, (_, _, rate_point, *_) in zip(estimate_monitor_outages(jobs), jobs)]
