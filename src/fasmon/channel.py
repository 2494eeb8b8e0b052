"""Spatially correlated fluid-antenna channel model.

A monitor slides its radiating position among n_ports preset ports inside a
linear aperture of aperture_w wavelengths. Every port coefficient g_k is a
mixture of a common virtual reference g0 and an independent innovation e_k:

    g_k = mu * g0 + sqrt(1 - mu^2) * e_k,

all circularly-symmetric complex Gaussian, so each g_k keeps variance
sigma_g2 and the pairwise correlation is controlled by mu alone. The
sqrt(1 - mu^2) weight is what makes the magnitude of g_k, conditioned on g0,
exactly Rician; the Monte Carlo module and the outage integrals both rely on
it. The Monte Carlo counter draws the model in polar form, in the frame
where mu g0 is real: one exponential for |g0|^2 per row and one for |e_k|^2
per port, and an angle, from a pair of normals, only where the two
magnitudes leave a port's outage open. It draws port k only for the rows
whose ports so far are all below the outage threshold, since no other row
can be in outage, one row block at a time, and holds four arrays of one row
block's length, whatever the number of rows and ports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, check_count, check_real
from .specfun import bessel_j, hyp1f2_half

_BELOW_ONE = float(np.nextafter(1.0, 0.0))
# the largest port count any entry point accepts: the exact outage raises to
# the power N in int64, and the Monte Carlo sampler's array shapes are int64
_MAX_PORTS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SystemParams:
    """All physical inputs, in linear units.

    p_s: source transmit power; p_m_max: jamming power cap; sigma_h2,
    sigma_g2, sigma_f2: channel variances (source->destination,
    source->monitor, monitor->destination); sigma_d2, sigma_m2: noise powers
    at the destination and at the monitor; delta: target destination outage
    in (0, 1); n_ports: number of selectable ports (1 only for the
    conventional single-antenna baseline); aperture_w: aperture size in
    wavelengths. A field that is not finite, or is a bool, raises
    DomainError; n_ports may be 8.0 or a numpy integer, not 8.5.
    """

    p_s: float
    p_m_max: float
    sigma_h2: float
    sigma_g2: float
    sigma_f2: float
    sigma_d2: float
    sigma_m2: float
    delta: float
    n_ports: int
    aperture_w: float

    def __post_init__(self):
        for name in ("p_s", "p_m_max", "sigma_h2", "sigma_g2", "sigma_f2",
                     "sigma_d2", "sigma_m2", "aperture_w"):
            check_real(name, getattr(self, name), "positive", lambda v: v > 0.0)
        check_real("delta", self.delta, "in (0, 1)", lambda v: 0.0 < v < 1.0)
        check_count("n_ports", self.n_ports, 1, _MAX_PORTS)


@dataclass(frozen=True)
class DerivedLink:
    """Quantities computed once per parameter set.

    mu: spatial correlation factor in [0, 1); gamma_cap: the monitor-side
    average SNR scale p_s * sigma_g2 / sigma_m2. Neither depends on the
    port count, so one link serves every N (the bound coefficient is
    eta_factor(mu, N), computed where it is used).
    """

    mu: float
    gamma_cap: float

    def __post_init__(self):
        check_real("mu", self.mu, "in [0, 1)", lambda v: 0.0 <= v < 1.0)
        check_real("gamma_cap", self.gamma_cap, "positive", lambda v: v > 0.0)


def correlation_mu(aperture_w: float) -> float:
    """Spatial correlation factor of the port coefficients.

        mu = sqrt(2) * sqrt( 1F2(1/2; 1, 3/2; -pi^2 W^2) - J1(2 pi W)/(2 pi W) )

    The 1F2 value is hyp1f2_half's midpoint rule over the swapped integral
    (1/(2 pi a)) int_0^{2pi} sin(a sin t)/sin t dt, a = 2 pi W, so a call
    costs O(W) work, up to the limit W <= 1e4 above which hyp1f2_half
    raises DomainError. The radicand is verified to lie within [-1e-12, 1]
    (quadrature noise can push it a hair negative near its zeros); anything
    worse raises ComputationError. The result is clamped into [0, 1).
    Absolute accuracy is ~1e-12 by design; against 40-digit references it is
    within 2.5e-14 at W from 1e-3 to 1e4.
    """
    aperture_w = check_real("aperture_w", aperture_w, "positive", lambda v: v > 0.0)
    a = 2.0 * math.pi * aperture_w
    radicand = hyp1f2_half(aperture_w) - bessel_j(1, a) / a
    if radicand < -1e-12 or radicand > 1.0 + 1e-12:
        raise ComputationError(
            f"correlation radicand {radicand!r} out of range for W={aperture_w}"
        )
    mu = math.sqrt(2.0 * max(radicand, 0.0))
    return min(mu, _BELOW_ONE)


def eta_factor(mu: float, n_ports: int) -> float:
    """(1 - mu^2) / (1 + (n_ports - 1) mu^2), the outage-bound coefficient."""
    return (1.0 - mu * mu) / (1.0 + (n_ports - 1) * mu * mu)


def derive_link(params: SystemParams) -> DerivedLink:
    """Compute (mu, gamma_cap) for a parameter set. Deterministic."""
    return link_for_mu(params, correlation_mu(params.aperture_w))


def link_for_mu(params: SystemParams, mu: float) -> DerivedLink:
    """The link of a parameter set whose correlation factor,
    correlation_mu(params.aperture_w), is already known: a run computes mu
    once per distinct aperture and builds each point's link from it."""
    return DerivedLink(mu=mu, gamma_cap=params.p_s * params.sigma_g2 / params.sigma_m2)


def _mix_weight(mu: float) -> float:
    # the innovation weight; variance bookkeeping requires sqrt(1 - mu^2)
    return math.sqrt(1.0 - mu * mu)


# Rows per block of the screened best-port counter, which holds four
# arrays of _SCREEN_ROWS doubles, 384 KiB here, whatever the port count.
# Timed on fig1's Monte Carlo jobs (8 ports, one thread, best of 11),
# blocks of 4096 rows took 32% longer than 12288 and 8192 5% longer, paying
# numpy's per-call cost on the few rows still live at the last ports, while
# 16384 was no faster; 24576 was 7% faster at twice the memory.
_SCREEN_ROWS = 12288


def _outage_hits(mu: float, sigma_g2: float, n_ports: int, g2_th: float,
                 n_draws: int, rng: np.random.Generator) -> int:
    """The number of n_draws rows of the correlated port model in best-port
    outage: every port power |g_k|^2, k = 1..n_ports, below g2_th.

    The model is rotation-invariant, so each row is drawn in the frame where
    mu g0 is real, in polar form: a = mu sqrt(sigma_g2 E0) and, at port k,
    g_k = a + r e^{i phi} with r = w sqrt(sigma_g2 E_k), w = _mix_weight(mu)
    (read at call time), the E standard exponentials and phi uniform and
    independent of E_k. Then |g_k|^2 = (a - r)^2 + 4 a r cos^2(phi / 2),
    which is below g2_th whatever phi is where a + r < sqrt(g2_th), and at
    or above it where |a - r| >= sqrt(g2_th); only the rows in between need
    an angle. Its cos^2(phi / 2) is x^2 / (x^2 + y^2) for a standard normal
    pair (x, y), whose angle phi / 2 is uniform, so phi is too.

    The rows go in consecutive blocks of at most _SCREEN_ROWS. A block of b
    rows draws E0 for its rows in one call; with n_ports = 1 its hits are
    the rows whose sigma_g2 E0, plain exponential |g0|^2, is below g2_th.
    Otherwise it screens: the live rows are those whose ports so far are
    all below g2_th, and for each port k in turn it draws E_k for its m live
    rows in one call, then, for the u of them that the magnitudes leave
    undecided, the x then the y of their normal pairs in one call of 2u
    normals, and keeps the rows whose port is below g2_th, stopping once no
    row is live. Its hits are the rows live after the last port. A port at
    or above g2_th ends its row's outage whatever the later ports are, so
    those are simply not drawn, nor is an angle that cannot change a row's
    count. This draw order is part of the Monte Carlo reproducibility
    contract. The draws take only the generator and the correctly rounded
    sqrt, abs, multiply, add, divide and compare.
    """
    s = math.sqrt(g2_th)
    a_scale = mu * math.sqrt(sigma_g2)
    r_scale = _mix_weight(mu) * math.sqrt(sigma_g2)
    size = min(n_draws, _SCREEN_ROWS)
    # the live rows' a, and a second array that is a port's scratch until it
    # takes the kept rows' a, the two trading places at every port; one
    # port's r, whose buffer then takes the normal pairs; and the live rows'
    # masks: may stay live, and needs an angle
    live, spare, pairs = np.empty(size), np.empty(size), np.empty(2 * size)
    keep_buf, open_buf = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    hits = 0
    for start in range(0, n_draws, _SCREEN_ROWS):
        m = min(_SCREEN_ROWS, n_draws - start)
        a = live[:m]
        rng.standard_exponential(out=a)
        if n_ports == 1:
            a *= sigma_g2
            hits += int(np.count_nonzero(a < g2_th))
            continue
        np.sqrt(a, out=a)
        a *= a_scale
        for _ in range(n_ports):
            a, r, work = live[:m], pairs[:m], spare[:m]
            keep, needs_angle = keep_buf[:m], open_buf[:m]
            rng.standard_exponential(out=r)
            np.sqrt(r, out=r)
            r *= r_scale
            np.subtract(a, r, out=work)
            np.abs(work, out=work)
            np.less(work, s, out=keep)
            np.add(a, r, out=work)
            np.greater_equal(work, s, out=needs_angle)
            needs_angle &= keep
            open_rows = np.flatnonzero(needs_angle)
            u = open_rows.size
            if u:
                # mode="clip" spares the copy of out that mode="raise"
                # makes; flatnonzero's indices are all in range
                r_open = np.take(r, open_rows, mode="clip", out=spare[:u])
                xy = pairs[:2 * u]
                rng.standard_normal(out=xy)
                x, y = xy[:u], xy[u:]
                x *= x
                y *= y
                y += x
                x /= y  # cos^2(phi / 2)
                x *= r_open
                a_open = np.take(a, open_rows, mode="clip", out=y)
                x *= a_open
                x *= 4.0
                a_open -= r_open
                a_open *= a_open
                a_open += x  # |g_k|^2
                np.less(a_open, g2_th, out=needs_angle[:u])
                keep[open_rows] = needs_angle[:u]
            kept = np.flatnonzero(keep)
            np.take(a, kept, mode="clip", out=spare[:kept.size])
            live, spare = spare, live
            m = kept.size
            if m == 0:
                break
        hits += m
    return hits
