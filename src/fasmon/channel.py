"""Spatially correlated fluid-antenna channel model.

A monitor slides its radiating position among n_ports preset ports inside a
linear aperture of aperture_w wavelengths. Every port coefficient g_k is a
mixture of a common virtual reference g0 and an independent innovation e_k:

    g_k = mu * g0 + sqrt(1 - mu^2) * e_k,

all circularly-symmetric complex Gaussian, so each g_k keeps variance
sigma_g2 and the pairwise correlation is controlled by mu alone. The
sqrt(1 - mu^2) weight is what makes the magnitude of g_k, conditioned on g0,
exactly Rician; the Monte Carlo module and the outage integrals both rely on
it. The Monte Carlo counter computes the port powers |g_k|^2 in real
arithmetic on the real and imaginary parts, one row block and one port at a
time, and draws port k only for the rows whose ports so far are all below
the outage threshold: no other row can be in outage. A call holds a few
arrays of one row block's length, whatever the number of rows and ports.
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


# Rows per block of the screened best-port counter. Timed on 2^17-draw
# blocks at 8 ports (one thread, median of 7), blocks of 4096 rows took 18%
# longer than 12288 and 8192 7% longer, paying numpy's per-call cost on the
# few rows still live at the last ports, while 16384 and 32768 were no
# faster; each 4096 rows add 128 KiB to the counter's two arrays of
# 2 _SCREEN_ROWS doubles, 384 KiB here, whatever the port count.
_SCREEN_ROWS = 12288


def _powers(parts: np.ndarray) -> np.ndarray:
    """|z|^2 of the m complex numbers whose real parts are parts[:m] and
    imaginary parts parts[m:], computed in place: a view of parts[:m]."""
    m = parts.size // 2
    parts *= parts
    return np.add(parts[:m], parts[m:], out=parts[:m])


def _port_powers(parts: np.ndarray, base: np.ndarray, scale: float,
                 weight: float) -> np.ndarray:
    """The powers |g_k|^2 of one port over m rows, computed in place.

    parts holds 2m standard normals, Re e_k of the rows then Im e_k; base
    holds the rows' mu g0, scaled, in the same layout. Scaling first, then
    weighting, as in mu * g0 + w * e on complex CN(0, sigma_g2) draws, gives
    every real and imaginary part of that formula bit for bit, even where
    the two terms cancel.
    """
    parts *= scale
    parts *= weight
    parts += base
    return _powers(parts)


def _outage_hits(mu: float, sigma_g2: float, n_ports: int, g2_th: float,
                 n_draws: int, rng: np.random.Generator) -> int:
    """The number of n_draws rows of the correlated port model in best-port
    outage: every port power |g_k|^2, k = 1..n_ports, below g2_th.

    The rows go in consecutive blocks of at most _SCREEN_ROWS. A block of b
    rows draws Re g0 then Im g0, b each, in one call; with n_ports = 1 its
    hits are the rows whose |g0|^2, plain exponential, is below g2_th.
    Otherwise it screens: the live rows are those whose ports so far are
    all below g2_th, and for each port k in turn it draws Re e_k then Im e_k
    for its m live rows in one call of 2m normals and keeps the rows whose
    |g_k|^2 is below g2_th, stopping once no row is live. Its hits are the
    rows live after the last port. Each row's hit is the one a draw of every
    port would give, since a port at or above g2_th ends the row's outage
    whatever the later ports are; those are simply not drawn. This draw
    order is part of the Monte Carlo reproducibility contract. The mixing
    weight is _mix_weight(mu), read at call time.
    """
    scale = math.sqrt(sigma_g2 / 2.0)
    weight = _mix_weight(mu)
    size = 2 * min(n_draws, _SCREEN_ROWS)
    # the live rows' mu g0 parts and one port's draws; the kept rows are
    # gathered into the draws' buffer, and the two then trade places
    live, parts = np.empty(size), np.empty(size)
    hits = 0
    for start in range(0, n_draws, _SCREEN_ROWS):
        m = min(_SCREEN_ROWS, n_draws - start)
        g0 = live[:2 * m]
        rng.standard_normal(out=g0)
        g0 *= scale
        if n_ports == 1:
            hits += int(np.count_nonzero(_powers(g0) < g2_th))
            continue
        g0 *= mu
        for _ in range(n_ports):
            draws = parts[:2 * m]
            rng.standard_normal(out=draws)
            kept = np.flatnonzero(_port_powers(draws, live[:2 * m], scale, weight) < g2_th)
            # mode="clip" spares the copy of out that mode="raise" makes;
            # flatnonzero's indices are all in range
            np.take(live[:2 * m].reshape(2, m), kept, axis=1, mode="clip",
                    out=parts[:2 * kept.size].reshape(2, kept.size))
            live, parts = parts, live
            m = kept.size
            if m == 0:
                break
        hits += m
    return hits
