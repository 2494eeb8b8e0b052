"""Spatially correlated fluid-antenna channel model.

A monitor slides its radiating position among n_ports preset ports inside a
linear aperture of aperture_w wavelengths. Every port coefficient g_k is a
mixture of a common virtual reference g0 and an independent innovation e_k:

    g_k = mu * g0 + sqrt(1 - mu^2) * e_k,

all circularly-symmetric complex Gaussian, so each g_k keeps variance
sigma_g2 and the pairwise correlation is controlled by mu alone. The
sqrt(1 - mu^2) weight is what makes the magnitude of g_k, conditioned on g0,
exactly Rician; the Monte Carlo module and the outage integrals both rely on
it. The Monte Carlo sampler draws the port powers |g_k|^2 directly, in real
arithmetic on the real and imaginary parts, one row block at a time: each
block draws its own parts and is handed out while it is in cache, so a call
holds one block's draws whatever its number of rows.
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


# Rows of port powers drawn, mixed, squared and handed out at a time: a
# block of 2048 rows and 16 ports is 256 KiB of powers, small enough to stay
# in cache while the caller reduces it, and its draws, 2048 (2 n_ports + 2)
# doubles, are all the sampler holds.
_POWER_BLOCK_ROWS = 2048


def _port_power_blocks(mu: float, sigma_g2: float, n_ports: int, n_draws: int,
                       rng: np.random.Generator):
    """Yield the (n_draws, n_ports) port powers |g_k|^2 of the correlated
    port model as consecutive row blocks of at most _POWER_BLOCK_ROWS rows.

    Each block of b rows draws its own parts from rng in one call: Re g0
    (b, 1), Im g0 (b, 1), then Re e (b, n_ports), Im e (b, n_ports), each a
    block of standard normals in row-major order; n_ports = 1 draws g0
    alone, whose power is plain exponential. The blocks draw in turn, so a
    call of at most _POWER_BLOCK_ROWS draws takes Re g0, Im g0, Re e, Im e
    over all its rows. That order is part of the Monte Carlo
    reproducibility contract. Every block draws into one flat buffer of
    min(n_draws, _POWER_BLOCK_ROWS) (2 n_ports + 2) doubles (2 per row for
    one port), and its parts are mixed and squared in place there, with no
    complex temporaries, so each yielded block is a view of that buffer: it
    is valid only until the next block is drawn.
    """
    scale = math.sqrt(sigma_g2 / 2.0)
    weight = _mix_weight(mu)
    parts = 2 if n_ports == 1 else 2 * n_ports + 2
    buffer = np.empty(min(n_draws, _POWER_BLOCK_ROWS) * parts)
    for start in range(0, n_draws, _POWER_BLOCK_ROWS):
        rows = min(_POWER_BLOCK_ROWS, n_draws - start)
        draws = buffer[:rows * parts]
        rng.standard_normal(out=draws)
        re = draws[:rows].reshape(rows, 1)
        im = draws[rows:2 * rows].reshape(rows, 1)
        re *= scale
        im *= scale
        if n_ports > 1:
            # scale first, then weight, as in mu * g0 + w * e on complex
            # CN(0, sigma_g2) draws: every real and imaginary part then
            # matches that formula bit for bit, even where the two terms
            # cancel
            re *= mu
            im *= mu
            mixed_re = draws[2 * rows:(n_ports + 2) * rows].reshape(rows, n_ports)
            mixed_im = draws[(n_ports + 2) * rows:].reshape(rows, n_ports)
            mixed_re *= scale
            mixed_im *= scale
            mixed_re *= weight
            mixed_im *= weight
            mixed_re += re
            mixed_im += im
            re, im = mixed_re, mixed_im
        re *= re
        im *= im
        re += im
        yield re
