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
arithmetic on the real and imaginary parts, and hands them out in row blocks
small enough to reduce while they are in cache.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, DomainError
from .specfun import bessel_j, hyp1f2_half

_BELOW_ONE = float(np.nextafter(1.0, 0.0))
# the largest port count: the exact outage and the Monte Carlo sampler hold
# port counts in int64
_MAX_PORTS = int(np.iinfo(np.int64).max)


def _is_finite_real(value) -> bool:
    # bool is an int subclass but never a physical quantity
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class SystemParams:
    """All physical inputs, in linear units.

    p_s: source transmit power; p_m_max: jamming power cap; sigma_h2,
    sigma_g2, sigma_f2: channel variances (source->destination,
    source->monitor, monitor->destination); sigma_d2, sigma_m2: noise powers
    at the destination and at the monitor; delta: target destination outage
    in (0, 1); n_ports: number of selectable ports (1 only for the
    conventional single-antenna baseline); aperture_w: aperture size in
    wavelengths.
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
            value = getattr(self, name)
            if not (_is_finite_real(value) and value > 0):
                raise DomainError(f"{name} must be a positive finite number, got {value!r}")
        if not (_is_finite_real(self.delta) and 0.0 < self.delta < 1.0):
            raise DomainError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not (_is_finite_real(self.n_ports) and int(self.n_ports) == self.n_ports
                and 1 <= self.n_ports <= _MAX_PORTS):
            raise DomainError(
                f"n_ports must be an integer in [1, {_MAX_PORTS}], got {self.n_ports!r}")


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
        if not (0.0 <= self.mu < 1.0):
            raise DomainError(f"mu must lie in [0, 1), got {self.mu!r}")
        if not self.gamma_cap > 0.0:
            raise DomainError(f"gamma_cap must be positive, got {self.gamma_cap!r}")


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
    aperture_w = float(aperture_w)
    if not (math.isfinite(aperture_w) and aperture_w > 0.0):
        raise DomainError(f"aperture_w must be positive and finite, got {aperture_w!r}")
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


# Rows of port powers mixed, squared and handed out at a time: a block of
# 2048 rows and 16 ports is 256 KiB, small enough to stay in cache while the
# caller reduces it.
_POWER_BLOCK_ROWS = 2048


def _port_power_blocks(mu: float, sigma_g2: float, n_ports: int, n_draws: int,
                       rng: np.random.Generator):
    """Yield the (n_draws, n_ports) port powers |g_k|^2 of the correlated
    port model as consecutive row blocks of at most _POWER_BLOCK_ROWS rows.

    rng is consumed as Re g0 (n_draws, 1), Im g0 (n_draws, 1),
    then Re e (n_draws, n_ports), Im e (n_draws, n_ports), each a block of
    standard normals in row-major order; n_ports = 1 draws g0 alone, whose
    power is plain exponential. That order is part of the Monte Carlo
    reproducibility contract. Re e is drawn in one call, because Im e
    follows all of it in the stream; Im e is drawn a row block at a time
    into one reused buffer, which continues the same stream, so the blocks
    concatenate to exactly the powers of the full-matrix draw. The parts are
    mixed and squared in place in the drawn real buffers, with no complex
    temporaries, so each block is a view of the Re e buffer (of Re g0 for
    one port) and the blocks do not overlap.
    """
    scale = math.sqrt(sigma_g2 / 2.0)
    re = rng.standard_normal((n_draws, 1))
    im = rng.standard_normal((n_draws, 1))
    re *= scale
    im *= scale
    if n_ports > 1:
        # scale first, then weight, as in mu * g0 + w * e on complex
        # CN(0, sigma_g2) draws: every real and imaginary part then matches
        # that formula bit for bit, even where the two terms cancel
        re *= mu
        im *= mu
        weight = _mix_weight(mu)
        e_re = rng.standard_normal((n_draws, n_ports))
        e_im = np.empty((min(n_draws, _POWER_BLOCK_ROWS), n_ports))
    for start in range(0, n_draws, _POWER_BLOCK_ROWS):
        stop = min(start + _POWER_BLOCK_ROWS, n_draws)
        block_re = re[start:stop]
        block_im = im[start:stop]
        if n_ports > 1:
            mixed_re = e_re[start:stop]
            mixed_im = e_im[:stop - start]
            rng.standard_normal(out=mixed_im)
            mixed_re *= scale
            mixed_im *= scale
            mixed_re *= weight
            mixed_im *= weight
            mixed_re += block_re
            mixed_im += block_im
            block_re, block_im = mixed_re, mixed_im
        block_re *= block_re
        block_im *= block_im
        block_re += block_im
        yield block_re
