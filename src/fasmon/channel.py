"""Spatially correlated fluid-antenna channel model.

A monitor slides its radiating position among n_ports preset ports inside a
linear aperture of aperture_w wavelengths. Every port coefficient g_k is a
mixture of a common virtual reference g0 and an independent innovation e_k:

    g_k = mu * g0 + sqrt(1 - mu^2) * e_k,

all circularly-symmetric complex Gaussian, so each g_k keeps variance
sigma_g2 and the pairwise correlation is controlled by mu alone. The
sqrt(1 - mu^2) weight is what makes the magnitude of g_k, conditioned on g0,
exactly Rician; the Monte Carlo module and the outage integrals both rely on
it. The Monte Carlo sampler (:func:`fasmon.mcsim._best_port_powers`) draws
the model in polar form, in the frame where mu g0 is real, and reads the
mixing weight from this module at call time.
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
