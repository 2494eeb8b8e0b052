"""Spatially correlated fluid-antenna channel model.

A monitor slides its radiating position among n_ports preset ports inside a
linear aperture of aperture_w wavelengths. Every port coefficient g_k is a
mixture of a common virtual reference g0 and an independent innovation e_k:

    g_k = mu * g0 + sqrt(1 - mu^2) * e_k,

all circularly-symmetric complex Gaussian, so each g_k keeps variance
sigma_g2 and the pairwise correlation is controlled by mu alone. The
sqrt(1 - mu^2) weight is what makes the magnitude of g_k, conditioned on g0,
exactly Rician; the Monte Carlo module and the outage integrals both rely on
it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, DomainError
from .specfun import bessel_j, hyp1f2_half

_BELOW_ONE = float(np.nextafter(1.0, 0.0))


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
                and self.n_ports >= 1):
            raise DomainError(f"n_ports must be an integer >= 1, got {self.n_ports!r}")


@dataclass(frozen=True)
class DerivedLink:
    """Quantities computed once per parameter set.

    mu: spatial correlation factor in [0, 1); eta: the bound coefficient
    (1 - mu^2) / (1 + (n_ports - 1) mu^2); gamma_cap: the monitor-side
    average SNR scale p_s * sigma_g2 / sigma_m2.
    """

    mu: float
    eta: float
    gamma_cap: float

    def __post_init__(self):
        if not (0.0 <= self.mu < 1.0):
            raise DomainError(f"mu must lie in [0, 1), got {self.mu!r}")
        if not (0.0 < self.eta <= 1.0):
            raise DomainError(f"eta must lie in (0, 1], got {self.eta!r}")
        if not self.gamma_cap > 0.0:
            raise DomainError(f"gamma_cap must be positive, got {self.gamma_cap!r}")


def correlation_mu(aperture_w: float) -> float:
    """Spatial correlation factor of the port coefficients.

        mu = sqrt(2) * sqrt( 1F2(1/2; 1, 3/2; -pi^2 W^2) - J1(2 pi W)/(2 pi W) )

    The radicand is verified to lie within [-1e-12, 1] (quadrature noise can
    push it a hair negative near its zeros); anything worse raises
    ComputationError. The result is clamped into [0, 1). Absolute accuracy is
    ~1e-12.
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
    """Compute (mu, eta, gamma_cap) for a parameter set. Deterministic."""
    mu = correlation_mu(params.aperture_w)
    return DerivedLink(
        mu=mu,
        eta=eta_factor(mu, params.n_ports),
        gamma_cap=params.p_s * params.sigma_g2 / params.sigma_m2,
    )


def _mix_weight(mu: float) -> float:
    # the innovation weight; variance bookkeeping requires sqrt(1 - mu^2)
    return math.sqrt(1.0 - mu * mu)


def _complex_normal(rng: np.random.Generator, variance: float, size) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def _sample_port_gains(mu: float, sigma_g2: float, n_ports: int, n_draws: int,
                       rng: np.random.Generator) -> np.ndarray:
    """(n_draws, n_ports) correlated port coefficients; n_ports = 1 degrades
    to plain Rayleigh draws."""
    if n_ports == 1:
        return _complex_normal(rng, sigma_g2, (n_draws, 1))
    g0 = _complex_normal(rng, sigma_g2, (n_draws, 1))
    e = _complex_normal(rng, sigma_g2, (n_draws, n_ports))
    return mu * g0 + _mix_weight(mu) * e
