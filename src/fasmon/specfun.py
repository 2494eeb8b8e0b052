"""Self-contained special-function and quadrature kernel.

Everything here is pure float64 arithmetic with certified truncations: Bessel
functions J0, J1, the hypergeometric value 1F2(1/2; 1, 3/2; -pi^2 W^2)
needed by the spatial-correlation model, the first-order Marcum Q-function,
the principal-branch Lambert W function, and Gauss-Laguerre integration of
exp(-t)-weighted integrands on [0, inf).

No intermediate may overflow: large-argument regimes are rescaled internally
(asymptotic forms, log-space starts) rather than returned as infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, ComputationError, DomainError

_INV_E = math.exp(-1.0)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _check_nonneg(name: str, value: float) -> float:
    value = _check_finite(name, value)
    if value < 0.0:
        raise DomainError(f"{name} must be nonnegative, got {value!r}")
    return value


@dataclass(frozen=True)
class QuadratureSpec:
    """Rule for refining a Gauss-Laguerre estimate of an exp(-t)-weighted
    integral.

    node_count is the starting rule size; refinement doubles it until two
    successive estimates agree within max(abs_tol, rel_tol * |estimate|) or
    max_refinements doublings have been spent. Of the outage and rate
    functions, only monitor_outage_true takes a caller-supplied spec, and it
    honors that spec strictly (no escalation to a denser rule).
    """

    node_count: int = 64
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_refinements: int = 4

    def __post_init__(self):
        if int(self.node_count) != self.node_count or self.node_count < 8:
            raise DomainError(f"node_count must be an integer >= 8, got {self.node_count!r}")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise DomainError("tolerances must be nonnegative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise DomainError("abs_tol and rel_tol must not both be zero")
        if int(self.max_refinements) != self.max_refinements or self.max_refinements < 1:
            raise DomainError(f"max_refinements must be a positive integer, got {self.max_refinements!r}")


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------

def _bessel_j_points(order: int, z: np.ndarray, z_max: float) -> np.ndarray:
    """J_order at an array of points via the integral
    (1/2pi) int_0^{2pi} cos(order*theta - z*sin(theta)) d(theta) evaluated
    with the midpoint rule.

    The rule's error is a sum of aliased terms J_{order +- k*P}(z), which for
    P >= 1.7*z_max + 30 are below ~1e-33, so the result is correct to
    rounding for float64.
    """
    p_count = int(math.ceil(1.7 * z_max)) + 30
    theta = (np.arange(p_count) + 0.5) * (2.0 * math.pi / p_count)
    sin_t = np.sin(theta)
    out = np.empty_like(z)
    # chunk to cap the (points x angles) work matrix at ~4M doubles
    step = max(1, (1 << 22) // p_count)
    for lo in range(0, z.size, step):
        zz = z[lo:lo + step, None]
        out[lo:lo + step] = np.cos(order * theta - zz * sin_t).mean(axis=1)
    return out


def bessel_j(order: int, z: float) -> float:
    """Bessel function of the first kind, order 0 or 1.

    Absolute error <= 1e-12 on [0, 200] (in practice rounding-level, see
    _bessel_j_points).
    """
    if order not in (0, 1):
        raise DomainError(f"order must be 0 or 1, got {order!r}")
    z = _check_nonneg("z", z)
    if z == 0.0:
        return 1.0 if order == 0 else 0.0
    return float(_bessel_j_points(order, np.array([z]), z)[0])


# ---------------------------------------------------------------------------
# Hypergeometric value for the spatial correlation factor
# ---------------------------------------------------------------------------

_PANEL_NODES, _PANEL_WEIGHTS = leggauss(16)


def _integral_j0(a: float, n_panels: int) -> float:
    """int_0^a J0(u) du by 16-point Gauss-Legendre on n_panels equal panels."""
    edges = np.linspace(0.0, a, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    # nodes laid out panel-major: shape (n_panels * 16,)
    u = (centers[:, None] + half * _PANEL_NODES[None, :]).ravel()
    vals = _bessel_j_points(0, u, a)
    return float(half * (vals.reshape(n_panels, 16) @ _PANEL_WEIGHTS).sum())


def hyp1f2_half(aperture_w: float) -> float:
    """1F2(1/2; 1, 3/2; -pi^2 W^2) for W > 0.

    Computed through the identity
        1F2(1/2; 1, 3/2; -a^2/4) = (1/a) int_0^a J0(u) du,  a = 2 pi W,
    because the defining alternating series cancels catastrophically for
    large W (W = 5 already gives argument ~ -246.7). The integral is refined
    by panel doubling until two estimates agree to 1e-12.
    """
    aperture_w = _check_finite("aperture_w", aperture_w)
    if aperture_w <= 0.0:
        raise DomainError(f"aperture_w must be positive, got {aperture_w!r}")
    a = 2.0 * math.pi * aperture_w
    n_panels = max(2, int(math.ceil(a / 1.5)))
    prev = _integral_j0(a, n_panels)
    for _ in range(6):
        n_panels *= 2
        cur = _integral_j0(a, n_panels)
        if abs(cur - prev) <= 1e-12 * max(1.0, abs(cur)):
            return cur / a
        prev = cur
    raise AccuracyError(
        f"J0 integral did not settle for W={aperture_w}", cur / a, prev / a
    )


# ---------------------------------------------------------------------------
# Marcum Q-function of order 1
# ---------------------------------------------------------------------------

def _poisson_cdf(k_top: int, y: float) -> float:
    """P[Poisson(y) <= k_top]; also the regularized upper gamma Q(k_top+1, y).

    Summed outward from the modal term so no intermediate underflows.
    """
    if k_top < 0:
        return 0.0
    j_mode = min(k_top, int(y))
    log_t = -y + j_mode * math.log(y) - math.lgamma(j_mode + 1)
    t_mode = math.exp(log_t)
    total = t_mode
    t = t_mode
    for j in range(j_mode, 0, -1):  # downward
        t *= j / y
        total += t
        if t < total * 1e-18:
            break
    t = t_mode
    for j in range(j_mode + 1, k_top + 1):  # upward
        t *= y / j
        total += t
        if t < total * 1e-18:
            break
    return min(total, 1.0)


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q-function Q1(a, b), the CCDF kernel of a Rician
    magnitude.

    Evaluated as the Poisson mixture of regularized upper gamma functions
        Q1(a, b) = sum_k  pois(k; a^2/2) * Q(k+1, b^2/2),
    summed outward from the modal Poisson term. Both factors live in [0, 1],
    so truncation is certified: once the captured Poisson mass exceeds
    1 - 1e-14 the remainder is below 1e-14. Gaussian-tail early exits
    (|a - b| >= 11, error <= e^{-60.5}) skip the sum where the answer is 0 or
    1 to double precision. Absolute error <= 1e-10 on [0, 50]^2 (measured
    ~1e-14).
    """
    a = _check_nonneg("a", a)
    b = _check_nonneg("b", b)
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    if a - b >= 11.0:
        return 1.0
    if b - a >= 11.0:
        return 0.0
    lam = 0.5 * a * a
    y = 0.5 * b * b
    k0 = int(lam)
    p0 = math.exp(-lam + k0 * math.log(lam) - math.lgamma(k0 + 1))
    t0 = math.exp(-y + k0 * math.log(y) - math.lgamma(k0 + 1))
    g0 = _poisson_cdf(k0, y)

    acc = p0 * g0
    mass = p0
    # upward from the mode
    p, t, g = p0, t0, g0
    k = k0
    while mass < 1.0 - 1e-14:
        k += 1
        p *= lam / k
        t *= y / k
        g = min(g + t, 1.0)
        acc += p * g
        mass += p
        if p < 1e-18 and k > lam:
            break
    # downward from the mode
    p, t, g = p0, t0, g0
    k = k0
    while mass < 1.0 - 1e-14 and k > 0:
        p *= k / lam
        g = max(g - t, 0.0)
        t *= k / y
        k -= 1
        acc += p * g
        mass += p
        if p < 1e-18 and k < lam:
            break
    return min(max(acc, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Lambert W, principal branch
# ---------------------------------------------------------------------------

def lambert_w0(x: float) -> float:
    """Principal-branch Lambert W: the w >= -1 with w * e^w = x.

    Halley iteration from piecewise seeds (branch-point series near -1/e,
    log-based seed for large x); for x > 1e150 the iteration runs on the
    overflow-free logarithmic residual w + ln w - ln x. Relative residual
    <= 1e-12 (verified; a failed iteration raises AccuracyError).
    """
    x = _check_finite("x", x)
    if x < -_INV_E - 1e-15:
        raise DomainError(f"x must be >= -1/e, got {x!r}")
    if x < -_INV_E:
        x = -_INV_E
    if x == 0.0:
        return 0.0

    if x > 1e150:
        # Newton on f(w) = w + ln w - ln x (monotone for w > 0)
        ln_x = math.log(x)
        w = ln_x - math.log(ln_x) + math.log(ln_x) / ln_x
        for _ in range(50):
            f = w + math.log(w) - ln_x
            step = f * w / (w + 1.0)
            w -= step
            if abs(step) <= 1e-15 * w:
                break
        else:
            raise AccuracyError("Lambert W Newton failed to settle", w, w + step)
        return w

    if x < -0.25:
        p = math.sqrt(max(2.0 * (math.e * x + 1.0), 0.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
        if p < 1e-4:  # series already exact to O(p^4); Halley would divide by ~0
            return w
    elif x < 1.0:
        w = x * (1.0 - x * (1.0 - 1.5 * x))
    else:
        l1 = math.log(x)
        w = l1 - math.log(l1) + math.log(l1) / l1 if l1 > 1.0 else 0.5

    for _ in range(50):
        e_w = math.exp(w)
        r = w * e_w - x
        denom = e_w * (w + 1.0) - (w + 2.0) * r / (2.0 * w + 2.0)
        step = r / denom
        w_next = w - step
        if w_next <= -1.0:
            w_next = -1.0 + 0.5 * (w + 1.0)  # bisect toward the branch point
        if abs(w_next - w) <= 1e-15 * (1.0 + abs(w_next)):
            w = w_next
            break
        w = w_next
    residual = w * math.exp(w) - x
    if abs(residual) > 1e-12 * max(1.0, abs(x)):
        raise AccuracyError("Lambert W residual above tolerance", w, residual)
    return max(w, -1.0)


# ---------------------------------------------------------------------------
# Gauss-Laguerre integration
# ---------------------------------------------------------------------------

_LAGUERRE_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _laguerre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Laguerre rule (weight e^{-t}).

    Golub-Welsch: eigenvalues of the symmetric tridiagonal Jacobi matrix
    (diagonal 2i+1, off-diagonal i) are the nodes, squared first eigenvector
    components the weights. Stable at any practical n, unlike recurrence
    evaluation of the Laguerre polynomials themselves, which overflows near
    n = 256.
    """
    rule = _LAGUERRE_RULES.get(n)
    if rule is None:
        k = np.arange(n, dtype=float)
        jacobi = np.diag(2.0 * k + 1.0)
        off = np.arange(1.0, n)
        idx = np.arange(n - 1)
        jacobi[idx, idx + 1] = off
        jacobi[idx + 1, idx] = off
        nodes, vectors = np.linalg.eigh(jacobi)
        weights = vectors[0] ** 2
        nodes.flags.writeable = False
        weights.flags.writeable = False
        rule = (nodes, weights)
        _LAGUERRE_RULES[n] = rule
    return rule


def _apply_rule(f: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    nodes, weights = _laguerre_rule(n)
    return float(weights @ np.asarray(f(nodes), dtype=float))


def integrate_expweighted(f: Callable[[np.ndarray], np.ndarray], spec: QuadratureSpec) -> float:
    """int_0^inf e^{-t} f(t) dt for bounded f (here always f(t) in [0, 1]).

    Gauss-Laguerre with node doubling per `spec`; f takes the array of rule
    nodes and returns the integrand at each. Raises AccuracyError (carrying
    the last two estimates) if the refinement budget runs out before two
    estimates agree.
    """
    n = int(spec.node_count)
    cur = _apply_rule(f, n)
    prev = math.nan
    for _ in range(spec.max_refinements):
        prev = cur
        n *= 2
        cur = _apply_rule(f, n)
        if abs(cur - prev) <= max(spec.abs_tol, spec.rel_tol * abs(cur)):
            return cur
    raise AccuracyError(
        f"quadrature not converged after reaching {n} nodes", cur, prev
    )
