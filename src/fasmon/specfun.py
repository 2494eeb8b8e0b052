"""Self-contained special-function and quadrature kernel.

Everything here is pure float64 arithmetic with certified truncations: Bessel
functions J0, J1, the hypergeometric value 1F2(1/2; 1, 3/2; -pi^2 W^2)
needed by the spatial-correlation model, the first-order Marcum Q-function,
the principal-branch Lambert W function, and Gauss-Laguerre integration of
exp(-t)-weighted integrands on [0, inf).

The Marcum Q-function and the quadrature take arrays: marcum_q1 evaluates a
whole grid of (a, b) values as one windowed matrix product, and
integrate_expweighted settles a block of integrals at once, each keeping the
estimate of its own first agreeing rule pair. Either way, a value is the same
whether computed alone or in a block.

No intermediate may overflow: large-argument regimes are rescaled internally
(asymptotic forms, log-space starts, saddle-point Poisson weights) rather
than returned as infinities.
"""

from __future__ import annotations

import math
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

# |a - b| at which Q1 is 0 or 1 to double precision (error <= e^{-60.5})
_MARCUM_EXIT_GAP = 11.0
# Poisson(lam) keeps all but <= 1e-15 of its mass on
# [lam - 8.4 sqrt(lam), lam + 8.4 sqrt(lam) + 12]: each excluded tail is below
# e^{-35.2} by the Chernoff bound P[X beyond k] <= exp(-lam h(k/lam)),
# h(u) = u ln u - u + 1
_POISSON_SIGMAS = 8.4
_POISSON_PAD = 12.0
_MASS_TOL = 1e-14

# ln k! - (k + 1/2) ln k + k - ln(2 pi)/2 for k = 1..15
_STIRLERR_SMALL = np.array([
    math.nan, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _nonneg_array(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    bad = arr[~(np.isfinite(arr) & (arr >= 0.0))]
    if bad.size:
        raise DomainError(f"{name} must be finite and nonnegative, got {bad[0]!r}")
    return arr


def _poisson_window(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer bounds [lo, hi] holding all but <= 1e-15 of the Poisson(lam)
    mass, elementwise. Both bounds are nondecreasing in lam."""
    half = _POISSON_SIGMAS * np.sqrt(lam)
    lo = np.maximum(np.floor(lam - half), 0.0).astype(np.int64)
    hi = np.ceil(lam + half + _POISSON_PAD).astype(np.int64)
    return lo, hi


def _poisson_pmf(k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Poisson probabilities pois(k; lam), broadcast over integer k >= 0 and
    lam > 0.

    Loader's saddle-point form
        pois(k; lam) = exp(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k),
        bd0 = k ln(k/lam) + lam - k = k log1p((k - lam)/lam) - (k - lam),
    keeps the log error near eps |k - lam| where the direct
    -lam + k ln lam - ln k! would lose eps * lam ln lam to cancellation.
    """
    k = np.asarray(k, dtype=float)
    kk = np.maximum(k, 1.0)
    k2 = kk * kk
    series = (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0
              - 1.0 / (1188.0 * k2)) / k2) / k2) / k2) / kk
    stirlerr = np.where(kk <= 15.0, _STIRLERR_SMALL[np.minimum(kk, 15.0).astype(np.int64)],
                        series)
    dev = kk - lam
    bd0 = kk * np.log1p(dev / lam) - dev
    log_p = np.where(k == 0.0, -lam, -stirlerr - bd0 - _HALF_LOG_2PI - 0.5 * np.log(kk))
    return np.exp(log_p)


def _column_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right, one column of right at a time.

    BLAS takes a matrix-vector kernel for one column and a matrix-matrix
    kernel for several, and the two round differently; a stack of
    matrix-vector products makes every column's value independent of how many
    columns are computed with it.
    """
    cols = np.ascontiguousarray(right.T)[:, :, None]
    return np.matmul(np.ascontiguousarray(left), cols)[:, :, 0].T


def _marcum_q1_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Q1(a_i, b_j) on the outer grid of sorted distinct a and b values.

    Column j depends only on b_j and a, whatever the other b values are: the
    exits are elementwise, the window (active rows and their k range) follows
    from b_j and a, the gamma columns are summed from each column's own start,
    and the products run column by column.
    """
    lam = 0.5 * a * a
    y = 0.5 * b * b
    gap = a[:, None] - b[None, :]
    out = np.where(gap >= _MARCUM_EXIT_GAP, 1.0, 0.0)
    # a = 0 (or lam underflowing to 0): Q1 = e^{-y}; b = 0 (or y underflowing
    # to 0): Q1 = 1, which takes precedence
    lam_zero = lam == 0.0
    out[lam_zero, :] = np.exp(-y)[None, :]
    out[:, y == 0.0] = 1.0

    # active rows of column j: the contiguous run with |a - b_j| < 11 and
    # lam > 0 (a is sorted, so a - b_j is nondecreasing down the column)
    first = np.maximum(np.count_nonzero(gap <= -_MARCUM_EXIT_GAP, axis=0),
                       np.count_nonzero(lam_zero))
    stop = a.size - np.count_nonzero(gap >= _MARCUM_EXIT_GAP, axis=0)
    live = (y > 0.0) & (first < stop)
    if not np.any(live):
        return out
    k_lo, k_hi = _poisson_window(lam)
    y_lo, _ = _poisson_window(y)

    # runs of columns sharing a window (first and stop are nondecreasing in b)
    live_cols = np.flatnonzero(live)
    edges = np.flatnonzero(np.diff(first[live_cols]) | np.diff(stop[live_cols])) + 1
    for cols in np.split(live_cols, edges):
        r0, r1 = int(first[cols[0]]), int(stop[cols[0]])
        # the k range holding every active row's Poisson mass
        k0, k1 = int(k_lo[r0]), int(k_hi[r1 - 1])
        weights = _poisson_pmf(np.arange(k0, k1 + 1)[None, :], lam[r0:r1, None])
        mass = weights.sum(axis=1)
        if mass.min() < 1.0 - _MASS_TOL:
            raise ComputationError(
                f"Marcum Q1 captured Poisson mass {mass.min()!r} below 1 - {_MASS_TOL}")
        # regularized upper gamma Q(k+1, y) = P[Poisson(y) <= k], summed from
        # the start of each column's own Poisson(y) window
        starts = y_lo[cols]
        s0 = min(k0, int(starts.min()))
        ks = np.arange(s0, k1 + 1)[:, None]
        terms = np.where(ks >= starts[None, :], _poisson_pmf(ks, y[None, cols]), 0.0)
        gammas = np.minimum(np.cumsum(terms, axis=0)[k0 - s0:], 1.0)
        out[r0:r1, cols] = np.clip(_column_products(weights, gammas), 0.0, 1.0)
    return out


def marcum_q1(a, b):
    """First-order Marcum Q-function Q1(a, b), the CCDF kernel of a Rician
    magnitude, elementwise over broadcast arrays a, b >= 0 (a float when both
    are scalars).

    Evaluated as the Poisson mixture of regularized upper gamma functions
        Q1(a, b) = sum_k  pois(k; a^2/2) * Q(k+1, b^2/2),
    i.e. as the product of a matrix of Poisson-weight rows, one per distinct a,
    with a matrix of Q(k+1, y) columns, one per distinct b. An outer grid
    (a[:, None] against b[None, :]) takes one such product; other pairings take
    one per distinct b. Exact exits need no sum: Q1 = 1 at b = 0, e^{-b^2/2} at
    a = 0 (also where b^2/2 or a^2/2 underflows to 0), and 1 or 0 once
    |a - b| >= 11 (error <= e^{-60.5}). Each column sums only over a window: the
    rows with |a - b| < 11 and the k range holding their Poisson mass. Both
    factors live in [0, 1], so truncation is certified: every row's captured
    Poisson mass is checked to be >= 1 - 1e-14 (ComputationError otherwise).
    The values at one b depend only on that b and on the a values paired with
    it, never on the other b values. Absolute error <= 1e-10 (measured ~1e-14
    on [0, 50]^2).
    """
    a_arr = _nonneg_array("a", a)
    b_arr = _nonneg_array("b", b)
    try:
        shape = np.broadcast_shapes(a_arr.shape, b_arr.shape)
    except ValueError:
        raise DomainError(f"a and b do not broadcast: shapes {a_arr.shape} "
                          f"and {b_arr.shape}") from None
    a_dims = (1,) * (len(shape) - a_arr.ndim) + a_arr.shape
    b_dims = (1,) * (len(shape) - b_arr.ndim) + b_arr.shape
    if all(m == 1 or n == 1 for m, n in zip(a_dims, b_dims)):  # an outer grid
        a_vals, a_idx = np.unique(a_arr, return_inverse=True)
        b_vals, b_idx = np.unique(b_arr, return_inverse=True)
        out = _marcum_q1_grid(a_vals, b_vals)[a_idx.reshape(a_arr.shape),
                                              b_idx.reshape(b_arr.shape)]
        return float(out) if out.ndim == 0 else out
    a_flat = np.broadcast_to(a_arr, shape).ravel()
    b_flat = np.broadcast_to(b_arr, shape).ravel()
    order = np.argsort(b_flat, kind="stable")
    out = np.empty(b_flat.size)
    for cell in np.split(order, np.flatnonzero(np.diff(b_flat[order])) + 1):
        a_vals, a_idx = np.unique(a_flat[cell], return_inverse=True)
        out[cell] = _marcum_q1_grid(a_vals, b_flat[cell[:1]])[a_idx.ravel(), 0]
    return out.reshape(shape)


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

# The refinement ladder: near-unit port correlation with many ports sharpens
# the best-port integrand enough to need the 2048-node rule.
_QUAD_START_NODES = 64
_QUAD_MAX_NODES = 2048
_QUAD_ABS_TOL = 1e-10
_QUAD_REL_TOL = 1e-9

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


def _apply_rule(f: Callable[[np.ndarray], np.ndarray], n: int) -> tuple[np.ndarray, bool]:
    """The n-node estimates of every integral f carries, as a vector, and
    whether f returned a single integrand (shape (n,))."""
    nodes, weights = _laguerre_rule(n)
    values = np.asarray(f(nodes), dtype=float)
    single = values.ndim == 1
    return _column_products(weights[None, :], values[:, None] if single else values)[0], single


def integrate_expweighted(f: Callable[[np.ndarray], np.ndarray]) -> float | np.ndarray:
    """int_0^inf e^{-t} f(t) dt for bounded f (here always f(t) in [0, 1]).

    f takes the array of rule nodes and returns the integrand at each, either
    as shape (n,) for one integral (a float is returned) or as shape (n, m)
    for m integrals at once (an array of m values is returned). Gauss-Laguerre
    on one ladder of rules, 64 nodes doubled up to 2048: each integral keeps
    the estimate of its own first two successive rules agreeing within
    max(1e-10, 1e-9 * |estimate|), so it gets the same value alone as among
    others. Raises AccuracyError (carrying the last two estimates of the first
    unsettled integral) if any integral reaches the 2048-node rule without
    agreement.
    """
    n = _QUAD_START_NODES
    cur, single = _apply_rule(f, n)
    result = np.full_like(cur, math.nan)
    settled = np.zeros(cur.shape, dtype=bool)
    while n < _QUAD_MAX_NODES:
        prev = cur
        n *= 2
        cur, _ = _apply_rule(f, n)
        agree = ~settled & (np.abs(cur - prev)
                            <= np.maximum(_QUAD_ABS_TOL, _QUAD_REL_TOL * np.abs(cur)))
        result[agree] = cur[agree]
        settled |= agree
        if settled.all():
            return float(result[0]) if single else result
    j = int(np.argmin(settled))
    raise AccuracyError(
        f"quadrature not converged after reaching {n} nodes", float(cur[j]), float(prev[j])
    )
