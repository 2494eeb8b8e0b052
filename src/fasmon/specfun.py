"""Self-contained special-function and quadrature kernel.

Everything here is pure float64 arithmetic with certified truncations: Bessel
functions J0, J1, the hypergeometric value 1F2(1/2; 1, 3/2; -pi^2 W^2)
needed by the spatial-correlation model, the first-order Marcum Q-function,
the principal-branch Lambert W function, and integration of exp(-t)-weighted
integrands on [0, inf) by Gauss-Kronrod panels in u = sqrt(t).

J0, J1 and the 1F2 value are each one midpoint rule over a period, in O(z)
work: J_n by Bessel's integral, 1F2 by the same integral with its two
integrations swapped (see hyp1f2_half). Arguments are limited to
z = 2 pi W <= 2 pi * 1e4; beyond that they raise DomainError.

The Marcum Q-function and the quadrature take arrays: marcum_q1 evaluates a
whole grid of (a, b) values as windowed matrix products, each matrix capped
in size, and integrate_expweighted settles a block of integrals at once on a
fixed lattice of panels, each integral keeping the estimate of the panel
width at which it settled. Either way, a value is the same whether computed
alone or in a block. marcum_q1 splits its rows into chunks fixed by the a
values alone, each chunk's Poisson weights one work-cap matrix, and every
run of columns reads its rows' weights as a view of their chunk. The
outage integrand repeats its a values on every call for a given aperture,
so each chunk is computed once and kept, read-only, in a
least-recently-used cache of 4 MiB keyed by the chunk's a^2/2 values and k
range; a hit returns the array the same computation made, so no value
depends on the cache.

Fixed Gauss-Laguerre rules integrate the same integrals in t by a separate
route, as the reference that fasmon validate checks the panels against.
They are built on first use, in O(n^2) time and O(n) memory: asymptotic
guesses of the zeros of L_n, refined all at once by Halley passes of the
rescaled three-term recurrence, with the Christoffel weights taken from the
same passes.

No intermediate may overflow: large-argument regimes are rescaled internally
(asymptotic forms, log-space starts, saddle-point Poisson weights, the
power-of-two rescaling of the Laguerre recurrence) rather than returned as
infinities.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable

import numpy as np

from .errors import (AccuracyError, ComputationError, DomainError,
                     check_count, check_nonneg_array, check_real)

_INV_E = math.exp(-1.0)


# ---------------------------------------------------------------------------
# Bessel functions and the hypergeometric value of the correlation factor
# ---------------------------------------------------------------------------

# the midpoint rules' argument limit z <= 2 pi * 1e4, that is aperture W <= 1e4
_Z_MAX = 2.0 * math.pi * 1e4


def _midpoint_angles(z: float, what: str) -> np.ndarray:
    """The P = ceil(1.7 z) + 30 midpoint angles (j + 1/2) 2 pi / P of the
    rules for argument z; `what` names z in the DomainError above the limit.

    A rule's error is a sum of aliased Fourier terms, J_{n +- kP}(z) for
    Bessel's integral and 2 int_0^z J_{kP}(u) du for the swapped 1F2
    integral, which for this P are below ~1e-33 (times z), so the result is
    correct to rounding for float64.
    """
    if z > _Z_MAX:
        raise DomainError(f"{what} is above the limit W <= 1e4 "
                          f"(z = 2 pi W <= {_Z_MAX:.7g}) of the midpoint rules")
    p_count = int(math.ceil(1.7 * z)) + 30
    return (np.arange(p_count) + 0.5) * (2.0 * math.pi / p_count)


def bessel_j(order: int, z: float) -> float:
    """Bessel function of the first kind, order 0 or 1, for 0 <= z <= 2 pi * 1e4.

    The midpoint rule of (1/2pi) int_0^{2pi} cos(order*theta - z*sin(theta))
    d(theta); absolute error <= 1e-12 on [0, 200] (in practice
    rounding-level, see _midpoint_angles). Larger z raises DomainError.
    """
    order = check_count("order", order, 0, 1)
    z = check_real("z", z, "nonnegative", lambda v: v >= 0.0)
    if z == 0.0:
        return 1.0 if order == 0 else 0.0
    theta = _midpoint_angles(z, f"z = {z!r}")
    return float(np.cos(order * theta - z * np.sin(theta)).mean())


def hyp1f2_half(aperture_w: float) -> float:
    """1F2(1/2; 1, 3/2; -pi^2 W^2) for 0 < W <= 1e4.

    The defining alternating series cancels catastrophically for large W
    (W = 5 already gives argument ~ -246.7), so the value is taken from
        1F2(1/2; 1, 3/2; -a^2/4) = (1/a) int_0^a J0(u) du,  a = 2 pi W.
    Putting J0(u) = (1/2pi) int_0^{2pi} cos(u sin t) dt and integrating over
    u first gives
        (1/a) int_0^a J0(u) du = (1/(2 pi a)) int_0^{2pi} sin(a sin t)/sin t dt,
    whose integrand is periodic and entire, so bessel_j's midpoint rule with
    the same angles computes it in O(W) work. The integrand reaches a while
    the integral is of order 1, so the relative rounding error grows with a:
    against 40-digit references it is 7e-16 at W = 5, 2.5e-13 at W = 500 and
    7e-12 at W = 1e4. W above 1e4 raises DomainError.
    """
    aperture_w = check_real("aperture_w", aperture_w, "positive", lambda v: v > 0.0)
    a = 2.0 * math.pi * aperture_w
    sin_t = np.sin(_midpoint_angles(a, f"aperture_w = {aperture_w!r}"))
    return float((np.sin(a * sin_t) / sin_t).mean()) / a


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
# the weights' rounding grows like eps * sqrt(a^2/2); past this a^2/2 it
# reaches the mass tolerance, so the kernel refuses before allocating
_LAM_MAX = 5e5
# elements of one Poisson-weight or gamma matrix (1 MiB): a grid's rows split
# into chunks of weights and its columns into gamma blocks of this size
_WORK_CAP = 1 << 17
# bytes of Poisson-weight matrices kept for reuse (four _WORK_CAP matrices)
_WEIGHT_CACHE_BYTES = 4 << 20

# ln k! - (k + 1/2) ln k + k - ln(2 pi)/2 for k = 1..15
_STIRLERR_SMALL = np.array([
    math.nan, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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
    # the formula's operations in its order, in place on two full-size arrays
    dev = kk - lam
    # the quotient overflows only for lam < k / 1.8e308 (as from a huge
    # sigma_d2), where pois(k; lam) <= lam^k / k! < (e / 1.8e308)^k < 2e-308:
    # the resulting inf gives bd0 = inf and a pmf of exactly 0, correct to far
    # below any mass that the sums resolve
    with np.errstate(over="ignore"):
        log_p = dev / lam
    np.log1p(log_p, out=log_p)
    log_p *= kk
    log_p -= dev  # bd0
    del dev
    np.subtract(-stirlerr, log_p, out=log_p)
    log_p -= _HALF_LOG_2PI
    log_p -= 0.5 * np.log(kk)
    np.copyto(log_p, -lam, where=k == 0.0)
    return np.exp(log_p, out=log_p)


# Poisson-weight row chunks by value: lam's bytes and the k range -> the
# read-only weights, least recently used first. The outage integrand's nodes
# depend only on the aperture, so a run asks for the same few chunks on
# every call.
_WEIGHT_CACHE: OrderedDict[tuple[bytes, int, int], np.ndarray] = OrderedDict()
_weight_cache_bytes = 0


def _poisson_weights(lam: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """pois(k; lam_i) for k = k0..k1, one row per lam_i: the weights of one
    row chunk of _marcum_q1_grid, read-only.

    A chunk is computed once and kept in a least-recently-used cache of at
    most 4 MiB (a larger chunk is not kept); a hit returns the array the same
    computation made, so no value depends on the cache. The chunks are fixed
    by the a values alone, so every call at one aperture asks for the same
    ones. At high port correlation a 128-rate block at N = 8 takes about
    25 ms at W = 0.1 and 180 ms at W = 0.01 (2 vCPU, numpy 2.4)."""
    global _weight_cache_bytes
    key = (lam.tobytes(), k0, k1)
    weights = _WEIGHT_CACHE.get(key)
    if weights is None:
        weights = _poisson_pmf(np.arange(k0, k1 + 1)[None, :], lam[:, None])
        weights.flags.writeable = False
        if weights.nbytes <= _WEIGHT_CACHE_BYTES:
            _WEIGHT_CACHE[key] = weights
            _weight_cache_bytes += weights.nbytes
            while _weight_cache_bytes > _WEIGHT_CACHE_BYTES:
                _weight_cache_bytes -= _WEIGHT_CACHE.popitem(last=False)[1].nbytes
    else:
        _WEIGHT_CACHE.move_to_end(key)
    return weights


def _column_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right.T, one row of right at a time.

    BLAS takes a matrix-vector kernel for one vector and a matrix-matrix
    kernel for several, and the two round differently; a stack of
    matrix-vector products makes every column's value independent of how many
    columns are computed with it. Each row of right is read where it lies,
    and left may be a view with rows further apart than their length.
    """
    return np.matmul(left, right[:, :, None])[:, :, 0].T


def _marcum_q1_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Q1(a_i, b_j) on the outer grid of sorted distinct a and b values.

    Column j depends only on b_j and a, whatever the other b values are: the
    exits are elementwise, the window (active rows and their k range) follows
    from b_j and a, the row chunks follow from a alone, the gamma columns are
    summed from each column's own start, and the products run column by
    column.
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
    del gap
    live = (y > 0.0) & (first < stop)
    if not np.any(live):
        return out
    k_lo, k_hi = _poisson_window(lam)
    y_lo, _ = _poisson_window(y)

    # runs of columns sharing a window (first and stop are nondecreasing in b)
    live_cols = np.flatnonzero(live)
    top = float(lam[stop[live_cols] - 1].max())
    if top > _LAM_MAX:
        raise ComputationError(
            f"Marcum Q1 needs Poisson weights at a^2/2 = {top:.4g}, past the "
            f"{_LAM_MAX:g} up to which their rounding passes the mass check")
    edges = np.flatnonzero(np.diff(first[live_cols]) | np.diff(stop[live_cols])) + 1
    runs = [(int(first[cols[0]]), int(stop[cols[0]]), cols)
            for cols in np.split(live_cols, edges)]
    # row chunks, fixed by a alone: from the first row with lam > 0, each
    # takes the most rows whose weight matrix, over the k range holding their
    # Poisson mass, fits the work cap; the grid works on one chunk at a time
    c0, end = int(np.count_nonzero(lam_zero)), runs[-1][1]
    while c0 < end:
        sizes = np.arange(1, a.size - c0 + 1) * (k_hi[c0:] - k_lo[c0] + 1)
        c1 = c0 + max(1, int(np.count_nonzero(sizes <= _WORK_CAP)))
        kc0, chunk = int(k_lo[c0]), None
        for r_first, r_stop, cols in runs:
            r0, r_end = max(r_first, c0), min(r_stop, c1)
            if r0 >= r_end:
                continue
            if chunk is None:
                chunk = _poisson_weights(lam[c0:c1], kc0, int(k_hi[c1 - 1]))
            # the run's block: a view of its rows in the chunk, over the k
            # range holding their Poisson mass
            k0, k1 = int(k_lo[r0]), int(k_hi[r_end - 1])
            weights = chunk[r0 - c0:r_end - c0, k0 - kc0:k1 - kc0 + 1]
            mass = float(weights.sum(axis=1).min())
            if mass < 1.0 - _MASS_TOL:
                raise ComputationError(
                    f"Marcum Q1 captured Poisson mass {mass!r} below 1 - {_MASS_TOL}")
            # regularized upper gamma Q(k+1, y) = P[Poisson(y) <= k], one row
            # per column, summed from the start of each column's own
            # Poisson(y) window, for as many columns at a time as fit the
            # work cap (the leading zeros before a column's window add
            # nothing, so no value moves)
            s0 = min(k0, int(y_lo[cols].min()))
            ks = np.arange(s0, k1 + 1)
            step = max(1, _WORK_CAP // ks.size)
            for part in np.split(cols, np.arange(step, cols.size, step)):
                gammas = np.cumsum(np.where(ks >= y_lo[part][:, None],
                                            _poisson_pmf(ks, y[part][:, None]), 0.0),
                                   axis=1)[:, k0 - s0:]
                np.minimum(gammas, 1.0, out=gammas)
                out[r0:r_end, part] = np.clip(_column_products(weights, gammas), 0.0, 1.0)
        c0 = c1
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
    a_arr = check_nonneg_array("a", a)
    b_arr = check_nonneg_array("b", b)
    try:
        shape = np.broadcast_shapes(a_arr.shape, b_arr.shape)
    except ValueError:
        raise DomainError(f"a and b do not broadcast: shapes {a_arr.shape} "
                          f"and {b_arr.shape}") from None
    a_dims = (1,) * (len(shape) - a_arr.ndim) + a_arr.shape
    b_dims = (1,) * (len(shape) - b_arr.ndim) + b_arr.shape
    if all(m == 1 or n == 1 for m, n in zip(a_dims, b_dims)):  # an outer grid
        a_last = max((i for i, m in enumerate(a_dims) if m > 1), default=-1)
        b_first = min((i for i, n in enumerate(b_dims) if n > 1), default=len(shape))
        a_flat, b_flat = a_arr.ravel(), b_arr.ravel()
        if (a_last < b_first and np.all(a_flat[1:] > a_flat[:-1])
                and np.all(b_flat[1:] > b_flat[:-1])):
            # sorted and distinct, a's axes before b's (as the integrand's
            # nodes against a rate block are): the grid is the result
            out = _marcum_q1_grid(a_flat, b_flat).reshape(shape)
        else:
            a_vals, a_idx = np.unique(a_arr, return_inverse=True)
            b_vals, b_idx = np.unique(b_arr, return_inverse=True)
            out = _marcum_q1_grid(a_vals, b_vals)[a_idx.reshape(a_arr.shape),
                                                  b_idx.reshape(b_arr.shape)]
        return float(out) if out.ndim == 0 else out
    a_flat = np.broadcast_to(a_arr, shape).ravel()
    b_flat = np.broadcast_to(b_arr, shape).ravel()
    out = np.empty(b_flat.size)
    if not out.size:
        return out.reshape(shape)
    order = np.argsort(b_flat, kind="stable")
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
    <= 1e-12 (verified; a failed iteration raises AccuracyError). x within
    1e-15 below -1/e is taken as -1/e.
    """
    x = check_real("x", x, ">= -1/e", lambda v: v >= -_INV_E - 1e-15)
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
# Gauss-Kronrod panel integration
# ---------------------------------------------------------------------------

# The 15-point Kronrod extension of the 7-point Gauss-Legendre rule on
# [-1, 1] (QUADPACK's qk15), nodes ascending; the Gauss nodes are the
# odd-indexed ones
_GK_NODES = np.array([
    -0.99145537112081263921, -0.94910791234275852453, -0.86486442335976907279,
    -0.74153118559939443986, -0.58608723546769113029, -0.40584515137739716691,
    -0.20778495500789846760, 0.0, 0.20778495500789846760, 0.40584515137739716691,
    0.58608723546769113029, 0.74153118559939443986, 0.86486442335976907279,
    0.94910791234275852453, 0.99145537112081263921])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224964, 0.063092092629978553291, 0.10479001032225018384,
    0.14065325971552591875, 0.16900472663926790283, 0.19035057806478540991,
    0.20443294007529889241, 0.20948214108472782801, 0.20443294007529889241,
    0.19035057806478540991, 0.16900472663926790283, 0.14065325971552591875,
    0.10479001032225018384, 0.063092092629978553291, 0.022935322010529224964])
_GAUSS_WEIGHTS = np.array([
    0.12948496616886969327, 0.27970539148927666790, 0.38183005050511894495,
    0.41795918367346938776, 0.38183005050511894495, 0.27970539148927666790,
    0.12948496616886969327])

# past u = 6.2 the weight 2u e^{-u^2} is below 3e-16, and its integral
# e^{-6.2^2} is about 2e-17
_U_END = 6.2
# panels per integrand call: f sees the same 120 nodes whatever the block
_GROUP_PANELS = 8
# halvings of the panel width before a column that has not settled raises
_PANEL_HALVINGS = 4
_QUAD_ABS_TOL = 1e-10
_QUAD_REL_TOL = 1e-9


def _group_panels(f, group: int, h: float, first: np.ndarray,
                  end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimates and |Kronrod - Gauss| differences, shape (panels,
    columns), on the panels of one lattice group of width h, zero on the
    panels outside a column's range [first, end). Each estimate adds its
    weighted nodes one at a time, in node order, so a column's value does not
    depend on how many columns come with it."""
    panels = group * _GROUP_PANELS + np.arange(_GROUP_PANELS)
    u = ((panels[:, None] + 0.5) * h + (0.5 * h) * _GK_NODES[None, :]).ravel()
    values = np.asarray(f(u * u), dtype=float).reshape(u.size, -1)
    if values.shape[1] != first.size:
        raise DomainError(f"the integrand returned {values.shape[1]} columns "
                          f"for {first.size} integrals")
    values = (values * (h * u * np.exp(-u * u))[:, None]).reshape(
        _GROUP_PANELS, _GK_NODES.size, -1)
    # the additions of a cumsum along the nodes, in its order, without
    # keeping every node's product at once
    kronrod = values[:, 0] * _KRONROD_WEIGHTS[0]
    for k in range(1, _GK_NODES.size):
        kronrod = kronrod + values[:, k] * _KRONROD_WEIGHTS[k]
    gauss = values[:, 1] * _GAUSS_WEIGHTS[0]
    for k in range(1, _GAUSS_WEIGHTS.size):
        gauss = gauss + values[:, 2 * k + 1] * _GAUSS_WEIGHTS[k]
    inside = (first <= panels[:, None]) & (panels[:, None] < end)
    return (np.where(inside, kronrod, 0.0),
            np.where(inside, np.abs(kronrod - gauss), 0.0))


def integrate_expweighted(f: Callable[[np.ndarray], np.ndarray], u_lo=0.0,
                          u_hi=math.inf, width: float = 1.0) -> float | np.ndarray:
    """int_0^inf e^{-t} f(t) dt for f with values in [0, 1], exactly 1 where
    sqrt(t) <= u_lo and exactly 0 where sqrt(t) >= u_hi.

    In u = sqrt(t) the integral is 1 - e^{-u0^2} + int 2u e^{-u^2} f(u^2) du
    over [u0, min(u_hi, 6.2)], u0 the lattice point at or below u_lo; beyond
    6.2 the rest is at most e^{-6.2^2}, about 2e-17. The lattice has panels
    of the given width anchored at u = 0, each with the Gauss-Kronrod 7/15
    rule, and f takes the t = u^2 of 8 panels (120 nodes) per call. u_lo
    and u_hi are scalars for one integral (f returns shape (n,), a float is
    returned) or arrays of m bounds for m integrals (f returns shape (n, m),
    an array of m values is returned).

    An integral settles when its panels' |Kronrod - Gauss| differences sum to
    at most max(1e-10, 1e-9 * |estimate|); an unsettled one is recomputed on
    the lattice of half the width, up to 4 times. Panels outside an
    integral's own range add exact zeros, and panels add in lattice order, so
    an integral gets the same value alone as among others. Raises
    AccuracyError (carrying the last two estimates of the first unsettled
    integral) if an integral has not settled at width/16.
    """
    h = check_real("width", width, "positive", lambda v: v > 0.0)
    lo = np.asarray(u_lo, dtype=float)
    hi = np.asarray(u_hi, dtype=float)
    single = lo.ndim == 0 and hi.ndim == 0
    lo, hi = np.broadcast_arrays(np.atleast_1d(lo), np.atleast_1d(hi))
    start = np.clip(lo, 0.0, _U_END)
    stop = np.minimum(hi, _U_END)
    result = np.empty(start.shape)
    todo = np.ones(start.shape, dtype=bool)
    last = np.full(start.shape, math.nan)
    for _ in range(_PANEL_HALVINGS + 1):
        first = np.floor(start / h)
        end = np.maximum(np.ceil(stop / h), first)  # one past the last panel
        # the lattice groups holding a panel of an unsettled column
        live = todo & (end > first)
        g_lo = first[live].astype(np.int64) // _GROUP_PANELS
        counts = (end[live].astype(np.int64) - 1) // _GROUP_PANELS - g_lo + 1
        groups = set((np.repeat(g_lo - np.cumsum(counts) + counts, counts)
                      + np.arange(counts.sum())).tolist())
        kronrod = [np.zeros((1, start.size))]
        spread = [np.zeros((1, start.size))]
        for group in sorted(groups):
            estimates, differences = _group_panels(f, group, h, first, end)
            kronrod.append(estimates)
            spread.append(differences)
        # every panel in lattice order, added one at a time
        total = np.cumsum(np.concatenate(kronrod), axis=0)[-1]
        error = np.cumsum(np.concatenate(spread), axis=0)[-1]
        estimate = -np.expm1(-(first * h) ** 2) + total
        settled = todo & (error <= np.maximum(_QUAD_ABS_TOL,
                                               _QUAD_REL_TOL * np.abs(estimate)))
        result[settled] = estimate[settled]
        todo &= ~settled
        if not todo.any():
            return float(result[0]) if single else result
        before, last = last, estimate
        h *= 0.5
    j = int(np.argmax(todo))
    raise AccuracyError(f"panel quadrature not settled at panel width {2.0 * h!r}",
                        float(last[j]), float(before[j]))


# ---------------------------------------------------------------------------
# Gauss-Laguerre rules, the reference route
# ---------------------------------------------------------------------------

# A fixed n-point Gauss-Laguerre rule integrates e^{-t} f(t) in t, a route
# independent of the panels in u = sqrt(t) above: fasmon validate compares
# the two on smooth best-port integrands. No result of a run comes from them.
_LAGUERRE_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# The first zeros of J0 and the magnitudes of the first zeros of Ai, where the
# McMahon and Airy-zero series below are still off by up to 1e-3
_J0_ZEROS = np.array([2.404825557695773, 5.520078110286311, 8.653727912911013])
_AIRY_ZEROS = np.array([2.338107410459767, 4.087949444130971, 5.520559828095515])
# Newton iterations on Tricomi's t + sin t = c; from t = c/2 they converge
# monotonically, to 1e-13 for every bulk node of a 2048-node rule
_TRICOMI_ITERATIONS = 6
# recurrence steps between two power-of-two rescalings of a pass; 16 steps
# grow the values by at most (4n + 5)^16 relative, far below overflow
_RESCALE_STEPS = 16
# Halley passes over the nodes not yet settled, and the relative step below
# which a node has settled (the step's rounding floor is about 1e-15)
_LAGUERRE_PASSES = 4
_LAGUERRE_STEP_TOL = 1e-14
_WEIGHT_SUM_TOL = 1e-13


def _laguerre_guess(n: int) -> np.ndarray:
    """Ascending approximations of the n zeros of L_n, relative error below
    4e-6 for n >= 64 (2.7e-6 at n = 64, 3e-9 at n = 2048).

    With nu = 4n + 2: the bulk takes Tricomi's x = nu sin^2(t/2) -
    (5u^2 - 4u - 4)/(12 nu), u = 1/cos^2(t/2), where t + sin t =
    4 pi (k - 1/4)/nu; the m ~ 0.6 sqrt(n) smallest zeros take Gatteschi's
    Bessel form j^2/nu (1 + (j^2 - 2)/(3 nu^2)) with j the k-th zero of J0,
    and the m largest the Airy form nu + 2^{2/3} a nu^{1/3} + ... with a the
    k-th zero of Ai, where each is the more accurate.
    """
    nu = 4.0 * n + 2.0
    k = np.arange(1.0, n + 1.0)
    c = (4.0 * math.pi / nu) * (k - 0.25)
    t = 0.5 * c
    for _ in range(_TRICOMI_ITERATIONS):
        t -= (t + np.sin(t) - c) / (1.0 + np.cos(t))
    s = np.sin(0.5 * t) ** 2
    u = 1.0 / (1.0 - s)
    x = nu * s - (5.0 * u * u - 4.0 * u - 4.0) / (12.0 * nu)
    m = min(math.ceil(0.6 * math.sqrt(n)), n // 2)
    if m:
        table = min(m, 3)
        # J0 zeros: McMahon's series in 1/(8 beta), beta = (k - 1/4) pi
        beta = (k[:m] - 0.25) * math.pi
        e = 1.0 / (8.0 * beta)
        j = beta + e * (1.0 - e * e * (124.0 / 3.0 - e * e * (120928.0 / 15.0
                                                              - e * e * 401743168.0 / 105.0)))
        j[:table] = _J0_ZEROS[:table]
        j2 = j * j
        x[:m] = j2 / nu * (1.0 + (j2 - 2.0) / (3.0 * nu * nu))
        # Ai zeros a = -T(tau), tau = 3 pi (4k - 1)/8, T its asymptotic series
        tau = (3.0 * math.pi / 8.0) * (4.0 * k[:m] - 1.0)
        r = tau ** -2.0
        a = -tau ** (2.0 / 3.0) * (1.0 + r * (5.0 / 48.0 - r * (5.0 / 36.0 - r * (
            77125.0 / 82944.0 - r * (108056875.0 / 6967296.0
                                     - r * 162375596875.0 / 334430208.0)))))
        a[:table] = -_AIRY_ZEROS[:table]
        c3 = nu ** (1.0 / 3.0)
        xa = (nu + 2.0 ** (2.0 / 3.0) * a * c3 + 0.2 * 2.0 ** (4.0 / 3.0) * a * a / c3
              + (11.0 / 35.0 - 12.0 / 175.0 * a ** 3) / nu
              + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a ** 4) * 2.0 ** (2.0 / 3.0) / c3 ** 5
              - (15152.0 / 3031875.0 * a ** 5 + 1088.0 / 121275.0 * a * a)
              * 2.0 ** (1.0 / 3.0) / c3 ** 7)
        x[n - m:] = xa[::-1]
    return x


def _laguerre_pass(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One pass of the recurrence at every node x: the Halley step towards
    the nearest zero of L_n, and the Christoffel weight 1/sum_{k<n} L_k(x)^2.

    The recurrence (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1} runs in the
    difference form D_{k+1} = D_k - x L_k, L_{k+1} = L_k + D_{k+1}/(k+1),
    D_k = k (L_k - L_{k-1}), where x enters only as a factor, so a small node
    keeps its relative accuracy. The steps run in blocks of 16 whose L rows
    are kept, so each block adds its squares to the sum in one call; then L,
    D and the sum are rescaled per node by a power of two (exactly), and the
    exponents are added back into the weight, which underflows to 0 only
    where the true weight does. With u = L_n/L_n' = x L_n/D_n and
    L_n''/L_n' = (x - 1 - n u)/x from Laguerre's equation, the Halley step is
    u / (1 - u (x - 1 - n u)/(2x)).
    """
    mul, sub, add = np.multiply, np.subtract, np.add
    block = np.empty((_RESCALE_STEPS + 1, x.size))
    rows = list(block)  # rows[0] carries L into the block, rows[j] is j steps on
    rows[0].fill(1.0)
    diff = np.zeros_like(x)
    sq_sum = np.ones_like(x)
    exps = np.zeros(x.shape, dtype=np.int64)
    tmp = np.empty_like(x)
    # 0-d arrays: a ufunc takes them faster than Python floats
    inv = [np.array(1.0 / k) for k in range(1, n)]
    for k0 in range(0, n - 1, _RESCALE_STEPS):
        steps = min(_RESCALE_STEPS, n - 1 - k0)
        for cur, nxt, c in zip(rows, rows[1:steps + 1], inv[k0:k0 + steps]):
            mul(x, cur, tmp)
            sub(diff, tmp, diff)
            mul(diff, c, tmp)
            add(cur, tmp, nxt)
        new = block[1:steps + 1]
        sq_sum += np.einsum("ij,ij->j", new, new)
        half = np.frexp(sq_sum)[1] >> 1
        np.ldexp(rows[steps], -half, out=rows[0])
        np.ldexp(diff, -half, out=diff)
        np.ldexp(sq_sum, -2 * half, out=sq_sum)
        exps += half
    lag = rows[0]
    sub(diff, x * lag, diff)  # D_n
    u = x * (lag + diff / n) / diff
    step = u / (1.0 - u * (x - 1.0 - n * u) / (2.0 * x))
    return step, np.ldexp(1.0 / sq_sum, -2 * exps)


def _laguerre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Laguerre rule (weight e^{-t}),
    built once per process and returned as read-only arrays.

    The nodes are the zeros of L_n: every guess from _laguerre_guess is
    refined together by Halley passes of the three-term recurrence
    (_laguerre_pass), each pass over the nodes whose last step exceeded
    1e-14 relative; from these guesses two passes settle every node of the
    64- to 2048-node rules. A node's weight is the Christoffel value
    1/sum_{k<n} L_k(x)^2 from the pass in which it settled, so far-out
    weights underflow to true zeros. This costs O(n^2) time and O(n) memory,
    where Golub-Welsch (a dense eigendecomposition of the Jacobi matrix)
    costs O(n^3) and O(n^2), and it keeps the small nodes to about 1e-15
    relative, where the eigenvalues lose up to 7e-11 at n = 2048. The
    recurrence values grow like e^{x/2}, so unscaled their squares would
    overflow from about n = 256 on; rescaled as they run, they never do.

    Raises ComputationError if a node has not settled after 4 passes, if the
    nodes are not positive and strictly increasing, or if the weights do not
    sum to 1 within 1e-13.
    """
    rule = _LAGUERRE_RULES.get(n)
    if rule is None:
        nodes = _laguerre_guess(n)
        weights = np.empty(n)
        todo = np.arange(n)
        for _ in range(_LAGUERRE_PASSES):
            step, weight = _laguerre_pass(nodes[todo], n)
            nodes[todo] -= step
            settled = np.abs(step) <= _LAGUERRE_STEP_TOL * nodes[todo]
            weights[todo[settled]] = weight[settled]
            todo = todo[~settled]
            if not todo.size:
                break
        else:
            raise ComputationError(
                f"{todo.size} of the {n} Gauss-Laguerre nodes did not settle "
                f"in {_LAGUERRE_PASSES} passes")
        if not (nodes[0] > 0.0 and np.all(np.diff(nodes) > 0.0)):
            raise ComputationError(
                f"{n}-point Gauss-Laguerre nodes not positive and strictly increasing")
        total = math.fsum(weights)
        if not abs(total - 1.0) <= _WEIGHT_SUM_TOL:
            raise ComputationError(
                f"{n}-point Gauss-Laguerre weights sum to {total!r}, not 1")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        rule = (nodes, weights)
        _LAGUERRE_RULES[n] = rule
    return rule
