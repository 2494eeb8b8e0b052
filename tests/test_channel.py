"""Channel model: correlation factor, derived link quantities, and sampling.

Distributional checks use fixed seeds and generous test sizes; the laws
(exponential port powers, Rician conditional magnitudes) come from
scipy.stats, which shares nothing with the sampler.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from fasmon import (ComputationError, DomainError, correlation_mu,
                    eta_factor)
import fasmon.channel
import fasmon.mcsim
from fasmon.channel import _MAX_PORTS, _mix_weight
from fasmon.mcsim import _best_port_powers

# (W, mu(W)) multiprecision references
MU_REFS = (
    (1e-4, 0.99999999177532971311),
    (0.25, 0.95042411592966669262),
    (1.0, 0.55610720702492761129),
    (5.0, 0.25192418235400032489),
    (10.0, 0.17831320507011358458),
)


class TestCorrelationMu:
    def test_reference_values(self):
        for w, ref in MU_REFS:
            assert correlation_mu(w) == pytest.approx(ref, rel=1e-12)

    def test_range(self):
        for w in np.geomspace(1e-6, 100.0, 80):
            mu = correlation_mu(float(w))
            assert 0.0 < mu < 1.0

    def test_tiny_aperture_tends_to_one(self):
        assert correlation_mu(1e-9) == pytest.approx(1.0, abs=1e-12)
        assert correlation_mu(1e-9) < 1.0  # strictly, so 1 - mu^2 stays positive

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            correlation_mu(0.0)
        with pytest.raises(DomainError):
            correlation_mu(-1.0)

    def test_large_apertures_against_mpmath(self):
        # 40-digit mu from mpmath's own 1F2 and J1, up to half the W limit
        with mpmath.workdps(40):
            for w in (50.0, 500.0, 5000.0):
                a = 2 * mpmath.pi * w
                radicand = (mpmath.hyp1f2(0.5, 1, 1.5, -(mpmath.pi * w) ** 2)
                            - mpmath.besselj(1, a) / a)
                ref = float(mpmath.sqrt(2 * radicand))
                assert correlation_mu(w) == pytest.approx(ref, rel=0.0, abs=1e-12)

    def test_rejects_apertures_above_the_limit(self):
        assert 0.0 < correlation_mu(1e4) < 1.0
        for w in (math.nextafter(1e4, math.inf), 2e4, 1e300):
            with pytest.raises(DomainError, match="aperture_w"):
                correlation_mu(w)

    @settings(max_examples=40, deadline=None, database=None)
    @example(exponent=4.0)  # W = 1e4, the limit itself
    @given(exponent=st.floats(-6.0, 300.0))
    def test_mu_or_domain_error_over_all_apertures(self, exponent):
        # every positive finite W gives mu in [0, 1) or a DomainError
        try:
            mu = correlation_mu(10.0 ** exponent)
        except DomainError:
            assert 10.0 ** exponent > 1e4
            return
        assert 0.0 <= mu < 1.0


class TestDerivedLink:
    def test_eta_identities(self):
        assert eta_factor(0.0, 8) == 1.0
        assert eta_factor(1.0, 8) == 0.0
        mu = 0.5
        assert eta_factor(mu, 1) == pytest.approx(1.0 - mu * mu, rel=1e-15)

    def test_eta_reference(self):
        mu = correlation_mu(5.0)
        assert eta_factor(mu, 8) == pytest.approx(0.64845238812683769324, rel=1e-12)

    def test_gamma_cap(self, ref_params, ref_link):
        assert ref_link.gamma_cap == pytest.approx(1.5848931924611134852, rel=1e-14)
        assert ref_link.mu == pytest.approx(0.25192418235400032489, rel=1e-12)

    def test_mix_weight_variance_bookkeeping(self):
        for mu in (0.0, 0.3, 0.9, 0.999):
            assert mu * mu + _mix_weight(mu) ** 2 == pytest.approx(1.0, rel=1e-15)


class TestSystemParams:
    def test_field_validation(self, ref_params):
        bad = [("p_s", 0.0), ("p_m_max", -1.0), ("sigma_h2", 0.0),
               ("sigma_g2", -0.5), ("delta", 0.0), ("delta", 1.0),
               ("n_ports", 0), ("aperture_w", 0.0),
               ("n_ports", math.inf), ("n_ports", math.nan),
               ("delta", "0.05"), ("p_s", True),
               ("n_ports", _MAX_PORTS + 1), ("n_ports", 2 ** 64), ("n_ports", 1e19)]
        for field, value in bad:
            with pytest.raises(DomainError):
                dataclasses.replace(ref_params, **{field: value})

    def test_port_count_bound_is_int64(self, ref_params):
        assert _MAX_PORTS == 2 ** 63 - 1
        assert dataclasses.replace(ref_params, n_ports=_MAX_PORTS).n_ports == _MAX_PORTS


def _disc_points(rng, m):
    # m uniform points (u, v) of the quarter disc as the sampler draws them:
    # rounds of k + 3k // 10 + 32 points of the unit square, all u (as
    # 1 - uniform) then all v, keeping the first k with u^2 + v^2 < 1
    us, vs, filled = [], [], 0
    while filled < m:
        need = m - filled
        n = need + 3 * need // 10 + 32
        u = 1.0 - rng.random(n)
        v = rng.random(n)
        kept = np.flatnonzero(u * u + v * v < 1.0)[:need]
        us.append(u[kept])
        vs.append(v[kept])
        filled += kept.size
    return np.concatenate(us), np.concatenate(vs)


def _polar_draws(mu, var, n_ports, n_draws, rng):
    # every port of every row of one row block in the sampler's polar form,
    # in the frame where mu g0 is real: a = mu sqrt(var E0) per row and, per
    # port, r = w sqrt(var E_k) with the quarter-disc point (u, v) of its
    # angle, drawn as E0, then for each port in turn E_k and the points
    a = mu * math.sqrt(var) * np.sqrt(rng.standard_exponential((n_draws, 1)))
    r, u, v = np.empty((3, n_draws, n_ports))
    for k in range(n_ports):
        r[:, k] = _mix_weight(mu) * math.sqrt(var) * np.sqrt(rng.standard_exponential(n_draws))
        u[:, k], v[:, k] = _disc_points(rng, n_draws)
    return a, r, u, v


def _polar_powers(a, r, u, v):
    # the sampler's form of |g_k|^2 = a^2 + r (r + 2 a cos(phi)), where phi
    # is twice the angle of the point (u, v)
    return a * a + r * (r + 2.0 * a * ((u * u - v * v) / (u * u + v * v)))


def _sample_port_powers(mu, var, n_ports, n_draws, rng):
    # the (n_draws, n_ports) port powers of the polar form; a single port
    # is |g0|^2 = var E0
    if n_ports == 1:
        return var * rng.standard_exponential((n_draws, 1))
    return _polar_powers(*_polar_draws(mu, var, n_ports, n_draws, rng))


class TestSampling:
    def test_shapes_and_determinism(self):
        p1 = _sample_port_powers(0.4, 1.0, 8, 100, np.random.default_rng(5))
        p2 = _sample_port_powers(0.4, 1.0, 8, 100, np.random.default_rng(5))
        assert p1.shape == (100, 8)
        assert np.array_equal(p1, p2)
        assert np.all(p1 >= 0.0)

    @pytest.mark.parametrize("n_ports", [1, 2, 8, 16])
    def test_matches_complex_reference(self, n_ports):
        # the polar powers are |mu g0 + w e_k|^2 of the complex model on the
        # same stretch of the stream, with e^{i phi} = (u + i v)^2 / (u^2 +
        # v^2); the bound is a few ulps of (|mu g0| + |w e_k|)^2, as the sum
        # cancels where the two terms do
        mu, var, n = 0.6, 0.7, 1001
        rng_polar = np.random.default_rng(4242)
        rng_complex = np.random.default_rng(4242)
        powers = _sample_port_powers(mu, var, n_ports, n, rng_polar)
        g0 = np.sqrt(var * rng_complex.standard_exponential((n, 1)))
        if n_ports == 1:
            ref, scale = g0 * g0, g0 * g0
        else:
            e = np.empty((n, n_ports), dtype=complex)
            for k in range(n_ports):
                mag = np.sqrt(var * rng_complex.standard_exponential(n))
                u, v = _disc_points(rng_complex, n)
                e[:, k] = mag * (u + 1j * v) ** 2 / (u * u + v * v)
            g = mu * g0 + _mix_weight(mu) * e
            ref = np.abs(g) ** 2
            scale = (mu * g0 + _mix_weight(mu) * np.abs(e)) ** 2
        assert np.all(np.abs(powers - ref) <= 1e-14 * scale)
        # both consumed exactly the same stretch of the stream
        assert rng_polar.bit_generator.state == rng_complex.bit_generator.state

    def test_port_gain_moments(self):
        # E|g_k|^2 = sigma_g2, and for jointly complex Gaussian ports
        # Cov(|g_j|^2, |g_k|^2) = |E g_j g_k*|^2 = mu^4 sigma_g2^2
        rng = np.random.default_rng(97)
        mu, var, n = 0.6, 0.25, 400_000
        p = _sample_port_powers(mu, var, 4, n, rng)
        mean = np.mean(p, axis=0)
        tol = 4.0 * var / math.sqrt(n)
        assert np.all(np.abs(mean - var) < tol)
        cov = np.mean((p[:, 0] - var) * (p[:, 1] - var))
        assert cov == pytest.approx(mu ** 4 * var * var,
                                    abs=6.0 * var * var / math.sqrt(n))

    def test_marginal_is_exponential(self):
        # each port gain is CN(0, var) exactly, so |g_k|^2 is exponential
        rng = np.random.default_rng(31)
        p = _sample_port_powers(0.3, 1.0, 8, 100_000, rng)
        res = scipy.stats.kstest(p[:, 3], "expon", args=(0.0, 1.0))
        assert res.pvalue > 0.01

    def test_conditional_is_rician(self):
        # fixing the reference port makes |g_k| Rician with shape
        # b = mu |g0| / s and scale s = sqrt((1 - mu^2) var / 2)
        rng = np.random.default_rng(53)
        for mu in (0.3, 0.9):
            var = 1.0
            g0 = 0.8 - 0.6j
            e = math.sqrt(var / 2.0) * (rng.standard_normal(100_000)
                                        + 1j * rng.standard_normal(100_000))
            mags = np.abs(mu * g0 + _mix_weight(mu) * e)
            s = math.sqrt((1.0 - mu * mu) * var / 2.0)
            b = mu * abs(g0) / s
            res = scipy.stats.kstest(mags, "rice", args=(b, 0.0, s))
            assert res.pvalue > 0.01

    def test_polar_power_is_rician(self):
        # given a = mu |g0|, here with |g0| = 1, a port power drawn as the
        # sampler draws it, r = w sqrt(var E) with its angle from a point of
        # the quarter disc, is the Rician power: sqrt of it is Rician with
        # shape b = a / s and scale s = w sqrt(var / 2)
        rng = np.random.default_rng(59)
        for mu in (0.3, 0.9):
            var, n, a = 1.0, 100_000, mu
            r = _mix_weight(mu) * np.sqrt(var * rng.standard_exponential(n))
            u, v = _disc_points(rng, n)
            s = _mix_weight(mu) * math.sqrt(var / 2.0)
            res = scipy.stats.kstest(np.sqrt(_polar_powers(a, r, u, v)), "rice",
                                     args=(a / s, 0.0, s))
            assert res.pvalue > 0.01

    def test_single_port_column(self):
        rng = np.random.default_rng(8)
        p = _sample_port_powers(0.7, 2.0, 1, 50_000, rng)
        assert p.shape == (50_000, 1)
        mean = float(np.mean(p))
        assert mean == pytest.approx(2.0, abs=4.0 * 2.0 / math.sqrt(50_000))

    def test_degenerate_correlation_collapses_ports(self):
        # mu ~ 1: every port follows the reference port almost exactly
        rng = np.random.default_rng(15)
        mu = correlation_mu(1e-9)
        p = _sample_port_powers(mu, 1.0, 6, 2_000, rng)
        spread = np.max(np.abs(p - p[:, :1]))
        assert spread < 1e-3


def _full_matrix_best(mu, n_ports, n_draws, rng):
    # the sampler's reference: each row block as a full (rows, n_ports)
    # matrix of unit-variance port powers, drawn in the sampler's order, each
    # power the complex |a + r e^{i phi}|^2 with e^{i phi} = (u + i v)^2 /
    # (u^2 + v^2); the best power of a row is its maximum, and a single
    # port is E0, the stream of n_draws exponentials. Returns the best
    # powers and, per row, (a + max_k r_k)^2, which bounds every power of
    # the row
    if n_ports == 1:
        e0 = rng.standard_exponential(n_draws)
        return e0, e0
    best, scale = np.empty((2, n_draws))
    block_rows = fasmon.mcsim._ROW_BLOCK
    for start in range(0, n_draws, block_rows):
        rows = min(block_rows, n_draws - start)
        a = mu * np.sqrt(rng.standard_exponential(rows))
        powers, r = np.empty((2, rows, n_ports))
        for k in range(n_ports):
            r[:, k] = _mix_weight(mu) * np.sqrt(rng.standard_exponential(rows))
            u, v = _disc_points(rng, rows)
            powers[:, k] = np.abs(a + r[:, k] * (u + 1j * v) ** 2 / (u * u + v * v)) ** 2
        best[start:start + rows] = powers.max(axis=1)
        scale[start:start + rows] = (a + r.max(axis=1)) ** 2
    return best, scale


def _sampled_best(mu, n_ports, n_draws, rng):
    # the sampler's best powers of all rows, each row block copied before
    # the next overwrites it
    return np.concatenate([row_block.copy() for row_block in
                           _best_port_powers(mu, n_ports, n_draws, rng)])


def _assert_blocks_match_full_matrix(mu, n_ports, n_draws, seed):
    rng_sampler = np.random.default_rng(seed)
    rng_full = np.random.default_rng(seed)
    best = _sampled_best(mu, n_ports, n_draws, rng_sampler)
    ref, scale = _full_matrix_best(mu, n_ports, n_draws, rng_full)
    # the same draws, to rounding: a few ulps of the row's largest possible
    # power, as a^2 + r (r + 2 a cos(phi)) cancels where its terms do
    assert best.shape == (n_draws,)
    assert np.all(np.abs(best - ref) <= 1e-14 * scale)
    assert rng_sampler.bit_generator.state == rng_full.bit_generator.state
    if n_ports == 1:
        # E0 alone: the stream of n_draws plain exponentials
        rng_plain = np.random.default_rng(seed)
        rng_plain.standard_exponential(n_draws)
        assert rng_sampler.bit_generator.state == rng_plain.bit_generator.state


class TestRowBlocks:
    # row blocks of 2048 rows here, so that sizes across one or many block
    # boundaries stay cheap; test_module_block_size runs the real size
    @pytest.fixture(autouse=True)
    def _blocks_of_2048(self, monkeypatch):
        monkeypatch.setattr(fasmon.mcsim, "_ROW_BLOCK", 2048)

    @pytest.mark.parametrize("mu", [0.0, 0.4, 0.97])
    @pytest.mark.parametrize("n_ports", [1, 2, 8, 16, 64])
    @pytest.mark.parametrize("n_draws", [1, 2047, 2048, 2049, 1 << 17])
    def test_blocks_equal_the_full_matrix(self, mu, n_ports, n_draws):
        _assert_blocks_match_full_matrix(mu, n_ports, n_draws, seed=1234)

    @settings(max_examples=12, deadline=None, database=None)
    @given(mu=st.floats(0.0, 0.9999), n_ports=st.integers(1, 64),
           n_draws=st.integers(1, 3 * 2048 + 7),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_blocks_equal_the_full_matrix_anywhere(self, mu, n_ports, n_draws,
                                                   seed):
        _assert_blocks_match_full_matrix(mu, n_ports, n_draws, seed)


# n_draws just below, at and just above the module's row block, named by the
# offset so that the ids stay put when the row block is resized
@pytest.mark.parametrize("n_ports", [1, 8, 64])
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_module_block_size(n_ports, offset):
    _assert_blocks_match_full_matrix(0.4, n_ports, fasmon.mcsim._ROW_BLOCK + offset,
                                     seed=99)


def _cartesian_hits(mu, var, n_ports, thresholds, n_draws, rng):
    # plain complex Cartesian draws of the port model, g0 and every e_k
    # CN(0, var) and g_k = mu g0 + w e_k (g0 alone for one port), 8192 rows
    # at a time: the rows whose best |g_k|^2 is below each threshold
    hits = np.zeros(len(thresholds), dtype=np.int64)
    s = math.sqrt(var / 2.0)
    for start in range(0, n_draws, 8192):
        rows = min(8192, n_draws - start)
        g = s * (rng.standard_normal((rows, 1)) + 1j * rng.standard_normal((rows, 1)))
        if n_ports > 1:
            e = s * (rng.standard_normal((rows, n_ports))
                     + 1j * rng.standard_normal((rows, n_ports)))
            g = mu * g + _mix_weight(mu) * e
        best = np.max(np.abs(g) ** 2, axis=1)
        hits += [np.count_nonzero(best < t) for t in thresholds]
    return hits


@pytest.mark.parametrize("mu", [0.0, 0.4, 0.97])
@pytest.mark.parametrize("n_ports", [1, 2, 8, 64])
def test_counter_law_matches_cartesian_draws(mu, n_ports):
    # the sampler's hits against plain Cartesian counts from a generator
    # that shares no draw with it, at the thresholds whose outage would be
    # 0.05, 0.5 and 0.95 with independent ports. Two-sample bound: the
    # pooled two-proportion z is at most 5, a false alarm of 5.7e-7 per
    # comparison on a correct sampler and about 2e-5 over these 36
    var, n = 0.7, 100_000
    thresholds = [-var * math.log1p(-q ** (1.0 / n_ports)) for q in (0.05, 0.5, 0.95)]
    cartesian = _cartesian_hits(mu, var, n_ports, thresholds, n,
                                np.random.default_rng([2031, 1]))
    best = _sampled_best(mu, n_ports, n, np.random.default_rng([2031, 0]))
    for g2_th, other in zip(thresholds, cartesian):
        hits = int(np.count_nonzero(best < g2_th / var))
        pooled = (hits + other) / (2 * n)
        assert abs(hits - other) <= 5.0 * math.sqrt(2 * n * pooled * (1.0 - pooled))


class TestCorrelationGuards:
    def test_mixing_radicand_guard(self, monkeypatch):
        import fasmon.channel as channel
        monkeypatch.setattr(channel, "hyp1f2_half", lambda w: 2.0)
        with pytest.raises(ComputationError):
            correlation_mu(5.0)
