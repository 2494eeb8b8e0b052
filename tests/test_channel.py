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
from fasmon.channel import (_MAX_PORTS, _POWER_BLOCK_ROWS, _mix_weight,
                            _port_power_blocks)

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


def _complex_reference_powers(mu, var, n_ports, n_draws, rng):
    # the complex-arithmetic form of the port model, drawing in the order
    # the sampler promises: Re g0, Im g0, Re e, Im e
    s = math.sqrt(var / 2.0)
    g0 = s * (rng.standard_normal((n_draws, 1))
              + 1j * rng.standard_normal((n_draws, 1)))
    if n_ports == 1:
        return np.abs(g0) ** 2
    e = s * (rng.standard_normal((n_draws, n_ports))
             + 1j * rng.standard_normal((n_draws, n_ports)))
    return np.abs(mu * g0 + _mix_weight(mu) * e) ** 2


def _sample_port_powers(mu, var, n_ports, n_draws, rng):
    # the whole (n_draws, n_ports) matrix: the row blocks concatenated
    return np.concatenate(list(_port_power_blocks(mu, var, n_ports, n_draws, rng)))


class TestSampling:
    def test_shapes_and_determinism(self):
        p1 = _sample_port_powers(0.4, 1.0, 8, 100, np.random.default_rng(5))
        p2 = _sample_port_powers(0.4, 1.0, 8, 100, np.random.default_rng(5))
        assert p1.shape == (100, 8)
        assert np.array_equal(p1, p2)
        assert np.all(p1 >= 0.0)

    @pytest.mark.parametrize("n_ports", [1, 2, 8, 16])
    def test_matches_complex_reference(self, n_ports):
        rng_real = np.random.default_rng(4242)
        rng_complex = np.random.default_rng(4242)
        powers = _sample_port_powers(0.6, 0.7, n_ports, 1001, rng_real)
        ref = _complex_reference_powers(0.6, 0.7, n_ports, 1001, rng_complex)
        np.testing.assert_allclose(powers, ref, rtol=1e-14, atol=0.0)
        # both consumed exactly the same stretch of the stream
        assert rng_real.bit_generator.state == rng_complex.bit_generator.state

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


def _full_matrix_powers(mu, var, n_ports, n_draws, rng):
    # the sampler as one (n_draws, n_ports) matrix: the same draws and the
    # same operations, in the same order, with no row blocks
    scale = math.sqrt(var / 2.0)
    re = rng.standard_normal((n_draws, 1))
    im = rng.standard_normal((n_draws, 1))
    re *= scale
    im *= scale
    if n_ports > 1:
        re *= mu
        im *= mu
        weight = _mix_weight(mu)
        e_re = rng.standard_normal((n_draws, n_ports))
        e_im = rng.standard_normal((n_draws, n_ports))
        e_re *= scale
        e_im *= scale
        e_re *= weight
        e_im *= weight
        e_re += re
        e_im += im
        re, im = e_re, e_im
    re *= re
    im *= im
    re += im
    return re


def _assert_blocks_match_full_matrix(mu, n_ports, n_draws, seed):
    rng_blocks = np.random.default_rng(seed)
    rng_full = np.random.default_rng(seed)
    blocks = list(_port_power_blocks(mu, 0.7, n_ports, n_draws, rng_blocks))
    full = _full_matrix_powers(mu, 0.7, n_ports, n_draws, rng_full)
    assert [b.shape[0] for b in blocks[:-1]] == [_POWER_BLOCK_ROWS] * (len(blocks) - 1)
    assert 1 <= blocks[-1].shape[0] <= _POWER_BLOCK_ROWS
    powers = np.concatenate(blocks)
    assert powers.shape == full.shape == (n_draws, n_ports)
    assert np.array_equal(powers.view(np.uint64), full.view(np.uint64))
    assert rng_blocks.bit_generator.state == rng_full.bit_generator.state


class TestRowBlocks:
    @pytest.mark.parametrize("mu", [0.0, 0.4, 0.97])
    @pytest.mark.parametrize("n_ports", [1, 2, 8, 16])
    @pytest.mark.parametrize("n_draws", [1, _POWER_BLOCK_ROWS - 1, _POWER_BLOCK_ROWS,
                                         _POWER_BLOCK_ROWS + 1, 1 << 17])
    def test_blocks_equal_the_full_matrix(self, mu, n_ports, n_draws):
        _assert_blocks_match_full_matrix(mu, n_ports, n_draws, seed=1234)

    @settings(max_examples=12, deadline=None, database=None)
    @given(mu=st.floats(0.0, 0.9999), n_ports=st.integers(1, 16),
           n_draws=st.integers(1, 3 * _POWER_BLOCK_ROWS + 7),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_blocks_equal_the_full_matrix_anywhere(self, mu, n_ports, n_draws,
                                                   seed):
        _assert_blocks_match_full_matrix(mu, n_ports, n_draws, seed)


class TestCorrelationGuards:
    def test_mixing_radicand_guard(self, monkeypatch):
        import fasmon.channel as channel
        monkeypatch.setattr(channel, "hyp1f2_half", lambda w: 2.0)
        with pytest.raises(ComputationError):
            correlation_mu(5.0)
