"""Channel model: correlation factor, derived link quantities, and sampling.

Distributional checks use fixed seeds and generous test sizes; the magnitude
laws (Rayleigh marginals, Rician conditionals) come from scipy.stats, which
shares nothing with the sampler.
"""

import math

import numpy as np
import pytest
import scipy.stats

from fasmon import (ComputationError, DomainError, correlation_mu,
                    eta_factor)
from fasmon.channel import _complex_normal, _mix_weight, _sample_port_gains

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
        import dataclasses
        bad = [("p_s", 0.0), ("p_m_max", -1.0), ("sigma_h2", 0.0),
               ("sigma_g2", -0.5), ("delta", 0.0), ("delta", 1.0),
               ("n_ports", 0), ("aperture_w", 0.0),
               ("n_ports", math.inf), ("n_ports", math.nan),
               ("delta", "0.05"), ("p_s", True)]
        for field, value in bad:
            with pytest.raises(DomainError):
                dataclasses.replace(ref_params, **{field: value})


class TestSampling:
    def test_shapes_and_determinism(self):
        g1 = _sample_port_gains(0.4, 1.0, 8, 100, np.random.default_rng(5))
        g2 = _sample_port_gains(0.4, 1.0, 8, 100, np.random.default_rng(5))
        assert g1.shape == (100, 8)
        assert np.array_equal(g1, g2)

    def test_port_gain_moments(self):
        # marginal E|g_k|^2 = sigma_g2; cross-port covariance mu^2 sigma_g2
        rng = np.random.default_rng(97)
        mu, var, n = 0.6, 0.25, 400_000
        g = _sample_port_gains(mu, var, 4, n, rng)
        second = np.mean(np.abs(g) ** 2, axis=0)
        tol = 4.0 * var / math.sqrt(n)
        assert np.all(np.abs(second - var) < tol)
        cross = np.mean(g[:, 0] * np.conj(g[:, 1])).real
        assert cross == pytest.approx(mu * mu * var, abs=tol)

    def test_marginal_is_rayleigh(self):
        # each port gain is CN(0, var) exactly, so |g_k| is Rayleigh
        rng = np.random.default_rng(31)
        g = _sample_port_gains(0.3, 1.0, 8, 100_000, rng)
        mags = np.abs(g[:, 3])
        res = scipy.stats.kstest(mags, "rayleigh", args=(0.0, math.sqrt(0.5)))
        assert res.pvalue > 0.01

    def test_conditional_is_rician(self):
        # fixing the reference port makes |g_k| Rician with shape
        # b = mu |g0| / s and scale s = sqrt((1 - mu^2) var / 2)
        rng = np.random.default_rng(53)
        for mu in (0.3, 0.9):
            var = 1.0
            g0 = 0.8 - 0.6j
            e = _complex_normal(rng, var, 100_000)
            mags = np.abs(mu * g0 + _mix_weight(mu) * e)
            s = math.sqrt((1.0 - mu * mu) * var / 2.0)
            b = mu * abs(g0) / s
            res = scipy.stats.kstest(mags, "rice", args=(b, 0.0, s))
            assert res.pvalue > 0.01

    def test_single_port_column(self):
        rng = np.random.default_rng(8)
        g = _sample_port_gains(0.7, 2.0, 1, 50_000, rng)
        assert g.shape == (50_000, 1)
        mean2 = float(np.mean(np.abs(g) ** 2))
        assert mean2 == pytest.approx(2.0, abs=4.0 * 2.0 / math.sqrt(50_000))

    def test_degenerate_correlation_collapses_ports(self):
        # mu ~ 1: every port follows the reference port almost exactly
        rng = np.random.default_rng(15)
        mu = correlation_mu(1e-9)
        g = _sample_port_gains(mu, 1.0, 6, 2_000, rng)
        spread = np.max(np.abs(g - g[:, :1]))
        assert spread < 1e-3


class TestCorrelationGuards:
    def test_mixing_radicand_guard(self, monkeypatch):
        import fasmon.channel as channel
        monkeypatch.setattr(channel, "hyp1f2_half", lambda w: 2.0)
        with pytest.raises(ComputationError):
            correlation_mu(5.0)
