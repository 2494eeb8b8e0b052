"""Monte Carlo estimators against the analytic forms.

These tests pin the seeding contract (bit-identical replay), the binomial
confidence interval, and statistical agreement with closed forms and
quadratures computed through completely separate code paths. Agreement
tolerances are multiples of the binomial standard error, not the reported
95% half width.
"""

import dataclasses
import math
import threading
import tracemalloc

import pytest

import fasmon.channel
import fasmon.mcsim
from fasmon import (DomainError, RatePoint, derive_link, estimate_monitor_outage,
                    estimate_monitoring_rate, estimate_sd_outage,
                    monitor_outage_true, sd_outage)

_Z95 = 1.959963984540054


def _sigma(est):
    return est.half_width_95 / _Z95


class TestReproducibility:
    def test_sd_outage_bit_identical(self, ref_params):
        rp = RatePoint(1.5)
        a = estimate_sd_outage(ref_params, rp, 115.80906, 200_000, seed=7)
        b = estimate_sd_outage(ref_params, rp, 115.80906, 200_000, seed=7)
        assert a == b

    def test_monitor_outage_bit_identical(self, ref_params, ref_link):
        rp = RatePoint(1.5)
        a = estimate_monitor_outage(ref_params, ref_link, rp, 8, 200_000, seed=7)
        b = estimate_monitor_outage(ref_params, ref_link, rp, 8, 200_000, seed=7)
        assert a == b

    def test_seed_changes_result(self, ref_params):
        rp = RatePoint(1.5)
        a = estimate_sd_outage(ref_params, rp, 115.80906, 200_000, seed=7)
        b = estimate_sd_outage(ref_params, rp, 115.80906, 200_000, seed=8)
        assert a.mean != b.mean

    # best-port hit counts at RatePoint(1.5) over three chunks (two full,
    # one partial), recorded with the full-matrix reference of
    # tests/test_channel.py (_full_matrix_hits) run on each chunk's
    # generator; a change to the draw order, the row block or chunk size or
    # the (seed, chunk) keying moves them
    @pytest.mark.parametrize("seed, n_ports, hits", [
        (7, 1, 180315), (7, 8, 13042), (7, 16, 701),
        (2029, 1, 180062), (2029, 8, 13118), (2029, 16, 780),
    ])
    def test_monitor_outage_stream_pinned(self, ref_params, ref_link, seed,
                                          n_ports, hits):
        n = 2 * (1 << 17) + 999
        est = estimate_monitor_outage(ref_params, ref_link, RatePoint(1.5),
                                      n_ports, n, seed)
        assert est.mean == hits / n

    def test_chunking_invisible_in_metadata(self, ref_params):
        # n above one chunk boundary: fields still reflect the full run
        est = estimate_sd_outage(ref_params, RatePoint(1.0), 50.0,
                                 (1 << 17) + 1234, seed=3)
        assert est.n_samples == (1 << 17) + 1234
        assert est.seed == 3

    def test_estimates_carry_the_checked_ints(self, ref_params, ref_link):
        # integral floats are accepted as counts; the estimate reports them
        # as the ints the draws used
        rp = RatePoint(1.0)
        estimates = [
            estimate_sd_outage(ref_params, rp, 50.0, 100.0, 7.0),
            estimate_monitor_outage(ref_params, ref_link, rp, 8, 100.0, 7.0),
            *fasmon.mcsim.estimate_monitoring_rates(
                [(ref_params, ref_link, rp, 8, 100.0, 7.0)])]
        for est in estimates:
            assert (est.n_samples, est.seed) == (100, 7)
            assert type(est.n_samples) is int and type(est.seed) is int


class TestWorkerCount:
    def test_monitor_outage_independent_of_workers(self, ref_params, ref_link,
                                                   worker_cap, monkeypatch):
        # 10^6 draws are 8 blocks: one worker runs them in this thread in
        # order, three run them on the pool in whatever order they finish
        real = fasmon.mcsim._monitor_block_hits
        threads = []

        def recorded(*args):
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(fasmon.mcsim, "_monitor_block_hits", recorded)
        estimates = {}
        for cap in (1, 3):
            worker_cap(cap)
            threads.clear()
            estimates[cap] = estimate_monitor_outage(
                ref_params, ref_link, RatePoint(1.5), 8, 1_000_000, seed=2031)
            on_main = [t is threading.main_thread() for t in threads]
            assert len(threads) == 8
            assert all(on_main) if cap == 1 else not any(on_main)
        assert estimates[1] == estimates[3]


class TestMemory:
    def test_best_port_block_holds_one_row_block(self):
        # a 2^17-draw block at 64 ports screens 12288 rows at a time: two
        # arrays of one row block's parts, 384 KiB, not the 130 MiB that
        # every port of the whole block would take
        tracemalloc.start()
        try:
            fasmon.mcsim._monitor_block_hits(0.6, 1.0, 64, 0.5, 7, 0, 1 << 17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestConfidenceInterval:
    def test_half_width_formula(self, ref_params):
        est = estimate_sd_outage(ref_params, RatePoint(1.5), 115.80906,
                                 50_000, seed=11)
        expected = _Z95 * math.sqrt(est.mean * (1.0 - est.mean) / est.n_samples)
        assert est.half_width_95 == expected

    def test_no_hits_or_all_hits_keep_a_width(self, ref_params, ref_link):
        # Wald's width is 0 at a mean of 0 or 1; the exact 95% bound is not
        n = 1000
        half = -math.expm1(math.log(0.025) / n)
        none = estimate_sd_outage(ref_params, RatePoint(1e-9), 0.0, n, seed=1)
        every = estimate_monitor_outage(ref_params, ref_link, RatePoint(40.0),
                                        8, n, seed=1)
        assert (none.mean, every.mean) == (0.0, 1.0)
        assert none.half_width_95 == every.half_width_95 == half
        assert half == pytest.approx(3.69 / n, rel=0.01)

    def test_width_scales_as_root_n(self, ref_params):
        rp = RatePoint(1.5)
        small = estimate_sd_outage(ref_params, rp, 115.80906, 50_000, seed=11)
        large = estimate_sd_outage(ref_params, rp, 115.80906, 200_000, seed=11)
        assert large.half_width_95 == pytest.approx(
            0.5 * small.half_width_95, rel=0.2)


class TestAgainstAnalytic:
    def test_sd_outage(self, ref_params):
        rp = RatePoint(1.5)
        closed = sd_outage(ref_params, rp, 115.80906)
        est = estimate_sd_outage(ref_params, rp, 115.80906, 400_000, seed=2024)
        assert abs(est.mean - closed) <= 3.0 * _sigma(est)

    def test_sd_outage_no_jamming(self, ref_params):
        rp = RatePoint(2.0)
        closed = sd_outage(ref_params, rp, 0.0)
        est = estimate_sd_outage(ref_params, rp, 0.0, 400_000, seed=2025)
        assert abs(est.mean - closed) <= 3.0 * _sigma(est)

    def test_monitor_outage(self, ref_params, ref_link):
        rp = RatePoint(1.5)
        quad = monitor_outage_true(ref_link, rp, 8)
        est = estimate_monitor_outage(ref_params, ref_link, rp, 8,
                                      400_000, seed=2026)
        assert abs(est.mean - quad) <= 3.0 * _sigma(est)

    def test_monitor_outage_high_correlation(self, ref_params):
        # W = 0.1 gives mu = 0.9918: with 16 ports the integrand steps within
        # 1/11 in u = sqrt(t), where one global Laguerre rule never settled
        params = dataclasses.replace(ref_params, aperture_w=0.1, n_ports=16)
        link = derive_link(params)
        rp = RatePoint(1.5)
        quad = monitor_outage_true(link, rp, 16)
        est = estimate_monitor_outage(params, link, rp, 16, 1_000_000, seed=2030)
        assert abs(est.mean - quad) <= 3.0 * _sigma(est)

    def test_monitor_outage_single_port(self, ref_params, ref_link):
        rp = RatePoint(1.0)
        closed = -math.expm1(-rp.gamma_th / ref_link.gamma_cap)
        est = estimate_monitor_outage(ref_params, ref_link, rp, 1,
                                      400_000, seed=2027)
        assert abs(est.mean - closed) <= 3.0 * _sigma(est)

    def test_detects_corrupted_mixing(self, ref_params, ref_link, monkeypatch):
        # a wrong residual weight must push the sampler visibly off the
        # quadrature prediction, proving the two routes are independent
        monkeypatch.setattr(fasmon.channel, "_mix_weight", lambda mu: 1.0 - mu)
        rp = RatePoint(1.5)
        quad = monitor_outage_true(ref_link, rp, 8)
        est = estimate_monitor_outage(ref_params, ref_link, rp, 8,
                                      200_000, seed=2028)
        assert abs(est.mean - quad) > 5.0 * _sigma(est)


class TestMonitoringRate:
    def test_derived_from_outage(self, ref_params, ref_link):
        rp = RatePoint(1.5)
        out = estimate_monitor_outage(ref_params, ref_link, rp, 8,
                                      100_000, seed=99)
        rate = estimate_monitoring_rate(ref_params, ref_link, rp, 8,
                                        100_000, seed=99)
        assert rate.mean == rp.rate_r * (1.0 - out.mean)
        assert rate.half_width_95 == rp.rate_r * out.half_width_95


class TestInputChecks:
    def test_rejects_bad_runs(self, ref_params, ref_link):
        rp = RatePoint(1.0)
        with pytest.raises(DomainError):
            estimate_sd_outage(ref_params, rp, 10.0, 0, seed=1)
        with pytest.raises(DomainError):
            estimate_sd_outage(ref_params, rp, 10.0, 100, seed=-1)
        with pytest.raises(DomainError):
            estimate_sd_outage(ref_params, rp, -1.0, 100, seed=1)
        with pytest.raises(DomainError):
            estimate_monitor_outage(ref_params, ref_link, rp, 0, 100, seed=1)

    def test_rejects_a_port_count_past_int64(self, ref_params, ref_link):
        # refused before any draw, not by numpy's array-size check
        rp = RatePoint(1.0)
        with pytest.raises(DomainError, match="n_ports must lie in"):
            estimate_monitor_outage(ref_params, ref_link, rp, 2 ** 64, 100, seed=1)
        with pytest.raises(DomainError, match="n_ports must lie in"):
            estimate_monitor_outage(ref_params, ref_link, rp, 2 ** 63, 100, seed=1)
