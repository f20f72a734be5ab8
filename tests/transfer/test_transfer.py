"""Tests for the WAN link model and the Globus scenario simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transfer import (
    PAPER_SPEEDS,
    ThroughputModel,
    WanLink,
    fair_share_stats,
    simulate_globus,
)


class TestWanLink:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            WanLink(bandwidth=0)
        with pytest.raises(ValueError):
            WanLink(bandwidth=1, latency=-1)

    def test_single_flow_time(self):
        link = WanLink(bandwidth=100.0, latency=0.0)
        done, _ = fair_share_stats(np.array([0.0]), np.array([1000.0]), link)
        assert done[0] == pytest.approx(10.0)

    def test_latency_added(self):
        link = WanLink(bandwidth=100.0, latency=2.0)
        done, _ = fair_share_stats(np.array([0.0]), np.array([100.0]), link)
        assert done[0] == pytest.approx(3.0)

    def test_two_simultaneous_flows_share(self):
        link = WanLink(bandwidth=100.0, latency=0.0)
        done, _ = fair_share_stats(np.zeros(2), np.array([500.0, 500.0]), link)
        np.testing.assert_allclose(done, [10.0, 10.0])

    def test_short_flow_finishes_first_then_rate_recovers(self):
        link = WanLink(bandwidth=100.0, latency=0.0)
        done, _ = fair_share_stats(np.zeros(2), np.array([100.0, 1000.0]), link)
        # both at 50 B/s until t=2 (short done); long has 900 left at 100 B/s
        assert done[0] == pytest.approx(2.0)
        assert done[1] == pytest.approx(11.0)

    def test_staggered_arrivals(self):
        link = WanLink(bandwidth=100.0, latency=0.0)
        done, _ = fair_share_stats(np.array([0.0, 5.0]), np.array([1000.0, 100.0]), link)
        # flow 0 alone for 5 s (500 done); then shared
        assert done[1] == pytest.approx(7.0)
        assert done[0] == pytest.approx(11.0)

    def test_total_work_conserved(self):
        rng = np.random.default_rng(0)
        link = WanLink(bandwidth=50.0, latency=0.0)
        sizes = rng.uniform(10, 1000, 30)
        arrivals = rng.uniform(0, 10, 30)
        done, _ = fair_share_stats(arrivals, sizes, link)
        # last completion cannot beat total-bytes / bandwidth
        assert done.max() >= sizes.sum() / link.bandwidth - 1e-6
        assert (done >= arrivals).all()

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_completions_after_arrivals_property(self, n, seed):
        rng = np.random.default_rng(seed)
        link = WanLink(bandwidth=float(rng.uniform(1, 100)), latency=float(rng.uniform(0, 2)))
        arrivals = rng.uniform(0, 100, n)
        sizes = rng.uniform(1, 1000, n)
        done, _ = fair_share_stats(arrivals, sizes, link)
        assert (done >= arrivals + link.latency - 1e-9).all()
        assert (done >= arrivals + sizes / link.bandwidth + link.latency - 1e-6).all()


class TestGlobusScenario:
    LINK = WanLink(bandwidth=1e9, latency=0.5)

    def test_smaller_files_finish_sooner(self):
        big = simulate_globus("sz3", n_cores=64, uncompressed_bytes=10**9,
                              compressed_bytes=[10**8] * 64, link=self.LINK)
        small = simulate_globus("cliz", n_cores=64, uncompressed_bytes=10**9,
                                compressed_bytes=[4 * 10**7] * 64, link=self.LINK)
        assert small.total_time < big.total_time

    def test_zfp_compression_slower(self):
        """Paper Fig. 13: ZFP compression is ~20% slower than CliZ/SZ3."""
        cz = simulate_globus("cliz", n_cores=8, uncompressed_bytes=10**9,
                             compressed_bytes=[10**7] * 8, link=self.LINK)
        zf = simulate_globus("zfp", n_cores=8, uncompressed_bytes=10**9,
                             compressed_bytes=[10**7] * 8, link=self.LINK)
        assert zf.compress_time > cz.compress_time
        assert zf.compress_time / cz.compress_time == pytest.approx(8.82 / 7.37, rel=0.01)

    def test_more_files_than_cores_queue(self):
        one_round = simulate_globus("cliz", n_cores=16, uncompressed_bytes=10**8,
                                    compressed_bytes=[10**6] * 16, link=self.LINK)
        two_rounds = simulate_globus("cliz", n_cores=8, uncompressed_bytes=10**8,
                                     compressed_bytes=[10**6] * 16, link=self.LINK)
        assert two_rounds.compress_time == pytest.approx(2 * one_round.compress_time)

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            simulate_globus("gzip", n_cores=1, uncompressed_bytes=1,
                            compressed_bytes=[1], link=self.LINK)

    def test_empty_files_rejected(self):
        with pytest.raises(ValueError):
            simulate_globus("cliz", n_cores=1, uncompressed_bytes=1,
                            compressed_bytes=[], link=self.LINK)

    def test_paper_speed_table_complete(self):
        for codec in ("cliz", "sz3", "zfp", "qoz", "sperr"):
            assert isinstance(PAPER_SPEEDS[codec], ThroughputModel)
