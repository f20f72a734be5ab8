"""WAN link faults: outages, drop/retransmit, and the progress guard."""

import numpy as np
import pytest

import repro.transfer.network as network
from repro.faults import LinkFaults, parse_fault_spec
from repro.transfer import (
    WanLink,
    fair_share_stats,
    simulate_globus,
)

LINK = WanLink(bandwidth=100.0, latency=0.0)


class TestOutages:
    def test_flow_stalls_through_outage(self):
        # 1000 B at 100 B/s = 10 s; a 2-5 s dark window adds exactly 3 s
        faults = LinkFaults(outages=((2.0, 5.0),))
        done, stats = fair_share_stats(np.array([0.0]), np.array([1000.0]),
                                       LINK, faults=faults)
        assert done[0] == pytest.approx(13.0)
        assert stats["outage_time"] == pytest.approx(3.0)

    def test_outage_before_arrival_is_free(self):
        faults = LinkFaults(outages=((0.0, 1.0),))
        done, stats = fair_share_stats(np.array([5.0]), np.array([100.0]),
                                       LINK, faults=faults)
        assert done[0] == pytest.approx(6.0)
        assert stats["outage_time"] == 0.0

    def test_arrival_during_outage_waits(self):
        faults = LinkFaults(outages=((0.0, 4.0),))
        done, _ = fair_share_stats(np.array([1.0]), np.array([100.0]),
                                   LINK, faults=faults)
        assert done[0] == pytest.approx(5.0)

    def test_multiple_windows_accumulate(self):
        faults = LinkFaults(outages=((1.0, 2.0), (3.0, 4.0)))
        done, stats = fair_share_stats(np.array([0.0]), np.array([500.0]),
                                       LINK, faults=faults)
        assert done[0] == pytest.approx(7.0)
        assert stats["outage_time"] == pytest.approx(2.0)


class TestDropRetransmit:
    def test_deterministic_retransmit_math(self):
        # drop_p=1 with max_attempts=3: attempts 1 and 2 drop, 3 delivers.
        # 100 B at 100 B/s = 1 s per attempt; backoff 0.5 then 1.0 between.
        faults = LinkFaults(drop_p=1.0, max_attempts=3, backoff=0.5, seed=1)
        done, stats = fair_share_stats(np.array([0.0]), np.array([100.0]),
                                       LINK, faults=faults)
        assert done[0] == pytest.approx(1 + 0.5 + 1 + 1.0 + 1)
        assert stats["retransmits"] == 2
        assert stats["dropped_bytes"] == pytest.approx(200.0)
        assert stats["drops_exhausted"] == 1
        assert stats["goodput"] == pytest.approx(100.0 / 300.0)

    def test_no_drops_perfect_goodput(self):
        faults = LinkFaults(drop_p=0.0, seed=1)
        _, stats = fair_share_stats(np.array([0.0, 0.0]),
                                    np.array([100.0, 200.0]), LINK,
                                    faults=faults)
        assert stats["retransmits"] == 0 and stats["goodput"] == 1.0

    def test_same_seed_reproduces_exactly(self):
        arrivals = np.linspace(0, 2, 8)
        sizes = np.full(8, 150.0)
        runs = [fair_share_stats(arrivals, sizes, LINK,
                                 faults=LinkFaults(drop_p=0.4, seed=9))
                for _ in range(2)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_only_pins_drops_to_one_flow(self):
        faults = LinkFaults(drop_p=1.0, max_attempts=2, seed=3, only=1)
        done, stats = fair_share_stats(np.array([0.0, 0.0]),
                                       np.array([100.0, 100.0]), LINK,
                                       faults=faults)
        assert stats["retransmits"] == 1
        assert done[1] > done[0]


class TestProgressGuardRegression:
    def test_forced_completion_warns_and_counts(self, monkeypatch):
        """With the completion tolerance forced negative, no flow can finish
        normally — the guard must force each one out, warn, and count it."""
        monkeypatch.setattr(network, "_FINISH_TOL_SCALE", -1.0)
        arrivals = np.zeros(3)
        sizes = np.full(3, 100.0)
        with pytest.warns(RuntimeWarning, match="progress guard"):
            done, stats = fair_share_stats(arrivals, sizes, LINK)
        assert stats["forced_completions"] == 3
        assert (done > 0).all()  # loop still terminated with sane times

    def test_normal_run_never_forces(self):
        rng = np.random.default_rng(0)
        arrivals = np.sort(rng.uniform(0, 5, 50))
        sizes = rng.uniform(10, 1000, 50)
        _, stats = fair_share_stats(arrivals, sizes, LINK)
        assert stats["forced_completions"] == 0


class TestGlobusWithFaults:
    KW = dict(n_cores=4, uncompressed_bytes=10_000_000,
              compressed_bytes=[500_000] * 8)

    def test_outage_slows_total_time(self):
        link = WanLink(bandwidth=1e6)
        base = simulate_globus("cliz", link=link, **self.KW)
        faults = LinkFaults(outages=((0.0, 30.0),))
        hit = simulate_globus("cliz", link=link, faults=faults, **self.KW)
        assert hit.total_time > base.total_time
        assert hit.outage_time > 0

    def test_fault_injector_spec_accepted(self):
        link = WanLink(bandwidth=1e6)
        inj = parse_fault_spec("seed=2;drop:p=1:max=2:backoff=0.1")
        res = simulate_globus("cliz", link=link, faults=inj, **self.KW)
        assert res.retransmits == 8  # every file dropped exactly once
        assert res.goodput == pytest.approx(0.5)

    def test_injector_without_wan_clauses_is_noop(self):
        link = WanLink(bandwidth=1e6)
        inj = parse_fault_spec("seed=2;crash")
        res = simulate_globus("cliz", link=link, faults=inj, **self.KW)
        assert res.retransmits == 0 and res.goodput == 1.0
