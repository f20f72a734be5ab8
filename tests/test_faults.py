"""Tests for the deterministic fault-injection framework (repro.faults)."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultSpecError,
    JobFaults,
    LinkFaults,
    parse_fault_spec,
)


class TestSpecParsing:
    def test_full_grammar(self):
        inj = parse_fault_spec("seed=42;crash:p=0.3;bitflip:p=1:n=2;outage:at=5:dur=2")
        assert inj.seed == 42
        kinds = [k for k, _ in inj.clauses]
        assert kinds == ["crash", "bitflip", "outage"]

    def test_defaults_filled_in(self):
        inj = parse_fault_spec("crash")
        _, params = inj.clauses[0]
        assert params["p"] == 1.0 and params["attempts"] == 1

    def test_int_params_coerced(self):
        inj = parse_fault_spec("bitflip:n=3")
        assert inj.clauses[0][1]["n"] == 3
        assert isinstance(inj.clauses[0][1]["n"], int)

    @pytest.mark.parametrize("bad", [
        "", "   ", "seed=abc", "frobnicate", "crash:wat=1",
        "bitflip:n", "slow:delay=fast",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad)

    def test_spec_error_is_value_error(self):
        with pytest.raises(ValueError):
            parse_fault_spec("nope")

    def test_describe_roundtrips(self):
        for spec in ("seed=7;crash:p=0.5;outage:at=3:dur=1",
                     "seed=3;stall:p=0.123456789"):  # more digits than %g keeps
            inj = parse_fault_spec(spec)
            again = parse_fault_spec(inj.describe())
            assert again.seed == inj.seed
            assert again.clauses == inj.clauses


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = parse_fault_spec("seed=9;crash:p=0.5;slow:p=0.5:delay=0.01")
        b = parse_fault_spec("seed=9;crash:p=0.5;slow:p=0.5:delay=0.01")
        for i in range(50):
            assert a.job_faults("chunk", i) == b.job_faults("chunk", i)

    def test_different_seed_differs(self):
        a = parse_fault_spec("seed=1;crash:p=0.5")
        b = parse_fault_spec("seed=2;crash:p=0.5")
        decisions_a = [a.job_faults("s", i).crash_attempts for i in range(64)]
        decisions_b = [b.job_faults("s", i).crash_attempts for i in range(64)]
        assert decisions_a != decisions_b

    def test_probability_roughly_respected(self):
        inj = parse_fault_spec("seed=3;crash:p=0.25")
        hits = sum(inj.job_faults("s", i).any for i in range(1000))
        assert 150 < hits < 350

    def test_corrupt_blob_reproducible(self):
        inj = parse_fault_spec("seed=5;bitflip:n=4")
        blob = bytes(range(256)) * 4
        out1, ev1 = inj.corrupt_blob(blob, "k")
        out2, ev2 = inj.corrupt_blob(blob, "k")
        assert out1 == out2 and ev1 == ev2
        assert out1 != blob and len(ev1[0]["bits"]) == 4


class TestOnlyPinning:
    def test_crash_only_one_job(self):
        inj = parse_fault_spec("seed=0;crash:only=3")
        planned = [inj.job_faults("s", i).crash_attempts for i in range(6)]
        assert planned == [0, 0, 0, 1, 0, 0]

    def test_bitflip_only_one_blob(self):
        inj = parse_fault_spec("seed=0;bitflip:only=1")
        blob = b"x" * 100
        same, ev0 = inj.corrupt_blob(blob, "k0", index=0)
        hit, ev1 = inj.corrupt_blob(blob, "k1", index=1)
        assert same == blob and ev0 == []
        assert hit != blob and ev1[0]["fault"] == "bitflip"

    def test_only_requires_index(self):
        """Pinned clauses never fire when the caller has no subject index."""
        inj = parse_fault_spec("seed=0;truncate:only=2")
        out, events = inj.corrupt_blob(b"y" * 50, "whole-blob")
        assert out == b"y" * 50 and events == []


class TestBlobCorruption:
    def test_truncate_keeps_fraction(self):
        inj = parse_fault_spec("seed=1;truncate:frac=0.25")
        out, events = inj.corrupt_blob(b"z" * 100, "k")
        assert len(out) == 25
        assert events[0] == {"fault": "truncate", "key": "k", "kept": 25}

    def test_no_storage_clauses_no_change(self):
        inj = parse_fault_spec("seed=1;crash;outage")
        out, events = inj.corrupt_blob(b"abc", "k")
        assert out == b"abc" and events == []

    def test_empty_blob_survives(self):
        inj = parse_fault_spec("seed=1;bitflip;truncate")
        out, _ = inj.corrupt_blob(b"", "k")
        assert out == b""


class TestLinkFaults:
    def test_collapse_from_spec(self):
        inj = parse_fault_spec("seed=4;outage:at=2:dur=3;outage:at=10:dur=1;drop:p=0.5")
        lf = inj.link_faults()
        assert lf.outages == ((2.0, 5.0), (10.0, 11.0))
        assert lf.drop_p == 0.5 and lf.seed == 4

    def test_no_wan_clauses_gives_none(self):
        assert parse_fault_spec("seed=4;crash").link_faults() is None

    def test_drop_deterministic_and_bounded(self):
        lf = LinkFaults(drop_p=1.0, max_attempts=3, seed=1)
        assert lf.dropped(0, 1) and lf.dropped(0, 2)
        assert not lf.dropped(0, 3)  # exhausted: deliver anyway

    def test_retransmit_backoff_doubles(self):
        lf = LinkFaults(backoff=0.5)
        assert [lf.retransmit_delay(a) for a in (1, 2, 3)] == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize("kwargs", [
        {"drop_p": 1.5}, {"max_attempts": 0}, {"backoff": -1},
        {"outages": ((3.0, 1.0),)},
    ])
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LinkFaults(**kwargs)


class TestJobFaults:
    def test_any_flag(self):
        assert not JobFaults().any
        assert JobFaults(crash_attempts=1).any
        assert JobFaults(delay=0.1).any


class TestOffendingTokenErrors:
    """Spec errors must name the clause token that failed, not just a kind."""

    @pytest.mark.parametrize("spec, token", [
        ("crash:p=0.5;slw:delay=1", "'slw:delay=1'"),
        ("seed=xyz;crash", "'seed=xyz'"),
        ("stall:dely=1", "'stall:dely=1'"),
        ("bloberr:op=sideways", "'bloberr:op=sideways'"),
        ("abort:p=high", "'abort:p=high'"),
        ("crash:p", "'crash:p'"),
    ])
    def test_error_names_offending_token(self, spec, token):
        with pytest.raises(FaultSpecError, match="offending token") as exc:
            parse_fault_spec(spec)
        assert token in str(exc.value)

    def test_unknown_kind_lists_valid_kinds(self):
        with pytest.raises(FaultSpecError) as exc:
            parse_fault_spec("frobnicate:p=1")
        message = str(exc.value)
        for kind in ("crash", "stall", "bloberr", "abort"):
            assert kind in message


class TestServiceFaults:
    def test_new_kinds_parse_with_defaults(self):
        inj = parse_fault_spec("seed=5;stall;bloberr;abort")
        params = dict(inj.clauses)
        assert params["stall"]["delay"] == 0.25
        assert params["bloberr"]["op"] == "any"
        assert params["abort"]["p"] == 1.0

    def test_handler_delay_deterministic(self):
        inj = parse_fault_spec("seed=5;stall:p=0.5:delay=0.3")
        delays = [inj.handler_delay(i) for i in range(50)]
        assert delays == [inj.handler_delay(i) for i in range(50)]
        assert set(delays) == {0.0, 0.3}

    def test_blob_error_respects_op_filter(self):
        inj = parse_fault_spec("seed=5;bloberr:p=1:op=write")
        assert inj.blob_error("write", 0)
        assert not inj.blob_error("read", 0)
        any_op = parse_fault_spec("seed=5;bloberr:p=1")
        assert any_op.blob_error("read", 0) and any_op.blob_error("write", 0)

    def test_abort_pinned_with_only(self):
        inj = parse_fault_spec("seed=5;abort:p=1:only=2")
        assert [inj.abort_request(i) for i in range(4)] == \
            [False, False, True, False]

    def test_no_service_clauses_are_inert(self):
        inj = parse_fault_spec("seed=5;crash:p=1")
        assert inj.handler_delay(0) == 0.0
        assert not inj.blob_error("read", 0)
        assert not inj.abort_request(0)

    def test_shard_kill_is_pure_and_seed_pinned(self):
        inj = parse_fault_spec("seed=9;shardkill:p=1")
        victim = inj.shard_kill(0, n_shards=2)
        assert victim in (0, 1)
        # pure: same (seed, index, n_shards) -> same victim, every time
        assert all(parse_fault_spec("seed=9;shardkill:p=1")
                   .shard_kill(0, n_shards=2) == victim for _ in range(5))
        # a different seed is free to condemn the other shard
        other = parse_fault_spec("seed=21;shardkill:p=1").shard_kill(0, 2)
        assert other in (0, 1)

    def test_shard_kill_explicit_target_wins(self):
        inj = parse_fault_spec("seed=9;shardkill:p=1:shard=1")
        assert inj.shard_kill(0, n_shards=4) == 1
        assert inj.shard_kill(7, n_shards=4) == 1  # pinned at every step
        # the pin is taken modulo the fleet size
        assert parse_fault_spec("seed=9;shardkill:p=1:shard=5") \
            .shard_kill(0, n_shards=2) == 1

    def test_shard_kill_gated_by_probability_and_only(self):
        never = parse_fault_spec("seed=9;shardkill:p=0")
        assert all(never.shard_kill(i, 2) is None for i in range(10))
        pinned = parse_fault_spec("seed=9;shardkill:p=1:only=3")
        hits = [pinned.shard_kill(i, 2) is not None for i in range(5)]
        assert hits == [False, False, False, True, False]

    def test_shard_kill_rejects_empty_fleet(self):
        inj = parse_fault_spec("seed=9;shardkill:p=1")
        with pytest.raises(ValueError):
            inj.shard_kill(0, n_shards=0)

    def test_without_shardkill_clause_nothing_dies(self):
        inj = parse_fault_spec("seed=9;stall:p=1")
        assert inj.shard_kill(0, n_shards=2) is None
