"""The tuner's pooled dispatch: same trials as in-process, clean exits.

``AutoTuner.tune`` scores its prediction groups one job each on a process
pool (``repro.parallel``'s job loop) unless ``workers=1``. The worker count
must not change a single trial, a bug in a trial must still surface as its
own exception type, and a finished tune must leave no process behind.
"""

import multiprocessing
import os
from multiprocessing import resource_tracker

import pytest

import repro.core.autotune as autotune
from repro import obs
from repro.core import AutoTuner
from repro.datasets import hurricane_t

from tests.core.test_autotune_contract import CASES, EB


def tune(case, workers):
    make, rate, _ = CASES[case]
    f = make()
    return AutoTuner(sampling_rate=rate, workers=workers,
                     **f.tuner_kwargs()).tune(f.data, abs_eb=EB, mask=f.mask)


@pytest.mark.parametrize("case", sorted(CASES))
def test_pooled_trials_equal_in_process_trials(case):
    serial, pooled = tune(case, 1), tune(case, 2)
    assert (serial.workers, pooled.workers) == (1, 2)
    assert ([(t.config, t.est_ratio) for t in pooled.trials]
            == [(t.config, t.est_ratio) for t in serial.trials])
    assert pooled.best == serial.best
    assert pooled.period == serial.period
    assert pooled.sample_shape == serial.sample_shape


def test_pooled_spans_and_counters_reach_the_run():
    with obs.run() as run:
        res = tune("hurricane-unmasked", 2)
    assert run.metrics.counter("autotune.predictions").value == len(res.trials) // 2
    paths = {r["path"] for r in run.span_records()}
    assert "autotune.dispatch" in paths
    assert any(p.startswith("autotune.dispatch/worker") for p in paths)


def test_a_trial_bug_propagates_from_the_pool(monkeypatch):
    real = autotune.encode

    def broken(pred, cfg):
        if cfg.binclass and cfg.fitting == "cubic":
            raise TypeError("encode bug")
        return real(pred, cfg)

    # forked workers inherit the patched module
    monkeypatch.setattr(autotune, "encode", broken)
    with pytest.raises(TypeError, match="encode bug"):
        tune("hurricane-unmasked", 2)
    assert multiprocessing.active_children() == []


def test_pooled_tune_leaves_no_process_behind(monkeypatch):
    def refuse():
        raise AssertionError("the tune started or used the resource tracker")

    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    monkeypatch.setattr(tracker, "ensure_running", refuse)
    assert tune("ssh-periodic-masked", 2).workers == 2
    assert multiprocessing.active_children() == []
    assert tracker._pid == pid


def test_default_workers_are_two_capped_by_cpus_and_groups():
    f = hurricane_t(shape=(20, 48, 48), seed=3)
    res = AutoTuner(sampling_rate=0.02, **f.tuner_kwargs()).tune(f.data, abs_eb=EB)
    assert res.workers == min(2, len(os.sched_getaffinity(0)), len(res.trials) // 2)
    one_group = AutoTuner(sampling_rate=0.02, max_layouts=1, fittings=("linear",),
                          try_binclass=False).tune(f.data, abs_eb=EB)
    assert len(one_group.trials) == 1 and one_group.workers == 1


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        AutoTuner(workers=workers)
