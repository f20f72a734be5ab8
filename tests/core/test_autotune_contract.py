"""The tuner's shared-prediction trials against the plain per-candidate loop.

``AutoTuner.tune`` predicts once per (periodicity, layout, fitting) group
and encodes that prediction once per bin-classification choice. The
contract: every trial scores exactly what a full ``CliZ(cfg).compress`` of
the sample scores, trials come back in ``candidate_pipelines`` order, and
``best`` is the first maximum, as in a loop over the candidates, whether
the groups are scored in-process or on a process pool.
"""

import numpy as np
import pytest

import repro.core.autotune as autotune
from repro import obs
from repro.core import AutoTuner, CliZ
from repro.core.compressor import encode, predict, prediction_key
from repro.datasets import hurricane_t, ssh

CAUGHT = (ValueError, ArithmeticError, LookupError, NotImplementedError)
EB = 1e-3


def tune_capturing_sample(monkeypatch, tuner, data, mask):
    """Run ``tuner.tune`` and return (result, sample, sample_mask)."""
    seen = []
    real = autotune.assemble_sample

    def capture(arr, blocks):
        out = real(arr, blocks)
        seen.append(out)
        return out

    monkeypatch.setattr(autotune, "assemble_sample", capture)
    res = tuner.tune(data, abs_eb=EB, mask=mask)
    sample = seen[0]
    sample_mask = seen[1] if mask is not None else None
    return res, sample, sample_mask


def plain_loop(candidates, sample, sample_mask):
    ratios = []
    for cfg in candidates:
        try:
            blob = CliZ(cfg).compress(sample, abs_eb=EB, mask=sample_mask)
            ratios.append(sample.size * 4 / len(blob))
        except CAUGHT:
            ratios.append(0.0)
    return ratios


CASES = {
    # periodic and masked: 2 periodic x 2 binclass x 24 layouts x 2 fittings
    "ssh-periodic-masked": (lambda: ssh(shape=(48, 40, 120), seed=1), 0.02, 192),
    # no time axis, no mask: 2 binclass x 24 layouts x 2 fittings
    "hurricane-unmasked": (lambda: hurricane_t(shape=(20, 48, 48), seed=3), 0.02, 96),
}


@pytest.mark.parametrize("case,workers", [
    pytest.param(case, workers, id=case if workers == 1 else f"{case}-pooled")
    for case in sorted(CASES) for workers in (1, 2)])
def test_shared_trials_match_full_compress(monkeypatch, case, workers):
    make, rate, n_candidates = CASES[case]
    f = make()
    tuner = AutoTuner(sampling_rate=rate, workers=workers, **f.tuner_kwargs())
    with obs.run() as run:
        res, sample, sample_mask = tune_capturing_sample(monkeypatch, tuner, f.data, f.mask)
    if case.startswith("ssh"):
        assert res.period == 12 and sample_mask is not None and not sample_mask.all()
    else:
        assert res.period is None and sample_mask is None

    candidates = tuner.candidate_pipelines(f.data.ndim, res.period)
    assert len(candidates) == n_candidates
    assert [t.config for t in res.trials] == candidates

    ratios = plain_loop(candidates, sample, sample_mask)
    assert [t.est_ratio for t in res.trials] == ratios
    assert min(ratios) > 0
    assert res.best == candidates[int(np.argmax(ratios))]

    groups = {prediction_key(cfg) for cfg in candidates}
    assert len(groups) == n_candidates // 2
    assert run.metrics.counter("autotune.predictions").value == len(groups)
    assert all(t.trial_time > 0 for t in res.trials)
    # trial times are per-process: pooled workers overlap in wall time
    assert res.workers == workers
    assert sum(t.trial_time for t in res.trials) <= res.workers * res.total_time


def test_ties_go_to_the_first_candidate(monkeypatch):
    """Candidates that differ only in an unused encoding parameter tie exactly;
    ``best`` must be the one listed first, whichever group it sits in."""
    f = hurricane_t(shape=(20, 48, 48), seed=3)
    real = AutoTuner.candidate_pipelines

    def with_twins(self, ndim, period):
        plain = [c for c in real(self, ndim, period) if not c.binclass]
        return [c.with_(binclass_lambda=0.5) for c in plain[::-1]] + plain

    monkeypatch.setattr(AutoTuner, "candidate_pipelines", with_twins)
    tuner = AutoTuner(sampling_rate=0.02, **f.tuner_kwargs())
    res = tuner.tune(f.data, abs_eb=EB)
    half = len(res.trials) // 2
    first, second = res.trials[:half], res.trials[half:]
    # the twins' blobs differ only in one header digit
    assert [t.est_ratio for t in first[::-1]] == [t.est_ratio for t in second]
    top = max(t.est_ratio for t in res.trials)
    winner = next(t.config for t in res.trials if t.est_ratio == top)
    assert res.best == winner and res.best.binclass_lambda == 0.5


def test_encode_rejects_a_prediction_from_another_pipeline():
    f = hurricane_t(shape=(8, 16, 16), seed=3)
    tuner = AutoTuner(**f.tuner_kwargs())
    linear, cubic = tuner.candidate_pipelines(3, None)[:2]
    assert prediction_key(linear) != prediction_key(cubic)
    pred = predict(f.data, linear, abs_eb=EB)
    with pytest.raises(ValueError, match="prediction"):
        encode(pred, cubic)
    binclass = linear.with_(binclass=True)
    assert prediction_key(binclass) == prediction_key(linear)
    assert encode(pred, binclass) == CliZ(binclass).compress(f.data, abs_eb=EB)
    assert encode(pred, linear) == CliZ(linear).compress(f.data, abs_eb=EB)
