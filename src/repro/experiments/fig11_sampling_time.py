"""Fig. 11 — auto-tuning time vs sampling rate (SSH and CESM-T).

The paper shows sampling/testing time growing roughly linearly with the
sampling rate, with a constant extra cost when periodic components are
involved (SSH: 192 pipelines, CESM-T: 96). This harness runs the tuner at a
sweep of rates and prints the measured trial counts and wall-clock times.
The tuner runs in-process (``workers=1``), so "Tuning time s" is a
single-core reading, comparable with the paper's.
"""

from __future__ import annotations

from repro import AutoTuner
from repro.datasets import load
from repro.experiments.common import ExperimentResult, rel_eb_to_abs

__all__ = ["run", "main"]

DEFAULT_RATES = (0.001, 0.01, 0.05, 0.1, 0.3)


def run(datasets=("SSH", "CESM-T"), rates=DEFAULT_RATES,
        rel_eb: float = 1e-3) -> ExperimentResult:
    result = ExperimentResult(
        "Fig. 11", "Sampling and pipeline-testing time vs sampling rate"
    )
    for dataset in datasets:
        fieldobj = load(dataset)
        eb = rel_eb_to_abs(fieldobj, rel_eb)
        for rate in rates:
            tuner = AutoTuner(sampling_rate=rate, workers=1, **fieldobj.tuner_kwargs())
            res = tuner.tune(fieldobj.data, abs_eb=eb, mask=fieldobj.mask)
            result.rows.append({
                "Dataset": dataset,
                "Sampling rate": rate,
                "Pipelines": len(res.trials),
                "Sample shape": "x".join(map(str, res.sample_shape)),
                "Tuning time s": res.total_time,
                "Periodic": "Yes" if res.period else "No",
            })
    result.notes.append(
        "paper: SSH tests 192 pipelines (periodic), CESM-T 96; time grows ~linearly "
        "with rate plus a constant periodic-extraction cost"
    )
    result.notes.append(
        "tuning runs in-process (workers=1): single-core times, comparable with "
        "the paper; the default tuner scores candidates on two processes"
    )
    return result


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
