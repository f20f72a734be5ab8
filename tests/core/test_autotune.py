"""Tests for the sampling-based auto-tuner."""

import numpy as np
import pytest

from repro.core import AutoTuner, CliZ
from repro.core.autotune import assemble_sample, sample_blocks


def field(nlat=36, nlon=30, nt=72, period=12, seed=0, noise=0.002):
    rng = np.random.default_rng(seed)
    lat = np.sin(np.linspace(0, 3, nlat))[:, None, None]
    lon = np.cos(np.linspace(0, 2, nlon))[None, :, None]
    cycle = rng.standard_normal(period)
    temporal = np.tile(cycle, nt // period + 1)[:nt][None, None, :]
    return lat * lon + temporal + noise * rng.standard_normal((nlat, nlon, nt))


class TestSampling:
    def test_block_count_is_2_to_n(self):
        assert len(sample_blocks((100, 100), 0.01)) == 4
        assert len(sample_blocks((50, 50, 50), 0.01)) == 8

    def test_block_volume_approximates_rate(self):
        shape = (200, 300, 400)
        blocks = sample_blocks(shape, 0.01)
        vol = sum(int(np.prod([s.stop - s.start for s in b])) for b in blocks)
        assert 0.25 * 0.01 <= vol / np.prod(shape) <= 4 * 0.01

    def test_blocks_within_bounds(self):
        for b in sample_blocks((17, 23, 31), 0.5):
            for s, n in zip(b, (17, 23, 31)):
                assert 0 <= s.start < s.stop <= n

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            sample_blocks((10, 10), 0.0)
        with pytest.raises(ValueError):
            sample_blocks((10, 10), 1.5)

    def test_assemble_shape(self):
        data = np.arange(1000.0).reshape(10, 10, 10)
        blocks = sample_blocks(data.shape, 0.2)
        sample = assemble_sample(data, blocks)
        assert sample.ndim == 3
        assert all(s % 2 == 0 for s in sample.shape)

    def test_full_axes_span_entirely(self):
        blocks = sample_blocks((100, 100, 100), 0.001, full_axes=(2,))
        assert len(blocks) == 4  # 2^2 corners over the sampled dims
        for b in blocks:
            assert (b[2].start, b[2].stop) == (0, 100)

    def test_all_axes_full_returns_whole_array(self):
        blocks = sample_blocks((10, 12), 0.5, full_axes=(0, 1))
        assert blocks == [(slice(0, 10), slice(0, 12))]


class TestTuner:
    def test_candidate_count_matches_paper(self):
        """§VII-C2: 192 pipelines for a periodic 3D dataset, 96 without."""
        tuner = AutoTuner(time_axis=2, horiz_axes=(0, 1))
        assert len(tuner.candidate_pipelines(3, period=12)) == 192
        assert len(tuner.candidate_pipelines(3, period=None)) == 96

    def test_tune_returns_valid_config(self):
        data = field()
        tuner = AutoTuner(sampling_rate=0.02, time_axis=2, horiz_axes=(0, 1),
                          max_layouts=4)
        res = tuner.tune(data, abs_eb=1e-3)
        assert res.period == 12
        assert res.best in [t.config for t in res.trials]
        assert all(t.est_ratio >= 0 for t in res.trials)
        # the chosen pipeline actually works on the full data
        blob = CliZ(res.best).compress(data, abs_eb=1e-3)
        dec = CliZ(res.best).decompress(blob)
        assert np.abs(dec - data).max() <= 1e-3

    def test_best_is_argmax(self):
        data = field(nlat=18, nlon=16, nt=48)
        tuner = AutoTuner(sampling_rate=0.05, max_layouts=3,
                          fittings=("linear",), try_binclass=False)
        res = tuner.tune(data, abs_eb=1e-3)
        best_ratio = max(t.est_ratio for t in res.trials)
        chosen = [t for t in res.trials if t.config == res.best][0]
        assert chosen.est_ratio == best_ratio

    def test_masked_tuning(self):
        data = field(nlat=18, nlon=16, nt=48)
        mask2d = (np.add.outer(np.arange(18), np.arange(16)) % 3) != 0
        mask = np.broadcast_to(mask2d[:, :, None], data.shape).copy()
        tuner = AutoTuner(sampling_rate=0.05, max_layouts=2, fittings=("linear",),
                          try_binclass=False, try_periodic=False)
        res = tuner.tune(data, abs_eb=1e-3, mask=mask)
        assert max(t.est_ratio for t in res.trials) > 0

    def test_lower_rate_is_faster(self):
        # in-process tunes: a pooled tune's time is mostly pool start-up,
        # which machine load can tip either way
        data = field(nlat=48, nlon=40, nt=96)
        common = dict(time_axis=2, max_layouts=6, fittings=("linear",),
                      try_binclass=False, try_periodic=False, workers=1)
        slow = AutoTuner(sampling_rate=0.2, **common).tune(data, abs_eb=1e-3)
        fast = AutoTuner(sampling_rate=0.005, **common).tune(data, abs_eb=1e-3)
        assert fast.total_time < slow.total_time

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            AutoTuner(sampling_rate=0.0)

    @pytest.mark.parametrize("max_layouts", [0, -1])
    def test_max_layouts_below_one_rejected(self, max_layouts):
        # 0 leaves no candidates to pick from; a negative cap would slice
        # layouts off the end of the list
        with pytest.raises(ValueError, match="max_layouts"):
            AutoTuner(max_layouts=max_layouts)


class TestDegenerateCandidates:
    """Regression guard for the narrowed candidate-evaluation catch.

    ``AutoTuner.tune`` scores a failing candidate out of the race by
    catching ``(ValueError, ArithmeticError, LookupError,
    NotImplementedError)``. These tests pin the exception types that
    known-invalid layout/period combos actually raise to members of that
    tuple, so narrowing it further would fail here instead of aborting
    tunes in the field.
    """

    CAUGHT = (ValueError, ArithmeticError, LookupError, NotImplementedError)

    def test_known_invalid_combos_raise_within_caught_tuple(self):
        from repro.core import Layout, PipelineConfig

        data = field(nlat=8, nlon=6, nt=24).astype(np.float32)
        bad = [
            # layout dimensionality does not match the data
            PipelineConfig(layout=Layout.identity(2)),
            # periodic extraction along an axis the data does not have
            PipelineConfig(layout=Layout.identity(3), periodic=True,
                           time_axis=7, period=12),
            # bin classification over out-of-range horizontal axes
            PipelineConfig(layout=Layout.identity(3), binclass=True,
                           horiz_axes=(5, 6)),
        ]
        for cfg in bad:
            with pytest.raises(self.CAUGHT):
                CliZ(cfg).compress(data, abs_eb=1e-3)

    def test_tune_scores_degenerate_candidate_out_of_race(self, monkeypatch):
        from repro.core import Layout, PipelineConfig

        data = field(nlat=18, nlon=16, nt=48)
        real = AutoTuner.candidate_pipelines

        def with_bad_candidate(self, ndim, period):
            bad = PipelineConfig(layout=Layout.identity(ndim - 1))
            return [bad] + real(self, ndim, period)

        monkeypatch.setattr(AutoTuner, "candidate_pipelines", with_bad_candidate)
        tuner = AutoTuner(sampling_rate=0.05, max_layouts=2,
                          fittings=("linear",), try_binclass=False,
                          try_periodic=False)
        res = tuner.tune(data, abs_eb=1e-3)
        assert res.trials[0].est_ratio == 0.0          # scored out, not fatal
        assert res.best.layout.ndim_in == data.ndim    # a valid config won
        assert max(t.est_ratio for t in res.trials) > 0
