"""Schema/shape tests for the (fast) experiment harnesses.

The heavy sweeps are exercised by ``benchmarks/``; here we pin down the
row schemas and the cheap invariants so harness regressions surface in the
unit suite.
"""

import numpy as np
import pytest

from repro.experiments import ALL_EXPERIMENTS, ExperimentResult
from repro.experiments import (
    fig4_smoothness,
    fig8_period_fft,
    fig9_residual,
    table3_datasets,
)
from repro.experiments.common import format_table, rel_eb_to_abs, tuned_config


class TestInfrastructure:
    def test_all_experiments_importable(self):
        import importlib
        for name in ALL_EXPERIMENTS:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert callable(module.run)
            assert callable(module.main)

    def test_result_text_contains_rows_and_notes(self):
        r = ExperimentResult("X", "demo", rows=[{"a": 1}], notes=["hello"])
        text = r.text()
        assert "X: demo" in text and "hello" in text and "a" in text

    def test_rel_eb_to_abs_uses_valid_range(self):
        from repro.datasets import load
        f = load("SSH", shape=(12, 10, 48))
        eb = rel_eb_to_abs(f, 1e-2)
        vals = f.data[f.mask]
        assert eb == pytest.approx(1e-2 * float(vals.max() - vals.min()))

    def test_rel_eb_to_abs_constant_field(self):
        """A zero value range falls back to the relative bound itself,
        as in ``resolve_error_bound``, so the codecs accept it."""
        from repro import SZ3
        from repro.datasets import ClimateField
        from repro.experiments.common import measure_point
        f = ClimateField("const", np.full((8, 10, 12), 3.0, dtype=np.float32),
                         None, ("time", "lat", "lon"), None, (1, 2), None, 0.0)
        eb = rel_eb_to_abs(f, 1e-3)
        assert eb == 1e-3
        point, _ = measure_point(SZ3(), f, eb)
        assert point.psnr == float("inf")

    def test_tuned_config_is_memoized(self):
        from repro.datasets import load
        f = load("Hurricane-T", shape=(6, 20, 20))
        a = tuned_config(f, rel_eb=1e-2, sampling_rate=0.2, max_layouts=2)
        b = tuned_config(f, rel_eb=1e-2, sampling_rate=0.2, max_layouts=2)
        assert a is b


class TestFastHarnesses:
    def test_table3_schema(self):
        result = table3_datasets.run()
        assert {r["Name"] for r in result.rows} == {
            "SSH", "CESM-T", "RELHUM", "SOILLIQ", "Tsfc", "Hurricane-T"}
        for row in result.rows:
            assert set(row) >= {"Paper dims", "Generated dims", "Mask", "Period"}

    def test_fig4_roughest_axes(self):
        result = fig4_smoothness.run(datasets=("CESM-T", "Tsfc"))
        by = {r["Dataset"]: r for r in result.rows}
        assert by["CESM-T"]["Roughest axis"] == "height"
        assert by["Tsfc"]["Roughest axis"] == "time"
        assert by["CESM-T"]["Rough/smooth"] > 5

    def test_fig8_peak_rows(self):
        result = fig8_period_fft.run("SSH", n_rows=4)
        assert len(result.rows) == 4
        for row in result.rows:
            assert row["Peak f"] == 21  # 252 / 12

    def test_fig9_requires_periodic_dataset(self):
        with pytest.raises(RuntimeError):
            fig9_residual.run("Hurricane-T")

    def test_fig9_rows(self):
        result = fig9_residual.run("SSH")
        assert [r["Data"] for r in result.rows] == ["original", "residual"]
