"""Tests for shared utilities (validation, timer)."""

import time

import numpy as np
import pytest

from repro.utils import Timer, check_array, check_error_bound, check_mask, ensure_float


class TestCheckArray:
    def test_passthrough_contiguous(self):
        arr = np.zeros((3, 4))
        out = check_array(arr)
        assert out.flags["C_CONTIGUOUS"]

    def test_non_contiguous_made_contiguous(self):
        arr = np.zeros((4, 6))[:, ::2]
        assert check_array(arr).flags["C_CONTIGUOUS"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_array(np.zeros((0, 3)))

    def test_too_many_dims_rejected(self):
        with pytest.raises(ValueError):
            check_array(np.zeros((2,) * 5))

    def test_complex_rejected(self):
        with pytest.raises(TypeError):
            check_array(np.zeros(3, dtype=complex))

    def test_int_accepted(self):
        assert check_array(np.arange(5)).dtype == np.arange(5).dtype


class TestEnsureFloat:
    def test_float32_upcast(self):
        out = ensure_float(np.zeros(3, dtype=np.float32))
        assert out.dtype == np.float64

    def test_float64_no_copy(self):
        arr = np.zeros(3)
        assert ensure_float(arr) is arr or np.shares_memory(ensure_float(arr), arr)


class TestCheckErrorBound:
    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_bad_values(self, bad):
        with pytest.raises(ValueError):
            check_error_bound(bad)

    def test_good_value(self):
        assert check_error_bound(0.5) == 0.5


class TestCheckMask:
    def test_none_passthrough(self):
        assert check_mask(None, (3, 3)) is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_mask(np.ones((2, 2), dtype=bool), (3, 3))

    def test_all_false_rejected(self):
        with pytest.raises(ValueError):
            check_mask(np.zeros((2, 2), dtype=bool), (2, 2))

    def test_int_mask_coerced(self):
        out = check_mask(np.array([[1, 0], [0, 1]]), (2, 2))
        assert out.dtype == bool


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed > first >= 0.01

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0

    def test_nested_use_counts_once(self):
        t = Timer()
        with t:
            with t:
                time.sleep(0.01)
            inner_done = t.elapsed
            time.sleep(0.01)
        # Nothing accumulated until the outermost exit...
        assert inner_done == 0.0
        # ...and the total covers the whole outer block, not double.
        assert 0.02 <= t.elapsed < 0.5

    def test_unmatched_exit_raises(self):
        t = Timer()
        with pytest.raises(RuntimeError):
            t.__exit__(None, None, None)

    def test_reset_clears_nesting(self):
        t = Timer()
        t.__enter__()
        t.reset()
        with pytest.raises(RuntimeError):
            t.__exit__(None, None, None)


class TestFormatTable:
    def test_alignment_and_rows(self):
        from repro.experiments.common import format_table
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22.5, "b": "z"}])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert lines[0].startswith("a")

    def test_empty(self):
        from repro.experiments.common import format_table
        assert format_table([]) == "(no rows)"
