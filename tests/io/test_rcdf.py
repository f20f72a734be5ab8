"""Tests for the RCDF dataset container (the paper's NetCDF future work)."""

import numpy as np
import pytest

from repro.datasets import load
from repro.io import RcdfDataset, read_rcdf, write_rcdf


def make_dataset():
    ds = RcdfDataset(attrs={"title": "test archive", "model": "synthetic"})
    ds.create_dimension("lat", 12)
    ds.create_dimension("lon", 16)
    ds.create_dimension("time", 24)
    rng = np.random.default_rng(0)
    temp = (np.sin(np.linspace(0, 3, 12))[:, None, None]
            + 0.5 * np.cos(np.linspace(0, 2, 16))[None, :, None]
            + np.sin(2 * np.pi * np.arange(24) / 12)[None, None, :]
            + 0.01 * rng.standard_normal((12, 16, 24))).astype(np.float32)
    ds.add_variable("temp", ("lat", "lon", "time"), temp,
                    attrs={"units": "K", "axes": "lat,lon,time"},
                    codec="sz3", rel_eb=1e-3)
    ds.add_variable("lat", ("lat",), np.linspace(-60, 60, 12))
    return ds, temp


class TestSchema:
    def test_duplicate_dimension_rejected(self):
        ds = RcdfDataset()
        ds.create_dimension("x", 4)
        with pytest.raises(ValueError):
            ds.create_dimension("x", 5)

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError):
            RcdfDataset().create_dimension("x", 0)

    def test_undeclared_dimension_rejected(self):
        ds = RcdfDataset()
        with pytest.raises(ValueError):
            ds.add_variable("v", ("ghost",), np.zeros(3))

    def test_size_mismatch_rejected(self):
        ds = RcdfDataset()
        ds.create_dimension("x", 4)
        with pytest.raises(ValueError):
            ds.add_variable("v", ("x",), np.zeros(5))

    def test_duplicate_variable_rejected(self):
        ds = RcdfDataset()
        ds.create_dimension("x", 3)
        ds.add_variable("v", ("x",), np.zeros(3))
        with pytest.raises(ValueError):
            ds.add_variable("v", ("x",), np.zeros(3))

    def test_lossy_without_bound_rejected(self):
        ds = RcdfDataset()
        ds.create_dimension("x", 3)
        with pytest.raises(ValueError):
            ds.add_variable("v", ("x",), np.zeros(3), codec="sz3")

    def test_bad_attr_type_rejected(self):
        with pytest.raises(TypeError):
            RcdfDataset(attrs={"arr": np.zeros(3)})

    def test_dims_rank_mismatch_rejected(self):
        ds = RcdfDataset()
        ds.create_dimension("x", 3)
        with pytest.raises(ValueError):
            ds.add_variable("v", ("x", "x"), np.zeros(3))


class TestRoundtrip:
    def test_bytes_roundtrip(self):
        ds, temp = make_dataset()
        ds2 = RcdfDataset.from_bytes(ds.to_bytes())
        assert ds2.dimensions == {"lat": 12, "lon": 16, "time": 24}
        assert ds2.attrs["title"] == "test archive"
        assert set(ds2.variable_names) == {"temp", "lat"}
        # lossless variable is exact
        np.testing.assert_array_equal(ds2.get("lat").data, np.linspace(-60, 60, 12))
        # lossy variable honours its relative bound
        got = ds2.get("temp").data
        eb = 1e-3 * (temp.max() - temp.min())
        assert np.abs(got.astype(np.float64) - temp.astype(np.float64)).max() <= eb + 1e-6
        assert got.dtype == np.float32
        assert ds2.get("temp").attrs["units"] == "K"

    def test_file_roundtrip(self, tmp_path):
        ds, _ = make_dataset()
        path = tmp_path / "archive.rcdf"
        write_rcdf(path, ds)
        ds2 = read_rcdf(path)
        assert "temp" in ds2
        assert ds2.get("temp").data.shape == (12, 16, 24)

    def test_lazy_decode(self):
        ds, _ = make_dataset()
        ds2 = RcdfDataset.from_bytes(ds.to_bytes())
        assert "temp" in ds2._pending
        ds2.get("temp")
        assert "temp" not in ds2._pending

    def test_missing_variable_keyerror(self):
        ds, _ = make_dataset()
        with pytest.raises(KeyError):
            ds.get("nope")

    def test_compression_actually_happens(self):
        ds, temp = make_dataset()
        blob = ds.to_bytes()
        assert len(blob) < temp.nbytes


class TestCfConventions:
    def test_missing_value_derives_mask(self):
        ds = RcdfDataset()
        ds.create_dimension("y", 10)
        ds.create_dimension("x", 12)
        data = np.outer(np.arange(10.0), np.ones(12)).astype(np.float32)
        data[:3] = np.float32(9.96921e36)
        var = ds.add_variable("ssh", ("y", "x"), data,
                              attrs={"missing_value": 9.96921e36},
                              codec="cliz", rel_eb=1e-3)
        mask = var.derive_mask()
        assert mask is not None
        assert (~mask[:3]).all() and mask[3:].all()
        ds2 = RcdfDataset.from_bytes(ds.to_bytes())
        got = ds2.get("ssh").data
        # fill values come back exactly; valid region within bound
        assert (got[:3] == np.float32(9.96921e36)).all()
        span = data[3:].max() - data[3:].min()
        assert np.abs(got[3:] - data[3:]).max() <= 1e-3 * span + 1e-6

    def test_masked_encode_error_is_not_retried_unmasked(self, monkeypatch):
        # a codec bug on the masked path must surface, not be hidden by an
        # unmasked retry whose bound would resolve over the fill value
        import repro

        real = repro.compressor_for

        class MaskRejecting:
            def compress(self, data, *, mask=None, **kwargs):
                if mask is not None:
                    raise TypeError("masked encode broke")
                return real("sz3").compress(data, **kwargs)

        monkeypatch.setattr(repro, "compressor_for", lambda name: MaskRejecting())
        ds = RcdfDataset()
        ds.create_dimension("x", 64)
        data = np.random.default_rng(3).random(64).astype(np.float32)
        data[:8] = np.float32(1e20)
        ds.add_variable("v", ("x",), data, attrs={"missing_value": 1e20},
                        codec="sz3", rel_eb=1e-3)
        with pytest.raises(TypeError, match="masked encode broke"):
            ds.to_bytes()

    def test_all_fill_variable_rejected(self):
        ds = RcdfDataset()
        ds.create_dimension("x", 4)
        var = ds.add_variable("v", ("x",), np.full(4, 5.0),
                              attrs={"missing_value": 5.0}, codec="sz3", rel_eb=1e-3)
        with pytest.raises(ValueError):
            var.derive_mask()

    def test_axes_attribute_feeds_tuner(self):
        ds, _ = make_dataset()
        kwargs = ds.get("temp").tuner_kwargs()
        assert kwargs == {"time_axis": 2, "horiz_axes": (0, 1)}

    def test_axes_default_from_dims(self):
        ds = RcdfDataset()
        ds.create_dimension("time", 6)
        ds.create_dimension("lat", 4)
        ds.create_dimension("lon", 5)
        var = ds.add_variable("v", ("time", "lat", "lon"), np.zeros((6, 4, 5)))
        assert var.tuner_kwargs() == {"time_axis": 0, "horiz_axes": (1, 2)}


class TestEndToEnd:
    def test_full_climate_archive(self, tmp_path):
        """Write a real synthetic dataset through the CliZ codec and read back."""
        field = load("Tsfc", shape=(24, 20, 48))
        ds = RcdfDataset(attrs={"source": "repro synthetic CESM"})
        for name, size in zip(("lat", "lon", "time"), field.shape):
            ds.create_dimension(name, size)
        ds.add_variable("tsfc", ("lat", "lon", "time"), field.data,
                        attrs={"missing_value": float(field.fill_value),
                               "axes": "lat,lon,time"},
                        codec="cliz", rel_eb=1e-3)
        path = tmp_path / "tsfc.rcdf"
        write_rcdf(path, ds)
        back = read_rcdf(path).get("tsfc")
        vals = field.data[field.mask]
        eb = 1e-3 * (vals.max() - vals.min())
        err = np.abs(back.data.astype(np.float64) - field.data.astype(np.float64))
        assert err[field.mask].max() <= eb + 1e-6
        assert (back.data[~field.mask] == field.data[~field.mask]).all()
