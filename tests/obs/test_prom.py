"""Prometheus exposition conformance tests for repro.obs.prom."""

import re

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import (
    CONTENT_TYPE,
    format_value,
    render_registry,
    sanitize_metric_name,
)

#: The legal Prometheus metric-name charset.
NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def sample_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


class TestNameSanitization:
    @pytest.mark.parametrize("raw", [
        "parallel.queue_depth", "span.compress_chunked", "wan.bytes/sent",
        "sweep.breaker_open.SZ3", "0leading.digit", "weird name!", "a-b-c",
    ])
    def test_output_is_legal(self, raw):
        assert NAME_RE.match(sanitize_metric_name(raw, "repro_"))
        assert NAME_RE.match(sanitize_metric_name(raw))

    def test_dots_become_underscores(self):
        assert sanitize_metric_name("a.b.c") == "a_b_c"

    def test_leading_digit_prefixed(self):
        assert sanitize_metric_name("9lives") == "_9lives"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sanitize_metric_name("")


class TestFormatValue:
    def test_special_floats(self):
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"

    def test_integral_floats_collapse(self):
        assert format_value(3.0) == "3"
        assert format_value(0) == "0"

    def test_float_round_trips(self):
        assert float(format_value(0.1)) == 0.1


class TestExposition:
    def test_counter_gets_total_suffix(self):
        reg = MetricsRegistry()
        reg.counter("files.compressed").inc(3)
        text = render_registry(reg)
        assert "# TYPE repro_files_compressed_total counter" in text
        assert "repro_files_compressed_total 3" in text.splitlines()

    def test_unset_gauge_omitted(self):
        reg = MetricsRegistry()
        reg.gauge("g.unset")
        reg.gauge("g.set").set(1.5)
        text = render_registry(reg)
        assert "g_unset" not in text
        assert "repro_g_set 1.5" in text.splitlines()

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=[1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 3.0, 9.0):
            h.observe(v)
        text = render_registry(reg)
        counts = [int(m.group(1)) for m in
                  re.finditer(r'repro_lat_bucket\{le="[^"]+"\} (\d+)', text)]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts[-1] == 4, 'le="+Inf" must equal the total count'
        assert 'le="+Inf"' in text
        assert "repro_lat_count 4" in text.splitlines()
        assert re.search(r"repro_lat_sum 14(\.0)?$", text, re.M)

    def test_every_family_has_help_and_type(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h", buckets=[1.0]).observe(0.5)
        text = render_registry(reg)
        families = {ln.split()[2] for ln in text.splitlines()
                    if ln.startswith("# TYPE")}
        for ln in sample_lines(text):
            name = re.split(r"[{\s]", ln, 1)[0]
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            assert name in families or base in families, \
                f"sample {name} has no TYPE line"

    def test_empty_registries_render_newline(self):
        assert render_registry() == "\n"
        assert render_registry(MetricsRegistry()) == "\n"

    def test_all_rendered_names_legal(self):
        reg = MetricsRegistry()
        reg.counter("codec.cliz/SSH@1e-3").inc()
        reg.histogram("span.weird name!.seconds").observe(0.1)
        for ln in sample_lines(render_registry(reg)):
            name = re.split(r"[{\s]", ln, 1)[0]
            assert NAME_RE.match(name), f"illegal metric name in {ln!r}"

    def test_content_type_constant(self):
        assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"
