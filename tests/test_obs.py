"""repro.obs: metrics registry, spans, fan-out propagation, exporters."""

import json
import re
import threading

import pytest

from repro import obs
from repro.core import GraphData, ZipG
from repro.core.executor import ShardExecutor
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.tracing import LAYER_TIME_COUNTER, NULL_SPAN, SPAN_HISTOGRAM


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with pristine global obs state."""
    obs.disable_tracing()
    obs.reset()
    yield
    obs.disable_tracing()
    obs.reset()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_inc_and_reset(self):
        counter = obs.counter("t_requests_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0
        obs.reset()
        assert counter.value == 0.0

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", labels={"shard": "1"})
        b = registry.counter("x_total", labels={"shard": "1"})
        c = registry.counter("x_total", labels={"shard": "2"})
        assert a is b
        assert a is not c

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dual")
        with pytest.raises(TypeError):
            registry.gauge("dual")

    def test_gauge_set(self):
        gauge = obs.gauge("t_depth")
        gauge.set(17.5)
        assert gauge.value == 17.5

    def test_histogram_percentiles(self):
        histogram = Histogram("t_latency_us")
        for value in (1, 2, 3, 50, 800, 12000):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 6
        assert snapshot["sum"] == pytest.approx(12856.0)
        assert snapshot["p50"] <= snapshot["p95"] <= snapshot["p99"]
        # Percentile estimates are clamped at the observed maximum.
        assert snapshot["p99"] <= snapshot["max"] == 12000
        assert histogram.percentile(0.5) == pytest.approx(5.0)

    def test_histogram_buckets_cumulative(self):
        histogram = Histogram("t_h", buckets=[10, 100])
        for value in (5, 50, 500):
            histogram.observe(value)
        counts = dict(histogram.bucket_counts())
        assert counts[10.0] == 1
        assert counts[100.0] == 2
        assert counts[float("inf")] == 3

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_collector_merges_and_unregisters(self):
        registry = MetricsRegistry()
        alive = {"on": True}

        def collect():
            if not alive["on"]:
                return None
            return {"ext_total": 3.0}

        registry.register_collector(collect)
        registry.register_collector(lambda: {"ext_total": 4.0})
        assert registry.collected_counters()["ext_total"] == 7.0
        alive["on"] = False  # None return drops the collector
        assert registry.collected_counters()["ext_total"] == 4.0
        assert registry.collected_counters()["ext_total"] == 4.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_disabled_returns_shared_null_span(self):
        assert obs.span("anything", layer="shard") is NULL_SPAN
        assert obs.get_tracer().traces == obs.get_tracer().traces
        with obs.span("noop"):
            pass
        assert len(obs.get_tracer().traces) == 0

    def test_nesting_builds_tree(self):
        obs.enable_tracing()
        with obs.span("root", layer="graph_store") as root:
            with obs.span("child_a", layer="shard"):
                with obs.span("leaf", layer="succinct"):
                    pass
            with obs.span("child_b", layer="logstore"):
                pass
        assert [span.name for span in root.walk()] == [
            "root", "child_a", "leaf", "child_b",
        ]
        traces = obs.get_tracer().traces
        assert len(traces) == 1 and traces[0] is root

    def test_exclusive_time_clamped_and_layered(self):
        obs.enable_tracing()
        with obs.span("root", layer="graph_store") as root:
            with obs.span("inner", layer="succinct"):
                pass
        assert root.duration_ns >= root.children[0].duration_ns
        assert root.exclusive_ns >= 0
        breakdown = obs.get_tracer().layer_breakdown()
        assert breakdown["graph_store"]["spans"] == 1
        assert breakdown["succinct"]["spans"] == 1

    def test_traced_decorator_records_and_marks(self):
        @obs.traced("unit.work", layer="shard")
        def work(x):
            return x * 2

        assert work.__zipg_span__ == "unit.work"
        assert work(3) == 6  # disabled: plain call
        obs.enable_tracing()
        assert work(3) == 6
        assert "unit.work" in obs.get_tracer().span_summary()

    def test_sampling_keeps_expected_fraction(self):
        obs.enable_tracing(sample_rate=0.25)
        for _ in range(40):
            with obs.span("root"):
                with obs.span("child"):
                    pass
        tracer = obs.get_tracer()
        assert len(tracer.traces) == 10
        assert tracer.dropped_traces == 30
        # Unsampled roots silence their descendants entirely.
        summary = tracer.span_summary()
        assert summary["root"]["count"] == 10
        assert summary["child"]["count"] == 10

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            obs.enable_tracing(0.0)
        with pytest.raises(ValueError):
            obs.enable_tracing(1.5)

    def test_span_to_dict_shape(self):
        obs.enable_tracing()
        with obs.span("root", layer="shard", shard=3) as root:
            pass
        payload = root.to_dict()
        assert payload["name"] == "root"
        assert payload["tags"] == {"layer": "shard", "shard": 3}
        assert payload["children"] == []
        assert payload["duration_us"] >= payload["exclusive_us"]


# ----------------------------------------------------------------------
# Fan-out span nesting
# ----------------------------------------------------------------------


class TestFanOutPropagation:
    def test_shard_spans_are_direct_children(self):
        graph = GraphData()
        for node_id in range(8):
            graph.add_node(node_id, {"city": "Ithaca"})
        store = ZipG.compress(graph, num_shards=4, alpha=4)
        obs.enable_tracing()
        assert store.get_node_ids({"city": "Ithaca"}) == list(range(8))
        traces = obs.get_tracer().traces
        assert len(traces) == 1  # nothing in the fan-out became a root
        (root,) = traces
        assert root.name == "graph_store.get_node_ids"
        assert [child.name for child in root.children] == (
            ["logstore.find_live_nodes"] + ["shard.find_live_nodes"] * 4
        )

    def test_serial_executor_still_nests(self):
        obs.enable_tracing()
        executor = ShardExecutor()

        def work(item):
            with obs.span("serial.child", layer="shard"):
                return item

        with obs.span("serial.root") as root:
            executor.map(work, [1, 2, 3])
        assert [c.name for c in root.children] == ["serial.child"] * 3


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def parse_prometheus(text):
    """Tiny exposition-format parser: {metric{labels}: value} + types."""
    types = {}
    samples = {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
            continue
        assert not line.startswith("#"), line
        key, _, raw = line.rpartition(" ")
        samples[key] = float("inf") if raw == "+Inf" else float(raw)
    return types, samples


class TestExporters:
    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("zipg_ops_total", labels={"layer": "shard"}).inc(7)
        registry.gauge("zipg_depth").set(2.5)
        histogram = registry.histogram("zipg_lat_us", buckets=[10, 100])
        histogram.observe(5)
        histogram.observe(50)
        registry.register_collector(lambda: {"zipg_ext_total": 11.0})

        types, samples = parse_prometheus(obs.prometheus_text(registry))
        assert types["zipg_ops_total"] == "counter"
        assert types["zipg_depth"] == "gauge"
        assert types["zipg_lat_us"] == "histogram"
        assert types["zipg_ext_total"] == "counter"
        assert samples['zipg_ops_total{layer="shard"}'] == 7.0
        assert samples["zipg_depth"] == 2.5
        assert samples['zipg_lat_us_bucket{le="10"}'] == 1.0
        assert samples['zipg_lat_us_bucket{le="100"}'] == 2.0
        assert samples['zipg_lat_us_bucket{le="+Inf"}'] == 2.0
        assert samples["zipg_lat_us_sum"] == 55.0
        assert samples["zipg_lat_us_count"] == 2.0
        assert samples["zipg_ext_total"] == 11.0

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("esc_total", labels={"q": 'a"b\\c'}).inc()
        text = obs.prometheus_text(registry)
        assert 'q="a\\"b\\\\c"' in text

    def test_json_snapshot_includes_tracer_sections(self):
        obs.enable_tracing()
        with obs.span("root", layer="shard"):
            pass
        payload = json.loads(
            obs.json_snapshot(obs.get_registry(), obs.get_tracer())
        )
        assert set(payload) >= {
            "counters", "gauges", "histograms",
            "layers", "spans", "recent_traces",
        }
        assert payload["recent_traces"][0]["name"] == "root"
        assert payload["layers"]["shard"]["spans"] == 1


# ----------------------------------------------------------------------
# Store integration
# ----------------------------------------------------------------------


def tiny_store():
    from repro.core.graph_store import ZipG
    from repro.core.model import GraphData

    graph = GraphData()
    for node_id in range(8):
        graph.add_node(node_id, {"name": f"node{node_id}", "city": "x"})
        graph.add_edge(node_id, (node_id + 1) % 8, 0, timestamp=node_id)
    return ZipG.compress(graph, num_shards=2, alpha=4)


class TestStoreIntegration:
    def test_snapshot_metrics_shape_and_monotonicity(self):
        store = tiny_store()
        obs.enable_tracing()
        before = store.snapshot_metrics()
        assert set(before["layers"]) == {
            "succinct", "logstore", "pointer", "graph_store",
        }
        store.get_neighbor_ids(0)
        store.get_node_ids({"city": "x"})
        after = store.snapshot_metrics()
        assert (after["access"]["random_accesses_total"]
                >= before["access"]["random_accesses_total"])
        assert (after["layers"]["succinct"]["time_us"]
                > before["layers"]["succinct"]["time_us"])
        assert (after["layers"]["succinct"]["ops"]
                >= before["layers"]["succinct"]["ops"])

    def test_store_publishes_access_collectors(self):
        store = tiny_store()
        store.get_neighbor_ids(1)
        collected = obs.get_registry().collected_counters()
        assert collected["zipg_access_random_accesses_total"] > 0
        assert "zipg_pointer_hops_total" in collected

    def test_pointer_chase_counted_after_update(self):
        store = tiny_store()
        store.append_node(99, {"name": "fresh", "city": "y"})
        baseline = store.snapshot_metrics()["layers"]["pointer"]["ops"]
        store.get_node_property(99, "name")
        assert store.snapshot_metrics()["layers"]["pointer"]["ops"] > baseline

    def test_tracing_disabled_adds_no_registry_spans(self):
        store = tiny_store()
        store.get_neighbor_ids(0)
        # Histogram *objects* may linger from other tests (the registry
        # is process-wide and reset() zeroes rather than deletes), but
        # with tracing off nothing may observe into them.
        summary = obs.get_tracer().span_summary()
        assert sum(entry["count"] for entry in summary.values()) == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestStatsCli:
    def test_stats_summary(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["stats", "--ops", "20"]) == 0
        out = capsys.readouterr().out
        assert "layer" in out and "succinct" in out
        assert re.search(r"p95 us", out)

    def test_stats_prometheus_parses(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["stats", "--ops", "10", "--format", "prometheus"]) == 0
        types, samples = parse_prometheus(capsys.readouterr().out)
        assert types[SPAN_HISTOGRAM] == "histogram"
        assert types[LAYER_TIME_COUNTER] == "counter"
        assert any(key.startswith("zipg_access_") for key in samples)

    def test_stats_json(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["stats", "--ops", "10", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "layers" in payload and "recent_traces" in payload
