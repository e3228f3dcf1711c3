"""The shared metrics registry and the one engine-snapshot API."""

import threading

from repro import obs
from repro.obs import GLOBAL, LatencyHistogram, MetricsRegistry
from repro.sdf import SdfBuilder, weave_sdf


def small_model(name="obsm"):
    builder = SdfBuilder(name)
    builder.agent("src")
    builder.agent("dst")
    builder.connect("src", "dst", capacity=2)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


class TestRegistry:
    def test_counters_are_exact_under_concurrent_writers(self):
        registry = MetricsRegistry()
        threads = 8
        increments = 10_000

        def work():
            for _ in range(increments):
                registry.count("hot")

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.counter("hot") == threads * increments

    def test_histograms_are_exact_under_concurrent_writers(self):
        registry = MetricsRegistry()

        def work():
            for index in range(1_000):
                registry.observe("lat", index * 1e-5)

        workers = [threading.Thread(target=work) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.snapshot()["latency"]["lat"]["count"] == 8_000

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.count("runs", 3)
        registry.observe("run_s", 0.25)
        registry.register_gauge("queue_depth", lambda: 5)
        doc = registry.snapshot()
        assert set(doc) == {"uptime_s", "counters", "latency", "gauges"}
        assert doc["counters"] == {"runs": 3}
        assert doc["gauges"] == {"queue_depth": 5}
        latency = doc["latency"]["run_s"]
        assert latency["count"] == 1
        assert latency["max_s"] == 0.25

    def test_failing_gauge_never_breaks_the_snapshot(self):
        registry = MetricsRegistry()

        def bad():
            raise RuntimeError("probe offline")

        registry.register_gauge("bad", bad)
        assert registry.snapshot()["gauges"]["bad"] == \
            "error: probe offline"

    def test_reset_zeroes_history_but_keeps_gauges(self):
        registry = MetricsRegistry()
        registry.count("runs")
        registry.observe("run_s", 1.0)
        registry.register_gauge("depth", lambda: 1)
        registry.reset()
        doc = registry.snapshot()
        assert doc["counters"] == {"runs": 0}
        assert doc["latency"] == {}
        assert doc["gauges"] == {"depth": 1}

    def test_module_helpers_write_the_global_registry(self):
        before = GLOBAL.counter("obs.test.counter")
        obs.count("obs.test.counter", 2)
        assert GLOBAL.counter("obs.test.counter") == before + 2
        obs.observe("obs.test.latency", 0.001)
        assert GLOBAL.snapshot()["latency"]["obs.test.latency"][
            "count"] >= 1


class TestLatencyPercentiles:
    def test_percentiles_are_monotone(self):
        histogram = LatencyHistogram()
        for index in range(1, 101):
            histogram.record(index / 100.0)
        doc = histogram.snapshot()
        assert doc["count"] == 100
        assert doc["p50_s"] <= doc["p90_s"] <= doc["p99_s"] <= \
            doc["max_s"]

    def test_empty_histogram_has_no_percentiles(self):
        doc = LatencyHistogram().snapshot()
        assert doc == {"count": 0, "sum_s": 0.0, "max_s": 0.0}


class TestEngineSnapshot:
    def test_none_source_is_none(self):
        assert obs.engine_snapshot(None) is None

    def test_unmaterialized_model_is_none(self):
        """Summarizing a model whose kernel never ran must not allocate
        a kernel as a side effect."""
        model = small_model()
        model.clear_caches()
        assert obs.engine_snapshot(model) is None

    def test_every_engine_source_kind_dispatches(self):
        from repro.engine.symbolic import symbolic_reachable

        model = small_model()
        reachable = symbolic_reachable(model)
        by_reachable = obs.engine_snapshot(reachable)
        by_system = obs.engine_snapshot(reachable.system)
        assert by_reachable == by_system == reachable.system.telemetry()
        assert by_system["bdd_nodes"] > 0
        # kernel + model views agree with the kernel's own aggregate
        kernel = model.kernel
        kernel.transition_system(model)
        by_kernel = obs.engine_snapshot(kernel)
        by_model = obs.engine_snapshot(model)
        assert by_kernel == by_model == kernel.telemetry()
