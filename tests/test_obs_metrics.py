"""The metrics registry: instrument semantics, identity, null path."""

import threading

import pytest

from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    resolve_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        c = Counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_describe_includes_sorted_labels(self):
        c = Counter("msgs", {"rank": 3, "dir": "+x"})
        assert c.describe() == "msgs{dir=+x,rank=3}"

    def test_thread_safe_increments(self):
        c = Counter("x")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("depth")
        g.set(4)
        assert g.value == 4.0
        g.inc(-1.5)
        assert g.value == 2.5


class TestHistogram:
    def test_buckets_are_log_spaced(self):
        b = HISTOGRAM_BOUNDS
        assert b[0] == pytest.approx(1e-6) and b[-1] == pytest.approx(1e3)
        # three bounds per decade
        assert b[3::3] == pytest.approx([10 * x for x in b[:-3:3]])

    def test_observations_land_in_buckets(self):
        h = Histogram("lat")
        for v in (1e-7, 5.0, 50.0, 5000.0):
            h.observe(v)
        buckets = h.snapshot()["buckets"]
        assert sum(buckets) == 4
        assert buckets[0] == 1 and buckets[-1] == 1  # last is overflow
        assert h.count == 4
        assert h.sum == pytest.approx(5055.0000001)
        assert h.mean == pytest.approx(5055.0000001 / 4)

    def test_bounds_are_inclusive_upper_edges(self):
        h = Histogram("lat")
        h.observe(h.bounds[0])  # == bounds[0] -> bucket 0 (Prometheus `le`)
        h.observe(h.bounds[1])  # == bounds[1] -> bucket 1
        assert h.snapshot()["buckets"][:3] == [1, 1, 0]

    def test_snapshot_reports_extremes(self):
        h = Histogram("lat")
        h.observe(0.25)
        h.observe(4.0)
        snap = h.snapshot()
        assert snap["min"] == 0.25 and snap["max"] == 4.0

    def test_empty_histogram_mean_zero(self):
        assert Histogram("lat").mean == 0.0


class TestRegistryIdentity:
    def test_same_name_labels_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("msgs", rank=0)
        b = reg.counter("msgs", rank=0)
        assert a is b

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)

    def test_different_labels_different_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("msgs", rank=0) is not reg.counter("msgs", rank=1)

    def test_kinds_namespaced_separately(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(5)
        reg.gauge("x").set(7)
        assert reg.value("x") == 5.0  # counter wins the lookup

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")


class TestRegistryQueries:
    def test_value_defaults_to_zero(self):
        assert MetricsRegistry().value("nope") == 0.0

    def test_total_sums_across_label_sets(self):
        reg = MetricsRegistry()
        reg.counter("msgs", rank=0).inc(3)
        reg.counter("msgs", rank=1).inc(4)
        assert reg.total("msgs") == 7.0

    def test_snapshot_grouped_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(0.1)
        snap = reg.snapshot()
        assert [c["name"] for c in snap["counters"]] == ["a", "b"]
        assert len(snap["gauges"]) == 1 and len(snap["histograms"]) == 1


class TestNullRegistry:
    def test_disabled_flag(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True

    def test_noop_instruments_never_change(self):
        c = NULL_REGISTRY.counter("x")
        c.inc(100)
        assert c.value == 0.0
        g = NULL_REGISTRY.gauge("y")
        g.set(3)
        assert g.value == 0.0
        h = NULL_REGISTRY.histogram("z")
        h.observe(1.0)
        assert h.count == 0

    def test_shared_singletons(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")

    def test_snapshot_empty(self):
        snap = NULL_REGISTRY.snapshot()
        assert snap == {"counters": [], "gauges": [], "histograms": []}

    def test_resolve_registry(self):
        assert resolve_registry(None) is NULL_REGISTRY
        reg = MetricsRegistry()
        assert resolve_registry(reg) is reg
        assert isinstance(resolve_registry(None), NullRegistry)
