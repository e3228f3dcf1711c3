"""The shared metrics registry: counters, gauges, latency histograms.

One :class:`MetricsRegistry` aggregates counters, callable gauges and
log-bucket latency histograms behind one lock and renders them as one
JSON document (:meth:`MetricsRegistry.snapshot`). The serve subsystem's
``Metrics`` is a thin subclass (it seeds the request/run/cache counter
names and adds the ``cache_hit_rate`` derived field); the engine, farm
and fuzz layers write to the process-global :data:`GLOBAL` registry
through the module-level :func:`count`/:func:`observe` helpers.

Everything here is *out-of-band* telemetry: nothing a histogram or
counter holds ever enters a canonical result artifact (two identical
runs must stay byte-identical regardless of process history).
"""

from __future__ import annotations

import threading
import time

#: histogram bucket upper bounds in seconds: ~log-spaced from 100 µs to
#: 100 s, plus a +inf overflow bucket. Chosen to straddle both cache
#: hits (sub-millisecond) and cold symbolic compiles (seconds).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated percentiles."""

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = tuple(sorted(buckets))
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow
        self.total = 0
        self.sum = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        slot = len(self.bounds)  # overflow unless a bound catches it
        for index, bound in enumerate(self.bounds):
            if seconds <= bound:
                slot = index
                break
        self.counts[slot] += 1
        self.total += 1
        self.sum += seconds
        if seconds > self.max:
            self.max = seconds

    def percentile(self, q: float) -> float | None:
        """The *q*-quantile (``0 < q <= 1``), linearly interpolated
        inside the bucket that crosses it; ``None`` when empty."""
        if self.total == 0:
            return None
        target = q * self.total
        seen = 0
        lower = 0.0
        for index, bound in enumerate(self.bounds):
            count = self.counts[index]
            if count and seen + count >= target:
                fraction = (target - seen) / count
                return lower + (bound - lower) * fraction
            seen += count
            lower = bound
        return self.max  # the quantile falls in the overflow bucket

    def snapshot(self) -> dict:
        doc = {
            "count": self.total,
            "sum_s": round(self.sum, 6),
            "max_s": round(self.max, 6),
        }
        if self.total:
            doc["mean_s"] = round(self.sum / self.total, 6)
            for name, q in (("p50_s", 0.5), ("p90_s", 0.9),
                            ("p99_s", 0.99)):
                doc[name] = round(self.percentile(q), 6)
        return doc


class MetricsRegistry:
    """Thread-safe counter/gauge/histogram registry.

    Counters and histograms are created on first write; gauges are
    zero-argument callables polled at snapshot time (a failing gauge
    renders as an ``"error: ..."`` string, never breaks the snapshot).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.started = time.time()
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, LatencyHistogram] = {}
        self._gauges: dict[str, object] = {}

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of one counter (0 when never written)."""
        with self._lock:
            return self.counters.get(name, 0)

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = LatencyHistogram()
            histogram.record(seconds)

    def register_gauge(self, name: str, read) -> None:
        """Register a zero-argument callable polled per snapshot."""
        with self._lock:
            self._gauges[name] = read

    def reset(self) -> None:
        """Zero every counter and histogram (tests, per-run deltas).

        Gauges stay registered — they read live state, not history.
        """
        with self._lock:
            self.counters = dict.fromkeys(self.counters, 0)
            self.histograms = {}
            self.started = time.time()

    def snapshot(self) -> dict:
        """The full observability document."""
        with self._lock:
            counters = dict(self.counters)
            histograms = {name: histogram.snapshot()
                          for name, histogram in self.histograms.items()}
            gauges = dict(self._gauges)
        gauge_values: dict[str, object] = {}
        for name, read in gauges.items():
            try:  # a failing gauge must never take the snapshot down
                gauge_values[name] = read()
            except Exception as exc:
                gauge_values[name] = f"error: {exc}"
        return {
            "uptime_s": round(time.time() - self.started, 3),
            "counters": counters,
            "latency": histograms,
            "gauges": gauge_values,
        }


#: the process-global registry the engine, farm and fuzz layers write
#: to; ``repro profile`` and the obs tests snapshot/reset it.
GLOBAL = MetricsRegistry()


def count(name: str, amount: int = 1) -> None:
    """Increment a counter on the process-global registry."""
    GLOBAL.count(name, amount)


def observe(name: str, seconds: float) -> None:
    """Record a latency on the process-global registry."""
    GLOBAL.observe(name, seconds)


def engine_snapshot(source) -> dict | None:
    """The engine telemetry document for *source*, whatever it is.

    The one snapshot API every consumer shares (``repro ... --json``,
    the benchmarks' ``extra_info["engine"]``, tests): accepts a
    ``ReachableSet`` (its system's telemetry), a ``TransitionSystem``
    (its telemetry), a ``SymbolicKernel`` (its aggregate telemetry), or
    an ``ExecutionModel``/handle whose kernel — if one was ever
    materialized — is summarized without allocating one. Returns ``None`` when there is nothing symbolic to report.
    """
    if source is None:
        return None
    # ReachableSet and friends: delegate to the owning system
    system = getattr(source, "system", None)
    if system is not None and hasattr(system, "telemetry"):
        return system.telemetry()
    if hasattr(source, "telemetry"):
        return source.telemetry()  # a TransitionSystem or SymbolicKernel
    model = getattr(source, "execution_model", source)  # handles
    kernel = getattr(model, "_kernel", None)
    return None if kernel is None else kernel.telemetry()
