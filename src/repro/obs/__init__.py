"""repro.obs — the unified tracing, metrics and profiling layer.

Every subsystem (engine, workbench, farm, serve, fuzz) reports into the
same three primitives:

* **spans** (:func:`span`) — nested, thread-aware timed regions with a
  zero-cost no-op default; see :mod:`repro.obs.tracer`;
* **counters/gauges/histograms** — the lock-guarded
  :class:`MetricsRegistry` (:mod:`repro.obs.metrics`), with a
  process-global :data:`GLOBAL` instance behind :func:`count` and
  :func:`observe`;
* **exports** — Chrome trace-event JSON (Perfetto-loadable) and a
  plain-text self-time profile (:mod:`repro.obs.export`), surfaced as
  ``repro profile <cmd...>`` and ``--trace FILE`` on
  ``explore``/``check``/``batch``/``fuzz``.

Telemetry is strictly **out-of-band**: canonical run-result artifacts
are byte-identical with tracing enabled or disabled (pinned by
``tests/obs`` and ``benchmarks/bench_e18_obs.py``).

Span-naming convention
======================

=============================  ============================================
span name                      region (attributes)
=============================  ============================================
``repro.profile``              one ``repro profile``-wrapped command (cmd)
``model.load``                 front-end dispatch + weave (frontend, model)
``workbench.run_many``         one batch (runs, backend, workers)
``workbench.run``              one spec execution (model, kind, cached)
``farm.group``                 one model group on a backend (model, runs)
``farm.worker``                a process worker's group (model, runs)
``serve.request``              one ``POST /run`` (runs)
``symbolic.compile``           TransitionSystem build (mode, clusters,
                               bdd_nodes)
``symbolic.closure``           one constraint's local-state closure
                               (constraint, states)
``symbolic.fixpoint``          a reachability fixpoint (iterations, nodes)
``symbolic.fixpoint.iteration``  one frontier step (depth, frontier_nodes,
                               reached_nodes)
``ctl.check``                  one property check (property, strategy,
                               verdict)
``check.witness``              witness/counterexample extraction (kind,
                               steps)
``explore.bfs``                the BFS over local tables (states,
                               transitions, truncated, local_states,
                               local_advances)
``bdd.reorder``                one sifting run (auto, nodes_before,
                               nodes_after, reduction)
=============================  ============================================

Counter-naming convention (process-global :data:`GLOBAL` registry):
``symbolic.images``/``symbolic.preimages``/``symbolic.compiles``,
``bdd.reorders``/``bdd.reorder_skips``, ``sat.decisions``/
``sat.propagations``, ``store.hits``/``store.misses``,
``explore.spaces``/``explore.local_advances`` (local-table misses),
``model.loads``, and the encodability predictor's
``encodability.predicted_encodable``/``predicted_unencodable``/
``closure_fallbacks``/``safety_net_raises``. The serve subsystem seeds its own
request/run/cache counters on a per-server registry
(:class:`repro.serve.metrics.Metrics`, a subclass).
"""

from repro.obs.export import chrome_trace_doc, profile_report, write_chrome_trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    GLOBAL,
    LatencyHistogram,
    MetricsRegistry,
    count,
    engine_snapshot,
    observe,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    capture,
    current_tracer,
    detach_context,
    disable_tracing,
    enable_tracing,
    span,
    tracing_active,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "GLOBAL",
    "LatencyHistogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "capture",
    "chrome_trace_doc",
    "count",
    "current_tracer",
    "detach_context",
    "disable_tracing",
    "enable_tracing",
    "engine_snapshot",
    "observe",
    "profile_report",
    "span",
    "tracing_active",
    "write_chrome_trace",
]
