"""Export surfaces for a recorded trace.

Two renderings of one :class:`~repro.obs.tracer.Tracer`:

* :func:`chrome_trace_doc` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format (``{"traceEvents": [...]}`` with complete
  ``"ph": "X"`` events), loadable by Perfetto (https://ui.perfetto.dev)
  and ``chrome://tracing``. Span attributes ride in ``args``; process
  workers keep their own ``pid`` track.
* :func:`profile_report` — a plain-text top-N *self-time* table (time
  in a span minus time in its children), aggregated by span name, for
  terminals and CI logs.
"""

from __future__ import annotations

import json


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def chrome_trace_doc(tracer) -> dict:
    """The trace as a Chrome trace-event document (Perfetto-loadable).

    Timestamps are microseconds since the tracer epoch; thread ids are
    compacted to small integers per process (trace viewers render one
    track per (pid, tid) pair).
    """
    events: list[dict] = []
    tids: dict[tuple[int, int], int] = {}
    for span in tracer.spans():
        tid = tids.setdefault((span.pid, span.tid), len(tids) + 1)
        event = {
            "name": span.name,
            "ph": "X",
            "ts": round(span.start * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": span.pid,
            "tid": tid,
        }
        if span.attrs:
            event["args"] = {key: _json_safe(value)
                             for key, value in span.attrs.items()}
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_chrome_trace(tracer, path) -> dict:
    """Write :func:`chrome_trace_doc` to *path*; returns the document."""
    doc = chrome_trace_doc(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return doc


def _aggregate(tracer) -> list[dict]:
    """Per-span-name totals: calls, total time, self time."""
    rows: dict[str, dict] = {}
    for span in tracer.spans():
        child_time = sum(child.duration for child in span.children)
        self_time = max(0.0, span.duration - child_time)
        row = rows.get(span.name)
        if row is None:
            row = rows[span.name] = {"name": span.name, "calls": 0,
                                     "total_s": 0.0, "self_s": 0.0}
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += self_time
    return sorted(rows.values(), key=lambda row: -row["self_s"])


def profile_report(tracer, top: int = 15) -> str:
    """A plain-text top-*top* self-time profile of the trace."""
    rows = _aggregate(tracer)
    # the extent of the roots, not their sum: roots recorded on
    # concurrent threads overlap in time
    roots = list(tracer.roots)
    wall = (max(root.end for root in roots)
            - min(root.start for root in roots) if roots else 0.0) or 1e-9
    lines = [
        f"profile: {sum(row['calls'] for row in rows)} span(s), "
        f"{wall:.3f}s wall",
        f"{'span':<32} {'calls':>6} {'self':>9} {'total':>9} {'self%':>6}",
    ]
    for row in rows[:top]:
        lines.append(
            f"{row['name']:<32} {row['calls']:>6} "
            f"{row['self_s']:>8.3f}s {row['total_s']:>8.3f}s "
            f"{100 * row['self_s'] / wall:>5.1f}%")
    hidden = len(rows) - min(top, len(rows))
    if hidden > 0:
        lines.append(f"... and {hidden} more span name(s)")
    return "\n".join(lines)
