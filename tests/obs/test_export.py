"""Trace export surfaces: Chrome trace-event JSON, the self-time table."""

import json

from repro import obs
from repro.obs import chrome_trace_doc, profile_report, write_chrome_trace
from repro.obs import tracer as tracer_module


def record_sample(tracer):
    with obs.span("outer", model="demo"):
        with obs.span("inner", weird=object()):
            pass
        with obs.span("inner"):
            pass


class TestChromeTrace:
    def test_event_shape(self, tracer):
        record_sample(tracer)
        doc = chrome_trace_doc(tracer)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert [event["name"] for event in events] == \
            ["outer", "inner", "inner"]
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["tid"], int)
        outer = events[0]
        assert outer["args"] == {"model": "demo"}
        # nested events stay inside the parent's [ts, ts+dur] window
        for inner in events[1:]:
            assert inner["ts"] >= outer["ts"]
            assert inner["ts"] + inner["dur"] <= \
                outer["ts"] + outer["dur"] + 1e-3

    def test_non_json_attrs_are_repred(self, tracer):
        record_sample(tracer)
        doc = chrome_trace_doc(tracer)
        weird = doc["traceEvents"][1]["args"]["weird"]
        assert isinstance(weird, str) and "object" in weird
        json.dumps(doc)  # the whole document must serialize

    def test_tid_compaction_separates_pid_tracks(self, tracer):
        record_sample(tracer)
        # adopt a worker tree with a foreign pid and a huge tid: the
        # export must map it to its own small per-(pid, tid) track id
        worker = tracer_module.Tracer()
        with tracer_module.Span(worker, "farm.worker", {}):
            pass
        docs = worker.to_docs()
        docs[0]["tid"] = 139_873_345_108_800
        tracer.adopt(docs, pid=31337)
        events = chrome_trace_doc(tracer)["traceEvents"]
        worker_event = next(e for e in events
                            if e["name"] == "farm.worker")
        assert worker_event["pid"] == 31337
        assert worker_event["tid"] <= len(events)

    def test_write_chrome_trace_emits_loadable_json(self, tracer,
                                                    tmp_path):
        record_sample(tracer)
        path = tmp_path / "out.trace.json"
        returned = write_chrome_trace(tracer, path)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(returned))
        assert loaded["traceEvents"]


class TestProfileReport:
    def test_self_time_table(self, tracer):
        record_sample(tracer)
        report = profile_report(tracer)
        lines = report.splitlines()
        assert lines[0].startswith("profile: 3 span(s), ")
        assert "span" in lines[1] and "self%" in lines[1]
        body = "\n".join(lines[2:])
        assert "outer" in body
        assert "inner" in body

    def test_top_limits_rows_and_reports_the_rest(self, tracer):
        for index in range(5):
            with obs.span(f"name{index}"):
                pass
        report = profile_report(tracer, top=2)
        assert "... and 3 more span name(s)" in report
        assert len(report.splitlines()) == 2 + 2 + 1

    def test_empty_trace_renders(self, tracer):
        report = profile_report(tracer)
        assert report.startswith("profile: 0 span(s)")

    def test_wall_is_the_extent_of_overlapping_roots(self, tracer):
        # two roots from concurrent threads: 0-2 s and 1-3 s overlap,
        # so the wall is 3 s, not the 4 s their durations sum to
        for start, end in ((0.0, 2.0), (1.0, 3.0)):
            root = tracer_module.Span(tracer, "worker", {})
            root.start, root.end = start, end
            tracer.attach(root, None)
        report = profile_report(tracer)
        assert report.splitlines()[0] == "profile: 2 span(s), 3.000s wall"
