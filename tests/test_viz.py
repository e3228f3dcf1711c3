"""Tests for the rendering helpers."""

from repro.engine import AsapPolicy, explore, simulate_model
from repro.sdf import SdfBuilder, weave_sdf
from repro.viz import sdf_to_dot, statespace_report, trace_report


def pipeline():
    builder = SdfBuilder("pipe")
    builder.agent("a", cycles=2)
    builder.agent("b")
    builder.connect("a", "b", push=2, pop=1, capacity=3, delay=1)
    return builder.build()


class TestSdfDot:
    def test_contains_agents_and_edges(self):
        _model, app = pipeline()
        dot = sdf_to_dot(app)
        assert '"a" [label="a\\nN=2"];' in dot
        assert '"b" [label="b"];' in dot
        assert '"a" -> "b"' in dot
        assert "2/1 cap=3 d=1" in dot

    def test_valid_digraph_shape(self):
        _model, app = pipeline()
        dot = sdf_to_dot(app)
        assert dot.startswith('digraph "pipe"')
        assert dot.rstrip().endswith("}")


class TestReports:
    def test_trace_report(self):
        model, _app = pipeline()
        result = simulate_model(weave_sdf(model).execution_model,
                                AsapPolicy(), 8)
        report = trace_report(result.trace)
        assert "steps: 8" in report
        assert "occurrences:" in report
        assert "a.start" in report

    def test_trace_report_without_diagram(self):
        model, _app = pipeline()
        result = simulate_model(weave_sdf(model).execution_model,
                                AsapPolicy(), 4)
        report = trace_report(result.trace, show_diagram=False)
        assert "X" not in report.splitlines()[-1] or "occurrences" in report

    def test_statespace_report(self):
        model, _app = pipeline()
        space = explore(weave_sdf(model).execution_model)
        report = statespace_report(space)
        assert "states:" in report
        assert "parallelism histogram" in report
