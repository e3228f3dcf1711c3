"""Encodability predictor: verdicts, auto-strategy routing, telemetry."""

import pytest

from repro.engine import explore
from repro.engine.ctl import check
from repro.engine.encodability import (
    is_encodable,
    predict,
    telemetry_snapshot,
)
from repro.errors import SymbolicEncodingError
from repro.workbench import CcslSpec, load


def telemetry_delta(before):
    after = telemetry_snapshot()
    return {key: after[key] - before[key] for key in after}


def ccsl_model(name, events, constraints):
    return load(CcslSpec(name=name, events=events,
                         constraints=constraints)).execution_model


@pytest.fixture()
def unbounded():
    """Unbounded Precedes: no finite local encoding exists."""
    return ccsl_model("unb", [f"e{i}" for i in range(12)],
                      [("Precedes", ("e0", "e1"))])


@pytest.fixture()
def bounded():
    return ccsl_model("bnd", [f"e{i}" for i in range(12)],
                      [("Alternates", ("e0", "e1"))])


class TestPredict:
    def test_unbounded_precedes_is_unencodable(self, unbounded):
        report = predict(unbounded)
        assert not report.encodable
        assert report.blockers
        assert "every constraint" not in report.reason

    def test_alternates_is_encodable(self, bounded):
        report = predict(bounded)
        assert report.encodable
        assert report.blockers == []
        doc = report.to_doc()
        assert doc["encodable"] is True
        assert all(v["encodable"] for v in doc["constraints"])

    def test_prediction_matches_compile(self, unbounded, bounded):
        from repro.engine.symbolic import TransitionSystem

        with pytest.raises(SymbolicEncodingError):
            TransitionSystem(unbounded.clone())
        TransitionSystem(bounded.clone())  # must not raise
        assert not is_encodable(unbounded)
        assert is_encodable(bounded)


class TestAutoRouting:
    """strategy='auto' consults the predictor instead of compiling
    blind; the SymbolicEncodingError handler stays as a safety net."""

    def test_explore_auto_skips_doomed_compile(self, unbounded):
        before = telemetry_snapshot()
        space = explore(unbounded, strategy="auto", max_states=50)
        assert space.truncated
        delta = telemetry_delta(before)
        assert delta["predicted_unencodable"] == 1
        assert delta["safety_net_raises"] == 0

    def test_check_auto_routes_to_explicit(self, unbounded):
        before = telemetry_snapshot()
        result = check(unbounded, "EF occurs(e1)", strategy="auto",
                       max_states=50)
        assert result.verdict.name == "HOLDS"
        assert telemetry_delta(before)["safety_net_raises"] == 0

    def test_symbolic_strategy_still_raises(self, unbounded):
        with pytest.raises(SymbolicEncodingError):
            explore(unbounded, strategy="symbolic")

    def test_safety_net_counts_predictor_misses(self, unbounded,
                                                monkeypatch):
        import repro.engine.encodability as encodability

        before = telemetry_snapshot()
        monkeypatch.setattr(encodability, "is_encodable",
                            lambda model: True)  # predictor lies
        space = explore(unbounded, strategy="auto", max_states=50)
        assert space.truncated  # explicit fallback still explored
        assert telemetry_delta(before)["safety_net_raises"] == 1

    def test_counters_live_on_the_global_registry(self, unbounded):
        from repro import obs
        before = obs.GLOBAL.counter("encodability.predicted_unencodable")
        assert not is_encodable(unbounded)
        assert obs.GLOBAL.counter(
            "encodability.predicted_unencodable") == before + 1
        assert telemetry_snapshot()["predicted_unencodable"] == before + 1


class TestServeAdmission:
    def test_cache_entry_carries_the_verdict(self):
        from repro.serve.metrics import Metrics
        from repro.serve.state import ModelCache

        metrics = Metrics()
        cache = ModelCache(metrics=metrics)
        entry = cache.acquire({
            "frontend": "ccsl", "name": "unb",
            "events": ["a", "b"],
            "constraints": [["Precedes", ["a", "b"]]],
        })
        assert entry.encodable is False
        assert entry.describe()["encodable"] is False
        counters = metrics.snapshot()["counters"]
        assert counters["model_predicted_unencodable"] == 1

    def test_injected_loader_without_model_is_none(self):
        from repro.serve.state import ModelCache

        class Bare:
            name = "bare"

        cache = ModelCache(loader=lambda doc: Bare())
        entry = cache.acquire({"anything": 1})
        assert entry.encodable is None
