"""The batch harness both corpus workloads share.

A corpus is a set of model source documents plus a list of run specs,
each with the answers it must produce. One *pass* loads every model
fresh (so every kernel starts cold), then runs the whole spec list
through ``Workbench.run_many(backend="serial")`` with no store, timing
each spec (see :class:`common.Timeline`) from the previous result to
its own. A timed run makes one warm-up pass, then
repeats passes until its time is up; a traced run brackets one traced
pass with untraced ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import common


@dataclass
class Case:
    """One spec and the answers it must produce.

    *want* maps a dotted path into the result document's ``data`` (or
    ``status``/``digest``) to the expected value; *source* names where
    the answers come from (analytic, the other engine, recorded
    digests) and is shown on a mismatch.
    """

    spec: object
    want: dict = field(default_factory=dict)
    source: str = "analytic"


@dataclass
class Corpus:
    models: dict                       # name -> source document
    cases: list                        # Case, in batch order
    notes: dict = field(default_factory=dict)


def load_handles(models: dict) -> dict:
    """Load every model fresh (spans are no-ops unless tracing)."""
    from repro import obs
    from repro.workbench import load, source_from_doc
    handles = {}
    for name, doc in models.items():
        with obs.span("bench.load"):
            handles[name] = load(source_from_doc(doc), name=name,
                                 **doc.get("options", {}))
    return handles


def reference_check(handle, prop: str, strategy: str) -> dict:
    """What the *other* engine answers for *prop* on *handle*: verdict,
    state count and witness, which both engines must return identically
    on a model small enough to explore completely."""
    from repro.engine.ctl import check
    result = check(handle.execution_model, prop, strategy=strategy,
                   max_states=20_000).to_doc()
    if result["truncated"]:
        raise RuntimeError(f"reference answer for {prop!r} is truncated")
    want = {"verdict": result["verdict"], "states": result["states"]}
    if "trace" in result:
        want["trace"] = result["trace"]
    return want


def run_pass(corpus: Corpus, timeline: common.Timeline | None = None):
    """One pass; returns ``(wall, results)`` of the ``run_many`` call.
    A *timeline* records each spec from the previous result to its
    own."""
    from repro import obs
    from repro.workbench import Workbench
    handles = load_handles(corpus.models)
    workbench = Workbench()
    for name, handle in handles.items():
        workbench.attach(name, handle)
    specs = [case.spec for case in corpus.cases]
    on_result = None
    if timeline is not None:
        def on_result(_index, _result):
            timeline.end()
            timeline.begin()
        timeline.begin()

    with obs.span("bench.run_many"):
        started = time.perf_counter()
        results = workbench.run_many(specs, backend="serial",
                                     on_result=on_result)
        wall = time.perf_counter() - started
    return wall, results


def lookup(doc: dict, path: str):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return ("missing", path)
        node = node[part]
    return node


def verify(corpus: Corpus, results, verdicts: common.Verdicts) -> None:
    """Check every result of one pass against its case's answers."""
    for case, result in zip(corpus.cases, results):
        problems: list[str] = []
        doc = result.to_doc()
        common.compare(problems, "status", result.status,
                       verdicts.want("ok"))
        for path, want in case.want.items():
            if path == "digest":
                got = common.digest(result.to_json())
            else:
                got = lookup(doc.get("data") or {}, path)
            common.compare(problems, f"{path} ({case.source})", got,
                           verdicts.want(want))
        verdicts.record(f"{case.spec.model}/{case.spec.label}", problems)


def timed(corpus: Corpus, seconds: float, verdicts: common.Verdicts):
    """A warm-up pass, then passes until *seconds* have elapsed (at
    least one); returns the timed passes' :class:`common.Timeline` and
    wall times. Every pass is verified."""
    timelines, walls = [], []
    _wall, results = run_pass(corpus)
    verify(corpus, results, verdicts)
    common.settle()
    started = time.perf_counter()
    while not timelines or time.perf_counter() - started < seconds:
        with common.Timeline() as timeline:
            wall, results = run_pass(corpus, timeline)
        timelines.append(timeline)
        walls.append(wall)
        verify(corpus, results, verdicts)
    return timelines, walls


def traced(corpus: Corpus, verdicts: common.Verdicts):
    """The traced pass, bracketed by untraced ones; returns the
    :class:`common.Traced` record and the tracing overhead."""

    def untraced():
        started = time.perf_counter()
        _wall, results = run_pass(corpus)
        wall = time.perf_counter() - started
        verify(corpus, results, verdicts)
        return wall

    def traced_pass():
        with common.Traced() as trace:
            _wall, results = run_pass(corpus)
        verify(corpus, results, verdicts)
        return None, trace

    _none, trace, overhead = common.traced_with_overhead(untraced,
                                                          traced_pass)
    return trace, overhead
