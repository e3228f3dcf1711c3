"""The mandatory equivalence corpus: symbolic vs explicit reachability.

Every model family in the corpus runs through the differential oracle
(:func:`repro.fuzz.compare`) — identical state spaces under both
relation layouts (states, transitions, serialized bytes, truncation
frontiers) plus the pure fixpoint's state count, deadlock verdict and
event liveness, and the property battery under every backend
configuration. A mismatch anywhere is a bug in the symbolic engine,
never an acceptable difference.
"""

import pytest

from repro.ccsl import (
    AlternatesRuntime,
    DeadlineRuntime,
    DelayedForRuntime,
    FilterByRuntime,
    PeriodicOnRuntime,
    PrecedesRuntime,
    SampledOnRuntime,
)
from repro.engine import ExecutionModel
from repro.errors import SymbolicEncodingError
from repro.fuzz import battery_texts, compare
from repro.moccml.semantics.runtime import FormulaRuntime
from repro.boolalg.expr import Implies, Not, Or, Var
from repro.sdf import SdfBuilder, weave_sdf
from repro.workbench import CcslSpec, load


def sdf_chain(length, capacity=1, variant="default"):
    builder = SdfBuilder(f"chain{length}c{capacity}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index + 1}", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model, place_variant=variant).execution_model


def sdf_forkjoin(capacity=1):
    builder = SdfBuilder("forkjoin")
    for name in ("split", "left", "right", "join"):
        builder.agent(name)
    builder.connect("split", "left", capacity=capacity)
    builder.connect("split", "right", capacity=capacity)
    builder.connect("left", "join", capacity=capacity)
    builder.connect("right", "join", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def ccsl_mix():
    return ExecutionModel(
        ["a", "b", "c", "d"],
        [AlternatesRuntime("a", "b"),
         PrecedesRuntime("b", "c", bound=2),
         DelayedForRuntime("d", "a", 2),
         DeadlineRuntime("a", "c", 4)],
        name="ccsl-mix")


def ccsl_filters():
    return ExecutionModel(
        ["a", "b", "f", "p", "s"],
        [AlternatesRuntime("a", "b"),
         PeriodicOnRuntime("p", "a", 3, 1),
         FilterByRuntime("f", "b", "1(10)"),
         SampledOnRuntime("s", "a", "b")],
        name="ccsl-filters")


def formula_only():
    return ExecutionModel(
        ["x", "y", "z", "free"],
        [FormulaRuntime("sub", Implies(Var("y"), Var("x"))),
         FormulaRuntime("excl", Or(Not(Var("x")), Not(Var("z"))))],
        name="formula-only")


CORPUS = {
    "chain2": lambda: sdf_chain(2),
    "chain3-cap2": lambda: sdf_chain(3, capacity=2),
    "chain4": lambda: sdf_chain(4),
    "chain3-strict": lambda: sdf_chain(3, capacity=2, variant="strict"),
    "chain3-multiport": lambda: sdf_chain(3, capacity=2,
                                          variant="multiport"),
    "forkjoin": lambda: sdf_forkjoin(),
    "forkjoin-cap2": lambda: sdf_forkjoin(capacity=2),
    "ccsl-mix": ccsl_mix,
    "ccsl-filters": ccsl_filters,
    "formula-only": formula_only,
    "ccsl-spec": lambda: load(CcslSpec(
        "spec", events=["a", "b", "c"],
        constraints=[("Alternates", ["a", "b"]),
                     ("BoundedPrecedes", ["b", "c", 1])])).execution_model,
}


def assert_agree(model, max_states=10_000, battery=True, **options):
    texts = battery_texts(model) if battery else []
    comparison = compare(model, texts, max_states, **options)
    assert comparison.agree, [str(m) for m in comparison.mismatches]
    assert not comparison.unencodable
    return comparison


class TestCorpusEquivalence:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_full_space(self, name):
        comparison = assert_agree(CORPUS[name](), max_states=20_000)
        assert comparison.fixpoint["states"] == comparison.states

    @pytest.mark.parametrize("name", ["chain3-cap2", "forkjoin",
                                      "ccsl-mix"])
    def test_include_empty(self, name):
        assert_agree(CORPUS[name](), include_empty=True)

    @pytest.mark.parametrize("name", ["chain3-cap2", "forkjoin"])
    def test_maximal_only(self, name):
        assert_agree(CORPUS[name](), battery=False, maximal_only=True)

    def test_comparison_reports_what_it_compared(self):
        # sanity of the oracle itself: both relation layouts and all
        # three backend configurations per property were run
        comparison = compare(sdf_chain(2), ["AG !deadlock"], 10_000)
        assert comparison.states > 0
        assert comparison.mismatches == []
        assert comparison.checks == 2 + 3

    def test_mismatch_is_reported_not_hidden(self, monkeypatch):
        # a symbolic layout that loses states must surface as one
        # disagreement naming that layout, not pass silently
        from repro.engine import explorer

        real_explore = explorer.explore

        def lossy(model, **options):
            if options.get("relation_mode") == "monolithic":
                options["max_states"] = 1
            return real_explore(model, **options)

        monkeypatch.setattr(explorer, "explore", lossy)
        comparison = compare(sdf_chain(2), [], 10_000)
        assert not comparison.agree
        assert [m.kind for m in comparison.mismatches] == ["disagreement"]
        assert "(monolithic)" in comparison.mismatches[0].detail
        assert "states" in comparison.mismatches[0].detail


class TestPropertyCrossCheck:
    """The property battery rides the corpus: every backend
    configuration must agree on verdicts and witnesses."""

    def test_report_carries_property_results(self):
        comparison = assert_agree(sdf_chain(3, capacity=2))
        battery = comparison.properties
        assert len(battery) == 10
        verdicts = {entry["verdict"] for entry in battery}
        assert verdicts <= {"holds", "fails"}  # complete space: definitive
        assert any(entry["witness"] for entry in battery)

    def test_deadlocking_model_battery(self):
        from repro.ccsl import DelayedForRuntime
        model = ExecutionModel(
            ["a", "b"],
            [PrecedesRuntime("a", "b", bound=1),
             DelayedForRuntime("b", "a", 3)],
            name="deadlocker")
        comparison = assert_agree(model)
        deadlock_entries = {entry["property"]: entry["verdict"]
                            for entry in comparison.properties}
        assert deadlock_entries["EF deadlock"] == "holds"
        assert deadlock_entries["AG !deadlock"] == "fails"


class TestNonEncodableModels:
    def make_unbounded(self):
        return ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")],
                              name="unbounded")

    def test_symbolic_strategy_raises(self):
        from repro.engine import explore
        with pytest.raises(SymbolicEncodingError, match="closure bound"):
            explore(self.make_unbounded(), max_states=50,
                    strategy="symbolic")

    def test_auto_falls_back_to_explicit(self):
        from repro.engine import explore
        model = self.make_unbounded()
        # force auto past the event threshold by padding free events
        for index in range(12):
            model.add_event(f"pad{index}")
        space = explore(model, max_states=50, strategy="auto")
        assert space.truncated  # unbounded counter, budget-truncated
