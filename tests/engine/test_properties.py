"""Tests for property checking over state spaces (AG/EF/AF/leads-to),
including the three-valued verdicts on truncated spaces."""

from dataclasses import replace

import pytest

from repro.ccsl import AlternatesRuntime, PrecedesRuntime
from repro.engine import ExecutionModel, explore
from repro.engine.properties import (
    Verdict,
    always,
    counterexample_path,
    eventually_reachable,
    inevitable,
    leads_to,
    never,
    occurs,
    together,
)


def alternation_space():
    model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
    return explore(model)


def free_space():
    return explore(ExecutionModel(["a", "b"]))


def deadlock_space():
    model = ExecutionModel(
        ["a", "b"], [PrecedesRuntime("a", "b"), PrecedesRuntime("b", "a")])
    return explore(model)


class TestPredicates:
    def test_occurs(self):
        assert occurs("a")(frozenset({"a", "b"}))
        assert not occurs("a")(frozenset({"b"}))

    def test_together(self):
        assert together("a", "b")(frozenset({"a", "b", "c"}))
        assert not together("a", "b")(frozenset({"a"}))


class TestSafety:
    def test_alternation_never_simultaneous(self):
        space = alternation_space()
        assert never(space, together("a", "b"))
        assert not never(space, occurs("a"))

    def test_always_singleton_steps(self):
        space = alternation_space()
        assert always(space, lambda step: len(step) == 1)

    def test_free_model_violates_exclusion(self):
        space = free_space()
        assert not never(space, together("a", "b"))


class TestReachability:
    def test_eventually_reachable(self):
        space = alternation_space()
        assert eventually_reachable(space, occurs("b"))
        assert not eventually_reachable(space, together("a", "b"))

    def test_counterexample_is_shortest(self):
        space = alternation_space()
        path = counterexample_path(space, occurs("b"))
        assert path == [frozenset({"a"}), frozenset({"b"})]

    def test_counterexample_none_when_safe(self):
        space = alternation_space()
        assert counterexample_path(space, together("a", "b")) is None


class TestInevitability:
    def test_alternation_b_inevitable(self):
        # every infinite run is a b a b...: b is inevitable
        space = alternation_space()
        assert inevitable(space, occurs("b"))
        assert inevitable(space, occurs("a"))

    def test_free_model_nothing_inevitable(self):
        # the free model can loop on {b} forever, avoiding a
        space = free_space()
        assert not inevitable(space, occurs("a"))

    def test_deadlock_breaks_inevitability(self):
        space = deadlock_space()
        assert not inevitable(space, occurs("a"))

    def test_truncated_space_rejected(self):
        model = ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")])
        space = explore(model, max_states=5)
        assert space.truncated
        with pytest.raises(ValueError):
            inevitable(space, occurs("a"))


class TestLeadsTo:
    def test_alternation_a_leads_to_b(self):
        space = alternation_space()
        assert leads_to(space, occurs("a"), occurs("b"))
        assert leads_to(space, occurs("b"), occurs("a"))

    def test_free_model_no_response(self):
        space = free_space()
        assert not leads_to(space, occurs("a"), occurs("b"))

    def test_sdf_request_response(self):
        # producer firing leads to consumer firing in a bounded pipeline
        from repro.sdf import SdfBuilder, weave_sdf
        builder = SdfBuilder("duo")
        builder.agent("p")
        builder.agent("c")
        builder.connect("p", "c", capacity=2)
        model, _app = builder.build()
        space = explore(weave_sdf(model).execution_model)
        assert leads_to(space, occurs("p.start"), occurs("c.start"))


class TestVerdict:
    def test_truthiness(self):
        assert Verdict.HOLDS
        assert not Verdict.FAILS
        assert Verdict.HOLDS.definitive and Verdict.FAILS.definitive
        assert not Verdict.UNKNOWN.definitive

    def test_unknown_refuses_boolean_coercion(self):
        with pytest.raises(ValueError, match="UNKNOWN"):
            bool(Verdict.UNKNOWN)

    def test_str_and_value(self):
        assert str(Verdict.UNKNOWN) == "unknown"
        assert Verdict.HOLDS.value == "holds"


def truncated_space():
    model = ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")])
    space = explore(model, max_states=5)
    assert space.truncated
    return space


class TestTruncationSoundness:
    """The headline bugfix: no definitive verdict from a partial search
    unless the explored region alone proves it."""

    def test_always_unknown_when_unrefuted(self):
        # no violation in 5 states does NOT verify the property
        assert always(truncated_space(), lambda step: True) \
            is Verdict.UNKNOWN

    def test_always_refuted_is_definitive(self):
        # a violating step inside the explored region refutes soundly
        assert always(truncated_space(), occurs("b")) is Verdict.FAILS

    def test_never_unknown_when_unwitnessed(self):
        assert never(truncated_space(), lambda step: False) \
            is Verdict.UNKNOWN

    def test_never_refuted_is_definitive(self):
        assert never(truncated_space(), occurs("a")) is Verdict.FAILS

    def test_eventually_witnessed_is_definitive(self):
        assert eventually_reachable(truncated_space(), occurs("a")) \
            is Verdict.HOLDS

    def test_eventually_unknown_when_unwitnessed(self):
        assert eventually_reachable(truncated_space(),
                                    lambda step: False) is Verdict.UNKNOWN

    def test_assert_idiom_errors_instead_of_passing(self):
        # the pre-fix behaviour: `assert always(space, p)` silently
        # "verified" a truncated search; now it raises
        with pytest.raises(ValueError):
            assert always(truncated_space(), lambda step: True)

    def test_leads_to_still_rejects_truncation(self):
        with pytest.raises(ValueError):
            leads_to(truncated_space(), occurs("a"), occurs("b"))

    def test_complete_space_stays_definitive(self):
        space = alternation_space()
        assert always(space, lambda step: len(step) == 1) is Verdict.HOLDS
        assert never(space, occurs("a")) is Verdict.FAILS
        assert eventually_reachable(space, occurs("b")) is Verdict.HOLDS

    def test_maximal_only_space_is_partial_too(self):
        # the ASAP reduction drops the {a} and {b} steps of the free
        # model, so "never exactly {a}" must not be verified from it
        space = explore(ExecutionModel(["a", "b"]), maximal_only=True)
        assert space.maximal_only and not space.truncated
        assert never(space, lambda step: step == frozenset({"a"})) \
            is Verdict.UNKNOWN
        # sound directions stay definitive; AF-style checks refuse
        assert eventually_reachable(space, occurs("a")) is Verdict.HOLDS
        with pytest.raises(ValueError, match="maximal_only"):
            inevitable(space, occurs("a"))
        with pytest.raises(ValueError, match="maximal_only"):
            leads_to(space, occurs("a"), occurs("b"))


class TestEdgeCases:
    def test_cycle_through_initial_state(self):
        # a-b alternation cycles back through the initial state; the
        # avoidance-trap computation must see that cycle
        space = alternation_space()
        assert inevitable(space, occurs("a")) is Verdict.HOLDS
        assert inevitable(space, lambda step: False) is Verdict.FAILS

    def test_self_loop_on_initial(self):
        space = free_space()  # {a}, {b}, {a,b} all loop on one state
        assert space.n_states == 1
        assert inevitable(space, occurs("a")) is Verdict.FAILS
        assert leads_to(space, occurs("a"), occurs("b")) is Verdict.FAILS

    def test_single_state_empty_step_set(self):
        # mutual precedence deadlocks immediately: one state, no steps
        space = deadlock_space()
        assert space.n_states == 1
        assert space.n_transitions == 0
        assert always(space, occurs("a")) is Verdict.HOLDS  # vacuous
        assert eventually_reachable(space, occurs("a")) is Verdict.FAILS
        assert inevitable(space, occurs("a")) is Verdict.FAILS  # deadlock
        assert leads_to(space, occurs("a"), occurs("b")) is Verdict.HOLDS

    def test_frontier_node_not_a_deadlock(self):
        # truncation frontier nodes have no outgoing edges but are NOT
        # deadlocks; inevitability refuses to guess either way
        space = truncated_space()
        frontier = sorted(space.frontier)
        assert frontier
        assert not set(space.deadlocks()) & set(frontier)

    def test_counterexample_on_deadlocked_space(self):
        space = deadlock_space()
        assert counterexample_path(space, occurs("a")) is None


def naive_leads_to(space, trigger, target):
    """The pre-optimization implementation: rebuild a state space and
    re-run inevitability per trigger source — the regression oracle."""
    sources = {v for _u, v, step in space.edges() if trigger(step)}
    for source in sources:
        sub_space = replace(space, initial=source, truncated=False,
                            name=f"{space.name}@{source}")
        if inevitable(sub_space, target) is Verdict.FAILS:
            return Verdict.FAILS
    return Verdict.HOLDS


class TestLeadsToSharedPass:
    """The shared backward pass must agree with the per-source rerun."""

    def corpus(self):
        from repro.sdf import SdfBuilder, weave_sdf
        spaces = [alternation_space(), free_space(), deadlock_space()]
        builder = SdfBuilder("trio")
        for name in ("x", "y", "z"):
            builder.agent(name)
        builder.connect("x", "y", capacity=2)
        builder.connect("y", "z", capacity=1)
        model, _app = builder.build()
        spaces.append(explore(weave_sdf(model).execution_model))
        model = ExecutionModel(
            ["a", "b", "c"],
            [AlternatesRuntime("a", "b"), PrecedesRuntime("b", "c", bound=2)])
        spaces.append(explore(model))
        return spaces

    def test_identical_verdicts_on_corpus(self):
        checked = 0
        for space in self.corpus():
            events = sorted(space.events)
            pairs = [(events[0], events[-1]), (events[-1], events[0]),
                     (events[0], events[0])]
            if len(events) > 2:
                pairs.append((events[1], events[2]))
            for trigger_event, target_event in pairs:
                expected = naive_leads_to(
                    space, occurs(trigger_event), occurs(target_event))
                actual = leads_to(
                    space, occurs(trigger_event), occurs(target_event))
                assert actual is expected, (
                    space.name, trigger_event, target_event)
                checked += 1
        assert checked >= 15

    def test_trigger_into_trap_fails(self):
        space = free_space()
        # any 'a' step re-enters the single looping state, which can
        # avoid 'b' forever
        assert leads_to(space, occurs("a"), occurs("b")) is Verdict.FAILS

    def test_no_trigger_holds_vacuously(self):
        space = alternation_space()
        assert leads_to(space, together("a", "b"), occurs("b")) \
            is Verdict.HOLDS


class TestDeploymentProperties:
    def test_mutex_as_safety_property(self):
        from repro.deployment import Allocation, Platform, deploy
        from repro.sdf import SdfBuilder
        builder = SdfBuilder("pipe")
        builder.agent("x")
        builder.agent("y")
        builder.connect("x", "y", capacity=2)
        model, app = builder.build()
        platform = Platform("mono")
        platform.processor("cpu")
        result = deploy(model, app, platform,
                        Allocation({"x": "cpu", "y": "cpu"}))
        space = explore(result.execution_model)
        assert never(space, together("x.start", "y.start"))
