"""Unit tests of the symbolic fixpoint engine itself: local tables and
their closure, variable-order heuristic, relation encoding, fixpoint
iteration, BDD-level invariant checks, and kernel-level caching."""

import pytest

from repro.ccsl import AlternatesRuntime, PrecedesRuntime
from repro.engine import (
    ExecutionModel,
    check,
    explore,
    symbolic_reachable,
    symbolic_variable_bounds,
)
from repro.engine.ctl import Verdict
from repro.engine.local import MAX_ALPHABET, LocalTable, LocalView
from repro.engine.symbolic import (
    DEFAULT_MAX_LOCAL_STATES,
    TransitionSystem,
    _constraint_order,
)
from repro.errors import EngineError, SymbolicEncodingError
from repro.sdf import SdfBuilder, weave_sdf


def chain_model(length=3, capacity=2):
    builder = SdfBuilder(f"chain{length}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index + 1}", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def closed(runtime, max_local_states=64):
    return LocalTable(0, runtime).close(max_local_states)


class TestLocalClosure:
    def test_alternates_has_two_states(self):
        table = closed(AlternatesRuntime("a", "b"))
        assert table.n_states == 2
        assert table.alphabet == ("a", "b")
        # from the initial state only {} and {a} are acceptable
        assert set(table.delta[0]) == {frozenset(), frozenset({"a"})}
        assert table.delta[0][frozenset({"a"})] == 1
        assert table.delta[0][frozenset()] == 0

    def test_bounded_precedes_state_count(self):
        table = closed(PrecedesRuntime("a", "b", bound=3))
        assert table.n_states == 4  # counter values 0..3

    def test_unbounded_counter_overflows(self):
        with pytest.raises(SymbolicEncodingError, match="closure bound"):
            closed(PrecedesRuntime("a", "b"), 16)

    def test_keys_match_runtime_state_keys(self):
        runtime = AlternatesRuntime("a", "b")
        table = closed(runtime)
        assert table.keys[0] == runtime.state_key()

    def test_delta_is_filled_in_mask_order(self):
        # local ids, symbolic encodings and ReachableSet.states() order
        # all follow the closure's admission order
        table = closed(PrecedesRuntime("a", "b", bound=3))

        def mask(assignment):
            return sum(1 << table.alphabet.index(event)
                       for event in assignment)

        for row in table.delta:
            assert [mask(a) for a in row] == sorted(map(mask, row))

    def test_closed_table_rejects_instead_of_growing(self):
        table = closed(AlternatesRuntime("a", "b"))
        with pytest.raises(EngineError, match="not acceptable"):
            table.successor(0, frozenset({"b"}))
        assert table.n_states == 2


class TestLazyTable:
    def test_open_table_advances_once_per_miss(self):
        table = LocalTable(0, PrecedesRuntime("a", "b"))
        assert table.n_states == 1 and table.advances == 0
        assert table.successor(0, frozenset({"a"})) == 1
        assert table.successor(0, frozenset({"a"})) == 1
        assert table.advances == 1
        assert table.successor(1, frozenset({"b"})) == 0
        assert table.advances == 2 and table.n_states == 2

    def test_view_matches_execution_model(self):
        model = chain_model(3)
        view = LocalView([LocalTable(index, constraint) for index, constraint
                          in enumerate(model.constraints)], model.kernel)
        work = model.clone()
        assert view.key(view.initial) == work.configuration()
        assert view.is_accepting(view.initial) == work.is_accepting()
        assert list(view.steps(view.initial)) == work.acceptable_steps()
        for step in work.acceptable_steps():
            snapshot = work.snapshot()
            work.advance(step)
            succ = view.successor(view.initial, step)
            assert view.key(succ) == work.configuration()
            assert view.is_accepting(succ) == work.is_accepting()
            work.restore(snapshot)

    def test_unbounded_model_truncates_past_the_closure_bound(self):
        # lazy tables carry no closure bound: only max_states stops them
        model = ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")],
                               name="unbounded")
        space = explore(model, max_states=6000, strategy="explicit")
        assert space.truncated
        assert space.n_states == 6000 > DEFAULT_MAX_LOCAL_STATES
        with pytest.raises(SymbolicEncodingError):
            explore(model, strategy="symbolic")


class TestConstraintOrder:
    def test_pipeline_order_recovered(self):
        model = chain_model(4, capacity=1)
        order = _constraint_order(model.constraints)
        # neighbours in the order must share events often: check that
        # every constraint is adjacent to at least one event-sharing
        # constraint (the pipeline property), except possibly at seams
        labels = [model.constraints[i].label for i in order]
        assert len(labels) == len(model.constraints)
        adjacent_sharing = 0
        for left, right in zip(order, order[1:]):
            shared = (model.constraints[left].constrained_events
                      & model.constraints[right].constrained_events)
            adjacent_sharing += bool(shared)
        assert adjacent_sharing >= len(order) // 2

    def test_order_is_a_permutation(self):
        model = chain_model(3)
        order = _constraint_order(model.constraints)
        assert sorted(order) == list(range(len(model.constraints)))


class TestTransitionSystem:
    def test_interleaved_current_primed_bits(self):
        system = TransitionSystem(chain_model(3))
        order = system.bdd.order
        for index in range(len(system.tables)):
            for cur, primed in zip(system.cur_names[index],
                                   system.primed_names[index]):
                assert order.index(primed) == order.index(cur) + 1

    def test_steps_match_execution_model(self):
        model = chain_model(3)
        view = TransitionSystem(model).view
        assert list(view.steps(view.initial)) == \
            model.clone().acceptable_steps()

    def test_successor_matches_advance(self):
        model = chain_model(3)
        view = TransitionSystem(model).view
        work = model.clone()
        for step in work.acceptable_steps():
            succ = view.successor(view.initial, step)
            snapshot = work.snapshot()
            work.advance(step, check=False)
            assert view.key(succ) == work.configuration()
            work.restore(snapshot)

    def test_unacceptable_step_raises(self):
        view = TransitionSystem(chain_model(3)).view
        with pytest.raises(EngineError, match="not acceptable"):
            view.successor(view.initial,
                           frozenset({"a2.start", "a2.stop"}))

    def test_wide_alphabet_rejected(self):
        from repro.moccml.semantics.runtime import FormulaRuntime
        from repro.boolalg.expr import Or, Var
        events = [f"e{i}" for i in range(MAX_ALPHABET + 1)]
        model = ExecutionModel(
            events, [FormulaRuntime("wide", Or(*map(Var, events)))],
            name="wide")
        with pytest.raises(SymbolicEncodingError, match="alphabet"):
            TransitionSystem(model)


class TestFixpoint:
    def test_layer_counts_sum_to_total(self):
        reachable = symbolic_reachable(chain_model(3))
        assert sum(reachable.layer_counts()) == reachable.count()
        assert not reachable.truncated

    def test_depth_budget_truncates(self):
        reachable = symbolic_reachable(chain_model(3), max_depth=1)
        assert reachable.truncated
        with pytest.raises(EngineError, match="complete reachable set"):
            reachable.is_deadlock_free()

    def test_state_budget_truncates(self):
        reachable = symbolic_reachable(chain_model(4), max_states=3)
        assert reachable.truncated
        assert reachable.count() > 3  # stopped after the violating layer

    def test_states_enumeration_matches_graph(self):
        model = chain_model(3)
        space = explore(model)
        assert set(symbolic_reachable(model).states()) == set(space.keys)

    def test_contains_initial(self):
        model = chain_model(3)
        reachable = symbolic_reachable(model)
        assert reachable.contains(reachable.system.view.initial)

    def test_to_statespace_roundtrip(self):
        model = chain_model(3)
        reachable = symbolic_reachable(model)
        assert reachable.to_statespace().to_json() == \
            explore(model).to_json()

    def test_summary_fields(self):
        summary = symbolic_reachable(chain_model(3)).summary()
        assert summary["states"] == 9
        assert summary["deadlocks"] == 0
        assert not summary["truncated"]
        assert summary["state_bits"] > 0


class TestSymbolicAnalyses:
    def test_deadlock_free_chain(self):
        assert symbolic_reachable(chain_model(3)).is_deadlock_free()

    def test_deadlocking_model(self):
        # a must lead and b must lead: no first step at all
        model = ExecutionModel(
            ["a", "b"],
            [AlternatesRuntime("a", "b"), AlternatesRuntime("b", "a")],
            name="deadlock")
        assert not symbolic_reachable(model).is_deadlock_free()
        assert not explore(model).is_deadlock_free()

    def test_liveness_matches_graph(self):
        from repro.engine import event_liveness
        model = chain_model(3)
        alive = symbolic_reachable(model).live_events()
        assert {event: event in alive for event in model.events} == \
            event_liveness(explore(model))

    def test_variable_bounds_match_graph(self):
        from repro.engine import variable_bounds
        model = chain_model(3, capacity=2)
        assert symbolic_variable_bounds(model) == \
            variable_bounds(model, explore(model))

    def test_buffer_bound_verification(self):
        model = chain_model(3, capacity=2)
        label = next(c.label for c in model.constraints
                     if "Place" in c.label)
        size = f"var({label}.size)"
        assert check(model, f"AG ({size} >= 0 & {size} <= 2)",
                     strategy="symbolic").verdict is Verdict.HOLDS
        assert check(model, f"AG {size} <= 1",
                     strategy="symbolic").verdict is Verdict.FAILS

    def test_unknown_variable_raises(self):
        with pytest.raises(EngineError, match="no constraint labelled"):
            check(chain_model(2), "AG var(nope.var) <= 0",
                  strategy="symbolic")

    def test_local_states_by_label(self):
        model = chain_model(3, capacity=2)
        reachable = symbolic_reachable(model)
        label = next(c.label for c in model.constraints
                     if "Place" in c.label)
        sizes = {dict(key[2])["size"]
                 for key in reachable.local_states(label)}
        assert sizes == {0, 1, 2}
        with pytest.raises(EngineError, match="no constraint labelled"):
            reachable.local_states("missing")


class TestKernelCaching:
    def test_transition_system_shared_across_clones(self):
        model = chain_model(3)
        system = model.kernel.transition_system(model)
        clone = model.clone()
        assert clone.kernel.transition_system(clone) is system
        assert model.kernel.cache_sizes()["transition_systems"] == 1

    def test_clear_drops_transition_systems(self):
        model = chain_model(3)
        model.kernel.transition_system(model)
        model.kernel.clear()
        assert model.kernel.cache_sizes()["transition_systems"] == 0
