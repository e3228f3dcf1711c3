"""Step-level properties as CTL: safety, reachability, inevitability
and leads-to over the steps taken (``EX[σ]``/``EG[σ]``), including the
three-valued verdicts on truncated spaces, checked against brute-force
references over the explored edges."""

import pytest

from repro.ccsl import AlternatesRuntime, PrecedesRuntime
from repro.engine import ExecutionModel, explore
from repro.engine.ctl import Verdict, check, check_space, replay_steps
from repro.errors import EngineError
from repro.fuzz import compare
from tests.engine.test_symbolic_equivalence import CORPUS

# the CTL form of each step-level question
NEVER_TOGETHER = "AG !EX[occurs({0}) & occurs({1})] true"
ALWAYS = "AG !EX[!({0})] true"
EVENTUALLY = "EF EX[{0}] true"
INEVITABLE = "!EG[!({0})] true"
LEADS_TO = "AG !EX[{0}] EG[!({1})] true"
#: its counterexample is the shortest schedule ending with a σ-step
REACH_STEP = "AG !EX[{0}] true"


def alternation_model():
    return ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])


def free_model():
    return ExecutionModel(["a", "b"])


def deadlock_model():
    # bounded, so that the symbolic backend can encode it too
    return ExecutionModel(
        ["a", "b"], [PrecedesRuntime("a", "b", bound=1),
                     PrecedesRuntime("b", "a", bound=1)])


def sdf_duo():
    from repro.sdf import SdfBuilder, weave_sdf
    builder = SdfBuilder("duo")
    builder.agent("p")
    builder.agent("c")
    builder.connect("p", "c", capacity=2)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def verdict(model, text):
    """The verdict of *text* on the complete space of *model*, asserted
    identical (verdict and witness) under the explicit and symbolic
    strategies."""
    explicit = check_space(explore(model), text)
    symbolic = check(model, text, strategy="symbolic")
    assert explicit.verdict is symbolic.verdict, text
    assert explicit.witness_steps == symbolic.witness_steps, text
    return explicit.verdict


def truncated_space():
    model = ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")])
    space = explore(model, max_states=5)
    assert space.truncated
    return space


def on_truncated(text):
    return check_space(truncated_space(), text).verdict


# -- brute-force references over the explored edges -------------------------


def naive_always(space, predicate):
    """A per-edge scan: does every explored step satisfy *predicate*?"""
    return all(predicate(step) for _u, _v, step in space.edges())


def naive_inevitable(space, source, predicate):
    """Every maximal run from *source* takes a *predicate* step: no
    state reachable by avoiding steps is a deadlock or lies on a cycle
    of avoiding steps (one search per state)."""
    def avoiding(node):
        return [v for v, step in space.successors(node)
                if not predicate(step)]

    def reach(starts):
        seen, stack = set(), list(starts)
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(avoiding(node))
        return seen

    deadlocks = set(space.deadlocks())
    for node in reach([source]):
        if node in deadlocks or node in reach(avoiding(node)):
            return Verdict.FAILS
    return Verdict.HOLDS


def naive_leads_to(space, trigger, target):
    """Re-run inevitability from the target of every trigger step."""
    for _u, v, step in space.edges():
        if trigger(step) and \
                naive_inevitable(space, v, target) is Verdict.FAILS:
            return Verdict.FAILS
    return Verdict.HOLDS


def occurs(event):
    return lambda step: event in step


class TestPredicates:
    def test_occurs(self):
        # the alternation's first step is exactly {a}
        assert verdict(alternation_model(), "EX[occurs(a)] true") \
            is Verdict.HOLDS
        assert verdict(alternation_model(), "EX[occurs(b)] true") \
            is Verdict.FAILS

    def test_together(self):
        text = "EX[occurs(a) & occurs(b)] true"
        assert verdict(free_model(), text) is Verdict.HOLDS
        assert verdict(alternation_model(), text) is Verdict.FAILS


class TestSafety:
    def test_alternation_never_simultaneous(self):
        model = alternation_model()
        assert verdict(model, NEVER_TOGETHER.format("a", "b"))
        assert not verdict(model, REACH_STEP.format("occurs(a)"))

    def test_always_singleton_steps(self):
        single = "occurs(a) -> !occurs(b)"  # steps are never empty here
        assert verdict(alternation_model(), ALWAYS.format(single))
        assert not verdict(free_model(), ALWAYS.format(single))

    def test_free_model_violates_exclusion(self):
        assert not verdict(free_model(), NEVER_TOGETHER.format("a", "b"))


class TestReachability:
    def test_eventually_reachable(self):
        model = alternation_model()
        assert verdict(model, EVENTUALLY.format("occurs(b)"))
        assert not verdict(model, EVENTUALLY.format("occurs(a) & occurs(b)"))

    def test_counterexample_is_shortest(self):
        result = check_space(explore(alternation_model()),
                             REACH_STEP.format("occurs(b)"))
        assert result.witness_kind == "counterexample"
        assert result.witness_steps == [frozenset({"a"}), frozenset({"b"})]

    def test_eventually_witness_ends_with_the_step(self):
        result = check_space(explore(alternation_model()),
                             EVENTUALLY.format("occurs(b)"))
        assert result.witness_steps == [frozenset({"a"}), frozenset({"b"})]

    def test_counterexample_none_when_safe(self):
        result = check_space(explore(alternation_model()),
                             REACH_STEP.format("occurs(a) & occurs(b)"))
        assert result.verdict is Verdict.HOLDS
        assert result.witness_steps is None


class TestInevitability:
    def test_alternation_b_inevitable(self):
        # every infinite run is a b a b...: b is inevitable
        model = alternation_model()
        assert verdict(model, INEVITABLE.format("occurs(b)"))
        assert verdict(model, INEVITABLE.format("occurs(a)"))

    def test_free_model_nothing_inevitable(self):
        # the free model can loop on {b} forever, avoiding a
        assert not verdict(free_model(), INEVITABLE.format("occurs(a)"))

    def test_deadlock_breaks_inevitability(self):
        assert not verdict(deadlock_model(), INEVITABLE.format("occurs(a)"))

    def test_truncated_space_is_three_valued(self):
        # was a ValueError: the a-only run runs into the frontier, so
        # whether b is inevitable is open; a is forced by the first step
        assert on_truncated(INEVITABLE.format("occurs(b)")) \
            is Verdict.UNKNOWN
        assert on_truncated(INEVITABLE.format("occurs(a)")) \
            is Verdict.HOLDS

    def test_counterexample_is_the_avoiding_run(self):
        result = check_space(explore(free_model()),
                             INEVITABLE.format("occurs(a)"))
        assert result.witness_kind == "counterexample"
        assert result.witness_steps == [frozenset({"b"})]  # {b} loops


class TestLeadsTo:
    def test_alternation_a_leads_to_b(self):
        model = alternation_model()
        assert verdict(model, LEADS_TO.format("occurs(a)", "occurs(b)"))
        assert verdict(model, LEADS_TO.format("occurs(b)", "occurs(a)"))

    def test_free_model_no_response(self):
        assert not verdict(free_model(),
                           LEADS_TO.format("occurs(a)", "occurs(b)"))

    def test_sdf_request_response(self):
        # producer firing leads to consumer firing in a bounded pipeline
        assert verdict(sdf_duo(),
                       LEADS_TO.format("occurs(p.start)", "occurs(c.start)"))

    def test_counterexample_is_trigger_then_avoiding_lasso(self):
        # after a, the free event c can loop forever while b waits
        model = ExecutionModel(["a", "b", "c"],
                               [AlternatesRuntime("a", "b")])
        text = LEADS_TO.format("occurs(a)", "occurs(b)")
        assert verdict(model, text) is Verdict.FAILS
        result = check_space(explore(model), text)
        assert result.witness_kind == "counterexample"
        # the trigger step, then the {c} self-loop that never fires b
        assert result.witness_steps == [frozenset({"a"}), frozenset({"c"})]
        assert replay_steps(model, result.witness_steps)

    def test_free_model_counterexample(self):
        result = check_space(explore(free_model()),
                             LEADS_TO.format("occurs(a)", "occurs(b)"))
        # the trigger step, then the {a} self-loop that avoids b
        assert result.witness_steps == [frozenset({"a"}), frozenset({"a"})]


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


class TestTruncationSoundness:
    """No definitive verdict from a partial search unless the explored
    region alone proves it."""

    def test_always_unknown_when_unrefuted(self):
        # no violation in 5 states does NOT verify the property
        assert on_truncated(ALWAYS.format("true")) is Verdict.UNKNOWN

    def test_always_refuted_is_definitive(self):
        # a violating step inside the explored region refutes soundly
        assert on_truncated(ALWAYS.format("occurs(b)")) is Verdict.FAILS

    def test_never_unknown_when_unwitnessed(self):
        assert on_truncated(REACH_STEP.format("false")) is Verdict.UNKNOWN

    def test_never_refuted_is_definitive(self):
        assert on_truncated(REACH_STEP.format("occurs(a)")) is Verdict.FAILS

    def test_eventually_witnessed_is_definitive(self):
        assert on_truncated(EVENTUALLY.format("occurs(a)")) is Verdict.HOLDS

    def test_eventually_unknown_when_unwitnessed(self):
        assert on_truncated(EVENTUALLY.format("false")) is Verdict.UNKNOWN

    def test_assert_idiom_errors_instead_of_passing(self):
        with pytest.raises(ValueError):
            assert on_truncated(ALWAYS.format("true"))

    def test_leads_to_is_three_valued(self):
        # was a ValueError; the b-avoiding a-chain reaches the frontier
        assert on_truncated(LEADS_TO.format("occurs(a)", "occurs(b)")) \
            is Verdict.UNKNOWN

    def test_complete_space_stays_definitive(self):
        space = explore(alternation_model())
        single = "occurs(a) -> !occurs(b)"
        assert check_space(space, ALWAYS.format(single)).verdict \
            is Verdict.HOLDS
        assert check_space(space, REACH_STEP.format("occurs(a)")).verdict \
            is Verdict.FAILS
        assert check_space(space, EVENTUALLY.format("occurs(b)")).verdict \
            is Verdict.HOLDS

    def test_maximal_only_space_is_partial_too(self):
        # the ASAP reduction drops the {a} and {b} steps of the free
        # model; like every CTL check, step forms refuse such spaces
        space = explore(free_model(), maximal_only=True)
        assert space.maximal_only and not space.truncated
        for text in (ALWAYS.format("occurs(a)"),
                     REACH_STEP.format("occurs(a)"),
                     EVENTUALLY.format("occurs(a)"),
                     INEVITABLE.format("occurs(a)"),
                     LEADS_TO.format("occurs(a)", "occurs(b)")):
            with pytest.raises(EngineError, match="maximal_only"):
                check_space(space, text)


class TestEdgeCases:
    def test_cycle_through_initial_state(self):
        # a-b alternation cycles back through the initial state; the
        # avoiding-run search must see that cycle
        model = alternation_model()
        assert verdict(model, INEVITABLE.format("occurs(a)")) \
            is Verdict.HOLDS
        assert verdict(model, INEVITABLE.format("false")) is Verdict.FAILS

    def test_self_loop_on_initial(self):
        model = free_model()  # {a}, {b}, {a,b} all loop on one state
        assert explore(model).n_states == 1
        assert verdict(model, INEVITABLE.format("occurs(a)")) \
            is Verdict.FAILS
        assert verdict(model, LEADS_TO.format("occurs(a)", "occurs(b)")) \
            is Verdict.FAILS

    def test_single_state_empty_step_set(self):
        # mutual precedence deadlocks immediately: one state, no steps
        model = deadlock_model()
        space = explore(model)
        assert space.n_states == 1
        assert space.n_transitions == 0
        assert verdict(model, ALWAYS.format("occurs(a)")) \
            is Verdict.HOLDS  # vacuous
        assert verdict(model, EVENTUALLY.format("occurs(a)")) \
            is Verdict.FAILS
        assert verdict(model, INEVITABLE.format("occurs(a)")) \
            is Verdict.FAILS  # deadlock
        assert verdict(model, LEADS_TO.format("occurs(a)", "occurs(b)")) \
            is Verdict.HOLDS

    def test_frontier_node_not_a_deadlock(self):
        # truncation frontier nodes have no outgoing edges but are NOT
        # deadlocks; inevitability refuses to guess either way
        space = truncated_space()
        frontier = sorted(space.frontier)
        assert frontier
        assert not set(space.deadlocks()) & set(frontier)

    def test_counterexample_on_deadlocked_space(self):
        result = check_space(explore(deadlock_model()),
                             REACH_STEP.format("occurs(a)"))
        assert result.verdict is Verdict.HOLDS
        assert result.witness_steps is None

    def test_unknown_event_in_a_label_errors(self):
        for strategy in ("explicit", "symbolic"):
            with pytest.raises(EngineError, match="unknown event"):
                check(alternation_model(), "EX[occurs(zz)] true",
                      strategy=strategy)


def reference_corpus():
    from repro.sdf import SdfBuilder, weave_sdf
    models = [alternation_model(), free_model(), deadlock_model()]
    builder = SdfBuilder("trio")
    for name in ("x", "y", "z"):
        builder.agent(name)
    builder.connect("x", "y", capacity=2)
    builder.connect("y", "z", capacity=1)
    model, _app = builder.build()
    models.append(weave_sdf(model).execution_model)
    models.append(ExecutionModel(
        ["a", "b", "c"],
        [AlternatesRuntime("a", "b"), PrecedesRuntime("b", "c", bound=2)]))
    return models


def event_pairs(events):
    events = sorted(events)
    pairs = [(events[0], events[-1]), (events[-1], events[0]),
             (events[0], events[0])]
    if len(events) > 2:
        pairs.append((events[1], events[2]))
    return pairs


class TestLeadsToSharedPass:
    """The one-pass CTL evaluation agrees with the brute-force
    per-source references."""

    def test_identical_verdicts_on_corpus(self):
        checked = 0
        for model in reference_corpus():
            space = explore(model)
            for trigger, target in event_pairs(space.events):
                expected = naive_leads_to(
                    space, occurs(trigger), occurs(target))
                text = LEADS_TO.format(f"occurs({trigger})",
                                       f"occurs({target})")
                assert verdict(model, text) is expected, (
                    space.name, trigger, target)
                checked += 1
        assert checked >= 15

    def test_inevitable_and_never_on_corpus(self):
        checked = 0
        for model in reference_corpus():
            space = explore(model)
            for first, second in event_pairs(space.events):
                expected = naive_inevitable(
                    space, space.initial, occurs(first))
                assert verdict(model, INEVITABLE.format(
                    f"occurs({first})")) is expected
                separate = naive_always(
                    space, lambda step, pair={first, second}:
                    not pair <= step)
                text = NEVER_TOGETHER.format(first, second)
                assert bool(verdict(model, text)) is separate
                checked += 1
        assert checked >= 15

    def test_trigger_into_trap_fails(self):
        # any 'a' step re-enters the single looping state, which can
        # avoid 'b' forever
        assert verdict(free_model(),
                       LEADS_TO.format("occurs(a)", "occurs(b)")) \
            is Verdict.FAILS

    def test_no_trigger_holds_vacuously(self):
        assert verdict(alternation_model(),
                       LEADS_TO.format("occurs(a) & occurs(b)", "occurs(b)")) \
            is Verdict.HOLDS


def mapped_forms(events):
    """Every step-level form over a few event pairs of the model."""
    forms = []
    for first, second in event_pairs(events):
        tau, sigma = f"occurs({first})", f"occurs({second})"
        forms += [NEVER_TOGETHER.format(first, second),
                  ALWAYS.format(tau), EVENTUALLY.format(f"{tau} & {sigma}"),
                  INEVITABLE.format(sigma), LEADS_TO.format(tau, sigma),
                  REACH_STEP.format(sigma)]
    return list(dict.fromkeys(forms))


class TestCorpusAgreement:
    """The differential oracle finds no mismatch — verdicts, witness
    identity and replay, explicit vs both symbolic layouts — on the
    mapped forms over the symbolic-equivalence corpus."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_compare_reports_no_mismatch(self, name):
        model = CORPUS[name]()
        comparison = compare(model, mapped_forms(model.events), 10_000)
        assert comparison.agree, [str(m) for m in comparison.mismatches]
        assert not comparison.unencodable

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_truncated_and_empty_step_variants(self, name):
        # a 5-state budget truncates most of the corpus: definitive
        # explicit verdicts must still match the symbolic ones
        model = CORPUS[name]()
        forms = mapped_forms(model.events)
        for options in ({"max_states": 5},
                        {"max_states": 10_000, "include_empty": True}):
            comparison = compare(model, forms, **options)
            assert comparison.agree, [str(m) for m in comparison.mismatches]


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
        assert verdict(result.execution_model,
                       NEVER_TOGETHER.format("x.start", "y.start"))
