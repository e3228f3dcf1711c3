"""Property-based tests for the SDF stack (hypothesis).

Invariants:

* the woven PlaceConstraint keeps 0 <= tokens <= capacity under random
  scheduling for arbitrary rate/capacity/delay configurations, and its
  ``size`` variable tracks exact token accounting;
* the repetition vector solves the balance equations for random
  consistent graphs (constructed from a random repetition vector);
* random schedules of the MoCCML engine replay on the token baseline.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.engine import RandomPolicy, simulate_model
from repro.moccml.semantics import AutomatonRuntime
from repro.sdf import (
    SdfBuilder,
    TokenSimulator,
    repetition_vector,
    topology_matrix,
    weave_sdf,
)
from repro.sdf.mocc import sdf_library

place_configs = st.tuples(
    st.integers(min_value=1, max_value=3),   # push
    st.integers(min_value=1, max_value=3),   # pop
    st.integers(min_value=1, max_value=6),   # capacity
    st.integers(min_value=0, max_value=3),   # delay
).filter(lambda cfg: cfg[3] <= cfg[2])


@settings(max_examples=60, deadline=None)
@given(place_configs, st.lists(st.booleans(), max_size=25))
def test_place_size_tracks_token_accounting(config, choices):
    """Drive the Fig. 3 automaton with random feasible steps; its size
    variable must follow exact token accounting and stay in bounds."""
    push, pop, capacity, delay = config
    definition = sdf_library("default").definition_for("PlaceConstraint")
    runtime = AutomatonRuntime(definition, {
        "write": "w", "read": "r", "pushRate": push, "popRate": pop,
        "itsDelay": delay, "itsCapacity": capacity}, label="place")
    tokens = delay
    for wants_write in choices:
        can_write = tokens + push <= capacity
        can_read = tokens >= pop
        if wants_write and can_write:
            step = frozenset({"w"})
            tokens += push
        elif can_read:
            step = frozenset({"r"})
            tokens -= pop
        elif can_write:
            step = frozenset({"w"})
            tokens += push
        else:
            step = frozenset()
        runtime.advance(step)
        assert runtime.variables["size"] == tokens
        assert 0 <= tokens <= capacity


@st.composite
def consistent_graphs(draw):
    """A random consistent SDF chain/fork built from a target repetition
    vector: edge rates are derived as push = lcm/r_prod, pop = lcm/r_cons
    scaled, guaranteeing consistency by construction."""
    import math

    n_agents = draw(st.integers(min_value=2, max_value=5))
    repetitions = [draw(st.integers(min_value=1, max_value=4))
                   for _ in range(n_agents)]
    overall_gcd = math.gcd(*repetitions)
    repetitions = [value // overall_gcd for value in repetitions]

    builder = SdfBuilder("random")
    for index in range(n_agents):
        builder.agent(f"a{index}")
    edges = []
    for index in range(n_agents - 1):
        # rates satisfying r_i * push = r_{i+1} * pop exactly
        r_prod, r_cons = repetitions[index], repetitions[index + 1]
        g = math.gcd(r_prod, r_cons)
        push, pop = r_cons // g, r_prod // g
        capacity = push + pop + draw(st.integers(min_value=0, max_value=3))
        builder.connect(f"a{index}", f"a{index+1}", push=push, pop=pop,
                        capacity=capacity)
        edges.append((index, index + 1, push, pop))
    model, app = builder.build()
    return app, repetitions


@settings(max_examples=50, deadline=None)
@given(consistent_graphs())
def test_repetition_vector_solves_balance_equations(data):
    app, _expected = data
    repetition = repetition_vector(app)
    matrix, _places, agents = topology_matrix(app)
    vector = [repetition[name] for name in agents]
    for row in matrix:
        assert sum(r * v for r, v in zip(row, vector)) == 0
    # smallest positive solution: componentwise gcd is 1
    import math
    assert math.gcd(*vector) == 1


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_random_engine_schedules_replay_on_baseline(seed):
    """Any schedule the MoCC admits is a legal token-level execution."""
    builder = SdfBuilder("fork")
    for name in ("src", "up", "down", "sink"):
        builder.agent(name)
    builder.connect("src", "up", push=1, pop=1, capacity=2)
    builder.connect("src", "down", push=2, pop=1, capacity=3)
    builder.connect("up", "sink", push=1, pop=1, capacity=2)
    builder.connect("down", "sink", push=1, pop=2, capacity=3)
    model, app = builder.build()
    result = weave_sdf(model)
    simulation = simulate_model(result.execution_model,
                                RandomPolicy(seed=seed), 20)
    baseline = TokenSimulator(app)
    for step in simulation.trace:
        fired = frozenset(name.split(".")[0] for name in step
                          if name.endswith(".start"))
        if fired:
            baseline.fire_set(fired)
    for place in baseline.places:
        assert 0 <= baseline.tokens[place.name] <= place.capacity
