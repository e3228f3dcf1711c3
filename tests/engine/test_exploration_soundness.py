"""Soundness/completeness cross-checks of the exhaustive explorer.

The explorer is the load-bearing analysis of the reproduction, so it is
checked against independent machinery:

* *soundness* — every edge of the state space corresponds to a step the
  source configuration actually accepts (recomputed on a replayed
  model);
* *completeness* — every simulated trace (any policy, any seed) stays
  inside the explored graph;
* *determinism* — exploring twice yields the same graph;
* *reference walks* — seeded random walks that step live runtimes
  through ``acceptable_steps``/``advance(check=True)`` — the runtime
  level both engines' local tables are built from — follow only edges
  of the explicit space.
"""

import random
from collections import deque

import pytest

from repro.engine import (
    AsapPolicy,
    MinimalPolicy,
    RandomPolicy,
    explore,
    simulate_model,
)
from repro.pam.experiments import build_configuration
from repro.sdf import SdfBuilder, weave_sdf
from tests.engine.test_symbolic_equivalence import ccsl_mix, sdf_chain


def small_model():
    builder = SdfBuilder("tri")
    builder.agent("x")
    builder.agent("y")
    builder.agent("z")
    builder.connect("x", "y", push=2, pop=1, capacity=3)
    builder.connect("y", "z", push=1, pop=1, capacity=2)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def replay_to(space, model, target):
    """Drive a clone of *model* along a shortest path to *target*."""
    reached = {space.initial: None}  # node -> (predecessor, step)
    queue = deque([space.initial])
    while target not in reached:
        node = queue.popleft()
        for successor, step in space.successors(node):
            if successor not in reached:
                reached[successor] = (node, step)
                queue.append(successor)
    steps = []
    while reached[target] is not None:
        target, step = reached[target]
        steps.append(step)
    clone = model.clone()
    for step in reversed(steps):
        clone.advance(step)
    return clone


class TestSoundness:
    def test_every_edge_is_acceptable_at_its_source(self):
        model = small_model()
        space = explore(model, max_states=5000)
        assert not space.truncated
        for node in range(space.n_states):
            replayed = replay_to(space, model, node)
            expected = {step for _v, step in space.successors(node)}
            actual = set(replayed.acceptable_steps())
            assert expected == actual, f"node {node} disagrees"

    def test_configuration_keys_match_replay(self):
        model = small_model()
        space = explore(model, max_states=5000)
        for node in range(10):
            replayed = replay_to(space, model, node)
            assert replayed.configuration() == space.keys[node]


class TestCompleteness:
    @pytest.mark.parametrize("policy", [
        AsapPolicy(), MinimalPolicy(), RandomPolicy(seed=4),
        RandomPolicy(seed=99)])
    def test_simulated_traces_stay_in_the_space(self, policy):
        model = small_model()
        space = explore(model, max_states=5000)
        simulation = simulate_model(model.clone(), policy, 25)
        node = space.initial
        for step in simulation.trace:
            successors = [
                v for v, edge_step in space.successors(node)
                if edge_step == step]
            assert successors, f"step {sorted(step)} missing from node {node}"
            node = successors[0]


class TestDeterminism:
    def test_exploring_twice_is_identical(self):
        first = explore(small_model(), max_states=5000)
        second = explore(small_model(), max_states=5000)
        assert first.n_states == second.n_states
        assert first.n_transitions == second.n_transitions
        first_edges = sorted(
            (u, v, tuple(sorted(step))) for u, v, step in first.edges())
        second_edges = sorted(
            (u, v, tuple(sorted(step))) for u, v, step in second.edges())
        assert first_edges == second_edges


class TestReferenceWalk:
    @pytest.mark.parametrize("build", [
        lambda: sdf_chain(3, capacity=2),
        ccsl_mix,
        lambda: build_configuration("dual"),  # not finitely encodable
    ], ids=["chain", "ccsl-mix", "pam-dual"])
    def test_random_walks_follow_explicit_edges(self, build):
        model = build()
        space = explore(model, max_states=3000, strategy="explicit")
        for seed in range(5):
            rng = random.Random(seed)
            work = model.clone()
            node = space.initial
            for _ in range(60):
                if node in space.frontier:
                    break  # truncated: not every edge was explored
                edges = {step: target
                         for target, step in space.successors(node)}
                steps = work.acceptable_steps()
                assert set(steps) == set(edges), f"node {node}"
                if not steps:
                    break
                step = rng.choice(steps)
                work.advance(step, check=True)
                node = edges[step]
                assert work.configuration() == space.keys[node]
                assert work.is_accepting() == space.accepting[node]
