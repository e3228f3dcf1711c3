"""Property checking over explored state spaces.

The paper positions the explicit MoCC as the enabler of
"concurrency-aware analysis techniques". This module provides the
standard finite-state checks over a :class:`StateSpace`:

* :func:`always` (safety, AG): a step/state predicate holds on every
  reachable transition/state;
* :func:`never` — convenience negation of :func:`always`;
* :func:`eventually_reachable` (EF): some reachable transition
  satisfies the predicate;
* :func:`inevitable` (AF): every infinite run (and every run ending in
  a deadlock) hits the predicate;
* :func:`leads_to` — after a trigger transition, the target predicate
  is inevitable;
* :func:`counterexample_path` — a shortest step sequence witnessing a
  reachability query (used as the diagnostic for failed safety checks).

Step predicates receive the transition's event set; helpers
:func:`occurs` and :func:`together` build the common ones.

Soundness on truncated spaces
=============================

Every check returns a three-valued :class:`Verdict`. On a *complete*
space the verdict is definitive (``HOLDS``/``FAILS``). On a *partial*
space — truncated by a budget, or explored with ``maximal_only`` (the
ASAP reduction, which drops non-maximal steps and therefore
under-approximates the branching) — only verdicts witnessed inside the
explored region are definitive: "no violation found in the explored
2,000 of 14 million states" is **not** "verified", so the checks
return ``Verdict.UNKNOWN`` instead of an unsound ``True``/``False``.
``Verdict`` is truthy/falsy for the definitive values and *raises* when
an ``UNKNOWN`` is forced into a boolean, so the historical
``assert always(space, pred)`` idiom stays sound: it passes on a
verified property, fails on a refuted one, and errors loudly — instead
of silently "passing" — when the space was too large to finish.
:func:`inevitable` and :func:`leads_to` need the complete cycle
structure and keep raising ``ValueError`` on truncated spaces.

For richer temporal logic (full CTL, nested operators, symbolic
fixpoint evaluation that never builds the graph), see
:mod:`repro.engine.ctl`, which also owns :class:`Verdict`. CTL does
not subsume these checks: they quantify over *transitions* (the step
taken), while CTL's ``occurs(e)`` is a *state* atom ("``e`` is
enabled"). ``never(space, together(a, b))`` ("``a`` and ``b`` never
fire in one step") and ``inevitable(space, occurs(e))`` ("every run
fires ``e``") therefore have no CTL equivalent.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.engine.ctl import Verdict
from repro.engine.statespace import StateSpace

StepPredicate = Callable[[frozenset[str]], bool]


def occurs(event: str) -> StepPredicate:
    """Predicate: *event* occurs in the step."""
    return lambda step: event in step


def together(*events: str) -> StepPredicate:
    """Predicate: all *events* occur simultaneously in the step."""
    required = frozenset(events)
    return lambda step: required <= step


def _partial(space: StateSpace) -> bool:
    """Whether *space* shows only part of the model's behaviour —
    budget-truncated, or branching-reduced by ``maximal_only``."""
    return space.truncated or space.maximal_only


def always(space: StateSpace, predicate: StepPredicate) -> Verdict:
    """AG over transitions: *predicate* holds on every reachable step.

    A violating transition refutes the property even on a partial
    space (every explored edge is a real acceptable step); the absence
    of one verifies it only when the space is complete (``UNKNOWN``
    otherwise).
    """
    violated = any(not predicate(step) for _u, _v, step in space.edges())
    if violated:
        return Verdict.FAILS
    return Verdict.UNKNOWN if _partial(space) else Verdict.HOLDS


def never(space: StateSpace, predicate: StepPredicate) -> Verdict:
    """Safety: no reachable step satisfies *predicate*."""
    return always(space, lambda step: not predicate(step))


def eventually_reachable(space: StateSpace,
                         predicate: StepPredicate) -> Verdict:
    """EF over transitions: some reachable step satisfies *predicate*.

    A witnessing transition verifies the property even on a partial
    space; the absence of one refutes it only when the space is
    complete (``UNKNOWN`` otherwise).
    """
    found = any(predicate(step) for _u, _v, step in space.edges())
    if found:
        return Verdict.HOLDS
    return Verdict.UNKNOWN if _partial(space) else Verdict.FAILS


def counterexample_path(space: StateSpace, predicate: StepPredicate
                        ) -> list[frozenset[str]] | None:
    """Shortest step sequence from the initial state ending with a step
    satisfying *predicate*, or None when unreachable."""
    parent: dict[int, tuple[int, frozenset[str]] | None] = {
        space.initial: None}
    queue: deque[int] = deque([space.initial])
    while queue:
        node = queue.popleft()
        for successor, step in space.successors(node):
            if predicate(step):
                path = [step]
                cursor = node
                while parent[cursor] is not None:
                    previous, via = parent[cursor]  # type: ignore[misc]
                    path.append(via)
                    cursor = previous
                path.reverse()
                return path
            if successor not in parent:
                parent[successor] = (node, step)
                queue.append(successor)
    return None


def _avoidance_traps(space: StateSpace, predicate: StepPredicate
                     ) -> set[int]:
    """States from which some maximal run avoids *predicate* forever.

    Remove every edge satisfying the predicate; a state is a trap iff,
    in the remaining "avoiding" subgraph, it can reach a deadlock of
    the original space or a cycle. One backward reachability pass over
    the whole graph — shared by :func:`inevitable` (which asks about
    the initial state) and :func:`leads_to` (which asks about every
    trigger target at once).
    """
    adjacency: dict[int, list[int]] = {}
    reverse: dict[int, list[int]] = {}
    for u, v, step in space.edges():
        if predicate(step):
            continue
        adjacency.setdefault(u, []).append(v)
        reverse.setdefault(v, []).append(u)

    # seed 1: deadlocks of the original space (maximal finite runs that
    # end without ever satisfying the predicate)
    seeds: set[int] = set(space.deadlocks())
    # seed 2: nodes on a cycle of the avoiding subgraph (infinite runs);
    # iteratively strip nodes with no avoiding successor — what survives
    # is exactly the set of nodes with an infinite avoiding path, which
    # contains every avoiding cycle
    out_degree = {u: len(targets) for u, targets in adjacency.items()}
    stripped = deque(
        node for node in range(space.n_states)
        if out_degree.get(node, 0) == 0)
    removed: set[int] = set()
    while stripped:
        node = stripped.popleft()
        if node in removed:
            continue
        removed.add(node)
        for predecessor in reverse.get(node, []):
            out_degree[predecessor] -= 1
            if out_degree[predecessor] == 0:
                stripped.append(predecessor)
    seeds.update(node for node in range(space.n_states)
                 if node not in removed)

    # backward closure: anything that reaches a seed through avoiding
    # edges is itself a trap
    traps: set[int] = set()
    stack = list(seeds)
    while stack:
        node = stack.pop()
        if node in traps:
            continue
        traps.add(node)
        stack.extend(reverse.get(node, []))
    return traps


def inevitable(space: StateSpace, predicate: StepPredicate) -> Verdict:
    """AF over transitions: every run eventually takes a step satisfying
    *predicate*.

    Computed as: no maximal run (infinite, or ending in a deadlock)
    avoids the predicate — the initial state must not be an avoidance
    trap (see :func:`_avoidance_traps`).
    """
    if _partial(space):
        raise ValueError(
            "inevitability is undecidable on a truncated or "
            "maximal_only state space")
    if space.initial in _avoidance_traps(space, predicate):
        return Verdict.FAILS
    return Verdict.HOLDS


def leads_to(space: StateSpace, trigger: StepPredicate,
             target: StepPredicate) -> Verdict:
    """Response property: whenever a *trigger* step is taken, every
    continuation eventually takes a *target* step.

    One shared backward pass computes the avoidance traps of *target*
    for the whole graph; the property fails iff any trigger step enters
    a trap. (Historically this rebuilt a state space and re-ran
    :func:`inevitable` per trigger source — O(sources × graph).)
    """
    if _partial(space):
        raise ValueError(
            "leads-to is undecidable on a truncated or maximal_only "
            "state space")
    traps = _avoidance_traps(space, target)
    sources = {v for _u, v, step in space.edges() if trigger(step)}
    if sources & traps:
        return Verdict.FAILS
    return Verdict.HOLDS
