"""State spaces: the explored scheduling graph plus quantitative metrics.

The conclusion of the paper reports using exhaustive exploration "to
obtain quantitative results on the scheduling state-space" and "to
understand the impact of the deployment on the actual parallelism".
Those are exactly the numbers this class exposes: state/transition
counts, deadlocks, maximal step parallelism, event liveness and
steady-state throughput.

The graph is stored in place as a compact adjacency store. States are
the dense ids ``0..n-1`` in admission order, with per-state lists
(``accepting``, ``depth``, ``keys``) and a ``frontier`` id set.
``out[u]`` maps each successor of ``u`` to the steps leading there,
so parallel edges are grouped by successor, successors in the order
they were first reached from ``u``, steps in insertion order. That
order is part of the canonical bytes: :meth:`StateSpace.edges` — and
with it :meth:`StateSpace.to_json` — walks sources by id, then
successor groups, then steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import SerializationError


@dataclass(eq=False)
class StateSpace:
    """An explored scheduling state space."""

    initial: int = 0
    events: list[str] = field(default_factory=list)
    truncated: bool = False
    name: str = "state-space"
    #: True when only ⊆-maximal steps were followed (the ASAP
    #: reduction) — such a space under-approximates the branching and
    #: is rejected by the property checker (repro.engine.ctl)
    maximal_only: bool = False
    accepting: list[bool] = field(default_factory=list)
    depth: list[int] = field(default_factory=list)
    #: configuration keys (engine-internal; ``None`` after a JSON reload)
    keys: list = field(default_factory=list)
    #: ids whose successors were left unexplored by a budget
    frontier: set[int] = field(default_factory=set)
    #: ``out[u][v]`` lists the steps from ``u`` to ``v``
    out: list[dict[int, list[frozenset[str]]]] = field(default_factory=list)

    # -- construction ----------------------------------------------------------

    def add_state(self, accepting: bool, depth: int, key=None) -> int:
        """Admit the next state and return its id."""
        self.accepting.append(accepting)
        self.depth.append(depth)
        self.keys.append(key)
        self.out.append({})
        return len(self.out) - 1

    def add_edge(self, source: int, target: int,
                 step: frozenset[str]) -> None:
        self.out[source].setdefault(target, []).append(step)

    def successors(self, node: int) -> Iterator[tuple[int, frozenset[str]]]:
        """``(successor, step)`` for every transition leaving *node*."""
        for target, steps in self.out[node].items():
            for step in steps:
                yield target, step

    def edges(self) -> Iterator[tuple[int, int, frozenset[str]]]:
        """``(source, target, step)`` for every transition, in canonical
        order."""
        for source, targets in enumerate(self.out):
            for target, steps in targets.items():
                for step in steps:
                    yield source, target, step

    # -- sizes -------------------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.out)

    @property
    def n_transitions(self) -> int:
        return sum(len(steps) for targets in self.out
                   for steps in targets.values())

    def distinct_steps(self) -> set[frozenset[str]]:
        """The set of distinct steps labelling any transition."""
        return {step for _u, _v, step in self.edges()}

    # -- deadlock / liveness ------------------------------------------------------

    def deadlocks(self) -> list[int]:
        """Nodes with no outgoing transition (that are not exploration
        frontier nodes of a truncated run)."""
        return [node for node, targets in enumerate(self.out)
                if not targets and node not in self.frontier]

    def is_deadlock_free(self) -> bool:
        return not self.deadlocks()

    def live_events(self) -> set[str]:
        """Events occurring on at least one transition."""
        alive: set[str] = set()
        for _u, _v, step in self.edges():
            alive |= step
        return alive

    def dead_events(self) -> set[str]:
        """Declared events that never occur anywhere in the state space."""
        return set(self.events) - self.live_events()

    # -- parallelism -----------------------------------------------------------------

    def max_parallelism(self) -> int:
        """Largest step cardinality over all transitions — the peak
        *actual* parallelism the constraints permit."""
        return max((len(step) for _u, _v, step in self.edges()), default=0)

    def parallelism_histogram(self) -> dict[int, int]:
        """Transition count per step cardinality."""
        histogram: dict[int, int] = {}
        for _u, _v, step in self.edges():
            size = len(step)
            histogram[size] = histogram.get(size, 0) + 1
        return histogram

    def mean_branching(self) -> float:
        """Average out-degree — how much scheduling freedom remains."""
        if not self.out:
            return 0.0
        return self.n_transitions / self.n_states

    # -- cyclic behaviour -------------------------------------------------------------

    def recurrent_components(self) -> list[set[int]]:
        """Non-trivial strongly connected components (steady-state
        behaviours): those with two or more states, or one state with a
        self-loop.

        An iterative Tarjan walk — spaces reach 10⁴–10⁵ states, far
        past the recursion limit."""
        index = [-1] * len(self.out)
        low = [0] * len(self.out)
        on_stack = [False] * len(self.out)
        stack: list[int] = []
        components = []
        counter = 0
        for root in range(len(self.out)):
            if index[root] != -1:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            walk = [(root, iter(self.out[root]))]
            while walk:
                node, successors = walk[-1]
                for successor in successors:
                    if index[successor] == -1:
                        index[successor] = low[successor] = counter
                        counter += 1
                        stack.append(successor)
                        on_stack[successor] = True
                        walk.append((successor, iter(self.out[successor])))
                        break
                    if on_stack[successor]:
                        low[node] = min(low[node], index[successor])
                else:
                    walk.pop()
                    if walk:
                        parent = walk[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] != index[node]:
                        continue
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.add(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in self.out[node]:
                        components.append(component)
        return components

    def summary(self) -> dict[str, object]:
        """A metric bundle used by the PAM study and the benches."""
        return {
            "states": self.n_states,
            "transitions": self.n_transitions,
            "distinct_steps": len(self.distinct_steps()),
            "deadlocks": len(self.deadlocks()),
            "max_parallelism": self.max_parallelism(),
            "mean_branching": round(self.mean_branching(), 3),
            "dead_events": sorted(self.dead_events()),
            "truncated": self.truncated,
        }

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the explored graph (configuration keys are dropped —
        they are engine-internal; steps, depths and flags survive)."""
        nodes = [{"id": node, "accepting": bool(self.accepting[node]),
                  "depth": self.depth[node],
                  "frontier": node in self.frontier}
                 for node in range(self.n_states)]
        edges = [{"source": u, "target": v, "step": sorted(step)}
                 for u, v, step in self.edges()]
        doc = {
            "format": 1,
            "kind": "statespace",
            "name": self.name,
            "initial": self.initial,
            "truncated": self.truncated,
            "events": list(self.events),
            "nodes": nodes,
            "edges": edges,
        }
        if self.maximal_only:  # omitted when False: full spaces keep
            doc["maximal_only"] = True  # their historical byte layout
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "StateSpace":
        """Reload a state space saved with :meth:`to_json`."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid JSON: {exc}") from exc
        return cls.from_doc(doc)

    @classmethod
    def from_doc(cls, doc: dict) -> "StateSpace":
        """Rebuild a state space from an already-parsed document.

        Raises :class:`SerializationError` on a missing field, on node
        ids that are not ``0..n-1`` in order, and on an edge or initial
        state naming no node."""
        if not isinstance(doc, dict) or doc.get("kind") != "statespace":
            raise SerializationError("expected a statespace document")
        if doc.get("format") != 1:
            raise SerializationError(
                f"unsupported format version {doc.get('format')!r}")
        try:
            space = cls(initial=doc["initial"], events=list(doc["events"]),
                        truncated=bool(doc["truncated"]), name=doc["name"],
                        maximal_only=bool(doc.get("maximal_only", False)))
            for position, node_doc in enumerate(doc["nodes"]):
                if node_doc["id"] != position:
                    raise SerializationError(
                        f"node ids must be 0..n-1 in order; node "
                        f"#{position} has id {node_doc['id']!r}")
                space.add_state(node_doc["accepting"], node_doc["depth"])
                if node_doc.get("frontier"):
                    space.frontier.add(position)
            for edge_doc in doc["edges"]:
                source, target = edge_doc["source"], edge_doc["target"]
                if not (space._is_node(source) and space._is_node(target)):
                    raise SerializationError(
                        f"edge {source!r} -> {target!r} names a missing "
                        f"state")
                space.add_edge(source, target, frozenset(edge_doc["step"]))
        except (KeyError, TypeError) as exc:
            raise SerializationError(
                f"malformed statespace document: missing or invalid "
                f"field {exc}") from exc
        if not space._is_node(space.initial):
            raise SerializationError(
                f"initial state {space.initial!r} is not a node")
        return space

    def _is_node(self, node) -> bool:
        return type(node) is int and 0 <= node < self.n_states

    def __repr__(self):
        status = " (truncated)" if self.truncated else ""
        return (f"StateSpace({self.name!r}, {self.n_states} states, "
                f"{self.n_transitions} transitions{status})")
