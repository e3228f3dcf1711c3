"""Exhaustive exploration of the scheduling state space.

From the initial configuration, the explorer enumerates every
acceptable (non-empty) step and builds a
:class:`~repro.engine.statespace.StateSpace` — an adjacency store whose
states are global constraint configurations, numbered in admission
order, and whose transitions are steps, grouped per source by
successor in first-reached order. This implements the paper's
"exhaustive exploration" usage of the generic engine.

Two strategies drive the same breadth-first skeleton over tuples of
local state ids (a :class:`~repro.engine.local.LocalView`):

* ``"explicit"`` — fresh per-constraint tables, filled lazily: a
  runtime advances only on a local transition not seen before, and a
  locally unbounded counter just grows up to the ``max_states`` budget;
* ``"symbolic"`` — the model is first compiled to a BDD transition
  system (:mod:`repro.engine.symbolic`), which closes the tables; the
  BFS then walks the closed tables, and the full reachable set is
  also available by fixpoint iteration without building any graph.

``"auto"`` picks symbolic for models past a size threshold and falls
back to explicit when the model cannot be finitely encoded. Both
strategies produce byte-identical state spaces (asserted corpus-wide by
the differential oracle :mod:`repro.fuzz.oracle`), including
``max_states`` truncation and frontier marking — the skeleton below is
literally shared.
"""

from __future__ import annotations

from collections import deque

from repro import obs
from repro.engine.execution_model import ExecutionModel
from repro.engine.local import LocalTable, LocalView
from repro.engine.statespace import StateSpace
from repro.errors import EngineError, ExplorationLimitError, \
    SymbolicEncodingError

#: strategies accepted by :func:`explore`
STRATEGIES = ("explicit", "symbolic", "auto")

#: ``auto`` compiles a symbolic system once a model has at least this
#: many events — below it, explicit search wins on setup cost.
AUTO_EVENT_THRESHOLD = 10


def explore(model: ExecutionModel, max_states: int = 10_000,
            max_depth: int | None = None, include_empty: bool = False,
            strict: bool = False, maximal_only: bool = False,
            strategy: str = "explicit",
            relation_mode: str | None = None,
            cluster_cap: int | None = None) -> StateSpace:
    """Breadth-first exploration from the model's current configuration.

    Parameters
    ----------
    model:
        The execution model to explore; never mutated (each local
        table steps a clone of its runtime).
    max_states:
        State budget; hitting it marks the result as truncated (or
        raises with *strict*). Systems with unbounded counters —
        e.g. an unbounded CCSL precedence — have infinite configuration
        spaces, which this bound turns into a finite, truncated view.
    max_depth:
        Optional BFS depth bound.
    include_empty:
        Also follow the empty step when it changes the configuration
        (an automaton transition with only falseTriggers can fire on an
        empty step). Self-loop empty steps are always skipped.
    strict:
        Raise :class:`ExplorationLimitError` instead of truncating.
    maximal_only:
        Follow only ⊆-maximal steps — the ASAP sub-space. A reduction
        of the full branching that preserves peak-parallelism and
        throughput-upper-bound metrics while shrinking the transition
        count dramatically (every non-maximal step is a subset of a
        maximal one); deadlock freedom is NOT necessarily preserved in
        either direction, so safety verdicts must use the full space.
    strategy:
        ``"explicit"``, ``"symbolic"`` or ``"auto"`` (see module doc).
        The produced state space is identical either way.
    relation_mode / cluster_cap:
        Relation layout of the compiled system (symbolic strategies
        only; ``None`` keeps the engine defaults — see
        :data:`repro.engine.symbolic.RELATION_MODES`). The produced
        state space is identical under every layout.
    """
    work = _working_view(model, strategy, relation_mode=relation_mode,
                         cluster_cap=cluster_cap)
    return _bfs(work, model.name, list(model.events), max_states=max_states,
                max_depth=max_depth, include_empty=include_empty,
                strict=strict, maximal_only=maximal_only)


def _working_view(model: ExecutionModel, strategy: str,
                  relation_mode: str | None = None,
                  cluster_cap: int | None = None) -> LocalView:
    """The BFS driver for *strategy*: a view over fresh lazy tables, or
    over a compiled system's closed ones."""
    if strategy not in STRATEGIES:
        raise EngineError(
            f"unknown exploration strategy {strategy!r}; expected one of "
            f"{', '.join(STRATEGIES)}")
    if strategy == "explicit":
        return _lazy_view(model)
    if strategy == "auto" and len(model.events) < AUTO_EVENT_THRESHOLD:
        return _lazy_view(model)
    if strategy == "auto":
        # route through the static predictor instead of compiling just
        # to catch SymbolicEncodingError (the except below stays as the
        # safety net for predictor misses)
        from repro.engine.encodability import is_encodable
        if not is_encodable(model):
            return _lazy_view(model)  # predicted not finitely encodable
    try:
        return model.kernel.transition_system(
            model, relation_mode=relation_mode, cluster_cap=cluster_cap).view
    except SymbolicEncodingError:
        if strategy == "symbolic":
            raise
        from repro.engine.encodability import record_safety_net
        record_safety_net()
        return _lazy_view(model)  # predictor miss: not finitely encodable


def _lazy_view(model: ExecutionModel) -> LocalView:
    """Fresh tables for one exploration: a table's probe is mutable, so
    tables are never cached on the kernel that every clone shares."""
    return LocalView([LocalTable(index, constraint)
                      for index, constraint in enumerate(model.constraints)],
                     model.kernel)


def _bfs(view: LocalView, name: str, events: list[str], max_states: int,
         max_depth: int | None, include_empty: bool, strict: bool,
         maximal_only: bool) -> StateSpace:
    """The strategy-independent BFS skeleton over *view*'s id tuples.

    Admission order, truncation and frontier marking are therefore
    identical across strategies by construction; only the tables
    behind the view differ (lazy for explicit, closed for symbolic).
    """
    obs.count("explore.spaces")
    space = StateSpace(initial=0, events=events, name=name,
                       maximal_only=maximal_only)
    before = view.advances
    with obs.span("explore.bfs", model=name) as trace:
        space.truncated = _bfs_loop(
            view, space, name, max_states=max_states, max_depth=max_depth,
            include_empty=include_empty, strict=strict,
            maximal_only=maximal_only)
        advances = view.advances - before
        trace.set(states=space.n_states, transitions=space.n_transitions,
                  truncated=space.truncated, local_states=view.n_states,
                  local_advances=advances)
    obs.count("explore.local_advances", advances)
    return space


def _bfs_loop(view: LocalView, space: StateSpace, name: str,
              max_states: int, max_depth: int | None, include_empty: bool,
              strict: bool, maximal_only: bool) -> bool:
    """The admission loop of :func:`_bfs`, factored out so the whole
    walk sits under one ``explore.bfs`` span; returns the truncation
    flag."""
    root = view.initial
    state_ids: dict[tuple[int, ...], int] = {root: 0}
    space.add_state(view.is_accepting(root), 0, view.key(root))
    #: BFS frontier of (id tuple, node id, depth)
    frontier: deque = deque([(root, 0, 0)])
    truncated = False

    while frontier:
        ids, node_id, depth = frontier.popleft()
        if max_depth is not None and depth >= max_depth:
            space.frontier.add(node_id)
            truncated = True
            continue
        steps = view.steps(ids, include_empty)
        if maximal_only:
            steps = _maximal_steps(steps)
        for step in steps:
            succ = view.successor(ids, step)
            if not step and succ == ids:
                continue  # stuttering self-loop carries no information
            succ_id = state_ids.get(succ)
            if succ_id is None:
                if len(state_ids) >= max_states:
                    if strict:
                        raise ExplorationLimitError(
                            f"exploration of {name!r} exceeded "
                            f"{max_states} states")
                    truncated = True
                    space.frontier.add(node_id)
                    continue
                succ_id = space.add_state(view.is_accepting(succ), depth + 1,
                                          view.key(succ))
                state_ids[succ] = succ_id
                frontier.append((succ, succ_id, depth + 1))
            space.add_edge(node_id, succ_id, step)

    return truncated


def _maximal_steps(steps: list[frozenset[str]]) -> list[frozenset[str]]:
    """The ⊆-maximal elements of *steps* (order-preserving)."""
    maxima: list[frozenset[str]] = []
    for step in steps:
        if any(step < other for other in steps):
            continue
        maxima.append(step)
    return maxima
