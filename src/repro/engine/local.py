"""Per-constraint local transition tables, shared by both engines.

In the paper a MoCC is a conjunction of per-constraint automata. A
:class:`LocalTable` is one of them: row ``s`` holds the runtime's
``state_key()``, acceptance and step formula in local state ``s``, and
``delta[s]`` maps a local event assignment (a step intersected with the
constraint's alphabet) to the successor row. Row ``0`` is the state the
runtime was in when the table was made. The explicit explorer fills
tables lazily, one runtime ``advance`` per new local transition; the
symbolic compiler (:mod:`repro.engine.symbolic`) closes them eagerly and
encodes them as state bits. A :class:`LocalView` is the product of a
list of tables, stepped by tuples of row ids: the BFS of both
strategies and the symbolic CTL witness walker run on it.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro import obs
from repro.boolalg.expr import BExpr
from repro.errors import EngineError, SemanticsError, SymbolicEncodingError

#: widest alphabet :meth:`LocalTable.close` sweeps (exponential in it)
MAX_ALPHABET = 16


class LocalTable:
    """The local transition table of one constraint runtime (see the
    module doc). ``events`` is :attr:`alphabet` as a set, ``bits`` the
    width of the symbolic encoding (set by :meth:`close`) and
    ``advances`` the number of the probe's ``advance`` calls."""

    def __init__(self, index: int, runtime):
        self.index = index
        self.label = runtime.label
        self.alphabet: tuple[str, ...] = tuple(
            sorted(runtime.constrained_events))
        self.events = frozenset(self.alphabet)
        self.keys: list[Hashable] = []
        self.accepting: list[bool] = []
        self.formulas: list[BExpr] = []
        self.delta: list[dict[frozenset[str], int]] = []
        self.key_to_id: dict[Hashable, int] = {}
        self.bits = 0
        self.advances = 0
        self._probe = runtime.clone()
        self._tokens: list = []
        self._admit(self._probe.state_key())

    @property
    def n_states(self) -> int:
        return len(self.keys)

    def _admit(self, key: Hashable, limit: int | None = None) -> int:
        """The row of *key*, which is the probe's current state."""
        known = self.key_to_id.get(key)
        if known is not None:
            return known
        if limit is not None and len(self.keys) >= limit:
            raise SymbolicEncodingError(
                f"constraint {self.label!r} exceeded the local-state "
                f"closure bound ({limit}); it is likely unbounded — use "
                f"the explicit exploration strategy")
        probe = self._probe
        local_id = len(self.keys)
        self.key_to_id[key] = local_id
        self.keys.append(key)
        self._tokens.append(probe.snapshot())
        self.accepting.append(bool(probe.is_accepting()))
        self.formulas.append(probe.step_formula())
        self.delta.append({})
        return local_id

    def _advance(self, local_id: int, assignment: frozenset[str]) -> Hashable:
        probe = self._probe
        probe.restore(self._tokens[local_id])
        probe.advance(assignment)
        self.advances += 1
        return probe.state_key()

    def successor(self, local_id: int, assignment: frozenset[str]) -> int:
        """The row reached from *local_id* on *assignment*, a step
        already intersected with :attr:`alphabet` and accepted by the
        row's formula. A miss on an open table advances the probe; on a
        closed one the assignment was never acceptable."""
        row = self.delta[local_id]
        succ = row.get(assignment)
        if succ is None:
            if self._probe is None:
                raise EngineError(
                    f"step {sorted(assignment)} is not acceptable in "
                    f"local state {local_id} of constraint {self.label!r}")
            succ = row[assignment] = self._admit(
                self._advance(local_id, assignment))
        return succ

    def close(self, max_local_states: int) -> "LocalTable":
        """Sweep every row's acceptable assignments, in mask order, to
        fixpoint, then freeze the table (the probe is dropped, so a miss
        raises). Raises :class:`~repro.errors.SymbolicEncodingError`
        when the alphabet is wider than :data:`MAX_ALPHABET`, a formula
        reads events outside it, or the table outgrows
        *max_local_states* (a locally unbounded constraint)."""
        alphabet = self.alphabet
        if len(alphabet) > MAX_ALPHABET:
            raise SymbolicEncodingError(
                f"constraint {self.label!r} constrains {len(alphabet)} "
                f"events; symbolic encoding caps local alphabets at "
                f"{MAX_ALPHABET}")
        with obs.span("symbolic.closure", constraint=self.label) as trace:
            cursor = 0
            while cursor < len(self.keys):
                formula = self.formulas[cursor]
                unknown = formula.support() - self.events
                if unknown:
                    raise SymbolicEncodingError(
                        f"constraint {self.label!r} reads event(s) "
                        f"{sorted(unknown)} outside its declared alphabet")
                row = self.delta[cursor]
                for mask in range(1 << len(alphabet)):
                    assignment = frozenset(
                        alphabet[bit] for bit in range(len(alphabet))
                        if mask >> bit & 1)
                    if not formula.evaluate(
                            {name: name in assignment for name in alphabet}):
                        continue
                    try:
                        key = self._advance(cursor, assignment)
                    except SemanticsError as exc:
                        raise SymbolicEncodingError(
                            f"constraint {self.label!r} accepted step "
                            f"{sorted(assignment)} in its formula but "
                            f"rejected it in advance(): {exc}") from exc
                    row[assignment] = self._admit(key, max_local_states)
                cursor += 1
            trace.set(states=self.n_states)
        self.bits = max(1, (self.n_states - 1).bit_length())
        self._probe = None
        self._tokens = []
        return self


class LocalView:
    """The product of local *tables*, stepped by tuples of row ids.

    Row formulas are compiled into the model's *kernel*
    (:class:`~repro.engine.execution_model.SymbolicKernel`) and
    conjoined and enumerated through its memoized ``conjunction`` and
    ``steps``, so steps come in the order of
    :meth:`~repro.engine.execution_model.ExecutionModel.acceptable_steps`.
    """

    def __init__(self, tables: Sequence[LocalTable], kernel):
        self.tables = list(tables)
        self.kernel = kernel
        self.initial: tuple[int, ...] = tuple(0 for _ in self.tables)
        #: per table, the compiled formula node of each row so far
        self._nodes: list[list[int]] = [[] for _ in self.tables]

    @property
    def n_states(self) -> int:
        return sum(table.n_states for table in self.tables)

    @property
    def advances(self) -> int:
        return sum(table.advances for table in self.tables)

    def key(self, ids: Sequence[int]) -> tuple:
        """The configuration key (tuple of ``state_key()`` values)."""
        return tuple(table.keys[local_id]
                     for table, local_id in zip(self.tables, ids))

    def is_accepting(self, ids: Sequence[int]) -> bool:
        return all(table.accepting[local_id]
                   for table, local_id in zip(self.tables, ids))

    def steps(self, ids: Sequence[int],
              include_empty: bool = False) -> tuple[frozenset[str], ...]:
        """The acceptable steps at *ids*; the empty step only with
        *include_empty*."""
        from_expr = self.kernel.bdd.from_expr
        nodes = []
        for table, compiled, local_id in zip(self.tables, self._nodes, ids):
            if local_id >= len(compiled):
                compiled.extend(from_expr(formula) for formula
                                in table.formulas[len(compiled):])
            nodes.append(compiled[local_id])
        return self.kernel.steps(self.kernel.conjunction(tuple(nodes)),
                                 include_empty)

    def successor(self, ids: Sequence[int],
                  step: frozenset[str]) -> tuple[int, ...]:
        """The state reached from *ids* on *step*, an acceptable step."""
        return tuple(table.successor(local_id, step & table.events)
                     for table, local_id in zip(self.tables, ids))
