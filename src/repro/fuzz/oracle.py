"""The differential oracle: one model, every backend, zero tolerance.

:func:`compare` is the repository's only explicit-vs-symbolic
comparison. The fuzz farm (:func:`check_case`), ``repro selftest``, the
corpus tests and the symbolic benchmarks all run it. On one model it

1. explores the explicit space once, through the kernel's
   ``explored_space`` memo, and diffs it against the symbolic space
   under *both* relation layouts: state and transition counts,
   truncation, reachable keys and the serialized bytes. On an
   untruncated full-branching space it also diffs the symbolic
   fixpoint's facts: state count, keys, deadlock freedom and count,
   and dead events;
2. checks every property under each :data:`ORACLE_CONFIGS` backend
   configuration (explicit, symbolic-partitioned,
   symbolic-monolithic). The explicit check reuses the space of
   phase 1.

Mismatch kinds (:class:`Mismatch`, then :class:`FuzzFailure`):

``disagreement``
    verdicts differ between backends where they must not: the two
    symbolic layouts ever disagree, a definitive explicit verdict
    differs from a symbolic one, an explicit ``unknown`` without a
    truncated exploration, or any state-space mismatch;
``witness``
    a reported witness/counterexample does not replay as an actual
    schedule prefix, or two backends that must produce identical
    witness step sequences produced different ones;
``crash``
    a backend configuration errored on the model.

:func:`check_case` adds the fuzz-specific phases around it. A hard
exception anywhere is a ``crash``. The ``static`` kind means the static
analyzer (:mod:`repro.lint`) disagrees with the engine: an
ERROR-severity finding on a generated model (the generators produce
lint-clean models by construction, so an ERROR means either a
generator regression or a false positive), or the encodability
predictor's verdict contradicts what the symbolic engine actually did
on the very same case.

Three-valued soundness is encoded in the comparison rule: an explicit
``unknown`` on a *truncated* exploration is compatible with any
definitive symbolic verdict, but a definitive explicit verdict must
match symbolic exactly — even on truncated spaces, where the explored
region alone must prove it. (Reverting the truncated-space UNKNOWN
guard is therefore caught as a disagreement, not silently accepted.)

Models the symbolic engine cannot finitely encode are flagged
(``unencodable``) and compared explicit-only; the fuzz generators
avoid unbounded relations, so this is a rarity guard, not a normal
path.

Every fuzz failure carries a self-contained *repro document* — the same
``{"models": ..., "runs": ...}`` shape ``repro batch`` and ``repro
submit`` already accept — so a bug found in CI replays locally in one
command (``repro fuzz --replay FILE`` re-runs the comparison too).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import repro
from repro.errors import ReproError, SymbolicEncodingError
from repro.fuzz.generators import FuzzCase, load_case_model
from repro.fuzz.rng import GENERATION

#: the compared backend configurations: (label, strategy, relation_mode)
ORACLE_CONFIGS = (
    ("explicit", "explicit", None),
    ("symbolic-partitioned", "symbolic", "partitioned"),
    ("symbolic-monolithic", "symbolic", "monolithic"),
)

#: error-message markers of a model the symbolic engine cannot encode
_UNENCODABLE_MARKERS = ("finitely encod", "locally unbounded")


@dataclass
class Mismatch:
    """One backend disagreement found by :func:`compare`."""

    kind: str  # "disagreement" | "witness" | "crash"
    detail: str
    prop: str | None = None

    def __str__(self) -> str:
        where = "" if self.prop is None else f" on {self.prop!r}"
        return f"{self.kind}{where}: {self.detail}"


@dataclass
class Comparison:
    """What :func:`compare` saw on one model."""

    model: str
    states: int
    transitions: int
    truncated: bool
    fixpoint: dict | None = None
    properties: list[dict] = field(default_factory=list)
    mismatches: list[Mismatch] = field(default_factory=list)
    checks: int = 0
    unencodable: bool = False

    @property
    def agree(self) -> bool:
        return not self.mismatches

    def to_doc(self) -> dict:
        return {**asdict(self), "agree": self.agree}


def compare(
    subject,
    properties: list[str],
    max_states: int,
    include_empty: bool = False,
    maximal_only: bool = False,
) -> Comparison:
    """Run the differential oracle on a model or workbench handle.

    *properties* are CTL texts, each checked under every
    :data:`ORACLE_CONFIGS` configuration; *max_states* is the explicit
    budget. *include_empty* and *maximal_only* select the explored step
    semantics. The fixpoint facts describe the full branching, so they
    are compared only on an untruncated space without ``maximal_only``.
    ``checks`` counts one per relation layout compared and one per
    property check run.
    """
    from repro.engine.explorer import explore
    from repro.engine.symbolic import symbolic_reachable

    model = getattr(subject, "execution_model", subject)
    if maximal_only:  # the kernel memo holds full-branching spaces only
        explicit = explore(
            model,
            max_states=max_states,
            include_empty=include_empty,
            maximal_only=True,
            strategy="explicit",
        )
    else:
        explicit = model.kernel.explored_space(
            model, max_states=max_states, include_empty=include_empty
        )
    comparison = Comparison(
        model=subject.name,
        states=explicit.n_states,
        transitions=explicit.n_transitions,
        truncated=explicit.truncated,
    )
    with_fixpoint = not explicit.truncated and not maximal_only
    expected = _space_facts(explicit)
    if with_fixpoint:
        expected.update(_explicit_fixpoint_facts(explicit, expected))
    for mode in ("partitioned", "monolithic"):
        try:
            symbolic = explore(
                model,
                max_states=max_states,
                include_empty=include_empty,
                maximal_only=maximal_only,
                strategy="symbolic",
                relation_mode=mode,
            )
        except SymbolicEncodingError:
            comparison.unencodable = True
            break
        comparison.checks += 1
        actual = _space_facts(symbolic)
        if with_fixpoint:
            reachable = symbolic_reachable(
                model, include_empty=include_empty, relation_mode=mode
            )
            actual.update(_fixpoint_facts(reachable))
            comparison.fixpoint = {
                "states": reachable.count(),
                "depth": reachable.depth,
            }
        diffs = [
            f"{what}: explicit {expected[what]!r} != symbolic {value!r}"
            for what, value in actual.items()
            if expected[what] != value
        ]
        if diffs:
            detail = f"state-space cross-check ({mode}): " + "; ".join(diffs)
            comparison.mismatches.append(Mismatch("disagreement", detail))
    for prop in properties:
        _compare_property(model, prop, max_states, include_empty, comparison)
    return comparison


def _space_facts(space) -> dict:
    return {
        "states": space.n_states,
        "transitions": space.n_transitions,
        "truncated": space.truncated,
        "reachable keys": set(space.keys),
        "serialized space": space.to_json(),
    }


def _explicit_fixpoint_facts(space, facts: dict) -> dict:
    return {
        "fixpoint state count": space.n_states,
        "fixpoint keys": facts["reachable keys"],
        "deadlock freedom": space.is_deadlock_free(),
        "deadlock count": len(space.deadlocks()),
        "dead events": space.dead_events(),
    }


def _fixpoint_facts(reachable) -> dict:
    return {
        "fixpoint state count": reachable.count(),
        "fixpoint keys": set(reachable.states()),
        "deadlock freedom": reachable.is_deadlock_free(),
        "deadlock count": reachable.deadlock_count(),
        "dead events": reachable.dead_events(),
    }


def _is_unencodable(message: str) -> bool:
    return any(marker in message for marker in _UNENCODABLE_MARKERS)


def _compare_property(
    model,
    prop: str,
    max_states: int,
    include_empty: bool,
    comparison: Comparison,
) -> None:
    """Check *prop* under every backend configuration and apply the
    comparison rules to the results."""
    from repro.engine.ctl import check

    results = {}
    for label, strategy, mode in ORACLE_CONFIGS:
        if comparison.unencodable and strategy == "symbolic":
            continue
        comparison.checks += 1
        try:
            results[label] = check(
                model,
                prop,
                strategy=strategy,
                max_states=max_states,
                include_empty=include_empty,
                relation_mode=mode,
            )
        except ReproError as error:
            if _is_unencodable(str(error)):
                comparison.unencodable = True
            else:
                comparison.mismatches.append(
                    Mismatch("crash", f"{label} errored: {error}", prop)
                )
    if results:
        first = next(iter(results.values()))
        comparison.properties.append(
            {
                "property": prop,
                "verdict": first.verdict.value,
                "witness": first.witness_kind,
            }
        )
    comparison.mismatches.extend(_property_mismatches(model, prop, results))


def _property_mismatches(model, prop: str, results: dict) -> list[Mismatch]:
    """The three-valued verdict rules and the witness rules, applied to
    one property's per-configuration results."""
    from repro.engine.ctl import Verdict, replay_steps

    found = []

    def fail(kind: str, detail: str) -> None:
        found.append(Mismatch(kind, detail, prop))

    explicit = results.get("explicit")
    partitioned = results.get("symbolic-partitioned")
    monolithic = results.get("symbolic-monolithic")
    both_layouts = partitioned is not None and monolithic is not None
    if both_layouts and partitioned.verdict is not monolithic.verdict:
        fail(
            "disagreement",
            f"relation modes disagree: partitioned={partitioned.verdict} "
            f"monolithic={monolithic.verdict}",
        )
    symbolic = partitioned if partitioned is not None else monolithic
    definitive = (
        explicit is not None and explicit.verdict is not Verdict.UNKNOWN
    )
    if explicit is not None and not definitive and not explicit.truncated:
        fail(
            "disagreement",
            "explicit verdict is UNKNOWN on an untruncated exploration",
        )
    if (
        definitive
        and symbolic is not None
        and explicit.verdict is not symbolic.verdict
    ):
        fail(
            "disagreement",
            f"explicit={explicit.verdict} "
            f"({'truncated' if explicit.truncated else 'complete'} at "
            f"{explicit.states} states) but symbolic={symbolic.verdict}",
        )
    # witness rules: every reported witness must replay; backends that
    # evaluate the same complete structure must report identical steps
    for label, result in results.items():
        steps = result.witness_steps
        if steps is None:
            continue
        try:
            replays = replay_steps(model, steps)
        except Exception as error:
            # a trace the kernel cannot even attempt (unknown events,
            # malformed steps) is an invalid witness, not an engine crash
            fail(
                "witness",
                f"{label} witness of {len(steps)} step(s) is not a "
                f"valid schedule prefix: {error}",
            )
            continue
        if not replays:
            fail(
                "witness",
                f"{label} witness of {len(steps)} step(s) does not "
                f"replay as a schedule prefix",
            )
    if both_layouts and _witness_of(partitioned) != _witness_of(monolithic):
        fail("witness", "symbolic relation modes report different witnesses")
    if definitive and not explicit.truncated:
        for label in ("symbolic-partitioned", "symbolic-monolithic"):
            other = results.get(label)
            if other is not None and _witness_of(other) != _witness_of(
                explicit
            ):
                fail(
                    "witness",
                    f"explicit and {label} report different witnesses",
                )
                break
    return found


def _witness_of(result) -> tuple:
    return (result.witness_kind, result.witness_steps)


@dataclass
class FuzzFailure:
    """One oracle violation, with its self-contained repro document."""

    kind: str  # "disagreement" | "witness" | "crash" | "static"
    seed: int
    index: int
    frontend: str
    prop: str | None
    detail: str
    repro: dict

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "index": self.index,
            "frontend": self.frontend,
            "property": self.prop,
            "detail": self.detail,
            "repro": self.repro,
        }


@dataclass
class CaseOutcome:
    """What the oracle saw on one case."""

    case: FuzzCase
    checks: int = 0
    unencodable: bool = False
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def repro_doc(
    case: FuzzCase, failure_kind: str, detail: str, prop: str | None
) -> dict:
    """The self-contained replay document of one failure.

    ``models``/``runs`` follow the canonical batch shape (``repro
    batch``/``repro submit`` run it as-is); the extra ``fuzz`` key is
    provenance both tools ignore."""
    from repro.workbench import CheckSpec, ExploreSpec, LintSpec

    if prop is None:  # a state-space or static failure: the explorations
        runs = [
            ExploreSpec(
                case.name,
                max_states=case.max_states,
                strategy=strategy,
                relation_mode=mode,
                label=label,
            ).to_doc()
            for label, strategy, mode in ORACLE_CONFIGS
        ]
    else:
        runs = [
            CheckSpec(
                case.name,
                prop,
                strategy=strategy,
                relation_mode=mode,
                max_states=case.max_states,
                label=label,
            ).to_doc()
            for label, strategy, mode in ORACLE_CONFIGS
        ]
    if failure_kind == "static":  # led by the lint run
        runs.insert(0, LintSpec(case.name, label="lint").to_doc())
    return {
        "models": {case.name: case.model_doc()},
        "runs": runs,
        "fuzz": {
            "kind": failure_kind,
            "detail": detail,
            "seed": case.seed,
            "index": case.index,
            "frontend": case.frontend,
            "property": prop,
            "max_states": case.max_states,
            "generation": GENERATION,
            "version": repro.__version__,
        },
    }


def _failure(
    case: FuzzCase, kind: str, detail: str, prop: str | None = None
) -> FuzzFailure:
    return FuzzFailure(
        kind=kind,
        seed=case.seed,
        index=case.index,
        frontend=case.frontend,
        prop=prop,
        detail=detail,
        repro=repro_doc(case, kind, detail, prop),
    )


def check_case(case: FuzzCase, handle=None) -> CaseOutcome:
    """Run the full differential oracle on one case: the lint phase,
    :func:`compare`, and the encodability predictor against what the
    symbolic engine actually did."""
    outcome = CaseOutcome(case=case)
    try:
        if handle is None:
            handle = load_case_model(case)
        predicted = _check_static(case, handle, outcome)
        comparison = compare(handle, case.properties, case.max_states)
    except Exception as exc:  # a hard crash is exactly what we hunt
        outcome.failures.append(
            _failure(case, "crash", f"{type(exc).__name__}: {exc}")
        )
        return outcome
    outcome.checks += comparison.checks
    outcome.unencodable = comparison.unencodable
    outcome.failures.extend(
        _failure(case, mismatch.kind, mismatch.detail, mismatch.prop)
        for mismatch in comparison.mismatches
    )
    if predicted == outcome.unencodable:
        # the comparison compiled the very model the predictor judged:
        # the two verdicts must coincide
        actual = "unencodable" if outcome.unencodable else "encodable"
        outcome.failures.append(
            _failure(
                case,
                "static",
                f"encodability predictor said "
                f"{'encodable' if predicted else 'unencodable'} but the "
                f"symbolic engine found the model {actual}",
            )
        )
    return outcome


def _check_static(case: FuzzCase, handle, outcome: CaseOutcome) -> bool:
    """Phase 0: the static analyzer, before any engine step.

    Generated models are lint-clean by construction, so any
    ERROR-severity finding is a ``static`` oracle failure (either a
    generator regression or an analyzer false positive — both are
    bugs). Returns the encodability predictor's verdict, read off the
    report (``ENC001`` fires iff the predictor says unencodable, and a
    second prediction would redo its local closures); the caller diffs
    it against what the symbolic engine actually did."""
    from repro.lint import lint_handle

    report = lint_handle(handle)
    outcome.checks += 1
    if report.errors:
        detail = "lint errors on a generated model: " + "; ".join(
            f"{diag.rule} at {diag.path}: {diag.message}"
            for diag in report.errors
        )
        outcome.failures.append(_failure(case, "static", detail))
    return not any(diag.rule == "ENC001" for diag in report.diagnostics)
