"""Workload ``explicit_corpus``: the explicit engine's batch corpus.

Why: the explicit engine (``engine.execution_model`` step enumeration
and advance under ``engine.explorer``'s BFS) is the program's slowest
path per state and the only one for models that cannot be encoded
symbolically. Here it does nearly all the work and ``engine.symbolic``
does none: every check uses ``strategy="explicit"``, so a change to the
symbolic layers should leave this workload unchanged.

Traffic (full size, per pass): 101 specs over 23 models, run through
``Workbench.run_many(backend="serial")`` with no store; kernels are cold
at the start of every pass.

* 11 SigPML chains, lengths 3-8, capacities 1-3: 4 to 2,187 states,
  alphabets of 13-38 events. Each gets three explicit checks with a
  budget of 4,000 states, one explore and one 40-step random
  simulation — except chain 8x2, whose budget of 1,000 states
  truncates: two checks (one ``unknown``, one ``fails``) and a
  simulation.
* 4 SigPML fork-joins (width 2-3, capacity 1-2) and 6 CCSL mixes
  (4-6 events): two explicit checks, one explore, one simulation.
* ``pam:dual`` and ``pam:quad`` (40 events, 36/41 constraints), which
  the symbolic encoding rejects: the explicit engine is their only
  path. Two checks, one explore, one simulation each.

Encodable share: 21 of 23 models (91%); the pam pair is not.
Spec costs range from well under a millisecond (a cached check) to
seconds (the first check on a large chain), so ``op_cpu_p50_s`` and
``op_cpu_p90_s`` fall on different spec kinds.

Expected answers: chain state counts, deadlock freedom and the failing
``AG occurs(<first>.start)`` are analytic; fork-join and CCSL answers
(verdicts, state counts, witnesses) come from the symbolic engine,
computed before timing; the seed-independent pam specs are checked
against SHA-256 digests of canonical result documents recorded at the
commit that introduced this benchmark.
"""

from __future__ import annotations

import common
import corpus
import models
from corpus import Case, Corpus

NAME = "explicit_corpus"

#: (length, capacity, check budget)
CHAINS = ((3, 1, 4000), (3, 2, 4000), (4, 1, 4000), (4, 2, 4000),
          (5, 1, 4000), (5, 2, 4000), (4, 3, 4000), (6, 1, 4000),
          (5, 3, 4000), (6, 2, 4000), (8, 2, 1000))
FORK_JOINS = ((2, 1), (2, 2), (3, 1), (3, 2))
CCSL_WIDTHS = (4, 4, 5, 5, 6, 6)
PAMS = ("dual", "quad")
TINY = {"chains": CHAINS[:3], "fork_joins": FORK_JOINS[:1],
        "ccsl": CCSL_WIDTHS[:1], "pams": PAMS[:1]}
SIM_STEPS = 40


def build(seed: int, tiny: bool = False) -> Corpus:
    from repro.engine.symbolic import symbolic_reachable
    from repro.workbench import CheckSpec, ExploreSpec, SimulateSpec

    shape = TINY if tiny else {"chains": CHAINS, "fork_joins": FORK_JOINS,
                               "ccsl": CCSL_WIDTHS, "pams": PAMS}
    docs, cases, handles = {}, [], {}

    def reference(name):
        """The symbolic engine's handle on *name* (the reference for
        explicit answers on encodable models)."""
        if name not in handles:
            handles[name] = corpus.load_handles({name: docs[name]})[name]
        return handles[name]

    def check(name, prop, budget, want=None, source="analytic"):
        spec = CheckSpec(name, prop, strategy="explicit", max_states=budget,
                         label=f"{name}:check:{prop}")
        if want is None:
            want = corpus.reference_check(reference(name), prop, "symbolic")
            source = "symbolic"
        cases.append(Case(spec, want, source))

    def simulate(name, rng, deadlock_free):
        policy = {"name": "random", "seed": rng.randrange(1 << 16)}
        spec = SimulateSpec(name, policy=policy, steps=SIM_STEPS,
                            label=f"{name}:simulate")
        want = {"steps_run": SIM_STEPS, "deadlocked": False} \
            if deadlock_free else {}
        cases.append(Case(spec, want, "analytic"))

    for index, (length, capacity, budget) in enumerate(shape["chains"]):
        rng = models.rng_for(seed, NAME, "chain", index)
        model = models.chain(rng, length, capacity)
        name = f"chain{index}"
        docs[name] = model["doc"]
        first, last = model["agents"][0], model["agents"][-1]
        states = model["states"]
        if states <= budget:
            check(name, "AG !deadlock", budget,
                  {"verdict": "holds", "states": states})
        else:  # truncated: no deadlock exists, but none can be proven
            check(name, "AG !deadlock", budget,
                  {"verdict": "unknown", "states": budget,
                   "truncated": True})
        check(name, f"AG occurs({first}.start)", budget,
              {"verdict": "fails"})
        if states <= budget:
            check(name, f"AF occurs({last}.start)", budget)
            cases.append(Case(
                ExploreSpec(name, max_states=budget,
                            label=f"{name}:explore"),
                {"summary.states": states, "summary.deadlocks": 0,
                 "summary.truncated": False}))
        simulate(name, rng, deadlock_free=True)

    families = [("fork", index, models.fork_join, shape_args)
                for index, shape_args in enumerate(shape["fork_joins"])]
    families += [("ccsl", index, models.ccsl_mix, (width, index))
                 for index, width in enumerate(shape["ccsl"])]
    for family, index, generate, args in families:
        rng = models.rng_for(seed, NAME, family, index)
        model = generate(rng, *args)
        name = f"{family}{index}"
        docs[name] = model["doc"]
        target = (model.get("agents") or model["events"])[-1]
        target = f"{target}.start" if family == "fork" else target
        check(name, "AG !deadlock", 4000)
        check(name, f"EF occurs({target})", 4000)
        reached = symbolic_reachable(reference(name).execution_model)
        deadlocks = reached.deadlock_count()
        cases.append(Case(ExploreSpec(name, max_states=4000,
                                      label=f"{name}:explore"),
                          {"summary.states": reached.count(),
                           "summary.deadlocks": deadlocks},
                          "symbolic"))
        simulate(name, rng, deadlock_free=deadlocks == 0)

    golden = common.golden(NAME)
    for configuration in shape["pams"]:
        name = f"pam_{configuration}"
        docs[name] = models.pam(configuration)["doc"]
        specs = [
            CheckSpec(name, "AG !deadlock", strategy="explicit",
                      max_states=2000, label=f"{name}:check-deadlock"),
            CheckSpec(name, "AF occurs(logger.start)", strategy="explicit",
                      max_states=2000, label=f"{name}:check-logger"),
            ExploreSpec(name, max_states=2000, label=f"{name}:explore"),
            SimulateSpec(name, policy="asap", steps=SIM_STEPS,
                         label=f"{name}:simulate"),
        ]
        for spec in specs:
            cases.append(Case(spec, {"digest": golden.get(spec.label)},
                              "recorded digest"))

    notes = {
        "specs": len(cases),
        "models": len(docs),
        "encodable_share": round(
            sum(doc["frontend"] != "pam" for doc in docs.values())
            / len(docs), 3),
        "chain_states": [(c + 1) ** (n - 1)
                         for n, c, _budget in shape["chains"]],
    }
    return Corpus(docs, cases, notes)
