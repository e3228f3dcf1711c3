"""Workload ``symbolic_corpus``: property batteries on the symbolic engine.

Why: this is the one workload where the symbolic layers dominate —
local-state closure, relation compile, reachability fixpoints and image
computation (``engine.symbolic``, ``boolalg.bdd``) and symbolic CTL
evaluation with witness extraction (``engine.ctl``) — while explicit
BFS stays idle. Every check uses ``strategy="symbolic"`` and every model
is loaded fresh each pass, so each battery starts on a cold kernel and
pays its own closure, compile and fixpoint.

Traffic (full size, per pass): 107 checks over 23 models.

* 14 SigPML chains, lengths 6-12 and capacities 2-3 (fixpoint-heavy):
  243 to 4,194,304 reachable states, alphabets of 28-58 events. Battery:
  ``AG !deadlock``, ``AF occurs(<last>.start)``, ``EF
  occurs(<last>.stop)``, the place bound ``AG var(...size) <= c`` and
  ``AG occurs(<first>.start)``, which fails with a counterexample.
* 8 CCSL mixes of 6-9 events: ``AG !deadlock``, ``AF``/``EF``/``AG``
  over seeded events.
* ``pam:mono`` (40 events, 33 constraints; closure-heavy, almost all of
  it in ``Mutex(dsp)``'s closure), seed-independent.

Encodable share: 100% (the point of the workload).

Expected answers: for chains, the state count ``(c+1)**(n-1)``, deadlock
freedom, the place bound, reachability of the last agent's stop and the
failing ``AG occurs(<first>.start)`` are analytic; ``AF
occurs(<last>.start)`` holds because without the last agent the
capacities bound every run's length and no run deadlocks. CCSL answers
(verdict, state count, witness) come from the explicit engine, computed
before timing; the pam battery is checked against recorded digests.
"""

from __future__ import annotations

import common
import corpus
import models
from corpus import Case, Corpus

NAME = "symbolic_corpus"

CHAINS = ((6, 2), (7, 2), (8, 2), (9, 2), (10, 2), (11, 2), (12, 2),
          (6, 3), (7, 3), (8, 3), (9, 3), (10, 3), (11, 3), (12, 3))
CCSL_WIDTHS = (6, 6, 7, 7, 8, 8, 9, 9)
TINY = {"chains": CHAINS[:2], "ccsl": CCSL_WIDTHS[:1], "pam": False}


def build(seed: int, tiny: bool = False) -> Corpus:
    from repro.workbench import CheckSpec

    shape = TINY if tiny else {"chains": CHAINS, "ccsl": CCSL_WIDTHS,
                               "pam": True}
    docs, cases = {}, []

    def check(name, prop, want, source):
        spec = CheckSpec(name, prop, strategy="symbolic",
                         label=f"{name}:check:{prop}")
        cases.append(Case(spec, want, source))

    widths = []
    for index, (length, capacity) in enumerate(shape["chains"]):
        model = models.chain(models.rng_for(seed, NAME, "chain", index),
                             length, capacity)
        name = f"chain{index}"
        docs[name] = model["doc"]
        widths.append(5 * length - 2)
        first, last = model["agents"][0], model["agents"][-1]
        holds = {"verdict": "holds", "states": model["states"]}
        check(name, "AG !deadlock", holds, "analytic")
        check(name, f"AF occurs({last}.start)", holds, "analytic")
        check(name, f"EF occurs({last}.stop)", holds, "analytic")
        check(name, f"AG var(PlaceLimitation@Place:{model['place']}.size)"
              f" <= {capacity}", holds, "analytic")
        check(name, f"AG occurs({first}.start)",
              {"verdict": "fails", "states": model["states"],
               "witness_kind": "counterexample"}, "analytic")

    for index, width in enumerate(shape["ccsl"]):
        model = models.ccsl_mix(models.rng_for(seed, NAME, "ccsl", index),
                                width, index)
        name = f"ccsl{index}"
        docs[name] = model["doc"]
        widths.append(width)
        first, last = model["events"][0], model["events"][-1]
        handle = corpus.load_handles({name: docs[name]})[name]
        for prop in ("AG !deadlock", f"AF occurs({last})",
                     f"EF occurs({first})", f"AG occurs({first})"):
            check(name, prop, corpus.reference_check(handle, prop,
                                                     "explicit"),
                  "explicit")

    if shape["pam"]:
        golden = common.golden(NAME)
        docs["pam_mono"] = models.pam("mono")["doc"]
        widths.append(40)
        for prop in ("AG !deadlock", "AF occurs(logger.start)",
                     "EF occurs(fft.stop)",
                     "AG var(PlaceLimitation@Place:blocks.size) <= 1",
                     "AG occurs(hydro.start)"):
            label = f"pam_mono:check:{prop}"
            cases.append(Case(
                CheckSpec("pam_mono", prop, strategy="symbolic",
                          label=label),
                {"digest": golden.get(label)}, "recorded digest"))

    notes = {
        "specs": len(cases),
        "models": len(docs),
        "encodable_share": 1.0,
        "chain_states": [(c + 1) ** (n - 1) for n, c in shape["chains"]],
        "alphabet_widths": widths,
    }
    return Corpus(docs, cases, notes)
