"""Seeded model families shared by the workloads, with analytic answers.

Every generator takes a :class:`random.Random` and returns a model
source document (the ``{"frontend": ...}`` shape that
:func:`repro.workbench.source_from_doc` and ``repro serve`` accept).
The seed draws names (and, in the workloads, policy seeds and request
sequences); the *structure* of each stratum (chain length, capacity,
width, CCSL relations) is fixed by the workload, so two seeds cost the
same and the run-to-run spread measures the program, not the draw.

Analytic facts used as expected answers (they come from the model
family, not from either engine):

* a SigPML chain of ``n`` agents whose places are ``push 1 pop 1
  capacity c`` has ``(c+1)**(n-1)`` reachable scheduling states, has no
  deadlock, and ``AG occurs(<first>.start)`` fails on it (the first
  agent is not enabled while it executes);
* every place of such a chain holds at most ``c`` tokens and reaches
  ``c``, so ``AG var(PlaceLimitation@Place:<p>.size) <= c`` holds and
  ``... <= c-1`` fails.
"""

from __future__ import annotations

import random

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"

#: bounded CCSL relations the ccsl mixes cycle through: (name, ints)
CCSL_RELATIONS = (
    ("Alternates", ()),
    ("BoundedPrecedes", (2,)),
    ("DelayedFor", (2,)),
    ("SubClock", ()),
    ("Excludes", ()),
)


def rng_for(seed: int, *salt) -> random.Random:
    """A deterministic stream for ``(seed, salt...)``."""
    return random.Random(":".join(str(part) for part in (seed, *salt)))


def prefix(rng: random.Random) -> str:
    """A short pronounceable identifier prefix, e.g. ``"ko"``."""
    return rng.choice(_CONSONANTS) + rng.choice(_VOWELS)


def chain(rng: random.Random, length: int, capacity: int) -> dict:
    """A pipeline ``p0 -> p1 -> ... -> p{length-1}`` plus its facts."""
    p = prefix(rng)
    agents = [f"{p}{i}" for i in range(length)]
    lines = [f"application {p}chain{length}c{capacity} {{"]
    lines += [f"  agent {agent}" for agent in agents]
    lines += [f"  place {a} -> {b} push 1 pop 1 capacity {capacity}"
              for a, b in zip(agents, agents[1:])]
    lines.append("}")
    return {
        "doc": {"frontend": "sigpml", "text": "\n".join(lines) + "\n"},
        "agents": agents,
        "family": "chain",
        "states": (capacity + 1) ** (length - 1),
        "capacity": capacity,
        "place": f"{agents[0]}_{agents[1]}",
    }


def fork_join(rng: random.Random, width: int, capacity: int) -> dict:
    """A source fanning out to *width* workers joined by one sink."""
    p = prefix(rng)
    source, sink = f"{p}src", f"{p}sink"
    workers = [f"{p}w{i}" for i in range(width)]
    lines = [f"application {p}fork{width}c{capacity} {{",
             f"  agent {source}"]
    lines += [f"  agent {worker}" for worker in workers]
    lines.append(f"  agent {sink}")
    for worker in workers:
        lines.append(f"  place {source} -> {worker} push 1 pop 1 "
                     f"capacity {capacity}")
        lines.append(f"  place {worker} -> {sink} push 1 pop 1 "
                     f"capacity {capacity}")
    lines.append("}")
    return {
        "doc": {"frontend": "sigpml", "text": "\n".join(lines) + "\n"},
        "agents": [source, *workers, sink],
        "family": "fork_join",
    }


def ccsl_mix(rng: random.Random, width: int, stratum: int) -> dict:
    """*width* events linked pairwise by bounded CCSL relations, taken
    in turn from :data:`CCSL_RELATIONS` starting at *stratum* (the
    structure is fixed per stratum; the seed only names the events)."""
    p = prefix(rng)
    events = [f"{p}{i}" for i in range(width)]
    constraints = []
    for position, (a, b) in enumerate(zip(events, events[1:])):
        relation, ints = CCSL_RELATIONS[
            (stratum + position) % len(CCSL_RELATIONS)]
        constraints.append({"relation": relation, "args": [a, b, *ints]})
    return {
        "doc": {"frontend": "ccsl", "name": f"{p}ccsl{width}",
                "events": events, "constraints": constraints},
        "events": events,
        "family": "ccsl",
    }


def pam(configuration: str) -> dict:
    """A PAM study configuration (seed-independent)."""
    return {"doc": {"frontend": "pam", "configuration": configuration,
                    "capacity": 1},
            "family": f"pam:{configuration}"}
