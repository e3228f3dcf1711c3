"""Seeded CTL property generation over a model's actual events.

Two sources, mixed per property:

* an instantiation of the 10-template battery (:data:`PROPERTY_BATTERY`,
  which ``repro selftest`` and the corpus tests also run through the
  differential oracle) with *randomly drawn* events — the templates
  encode the operator shapes that have historically found bugs, the
  random substitution stops them from always probing the same two
  events;
* a random formula over the grammar atoms ``occurs(e)`` / ``deadlock``
  / ``true`` / ``false`` closed under ``!``, ``&``, ``|``, ``->``, the
  CTL operators (``EX EF EG AX AF AG``, ``E[.U.]``/``A[.U.]``) and a
  top-level ``leads_to``.

Properties are built as :mod:`repro.engine.ctl` AST nodes and rendered
with ``to_text()``, so every generated text parses back by
construction (``parse_property`` round-trips the AST printer).
"""

from __future__ import annotations

import random

from repro.engine.ctl import (
    AF,
    AG,
    AU,
    AX,
    EF,
    EG,
    EU,
    EX,
    And,
    Deadlock,
    FalseProp,
    Implies,
    LeadsTo,
    Not,
    Occurs,
    Or,
    Prop,
    TrueProp,
)

#: property templates of the differential battery; ``{e0}`` and ``{e1}``
#: are substituted with events of the model (order matters: fuzz cases
#: draw templates from this tuple by position)
PROPERTY_BATTERY = (
    "AG !deadlock",
    "EF deadlock",
    "EF occurs({e0})",
    "AF occurs({e0})",
    "AG occurs({e0})",
    "EG !occurs({e1})",
    "E[!occurs({e1}) U occurs({e0})]",
    "A[!occurs({e1}) U occurs({e0})]",
    "occurs({e0}) leads_to occurs({e1})",
    "AX (occurs({e0}) | occurs({e1}) | deadlock)",
)

_UNARY = (EX, EF, EG, AX, AF, AG, Not)
_BINARY = (And, Or, Implies)
_UNTIL = (EU, AU)


def _atom(rng: random.Random, events: list[str]) -> Prop:
    draw = rng.random()
    if events and draw < 0.65:
        return Occurs(rng.choice(events))
    if draw < 0.85:
        return Deadlock()
    if draw < 0.95:
        return TrueProp()
    return FalseProp()


def _formula(rng: random.Random, events: list[str], depth: int) -> Prop:
    if depth <= 0 or rng.random() < 0.2:
        return _atom(rng, events)
    draw = rng.random()
    if draw < 0.55:
        operator = rng.choice(_UNARY)
        return operator(_formula(rng, events, depth - 1))
    if draw < 0.85:
        operator = rng.choice(_BINARY)
        return operator(
            _formula(rng, events, depth - 1),
            _formula(rng, events, depth - 1),
        )
    operator = rng.choice(_UNTIL)
    return operator(
        _formula(rng, events, depth - 1),
        _formula(rng, events, depth - 1),
    )


def random_property(rng: random.Random, events: list[str]) -> str:
    """One random property text over *events*."""
    if events and rng.random() < 0.1:
        return LeadsTo(
            _atom(rng, events), _formula(rng, events, 1)
        ).to_text()
    return _formula(rng, events, 2).to_text()


def battery_texts(model) -> list[str]:
    """The battery instantiated with *model*'s first two events."""
    events = sorted(model.events)
    if not events:
        return [t for t in PROPERTY_BATTERY if "{e" not in t]
    substitutions = {"e0": events[0], "e1": events[min(1, len(events) - 1)]}
    return [template.format(**substitutions) for template in PROPERTY_BATTERY]


def battery_property(rng: random.Random, events: list[str]) -> str:
    """One battery template instantiated with randomly drawn events."""
    template = rng.choice(PROPERTY_BATTERY)
    if not events:
        return "AG !deadlock"
    return template.format(
        e0=rng.choice(events), e1=rng.choice(events)
    )


def generate_properties(
    rng: random.Random, events: list[str], count: int = 3
) -> list[str]:
    """*count* property texts over *events* (battery/random mix)."""
    properties = []
    for _ in range(count):
        if rng.random() < 0.5:
            properties.append(battery_property(rng, events))
        else:
            properties.append(random_property(rng, events))
    return properties
