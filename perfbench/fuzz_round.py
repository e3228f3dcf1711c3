"""Workload ``fuzz_round``: differential fuzzing cases, one after another.

Why: it is the only workload that runs the ``fuzz`` generators and
differential oracle, and the ``moccml`` front-end (MoCCML text parser,
automata runtimes, declarative instantiation). Cases per unit time is
the number a faster oracle or closure should raise.

Traffic: a fixed-seed round, as CI runs it — the first 125 case indices
of fuzz seed 0, each case generated by ``repro.fuzz.build_case(0,
index, frontend)`` and checked by ``repro.fuzz.check_case`` from the
benchmark's own thread: the per-case work of ``repro.fuzz.run_round(0,
cases=125, workers=1, frontends=LANES)`` with the round driver's lane
rotation, timed per case. The benchmark's ``--seed`` orders the cases
within each round; rounds repeat until the run's time is up. The round
is fixed because case costs are heavy-tailed (a few cases cost 20x the
median), so rounds drawn from different fuzz seeds differ by a third
in cost and would hide any change smaller than that.

Lanes: ``sigpml``, ``deployment``, ``ccsl`` and ``moccml``. The ``pam``
lane is left out: one pam case costs ~20 s here, longer than a whole
run, so it would decide every figure on its own; the pam models are
measured by both corpora instead. Cases have 3-5 events (ccsl/moccml)
or 2-4 agents (sigpml/deployment); ``unencodable`` counts the cases the
symbolic side rejected.

Expected answers: each case's oracle must report agreement between the
explicit and symbolic engines (a disagreement or a crash is a failed
case), and a fixed-seed ``run_round`` report is checked against a
digest recorded at the commit that introduced this benchmark.
"""

from __future__ import annotations

import json
import time

import common
import models

NAME = "fuzz_round"
LANES = ("sigpml", "deployment", "ccsl", "moccml")
#: cases per round. Case costs form one tight cluster per case, so a
#: percentile whose rank falls on a cluster boundary flips between two
#: cases from run to run; with 125 cases the p50 and p90 ranks (62.5,
#: 112.5) fall inside a cluster
ROUND_CASES = 125
TINY_ROUND_CASES = 8
#: the fuzz seed of the measured round (see the module docstring)
FUZZ_SEED = 0
GOLDEN_ROUND = {"seed": 0, "cases": 8}


def golden_round_digest() -> str:
    """Digest of a fixed-seed ``run_round`` report (timing removed)."""
    from repro.fuzz import run_round
    report = run_round(GOLDEN_ROUND["seed"], cases=GOLDEN_ROUND["cases"],
                       frontends=LANES, workers=1)
    report.pop("elapsed")
    return common.digest(json.dumps(report, sort_keys=True))


def run_case(seed: int, index: int):
    """One case exactly as the round driver runs it; returns
    ``(outcome or None, error text)``."""
    from repro import obs
    from repro.fuzz import GenerationError, build_case, check_case
    frontend = LANES[index % len(LANES)]
    try:
        with obs.span("bench.build_case"):
            case, handle = build_case(seed, index, frontend=frontend)
    except GenerationError as exc:
        return None, str(exc)
    with obs.span("bench.check_case"):
        return check_case(case, handle), ""


def run_cases(indices, verdicts, timeline=None):
    """The cases *indices* of :data:`FUZZ_SEED`, in order; returns the
    oracle totals. A *timeline* records each case."""
    seed = FUZZ_SEED
    checks = unencodable = 0
    for index in indices:
        if timeline is not None:
            timeline.begin()
        outcome, error = run_case(seed, index)
        if timeline is not None:
            timeline.end()
        problems: list[str] = []
        if outcome is None:
            problems.append(f"generator error: {error}")
        else:
            checks += outcome.checks
            unencodable += outcome.unencodable
            common.compare(problems, "oracle agreement", outcome.ok,
                           verdicts.want(True))
        verdicts.record(f"case {seed}/{index}", problems)
    return checks, unencodable


def run(args, layer_metrics) -> None:
    verdicts = common.Verdicts(corrupt=args.corrupt)
    count = TINY_ROUND_CASES if args.size == "tiny" else ROUND_CASES
    setup = common.measure_setup({})
    golden = common.golden(NAME).get("run_round")
    problems: list[str] = []
    common.compare(problems, "run_round report digest",
                   golden_round_digest(), golden)
    verdicts.record("golden run_round", problems)
    order = list(range(count))
    models.rng_for(args.seed, NAME).shuffle(order)
    if args.trace:
        def untraced():
            started = time.perf_counter()
            run_cases(order, verdicts)
            return time.perf_counter() - started

        def traced_pass():
            with common.Traced() as trace:
                totals = run_cases(order, verdicts)
            return totals, trace

        totals, trace, overhead = common.traced_with_overhead(
            untraced, traced_pass)
        checks, unencodable = totals
        rows = trace.self_times()
        extra = {
            "fuzz.generate_s": (rows.get("fuzz.generate", 0.0), "s"),
            "fuzz.oracle_s": (rows.get("fuzz.oracle", 0.0), "s"),
            "fuzz.checks": (checks, "count"),
            "fuzz.unencodable": (unencodable, "count"),
        }
        metrics = layer_metrics(setup, trace, overhead, extra)
        metrics.update(common.step_probe(_case_handles(count), args.seed))
        notes = {"lanes": list(LANES), "cases": count,
                 "unencodable": unencodable}
        table = common.self_time_table(rows, trace.wall)
        common.emit(NAME, args.seed, verdicts, metrics, notes, table)
        return
    # the golden run_round above has warmed the generators and oracle
    common.settle()
    timelines, walls = [], []
    unencodable = 0
    started = time.perf_counter()
    while not timelines or time.perf_counter() - started < args.seconds:
        begin = time.perf_counter()
        with common.Timeline() as timeline:
            _checks, skipped = run_cases(order, verdicts, timeline)
        walls.append(time.perf_counter() - begin)
        timelines.append(timeline)
        unencodable += skipped
    metrics = common.end_to_end(setup["setup_s"], timelines,
                                common.peak_rss_mb())
    cases = len(order) * len(timelines)
    notes = {
        "lanes": list(LANES), "rounds": len(timelines), "cases": cases,
        "cases_per_min_at_reference_speed": round(
            60 * len(order) / metrics["pass_cpu_s"][0], 1),
        "unencodable_share": round(unencodable / cases, 3),
        **common.raw_notes(timelines, walls, metrics),
    }
    common.emit(NAME, args.seed, verdicts, metrics, notes)


def _case_handles(count: int):
    from repro.fuzz import build_case
    return [build_case(FUZZ_SEED, index,
                       frontend=LANES[index % len(LANES)])[1]
            for index in range(count)]
