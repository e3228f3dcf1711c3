"""The repository benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload explicit_corpus --seed 1 \\
        --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that attributes time to
layers. Either way every result is checked against answers that do not
come from the engine under test; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--size tiny`` and ``--corrupt`` exist for ``selftest.py``.

Workloads (each module's docstring says why it was chosen and what its
traffic looks like): ``explicit_corpus``, ``symbolic_corpus``,
``serve_mixed``, ``fuzz_round``. The timed metrics are CPU seconds of
the working process at a reference machine speed, medians over the
passes of a run (see ``common.Timeline`` and ``common.end_to_end``).
"""

from __future__ import annotations

import argparse
import shutil
import sys

import common

WORKLOADS = ("explicit_corpus", "symbolic_corpus", "serve_mixed",
             "fuzz_round")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", action="store_true",
                        help="falsify one expected answer (self-test)")
    return parser.parse_args(argv)


def run_corpus(module, args) -> None:
    import corpus
    verdicts = common.Verdicts(corrupt=args.corrupt)
    built = module.build(args.seed, tiny=args.size == "tiny")
    setup = common.measure_setup(built.models)
    if args.trace:
        traced, overhead = corpus.traced(built, verdicts)
        metrics = layer_metrics(setup, traced, overhead)
        handles = corpus.load_handles(built.models)
        metrics.update(common.step_probe(handles.values(), args.seed))
        table = common.self_time_table(traced.self_times(), traced.wall)
        common.emit(module.NAME, args.seed, verdicts, metrics, built.notes,
                    table)
        return
    timelines, walls = corpus.timed(built, args.seconds, verdicts)
    metrics = common.end_to_end(setup["setup_s"], timelines,
                                common.peak_rss_mb())
    notes = dict(built.notes, passes=len(timelines),
                 **common.raw_notes(timelines, walls, metrics))
    common.emit(module.NAME, args.seed, verdicts, metrics, notes)


def layer_metrics(setup: dict, traced, overhead: float,
                  extra: dict | None = None) -> dict:
    """The per-layer metric set every traced run reports, in one
    order; layers a workload does not use report zero."""
    metrics = {
        "import.repro_s": (setup["import_s"], "s"),
        "frontends.load_s": (setup["load_s"], "s"),
        "frontends.loads": (setup["loads"], "count"),
    }
    metrics.update(common.span_metrics(traced))
    defaults = {
        "store.hits": (0, "count"), "store.misses": (0, "count"),
        "store.hit_rate": (0.0, "ratio"), "store.get_us": (0.0, "us"),
        "store.put_us": (0.0, "us"),
        "serve.request_s_p50": (0.0, "s"),
        "serve.transport_s_p50": (0.0, "s"),
        "serve.run_s_mean": (0.0, "s"), "serve.compile_s_mean": (0.0, "s"),
        "serve.model_compiles": (0, "count"),
        "serve.model_evictions": (0, "count"),
        "serve.resident_nodes": (0, "count"),
        "fuzz.generate_s": (0.0, "s"), "fuzz.oracle_s": (0.0, "s"),
        "fuzz.checks": (0, "count"), "fuzz.unencodable": (0, "count"),
    }
    metrics.update(defaults)
    metrics.update(extra or {})
    metrics["obs.tracing_overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.require_program()
    except common.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        if args.workload == "explicit_corpus":
            import explicit_corpus
            run_corpus(explicit_corpus, args)
        elif args.workload == "symbolic_corpus":
            import symbolic_corpus
            run_corpus(symbolic_corpus, args)
        elif args.workload == "serve_mixed":
            import serve_mixed
            serve_mixed.run(args, layer_metrics)
        else:
            import fuzz_round
            fuzz_round.run(args, layer_metrics)
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
