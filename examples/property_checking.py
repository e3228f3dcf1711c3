#!/usr/bin/env python3
"""Concurrency-aware analysis: checking properties of all schedules.

The paper motivates the explicit MoCC with "the effective usage of
concurrency-aware analysis techniques". This example asks questions
about every acceptable schedule of a small sensor pipeline, each one
as CTL text through one checker (``workbench.check``):

* safety — the place never overflows, mutual exclusion holds;
* reachability — the sink can fire (with a shortest witness schedule);
* inevitability / leads-to — every source firing is eventually followed
  by a sink firing, under every acceptable schedule;
* divergence — which properties break when the MoCC changes.

Step-level questions ("these two never fire together", "every run fires
log") use the step label of ``EX[σ]``/``EG[σ]``: the path may only take
steps satisfying ``σ``, where ``occurs(e)`` means "``e`` is in the
step". Every check runs on the explicit or the symbolic backend alike.

Run: python examples/property_checking.py
"""

from repro.deployment import Allocation, Platform
from repro.sdf import SdfBuilder
from repro.workbench import DeploymentSpec, Workbench


def build_pipeline():
    builder = SdfBuilder("sensor")
    builder.agent("sense")
    builder.agent("proc")
    builder.agent("log")
    builder.connect("sense", "proc", capacity=2, name="raw")
    builder.connect("proc", "log", capacity=2, name="cooked")
    return builder


def together(first: str, second: str) -> str:
    """The step label "*first* and *second* fire in the same step"."""
    return f"occurs({first}.start) & occurs({second}.start)"


def report(workbench: Workbench, model: str, question: str, text: str,
           strategy: str = "auto") -> dict:
    data = workbench.check(model, text, strategy=strategy).data
    print(f"  {question:50s} {data['verdict'].upper()}")
    return data


def main() -> None:
    workbench = Workbench()
    workbench.add(build_pipeline(), name="sensor")
    summary = workbench.explore("sensor").data["summary"]
    print(f"explored {summary['states']} states / "
          f"{summary['transitions']} transitions (complete: "
          f"{not summary['truncated']})\n")

    # -- safety ---------------------------------------------------------
    # adjacent agents share a place; the base MoCC forbids simultaneous
    # read/write, so they can never fire in the same step
    print("safety:")
    report(workbench, "sensor", "sense and proc never fire together",
           f"AG !EX[{together('sense', 'proc')}] true")
    report(workbench, "sensor", "sense and log never fire together",
           f"AG !EX[{together('sense', 'log')}] true")
    report(workbench, "sensor", "the raw place never overflows",
           "AG var(PlaceLimitation@Place:raw.size) <= 2")
    report(workbench, "sensor", "no deadlock", "AG !deadlock")

    # -- reachability with witness ----------------------------------------
    print("\nreachability:")
    report(workbench, "sensor", "the log agent can fire",
           "EF EX[occurs(log.start)] true")
    # the counterexample of "log never fires" is the shortest schedule
    # ending with a log firing
    refuted = report(workbench, "sensor", "log never fires",
                     "AG !EX[occurs(log.start)] true")
    print("  shortest schedule reaching a log firing:")
    for index, step in enumerate(refuted["trace"]):
        fired = sorted(e for e in step if e.endswith(".start"))
        print(f"    step {index}: {fired}")

    # -- liveness ------------------------------------------------------------
    print("\nliveness (over ALL acceptable schedules):")
    report(workbench, "sensor", "every run fires log",
           "!EG[!occurs(log.start)] true")
    report(workbench, "sensor", "every sense firing leads to a log firing",
           "AG !EX[occurs(sense.start)] EG[!occurs(log.start)] true")

    # -- the same checks after deployment --------------------------------------
    platform = Platform("mono")
    platform.processor("cpu")
    workbench.add(
        DeploymentSpec(
            application=build_pipeline(),
            deployment=(platform, Allocation(
                {"sense": "cpu", "proc": "cpu", "log": "cpu"}))),
        name="deployed")
    print("\nafter mono-processor deployment (symbolic backend):")
    report(workbench, "deployed", "sense and log never fire together",
           f"AG !EX[{together('sense', 'log')}] true", strategy="symbolic")
    report(workbench, "deployed", "every run fires log",
           "!EG[!occurs(log.start)] true", strategy="symbolic")
    print("\nThe deployment changed the safety landscape (full mutual "
          "exclusion) while preserving liveness — checked over every "
          "schedule, not just one simulation.")


if __name__ == "__main__":
    main()
