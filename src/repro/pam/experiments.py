"""The PAM deployment study (experiment E7).

For the infinite-resource configuration and the three deployments, this
module measures what the paper's conclusion reports qualitatively:
"the impact of the different allocations on the valid scheduling of the
application" through simulation traces and exhaustive exploration, and
"quantitative results on the scheduling state-space".

Per configuration:

* size of the scheduling state space (states, transitions);
* maximal and mean step parallelism over the whole space;
* deadlock freedom;
* steady-state logger throughput (max cycle mean over the space);
* ASAP simulation: observed throughput and mean parallelism over a
  finite trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.deployment.weaver import deploy
from repro.engine import (
    AsapPolicy,
    Verdict,
    check_space,
    explore,
    simulate_model,
)
from repro.engine.analysis import max_cycle_mean_throughput
from repro.pam.application import build_pam_application
from repro.pam.platforms import (
    allocation_for,
    dual_processor_platform,
    mono_processor_platform,
    quad_processor_platform,
)
from repro.sdf.mapping import weave_sdf

#: configurations in presentation order
CONFIGURATIONS = ("infinite", "mono", "dual", "quad")


@dataclass
class DeploymentRow:
    """One row of the study table."""

    deployment: str
    states: int
    transitions: int
    truncated: bool
    #: ``AG !deadlock`` on the explored space; None when a truncated
    #: search can neither prove nor refute it
    deadlock_free: bool | None
    #: peak number of *agents firing in the same step* anywhere in the
    #: scheduling state space — the paper's "actual parallelism"
    max_concurrent_firings: int
    #: peak number of simultaneous events (finer-grained parallelism)
    max_parallelism: int
    mean_branching: float
    logger_throughput: float
    asap_logger_throughput: float
    asap_mean_parallelism: float

    def as_dict(self) -> dict[str, object]:
        return {
            "deployment": self.deployment,
            "states": self.states,
            "transitions": self.transitions,
            "truncated": self.truncated,
            "deadlock_free": self.deadlock_free,
            "max_concurrent_firings": self.max_concurrent_firings,
            "max_parallelism": self.max_parallelism,
            "mean_branching": self.mean_branching,
            "logger_throughput": self.logger_throughput,
            "asap_logger_throughput": self.asap_logger_throughput,
            "asap_mean_parallelism": self.asap_mean_parallelism,
        }


def concurrent_firings(step: frozenset[str]) -> int:
    """Number of agents starting their execution in *step*."""
    return sum(1 for event in step if event.endswith(".start"))


def build_configuration(name: str, capacity: int = 1,
                        cycles: dict[str, int] | None = None,
                        built=None):
    """Build the execution model for one study configuration.

    *cycles* optionally assigns per-agent execution times (§III-A: "an
    execution time can be specified, for example according to a
    deployment on a specific platform"); the default study uses the
    N = 0 SDF abstraction. *built* reuses an existing
    ``build_pam_application`` result instead of building a fresh one.
    """
    model, app = (built if built is not None
                  else build_pam_application(capacity=capacity,
                                             cycles=cycles))
    if name == "infinite":
        return weave_sdf(model).execution_model
    platforms = {
        "mono": mono_processor_platform,
        "dual": dual_processor_platform,
        "quad": quad_processor_platform,
    }
    try:
        platform = platforms[name]()
    except KeyError:
        raise KeyError(f"unknown configuration {name!r}") from None
    return deploy(model, app, platform, allocation_for(name)).execution_model


def study_configuration(name: str, capacity: int = 1,
                        max_states: int = 60_000,
                        sim_steps: int = 200) -> DeploymentRow:
    """Explore + simulate one configuration and collect the metrics."""
    execution_model = build_configuration(name, capacity=capacity)
    space = explore(execution_model, max_states=max_states)
    throughput = max_cycle_mean_throughput(space, "logger.start")
    peak_firings = max(
        (concurrent_firings(step) for step in space.distinct_steps()),
        default=0)
    deadlock_free = check_space(space, "AG !deadlock",
                                witness=False).verdict

    simulation = simulate_model(execution_model.clone(), AsapPolicy(),
                                sim_steps)
    trace = simulation.trace
    return DeploymentRow(
        deployment=name,
        states=space.n_states,
        transitions=space.n_transitions,
        truncated=space.truncated,
        deadlock_free=None if deadlock_free is Verdict.UNKNOWN
        else bool(deadlock_free),
        max_concurrent_firings=peak_firings,
        max_parallelism=space.max_parallelism(),
        mean_branching=round(space.mean_branching(), 3),
        logger_throughput=round(throughput, 4),
        asap_logger_throughput=round(trace.throughput("logger.start"), 4),
        asap_mean_parallelism=round(trace.mean_parallelism(), 3),
    )


def run_deployment_study(capacity: int = 1, max_states: int = 60_000,
                         sim_steps: int = 200) -> list[DeploymentRow]:
    """Run the full four-configuration study."""
    return [study_configuration(name, capacity=capacity,
                                max_states=max_states, sim_steps=sim_steps)
            for name in CONFIGURATIONS]


_YES_NO = {True: "yes", False: "NO", None: "?"}


def format_study(rows: list[DeploymentRow]) -> str:
    """Render the study as the table the benchmarks print."""
    header = (f"{'deployment':<10} {'states':>7} {'trans':>7} {'dlf':>4} "
              f"{'fire||':>6} {'maxpar':>6} {'thr(log)':>9} {'asap-thr':>9} "
              f"{'asap-par':>9}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.deployment:<10} {row.states:>7} {row.transitions:>7} "
            f"{_YES_NO[row.deadlock_free]:>4} "
            f"{row.max_concurrent_firings:>6} "
            f"{row.max_parallelism:>6} {row.logger_throughput:>9.4f} "
            f"{row.asap_logger_throughput:>9.4f} "
            f"{row.asap_mean_parallelism:>9.3f}")
    return "\n".join(lines)
