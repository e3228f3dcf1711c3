"""Simulation campaigns: many policies/seeds over one execution model.

The MoCC defines the space of schedules; a campaign samples it — the
systematic version of "simulation traces" in the paper's study. Results
aggregate per policy: throughput of chosen events, parallelism,
deadlock rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.execution_model import ExecutionModel
from repro.engine.policies import (
    AsapPolicy,
    MinimalPolicy,
    RandomPolicy,
    SchedulingPolicy,
)
from repro.engine.simulator import simulate_model


@dataclass
class CampaignRow:
    """Aggregated results for one policy."""

    policy: str
    runs: int
    steps: int
    deadlock_rate: float
    mean_parallelism: float
    #: event -> mean occurrences per step across runs
    throughput: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """A JSON-serializable view (used by the workbench artifacts)."""
        return {
            "policy": self.policy,
            "runs": self.runs,
            "steps": self.steps,
            "deadlock_rate": self.deadlock_rate,
            "mean_parallelism": self.mean_parallelism,
            "throughput": dict(self.throughput),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignRow":
        return cls(policy=doc["policy"], runs=doc["runs"],
                   steps=doc["steps"], deadlock_rate=doc["deadlock_rate"],
                   mean_parallelism=doc["mean_parallelism"],
                   throughput=dict(doc["throughput"]))


def default_policies(seeds: int = 5) -> list[SchedulingPolicy]:
    """ASAP, minimal, and *seeds* random policies."""
    policies: list[SchedulingPolicy] = [AsapPolicy(), MinimalPolicy()]
    policies.extend(RandomPolicy(seed=seed) for seed in range(seeds))
    return policies


def campaign(model: ExecutionModel, steps: int,
             watch_events: list[str],
             policies: list[SchedulingPolicy] | None = None
             ) -> list[CampaignRow]:
    """Run every policy on a fresh clone of *model*; aggregate rows.

    Random policies with distinct seeds are grouped into a single
    ``random`` row (mean over seeds); deterministic policies get one row
    each.
    """
    policies = policies if policies is not None else default_policies()
    buckets: dict[str, list] = {}
    # one working clone for the whole campaign: every run rewinds to the
    # initial snapshot, so all policies share the model's symbolic
    # kernel (compiled constraint nodes, step enumerations) across runs
    work = model.clone()
    initial = work.snapshot()
    for policy in policies:
        work.restore(initial)
        result = simulate_model(work, policy, steps)
        buckets.setdefault(policy.name, []).append(result)

    rows = []
    for name, results in buckets.items():
        runs = len(results)
        throughput = {
            event: sum(r.trace.throughput(event) for r in results) / runs
            for event in watch_events}
        rows.append(CampaignRow(
            policy=name,
            runs=runs,
            steps=steps,
            deadlock_rate=sum(r.deadlocked for r in results) / runs,
            mean_parallelism=sum(
                r.trace.mean_parallelism() for r in results) / runs,
            throughput={k: round(v, 4) for k, v in throughput.items()},
        ))
    return rows


def format_campaign(rows: list[CampaignRow]) -> str:
    """Render campaign rows as an aligned text table."""
    events = sorted({event for row in rows for event in row.throughput})
    header = f"{'policy':<10} {'runs':>4} {'dlk%':>5} {'par':>6} " + " ".join(
        f"{event:>14}" for event in events)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = " ".join(f"{row.throughput.get(event, 0.0):>14.4f}"
                         for event in events)
        lines.append(
            f"{row.policy:<10} {row.runs:>4} {row.deadlock_rate:>5.0%} "
            f"{row.mean_parallelism:>6.3f} {cells}")
    return "\n".join(lines)
