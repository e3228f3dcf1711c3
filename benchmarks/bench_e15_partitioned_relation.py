"""E15 — partitioned transition relation vs the monolithic product.

The topology class that motivates conjunctive partitioning: wrap-around
grids (toruses). On an open mesh the connection-topology variable order
keeps every coupled constraint pair close, so the monolithic ``∧ T_i``
stays polite. Wrap-around edges destroy that: no linear order can keep
both ends of a ring adjacent, and the eager monolithic conjunction
explodes — ``torus(5,5)`` costs the monolithic build over 30s and ~8M
BDD nodes before the first image, and at ``torus(6,6)`` the eager
conjoin alone needs ~9 minutes (at the edge of the 600s per-file bench
budget, and beyond it under any load), while the partitioned
representation never conjoins the parts at all and runs compile *plus*
the exact fixpoint in seconds — a ~25x gap that widens with size. The
headline asserts are structural (node allocations) and wall-clock (≥2x
on the largest config both modes can build comfortably); the
infeasibility pin checks the torus size whose monolithic build busts
the checkable budget several times over yet verifies in well under a
minute partitioned.

Each torus edge that wraps around carries one pipeline delay token
(plus one unit of slack capacity), the classic software-pipelining
arrangement that keeps a cyclic SDF graph live.
"""

import time

import pytest

from repro import obs
from repro.engine.symbolic import TransitionSystem, symbolic_reachable
from repro.sdf import SdfBuilder, weave_sdf

#: wall-clock budget (seconds) that defines "checkable" for the
#: infeasibility pin — the monolithic/base engine blows ~4.5x past it
#: on ``INFEASIBLE_CONFIG`` (the eager conjoin alone takes ~9 minutes),
#: the partitioned engine stays well inside it.
CHECKABLE_BUDGET_S = 120.0

#: the largest torus both relation modes can build comfortably — the
#: ≥2x assert runs here (measured margin ~4.5x wall, ~5x nodes).
LARGEST_BOTH_MODES = (4, 5)

#: the monolithic build needs ~9 minutes here (at (5, 5) it already
#: needs >30s and ~8M nodes); partitioned computes the exact 2772-state
#: fixpoint in ~17s.
INFEASIBLE_CONFIG = (6, 6)


def torus(rows: int, cols: int, capacity: int = 1):
    """A rows×cols wrap-around grid of SDF agents, one delay token on
    every wrapping edge so the pipeline can rotate."""
    builder = SdfBuilder(f"torus{rows}x{cols}c{capacity}")
    for row in range(rows):
        for col in range(cols):
            builder.agent(f"n{row}_{col}")
    for row in range(rows):
        for col in range(cols):
            wrap_col = col + 1 == cols
            wrap_row = row + 1 == rows
            builder.connect(f"n{row}_{col}", f"n{row}_{(col + 1) % cols}",
                            capacity=capacity + (1 if wrap_col else 0),
                            delay=1 if wrap_col else 0)
            builder.connect(f"n{row}_{col}", f"n{(row + 1) % rows}_{col}",
                            capacity=capacity + (1 if wrap_row else 0),
                            delay=1 if wrap_row else 0)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def _fixpoint_seconds(model, mode: str) -> tuple[float, "TransitionSystem"]:
    """Compile + exact reachable fixpoint under *mode*, timed."""
    started = time.perf_counter()
    system = TransitionSystem(model, relation_mode=mode)
    reached = system.reachable()
    assert not reached.truncated
    return time.perf_counter() - started, system


class TestPartitionedBeyondMonolithic:
    def test_partitioned_2x_on_largest_config(self):
        """The acceptance pin: ≥2x over monolithic where both run."""
        rows, cols = LARGEST_BOTH_MODES
        partitioned_s, part_system = _fixpoint_seconds(torus(rows, cols),
                                                       "partitioned")
        monolithic_s, mono_system = _fixpoint_seconds(torus(rows, cols),
                                                      "monolithic")
        # structural, deterministic: the monolithic build allocates the
        # conjunction the partitioned product never materializes
        assert mono_system.bdd.node_count() >= \
            2 * part_system.bdd.node_count()
        # wall-clock, the measured margin is ~4.5x
        assert monolithic_s >= 2 * partitioned_s, (
            f"partitioned {partitioned_s:.2f}s vs monolithic "
            f"{monolithic_s:.2f}s — expected >= 2x")
        print(f"\ntorus{rows}x{cols}: partitioned {partitioned_s:.2f}s "
              f"({part_system.bdd.node_count()} nodes) vs monolithic "
              f"{monolithic_s:.2f}s ({mono_system.bdd.node_count()} nodes)")

    def test_previously_infeasible_torus_is_checkable(self):
        """A config whose monolithic relation build blows the bench
        budget is checkable partitioned — the exact reachable fixpoint
        and the exact deadlock-freedom verdict land in seconds."""
        rows, cols = INFEASIBLE_CONFIG
        model = torus(rows, cols)
        started = time.perf_counter()
        reached = symbolic_reachable(model)
        deadlock_free = reached.is_deadlock_free()
        elapsed = time.perf_counter() - started
        assert not reached.truncated
        assert reached.count() == 2772  # exact, not truncated
        assert deadlock_free
        assert elapsed < CHECKABLE_BUDGET_S, (
            f"torus{rows}x{cols} fixpoint took {elapsed:.1f}s — beyond "
            f"the {CHECKABLE_BUDGET_S:.0f}s checkable budget")
        print(f"\ntorus{rows}x{cols}: deadlock-free over "
              f"{reached.count()} states in {elapsed:.2f}s")

    def test_modes_agree_on_small_torus(self):
        """Both relation layouts denote the same system (the corpus-wide
        sweep lives in tests/engine; this pins the bench family)."""
        from repro.fuzz import battery_texts, compare
        model = torus(3, 3)
        comparison = compare(model, battery_texts(model), 5_000)
        assert comparison.agree, [str(m) for m in comparison.mismatches]


@pytest.mark.benchmark(group="e15-partitioned")
@pytest.mark.parametrize("mode", ["partitioned", "monolithic"])
def bench_torus_fixpoint_mode(benchmark, mode):
    """Compile + fixpoint under each relation layout, torus(4,4)."""
    model = torus(4, 4)

    def fixpoint():
        model.clear_caches()
        system = TransitionSystem(model, relation_mode=mode)
        reached = system.reachable()
        return system, reached

    system, reached = benchmark.pedantic(fixpoint, rounds=1, iterations=1)
    assert reached.count() == 140
    benchmark.extra_info["engine"] = obs.engine_snapshot(system)


@pytest.mark.benchmark(group="e15-scaling")
@pytest.mark.parametrize("size", [(3, 3), (4, 4), (4, 5)])
def bench_torus_scaling_partitioned(benchmark, size):
    """Partitioned cost growth along the torus family."""
    rows, cols = size
    model = torus(rows, cols)

    def fixpoint():
        model.clear_caches()
        system = TransitionSystem(model)
        reached = system.reachable()
        return system, reached

    system, reached = benchmark.pedantic(fixpoint, rounds=1, iterations=1)
    assert not reached.truncated
    benchmark.extra_info["engine"] = obs.engine_snapshot(system)
