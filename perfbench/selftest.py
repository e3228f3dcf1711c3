"""Self-test of the benchmark itself, seconds per workload.

For every workload ``run.py`` knows, at tiny size and a one-second
budget:

* ``--trace 0`` and ``--trace 1`` each emit exactly the metrics that
  ``BENCHMARK.json`` names for that mode, each with its declared unit,
  and report a correct run;
* ``--corrupt`` (one expected answer falsified) makes ``failed``
  nonzero, so a wrong answer cannot pass unnoticed.

It also checks that the benchmark refuses to report without the
program: from a directory holding only ``BENCHMARK.json`` and the
benchmark's files it must exit nonzero without printing a result.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import common
from run import WORKLOADS

BARE = common.ROOT / ".perfbench_selftest"


def run(workload: str, trace: int, *extra: str, cwd=common.ROOT):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return completed


def result_of(completed) -> dict:
    if completed.returncode != 0:
        raise AssertionError(f"exit {completed.returncode}: "
                             f"{completed.stderr.strip()[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = result_of(run(workload, trace))
            units = {name: metric["unit"]
                     for name, metric in result["metrics"].items()}
            if units != declared[trace]:
                failures.append(
                    f"{workload} trace {trace}: metrics/units differ: "
                    f"missing {sorted(set(declared[trace]) - set(units))}, "
                    f"extra {sorted(set(units) - set(declared[trace]))}, "
                    f"unit mismatches "
                    f"{[n for n in units if n in declared[trace] and units[n] != declared[trace][n]]}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace {trace}: not correct")
        corrupted = result_of(run(workload, 0, "--corrupt"))
        if corrupted["failed"] == 0 or corrupted["correct"]:
            failures.append(f"{workload}: a corrupted expected answer "
                            f"went unnoticed")
        print(f"{workload}: checked", flush=True)

    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir()
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", BARE)
        shutil.copytree(common.HERE, BARE / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        bare = run("explicit_corpus", 0, cwd=BARE)
        if bare.returncode == 0 or bare.stdout.strip():
            failures.append("without the program the benchmark still "
                            "reported a result")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
