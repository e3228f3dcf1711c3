"""Shared harness: locating the program, set-up probes, statistics,
expected-answer bookkeeping, the traced run and the result line.

The benchmark drives the program only through its public API
(``repro.workbench``, ``repro serve``, ``repro.fuzz``). In a traced run
it adds its own spans around the calls it makes into each layer and
reads the spans the program already emits through
:class:`repro.obs.capture`; nothing is added under ``src/``.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (stores, trace tables); ignored by git
WORK = ROOT / ".perfbench_work"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def require_program() -> None:
    """Put ``src/`` on the import path, or raise :class:`MissingProgram`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(
            f"no program sources under {SRC}: run the benchmark from the "
            f"root of a checkout that holds src/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """The environment for child interpreters (program on the path)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [part for part in
                      env.get("PYTHONPATH", "").split(os.pathsep) if part])
    return env


def work_dir(name: str) -> Path:
    """A fresh directory under :data:`WORK` (removed first if present)."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def p50(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """The 90th percentile (exclusive method), or the max below 10
    samples."""
    values = list(values)
    if len(values) < 10:
        return float(max(values))
    return float(statistics.quantiles(values, n=10)[8])


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of another live process in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden(workload: str) -> dict:
    """Recorded SHA-256 digests of canonical result documents for the
    seed-independent specs of *workload* (see ``record_golden.py``); a
    digest that was never recorded reads as ``None`` and fails."""
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


#: The clock of every timed end-to-end metric: CPU seconds of this
#: process, all threads. On a shared host, wall time also counts the time
#: the CPU is given to others (hypervisor steal, run-queue waits); process
#: CPU time does not. Wall times are printed in the report as notes.
cpu_clock = time.process_time

#: CPU seconds :func:`_gauge_chunk` takes at the reference speed
GAUGE_REFERENCE_S = 0.0002
#: how often, in wall seconds, the gauge samples during a pass
GAUGE_INTERVAL_S = 0.01
#: gauge samples on each side of an operation that join those taken
#: during it
GAUGE_WINDOW = 5


def _gauge_chunk(table=dict.fromkeys(range(64), 0)) -> int:
    """A fixed piece of plain-Python work: integer arithmetic, dict reads
    and writes, string formatting. It allocates nothing the cyclic
    collector tracks and runs none of the program's code."""
    total = 0
    for i in range(800):
        key = (i * 7) & 63
        table[key] = table[key] + i
        total += len(f"{i}") + table[key] % 5
    return total


def gauge_sample() -> float:
    """Thread CPU seconds of one :func:`_gauge_chunk`."""
    started = time.thread_time()
    _gauge_chunk()
    return time.thread_time() - started


class Timeline:
    """One timed pass: when each operation began and ended on the
    process CPU clock, and samples of the machine's speed around and
    during them.

    Even CPU time swings on a shared host: a busy neighbour on the same
    core slows every instruction, at times by 2x for tens of seconds.
    So a gauge sample — the thread CPU time of :func:`_gauge_chunk` —
    is taken after every operation, outside its timing, and every
    :data:`GAUGE_INTERVAL_S` by a ``SIGALRM`` handler in the main
    thread while the pass runs, so that long operations are sampled
    from within; the CPU time a sample costs inside an operation is
    taken out of the operation's time. (A CPU-time timer would not do:
    arming one makes the kernel serve the process CPU clock from its
    timer accounting, which advances in scheduler ticks.)

    :meth:`scaled` divides each operation's CPU time by the median of
    the samples taken during it and the :data:`GAUGE_WINDOW` on each
    side, over :data:`GAUGE_REFERENCE_S`: the timed metrics read as CPU
    seconds at the reference speed. The gauge runs none of the
    program's code, so a change to the program moves them in full.

    Use as a context manager around the pass; call :meth:`begin` and
    :meth:`end` around each operation, in order.
    """

    def __init__(self):
        self.ops = []        # (begin, end) on the process CPU clock
        self.samples = []    # (taken at, chunk thread seconds, cost)
        self._begun = 0.0
        self._previous_handler = None

    def _sample(self) -> None:
        started = cpu_clock()
        chunk = gauge_sample()
        self.samples.append((started, chunk, cpu_clock() - started))

    def _on_signal(self, _signum, _frame) -> None:
        self._sample()

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM,
                                               self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S,
                         GAUGE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def begin(self) -> None:
        self._begun = cpu_clock()

    def end(self) -> None:
        self.ops.append((self._begun, cpu_clock()))
        self._sample()

    def _spent_and_factors(self):
        samples = sorted(self.samples)
        times = [taken for taken, _chunk, _cost in samples]
        for begun, ended in self.ops:
            first = bisect.bisect_left(times, begun)
            last = bisect.bisect_left(times, ended)
            cost = sum(cost for _t, _c, cost in samples[first:last])
            around = samples[max(0, first - GAUGE_WINDOW):
                             last + GAUGE_WINDOW]
            factor = p50([chunk for _t, chunk, _c in around]) \
                / GAUGE_REFERENCE_S
            yield ended - begun - cost, factor

    def scaled(self) -> list:
        """Each operation's CPU seconds at the reference speed."""
        return [spent / factor
                for spent, factor in self._spent_and_factors()]

    def unscaled_s(self) -> float:
        """CPU seconds of all operations, gauge samples taken out."""
        return sum(spent for spent, _factor in self._spent_and_factors())


def end_to_end(setup_s: float, timelines, rss_mb: float) -> dict:
    """The end-to-end metrics every workload reports.

    *timelines* holds one :class:`Timeline` per timed pass; every pass
    repeats the same operations in the same order. Times are at the
    reference speed: the median pass, and the percentiles of each
    operation's median over the passes.
    """
    per_pass = [timeline.scaled() for timeline in timelines]
    per_op = [p50(times) for times in zip(*per_pass)]
    return {
        "setup_s": (setup_s, "s"),
        "pass_cpu_s": (p50(map(sum, per_pass)), "s"),
        "op_cpu_p50_s": (p50(per_op), "s"),
        "op_cpu_p90_s": (p90(per_op), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def settle() -> None:
    """Call once after warm-up, before the timed passes: collect, then
    move every object alive now out of the cyclic collector's view
    (``gc.freeze``). The collector stays on, so the program still pays
    for collecting what it allocates, but a full collection no longer
    rescans the interpreter, the program's modules and the benchmark's
    reference answers. Without it, where full collections fall depends
    on the order of operations, and one operation in ten costs twice as
    much under one seed as under another."""
    gc.collect()
    gc.freeze()


def raw_notes(timelines, pass_wall, metrics: dict) -> dict:
    """Unscaled figures for the report (not metrics): throughput per CPU
    second and per wall second, the median wall time of a pass, the
    speed factor's spread over all gauge samples, and how many
    operations lie beyond the reported p90."""
    ops = sum(len(timeline.ops) for timeline in timelines)
    factors = [chunk / GAUGE_REFERENCE_S for timeline in timelines
               for _taken, chunk, _cost in timeline.samples]
    per_op = [p50(times) for times in
              zip(*(timeline.scaled() for timeline in timelines))]
    return {
        "ops_per_cpu_s": round(
            ops / sum(timeline.unscaled_s() for timeline in timelines), 2),
        "ops_per_wall_s": round(ops / sum(pass_wall), 2),
        "wall_pass_s_p50": round(p50(pass_wall), 4),
        "gauge_samples": len(factors),
        "speed_factor_p10_p50_p90": [
            round(value, 3) for value in
            statistics.quantiles(factors, n=10)[::4]],
        "samples_beyond_p90": sum(
            value > metrics["op_cpu_p90_s"][0] for value in per_op),
    }


def child_cpu_s() -> float:
    """CPU seconds of every child process this one has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


#: gauge samples taken just before and just after a child is timed
CHILD_GAUGE_SAMPLES = 25


def child_cpu_scaled(start_and_wait):
    """Run *start_and_wait*, which starts child processes and waits for
    their end; returns their CPU seconds at the reference speed, the
    speed factor taken from gauge samples just before and just after,
    and what *start_and_wait* returned."""
    samples = [gauge_sample() for _ in range(CHILD_GAUGE_SAMPLES)]
    before = child_cpu_s()
    value = start_and_wait()
    spent = child_cpu_s() - before
    samples += [gauge_sample() for _ in range(CHILD_GAUGE_SAMPLES)]
    return spent / (p50(samples) / GAUGE_REFERENCE_S), value


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter imports the program and loads the models
# ---------------------------------------------------------------------------

SETUP_SAMPLES = 3


def measure_setup(models: dict, samples: int = SETUP_SAMPLES) -> dict:
    """Median set-up cost over *samples* fresh interpreters.

    Each sample spawns ``setup_probe.py``, which imports the program and
    loads/weaves every model document in *models*. ``setup_s`` is the
    CPU time of the whole child, from interpreter start-up to exit, at
    the reference speed (see :func:`child_cpu_scaled`); the import and
    load times are the child's own wall-clock readings.
    """
    models_file = WORK / f"setup-models-{os.getpid()}.json"
    WORK.mkdir(exist_ok=True)
    models_file.write_text(json.dumps(models), encoding="utf-8")
    cpus, imports, loads = [], [], []
    count = 0
    try:
        for _ in range(samples):
            spent, completed = child_cpu_scaled(lambda: subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"),
                 str(models_file)],
                env=child_env(), cwd=ROOT, capture_output=True, text=True,
                timeout=120, check=False))
            cpus.append(spent)
            if completed.returncode != 0:
                raise RuntimeError(
                    f"set-up probe failed: {completed.stderr.strip()}")
            report = json.loads(completed.stdout.strip().splitlines()[-1])
            imports.append(report["import_s"])
            loads.append(report["load_s"])
            count = report["loads"]
    finally:
        models_file.unlink(missing_ok=True)
    return {"setup_s": p50(cpus), "import_s": p50(imports),
            "load_s": p50(loads), "loads": count}


# ---------------------------------------------------------------------------
# expected answers
# ---------------------------------------------------------------------------

class Verdicts:
    """Per-operation correctness: each operation is checked against
    answers that do not come from the engine under test; an operation
    with any mismatch (or an error) counts once as failed."""

    def __init__(self, corrupt: bool = False):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        #: self-test hook: falsify the first expected answer consulted
        self._corrupt = corrupt

    def want(self, value):
        """An expected answer, falsified once when corrupting."""
        if self._corrupt:
            self._corrupt = False
            return ("corrupted", value)
        return value

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(f"{what}: {'; '.join(problems)}")


def compare(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

#: span name -> layer row of the self-time table
LAYER_OF = {
    "bench.pass": "unattributed",
    "bench.verify": "bench.verify",
    "bench.load": "workbench.frontends",
    "model.load": "workbench.frontends",
    "bench.run_many": "workbench",
    "workbench.run_many": "workbench",
    "farm.group": "workbench",
    "explore.bfs": "engine.explorer",
    "bench.compile_transition_system": "engine.symbolic.compile",
    "symbolic.compile": "engine.symbolic.compile",
    "symbolic.closure": "engine.symbolic.closure",
    "bench.reachable_set": "engine.symbolic.fixpoint",
    "symbolic.fixpoint": "engine.symbolic.fixpoint",
    "symbolic.fixpoint.iteration": "engine.symbolic.fixpoint",
    "bdd.reorder": "boolalg.bdd.reorder",
    "ctl.check": "engine.ctl",
    "check.witness": "engine.ctl.witness",
    "store.get": "farm.store",
    "store.put": "farm.store",
    "serve.request": "serve",
    "bench.http": "serve.transport",
    "bench.build_case": "fuzz.generate",
    "bench.check_case": "fuzz.oracle",
}

#: ExecutionModel step methods timed as aggregated leaves
STEP_METHODS = ("acceptable_steps", "snapshot", "advance",
                "configuration", "restore")


def layer_of(span) -> str:
    if span.name == "workbench.run":
        # executor work not inside a deeper span: simulate policies,
        # lint rules, result building
        return f"workbench.{span.attrs.get('kind', 'run')}"
    return LAYER_OF.get(span.name, span.name)


class Traced:
    """Context manager for one traced pass.

    Installs benchmark-side wrappers around public functions of layers
    that emit no span of their own (``ArtifactStore.get``/``put``,
    ``compile_transition_system``, ``TransitionSystem.reachable_set``,
    the ``ExecutionModel`` step methods), captures every span under a
    ``bench.pass`` root and, on exit, computes self time per layer.

    The step methods run tens of thousands of times per exploration, so
    they are not given a span each: their time is summed per enclosing
    span (a leaf cannot contain other spans) and subtracted from that
    span's self time. :mod:`repro.obs` has no public accessor for the
    current span, so the enclosing span is read from the tracer's
    context variable.
    """

    def __init__(self):
        self.wall = 0.0
        self.roots = []
        self.leaf = {}       # id(span) -> seconds in step methods
        self.leaf_calls = {name: 0 for name in STEP_METHODS}
        self.leaf_time = {name: 0.0 for name in STEP_METHODS}
        self.bdds = []
        self._tree = None
        self.counters_before = {}
        self.counters = {}
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper_factory(original))
        self._undo.append((owner, attr, original))

    def _install(self):
        from repro import obs
        from repro.boolalg.bdd import Bdd
        from repro.engine import symbolic
        from repro.engine.execution_model import ExecutionModel
        from repro.farm.store import ArtifactStore
        from repro.obs import tracer as obs_tracer

        def spanned(name):
            def factory(original):
                def wrapper(*args, **kwargs):
                    with obs.span(name):
                        return original(*args, **kwargs)
                return wrapper
            return factory

        self._patch(ArtifactStore, "get", spanned("store.get"))
        self._patch(ArtifactStore, "put", spanned("store.put"))
        self._patch(symbolic, "compile_transition_system",
                    spanned("bench.compile_transition_system"))
        self._patch(symbolic.TransitionSystem, "reachable_set",
                    spanned("bench.reachable_set"))

        leaf, calls, totals = self.leaf, self.leaf_calls, self.leaf_time
        current = obs_tracer._CURRENT
        clock = time.perf_counter

        def leaf_timer(name):
            def factory(original):
                def wrapper(*args, **kwargs):
                    started = clock()
                    try:
                        return original(*args, **kwargs)
                    finally:
                        elapsed = clock() - started
                        key = id(current.get())
                        leaf[key] = leaf.get(key, 0.0) + elapsed
                        calls[name] += 1
                        totals[name] += elapsed
                return wrapper
            return factory

        for name in STEP_METHODS:
            self._patch(ExecutionModel, name, leaf_timer(name))

        bdds = self.bdds

        def keep_managers(original):
            def wrapper(manager, *args, **kwargs):
                original(manager, *args, **kwargs)
                bdds.append(manager)
            return wrapper

        self._patch(Bdd, "__init__", keep_managers)

    def __enter__(self):
        from repro import obs
        self._install()
        self.counters_before = dict(obs.GLOBAL.snapshot()["counters"])
        self._capture = obs.capture()
        self.tracer = self._capture.__enter__()
        self._root = obs.span("bench.pass")
        self._root.__enter__()
        return self

    def __exit__(self, *exc_info):
        from repro import obs
        self._root.__exit__(None, None, None)
        self._capture.__exit__(None, None, None)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        after = obs.GLOBAL.snapshot()["counters"]
        self.counters = {name: value - self.counters_before.get(name, 0)
                         for name, value in after.items()}
        self.wall = self._root.duration
        self.roots = list(self.tracer.roots)
        return False

    # -- analysis ----------------------------------------------------------

    def tree(self):
        """The ``bench.pass`` root with orphan roots (spans opened on
        threads the benchmark does not own, e.g. server handler threads)
        re-parented under the innermost span that contains them in
        time."""
        root = self._root
        if self._tree is not None:
            return root
        self._tree = root
        for orphan in self.roots:
            if orphan is root:
                continue
            parent = root
            while True:
                inner = [child for child in parent.children
                         if child.start <= orphan.start
                         and orphan.end <= child.end
                         and child is not orphan]
                if not inner:
                    break
                parent = inner[0]
            parent.children.append(orphan)
        return root

    def self_times(self) -> dict:
        """Self time per layer row (seconds), leaves included."""
        rows: dict[str, float] = {}
        for span in self.tree().walk():
            covered = _covered(span)
            own = span.duration - covered - self.leaf.get(id(span), 0.0)
            layer = layer_of(span)
            rows[layer] = rows.get(layer, 0.0) + max(0.0, own)
        rows["engine.execution_model"] = sum(self.leaf_time.values())
        return rows

    def spans(self, name: str):
        return [span for span in self.tree().walk() if span.name == name]

    def bdd_stats(self) -> dict:
        peak = max((manager.node_count() for manager in self.bdds),
                   default=0)
        hits = misses = 0
        for manager in self.bdds:
            for bucket in manager.cache_stats().values():
                hits += bucket["hits"]
                misses += bucket["misses"]
        rate = hits / (hits + misses) if hits + misses else 0.0
        return {"nodes_peak": peak, "cache_hit_rate": rate}


def traced_with_overhead(untraced_pass, traced_pass):
    """A warm-up pass, then untraced, traced and untraced passes.

    *untraced_pass* returns its wall time; *traced_pass* returns
    ``(value, Traced)``. The overhead is the traced wall over the median
    untraced wall, minus one; bracketing the traced pass cancels drift.
    Returns ``(value, Traced, overhead)``.
    """
    import gc
    untraced_pass()
    walls = []
    gc.collect()
    walls.append(untraced_pass())
    gc.collect()
    value, trace = traced_pass()
    gc.collect()
    walls.append(untraced_pass())
    return value, trace, trace.wall / p50(walls) - 1.0


def _covered(span) -> float:
    """Length of the union of *span*'s children intervals, clipped."""
    intervals = sorted((max(child.start, span.start),
                        min(child.end, span.end))
                       for child in span.children)
    covered = 0.0
    edge = span.start
    for start, end in intervals:
        start = max(start, edge)
        if end > start:
            covered += end - start
            edge = end
    return covered


def self_time_table(rows: dict, wall: float) -> list[str]:
    lines = [f"  {'layer':34s} {'self_s':>10s} {'share':>7s}"]
    for layer, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
        share = seconds / wall if wall else 0.0
        lines.append(f"  {layer:34s} {seconds:10.4f} {share:7.1%}")
    lines.append(f"  {'(traced wall)':34s} {wall:10.4f}")
    return lines


def span_metrics(traced: "Traced") -> dict:
    """Per-layer metrics every workload reports from its traced pass."""
    rows = traced.self_times()
    counters = traced.counters

    def total(name, attr):
        return sum(span.attrs.get(attr) or 0 for span in traced.spans(name))

    bfs = traced.spans("explore.bfs")
    bfs_wall = sum(span.duration for span in bfs)
    states = total("explore.bfs", "states")
    bdd = traced.bdd_stats()
    reorder = traced.spans("bdd.reorder")
    metrics = {
        "explorer.bfs_s": (rows.get("engine.explorer", 0.0), "s"),
        "explorer.states": (states, "count"),
        "explorer.transitions": (total("explore.bfs", "transitions"),
                                 "count"),
        "explorer.states_per_s": (states / bfs_wall if bfs_wall else 0.0,
                                  "1/s"),
        "execution_model.self_s": (rows["engine.execution_model"], "s"),
        "symbolic.closure_s": (rows.get("engine.symbolic.closure", 0.0),
                               "s"),
        "symbolic.local_states": (total("symbolic.closure", "states"),
                                  "count"),
        "symbolic.compile_s": (rows.get("engine.symbolic.compile", 0.0),
                               "s"),
        "symbolic.fixpoint_s": (rows.get("engine.symbolic.fixpoint", 0.0),
                                "s"),
        "symbolic.fixpoint_iterations": (
            len(traced.spans("symbolic.fixpoint.iteration")), "count"),
        "symbolic.images": (counters.get("symbolic.images", 0), "count"),
        "symbolic.preimages": (counters.get("symbolic.preimages", 0),
                               "count"),
        "bdd.nodes_peak": (bdd["nodes_peak"], "count"),
        "bdd.reorders": (len(reorder), "count"),
        "bdd.reorder_s": (rows.get("boolalg.bdd.reorder", 0.0), "s"),
        "bdd.cache_hit_rate": (bdd["cache_hit_rate"], "ratio"),
        "ctl.check_s": (rows.get("engine.ctl", 0.0), "s"),
        "ctl.witness_s": (rows.get("engine.ctl.witness", 0.0), "s"),
        "ctl.checks": (len(traced.spans("ctl.check")), "count"),
        "sat.decisions": (counters.get("sat.decisions", 0), "count"),
        "trace.coverage": (
            1.0 - rows.get("unattributed", 0.0) / traced.wall
            if traced.wall else 0.0, "ratio"),
    }
    for name in STEP_METHODS:
        calls = traced.leaf_calls[name]
        metrics[f"execution_model.{name}_calls"] = (calls, "count")
    return metrics


def step_probe(handles, seed: int, steps: int = 200) -> dict:
    """Per-call cost of the ``ExecutionModel`` step methods.

    A fixed seeded walk over a clone of each model: at every step take
    a snapshot, enumerate the acceptable steps, read the configuration,
    advance by a seeded choice, and every fourth step restore the
    snapshot (exploration's rewind). Returns mean microseconds per call.
    """
    import random
    rng = random.Random(f"probe:{seed}")
    clock = time.perf_counter
    spent = {name: 0.0 for name in STEP_METHODS}
    calls = {name: 0 for name in STEP_METHODS}
    for handle in handles:
        model = handle.execution_model.clone()
        for index in range(steps):
            started = clock()
            token = model.snapshot()
            spent["snapshot"] += clock() - started
            started = clock()
            options = model.acceptable_steps()
            spent["acceptable_steps"] += clock() - started
            started = clock()
            model.configuration()
            spent["configuration"] += clock() - started
            for name in ("snapshot", "acceptable_steps", "configuration"):
                calls[name] += 1
            if not options:
                break
            step = options[rng.randrange(len(options))]
            started = clock()
            model.advance(step, check=False)
            spent["advance"] += clock() - started
            calls["advance"] += 1
            if index % 4 == 3:
                started = clock()
                model.restore(token)
                spent["restore"] += clock() - started
                calls["restore"] += 1
    return {f"execution_model.{name}_us":
            (spent[name] / calls[name] * 1e6 if calls[name] else 0.0, "us")
            for name in STEP_METHODS}


# ---------------------------------------------------------------------------
# the result line
# ---------------------------------------------------------------------------

def emit(workload: str, seed: int, verdicts: Verdicts, metrics: dict,
         notes: dict, table: list[str] | None = None) -> None:
    """Print a readable report, then the one-line JSON result last.

    *metrics* maps name -> (value, unit). ``failed_share`` is printed in
    the report; it is 0 on a correct run, so the result line carries it
    as the ``failed``/``attempted`` pair instead of a metric.
    """
    print(f"workload {workload}  seed {seed}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    share = verdicts.failed / verdicts.attempted if verdicts.attempted \
        else 1.0
    print(f"  {'failed_share':34s} {share:14.6f} ratio "
          f"({verdicts.failed}/{verdicts.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    for line in verdicts.mismatches:
        print(f"  MISMATCH {line}")
    if table:
        print("self time per layer (traced pass):")
        for line in table:
            print(line)
    result = {
        "correct": verdicts.failed == 0 and verdicts.attempted > 0,
        "attempted": max(1, verdicts.attempted),
        "failed": verdicts.failed if verdicts.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
