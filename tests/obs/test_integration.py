"""The tracer against the real stack: engine spans, thread and process
fan-out, and the out-of-band guarantee (artifacts never change)."""

import os

import pytest

from repro import obs
from repro.obs import GLOBAL
from repro.workbench import CheckSpec, ExploreSpec, SimulateSpec, Workbench

APPLICATION = """
application obsdemo {
  agent src
  agent mid
  agent dst
  place src -> mid push 1 pop 1 capacity 2
  place mid -> dst push 1 pop 1 capacity 2
}
"""


def make_workbench(names):
    workbench = Workbench()
    for name in names:
        workbench.add(APPLICATION, name=name)
    return workbench


class TestEngineSpans:
    def test_symbolic_check_emits_the_promised_spans(self, tracer):
        workbench = make_workbench(["app"])
        result = workbench.run(CheckSpec("app", "AG !deadlock",
                                         strategy="symbolic"))
        assert result.status == "ok"
        names = {span.name for span in tracer.spans()}
        assert {"model.load", "workbench.run", "ctl.check",
                "symbolic.compile", "symbolic.closure",
                "symbolic.fixpoint",
                "symbolic.fixpoint.iteration"} <= names
        run = next(s for s in tracer.spans()
                   if s.name == "workbench.run")
        assert run.attrs["model"] == "app"
        assert run.attrs["status"] == "ok"
        check = next(s for s in run.walk() if s.name == "ctl.check")
        assert check.attrs["verdict"] == "HOLDS"

    def test_explicit_explore_emits_bfs_span(self, tracer):
        workbench = make_workbench(["app"])
        workbench.run(ExploreSpec("app", max_states=200))
        bfs = next(s for s in tracer.spans()
                   if s.name == "explore.bfs")
        assert bfs.attrs["states"] > 0
        assert bfs.attrs["truncated"] in (True, False)

    def test_bfs_counts_local_table_misses(self):
        from repro.engine import explore
        from tests.engine.test_symbolic_equivalence import sdf_chain

        model = sdf_chain(3, capacity=2)
        alphabets = [c.constrained_events for c in model.constraints]
        before = GLOBAL.counter("explore.local_advances")
        with obs.capture() as tracer:
            space = explore(model, strategy="explicit")
        bfs = next(s for s in tracer.spans() if s.name == "explore.bfs")
        # one runtime advance per distinct local transition, one row per
        # distinct local state — never one per global edge
        misses = {(index, space.keys[source][index], step & alphabet)
                  for source, _target, step in space.edges()
                  for index, alphabet in enumerate(alphabets)}
        rows = {(index, key[index]) for key in space.keys
                for index in range(len(alphabets))}
        assert not space.truncated
        assert bfs.attrs["local_advances"] == len(misses)
        assert bfs.attrs["local_states"] == len(rows)
        assert len(misses) < space.n_transitions * len(alphabets)
        assert GLOBAL.counter("explore.local_advances") == \
            before + len(misses)
        with obs.capture() as tracer:
            explore(model, strategy="symbolic")
        bfs = next(s for s in tracer.spans() if s.name == "explore.bfs")
        assert bfs.attrs["local_advances"] == 0  # closed tables only
        assert bfs.attrs["local_states"] >= len(rows)

    def test_engine_counters_accumulate(self, tracer):
        before = {name: GLOBAL.counter(name)
                  for name in ("symbolic.compiles", "symbolic.images",
                               "model.loads", "explore.spaces")}
        workbench = make_workbench(["app"])
        workbench.run(CheckSpec("app", "AG !deadlock",
                                strategy="symbolic"))
        workbench.run(ExploreSpec("app", max_states=100))
        assert GLOBAL.counter("model.loads") == before["model.loads"] + 1
        assert GLOBAL.counter("symbolic.compiles") == \
            before["symbolic.compiles"] + 1
        assert GLOBAL.counter("symbolic.images") > \
            before["symbolic.images"]
        assert GLOBAL.counter("explore.spaces") == \
            before["explore.spaces"] + 1

    def test_forced_reorder_is_traced_and_counted(self, tracer):
        from repro.boolalg import And, Bdd, Or, Var

        before_runs = GLOBAL.counter("bdd.reorders")
        bdd = Bdd(order=[f"x{i}" for i in range(8)])
        function = Or(*(And(Var(f"x{i}"), Var(f"x{(i + 3) % 8}"))
                        for i in range(8)))
        root = bdd.from_expr(function)
        bdd.reorder(roots=[root])
        assert GLOBAL.counter("bdd.reorders") == before_runs + 1
        span = next(s for s in tracer.spans()
                    if s.name == "bdd.reorder")
        assert span.attrs["auto"] is False
        assert span.attrs["sifted"] >= 1
        assert "bdd.reorder_s" in GLOBAL.snapshot()["latency"]


class TestThreadBackend:
    def test_eight_thread_run_many_nests_every_group(self, tracer):
        names = [f"m{i}" for i in range(8)]
        workbench = make_workbench(names)
        specs = [SimulateSpec(name, steps=4) for name in names]
        results = workbench.run_many(specs, backend="thread", workers=8)
        assert [r.status for r in results] == ["ok"] * 8
        [root] = [r for r in tracer.roots
                  if r.name == "workbench.run_many"]
        assert root.attrs["backend"] == "thread"
        groups = [c for c in root.children if c.name == "farm.group"]
        assert len(groups) == 8
        assert {g.attrs["model"] for g in groups} == set(names)
        for group in groups:
            assert [c.name for c in group.children] == ["workbench.run"]


class TestProcessBackend:
    def test_worker_spans_ship_back_position_stable(self, tracer):
        workbench = make_workbench(["wa", "wb"])
        specs = [CheckSpec("wa", "AG !deadlock", max_states=300),
                 CheckSpec("wb", "EF deadlock", max_states=300)]
        results = workbench.run_many(specs, backend="process",
                                     workers=2)
        assert [r.status for r in results] == ["ok", "ok"]
        [root] = [r for r in tracer.roots
                  if r.name == "workbench.run_many"]
        workers = [c for c in root.children if c.name == "farm.worker"]
        # adopted in submission order — wa's group first — regardless
        # of which worker process finished first
        assert [w.attrs["model"] for w in workers] == ["wa", "wb"]
        for worker in workers:
            assert worker.pid != os.getpid()
            names = {span.name for span in worker.walk()}
            assert {"model.load", "workbench.run", "ctl.check"} <= names
            assert worker.start >= 0.0

    def test_untraced_process_run_ships_no_envelope(self):
        """With tracing off the worker returns the legacy pair list;
        results are identical either way."""
        assert not obs.tracing_active()
        workbench = make_workbench(["wa", "wb"])
        specs = [SimulateSpec("wa", steps=3), SimulateSpec("wb", steps=3)]
        serial = [r.to_json() for r in
                  workbench.run_many(specs, backend="serial")]
        process = [r.to_json() for r in
                   workbench.run_many(specs, backend="process",
                                      workers=2)]
        assert process == serial


@pytest.mark.parametrize("backend,workers", [("serial", 1),
                                             ("thread", 4),
                                             ("process", 2)])
def test_artifacts_identical_traced_or_not(backend, workers):
    """The out-of-band guarantee, per backend: the canonical result
    JSON of a batch is byte-identical with tracing on and off."""
    specs = [SimulateSpec("wa", steps=5),
             ExploreSpec("wa", max_states=200),
             CheckSpec("wb", "AG !deadlock", max_states=300,
                       witness=True)]

    def run_once():
        workbench = make_workbench(["wa", "wb"])
        return [r.to_json() for r in
                workbench.run_many(specs, backend=backend,
                                   workers=workers)]

    assert not obs.tracing_active()
    untraced = run_once()
    obs.enable_tracing()
    try:
        traced = run_once()
    finally:
        obs.disable_tracing()
    assert traced == untraced


class TestThreadFanOut:
    def test_two_worker_fuzz_round_nests_every_span(self, tracer):
        from repro.fuzz import run_round
        with obs.span("caller"):
            report = run_round(17, cases=2, frontends=("ccsl",), workers=2)
        assert report["ok"]
        assert [root.name for root in tracer.roots] == ["caller"]
        assert len(list(tracer.spans())) > 1

    def test_every_thread_pool_submission_copies_the_context(self):
        """Pool threads do not inherit context variables: work handed
        to a ThreadPoolExecutor must be submitted through
        ``contextvars.copy_context().run`` or its spans become orphan
        roots. Scanned per function over the whole package."""
        import ast
        import pathlib

        import repro

        def is_thread_pool(node):
            return isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)
            ) == "ThreadPoolExecutor"

        def copies_context(node):
            return (isinstance(node, ast.Attribute) and node.attr == "run"
                    and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "attr", None)
                    == "copy_context")

        submissions, offenders = 0, []
        for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                pools = set()
                for node in ast.walk(function):
                    if isinstance(node, ast.Assign) and is_thread_pool(
                            node.value):
                        pools.update(target.id for target in node.targets
                                     if isinstance(target, ast.Name))
                    if isinstance(node, ast.withitem) and is_thread_pool(
                            node.context_expr) and isinstance(
                            node.optional_vars, ast.Name):
                        pools.add(node.optional_vars.id)
                for node in ast.walk(function):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "submit"
                            and isinstance(node.func.value, ast.Name)
                            and node.func.value.id in pools):
                        submissions += 1
                        if not node.args or not copies_context(node.args[0]):
                            offenders.append(f"{path.name}:{node.lineno}")
        assert submissions >= 2  # farm/backend.py and fuzz/runner.py
        assert offenders == []
