"""Workload ``serve_mixed``: a closed loop against ``repro serve``.

Why: the artifact store (``farm.store``) and the server's model cache
(``serve``) are idle in both corpora. Here the same store is used two
ways — a repeated request reads its results back, a new one computes
them and writes them through — and the model cache both hits and
evicts, because the working set is three times its size.

Traffic: a ``repro serve`` server (``repro.serve.serve``, run inside
the benchmark process) with ``workers=2``, a store directory and the
default model cache of 8. Two clients' request sequences are
interleaved and sent one at a time from one thread, over a fresh HTTP
connection per request, in passes of 2 x 100 requests until the run's
time is up; every answer is complete before the next request leaves.
Each request ships one of 24 small models inline — 8 SigPML chains
(3-4 agents, 4-27 states), 8 fork-joins (2-3 workers) and 8 CCSL mixes
(4-5 events) — with two specs from check (auto strategy), simulate,
explore and lint; new requests take the models in turn and the ten
two-spec combinations in turn. Every second request of a client repeats
one of its own earlier requests of the same pass byte for byte (the
measured share is printed as ``repeat_share``), some recent enough to
find their model cached, some not; the rest are new. The seed names
the models and seeds the simulations; the traffic is otherwise fixed:
with seeded model order, spec pairs and repeat targets, the p90 request
cost spread by a fifth over five seeds (model compiles depend on the
order).
Labels carry the client and pass, so a new spec is never in the store
and a repeat always is. Models-to-cache ratio: 24 / 8 = 3.

The server runs in the benchmark's process so that a request's CPU time
(client and server threads together, see :class:`common.Timeline`) can
be read per request; one request at a time keeps the two vCPUs of a
small machine from deciding the figures. ``setup_s`` adds the CPU time
of a separate ``repro serve --workers 2 --store DIR`` process from
spawn through ready to a graceful SIGTERM.

Expected answers: every served result document must be byte-identical
to what an offline ``Workbench.run_many`` computes for the same
(model, spec) in the benchmark process after the timed phase, and a
request's ``cached`` flags must match whether it is a repeat.

The traced run replays one pass the same way, so the server's spans
land in the benchmark's trace and every count (store hits and misses,
model compiles and evictions) is exact.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import signal
import statistics
import subprocess
import sys
import time

import common
import models

NAME = "serve_mixed"
CLIENTS = 2
PER_CLIENT = 100
TINY_PER_CLIENT = 6
MENU = ("check-deadlock", "check-reach", "simulate", "explore", "lint")
MENU_PAIRS = tuple(itertools.combinations(MENU, 2))
#: how many of the client's new requests back each repeat reaches, in
#: turn: the nearer ones find their model still in the server's model
#: cache, the farthest finds it evicted
REPEAT_DISTANCES = (0, 2, 7, 19)


def build_models(seed: int) -> dict:
    docs = {}
    for index in range(8):
        rng = models.rng_for(seed, NAME, "chain", index)
        docs[f"chain{index}"] = models.chain(
            rng, 3 + index % 2, 1 + index // 4)
    for index in range(8):
        rng = models.rng_for(seed, NAME, "fork", index)
        docs[f"fork{index}"] = models.fork_join(
            rng, 2 + index % 2, 1 + index // 4)
    for index in range(8):
        rng = models.rng_for(seed, NAME, "ccsl", index)
        docs[f"ccsl{index}"] = models.ccsl_mix(rng, 4 + index % 2, index)
    return docs


def _spec(item: str, model: dict, label: str, rng) -> dict:
    """One spec document against the request-local model ``m``."""
    target = (model.get("agents") or model.get("events"))[-1]
    if model["family"] != "ccsl":
        target = f"{target}.start"
    if item == "check-deadlock":
        doc = {"kind": "check", "property": "AG !deadlock"}
    elif item == "check-reach":
        doc = {"kind": "check", "property": f"EF occurs({target})"}
    elif item == "simulate":
        doc = {"kind": "simulate", "steps": 30,
               "policy": {"name": "random", "seed": rng.randrange(1 << 16)}}
    elif item == "explore":
        doc = {"kind": "explore", "max_states": 2000}
    else:
        doc = {"kind": "lint"}
    return dict(doc, model="m", label=label)


def client_sequence(seed: int, docs: dict, client: int, pass_no: int,
                    count: int) -> list:
    """``[(request document, is_repeat)]`` for one client and pass.

    The traffic is fixed, so that two seeds cost the same: every second
    request is new and takes the next model (the clients start half
    way apart) with the next two-spec combination of :data:`MENU`; the
    others repeat one of the client's new requests, reaching back by
    :data:`REPEAT_DISTANCES` in turn. The seed names the models and
    seeds the simulations. Every pass sends the same requests in the
    same order; only the labels, and so the store keys, carry the pass.
    """
    rng = models.rng_for(seed, NAME, "client", client)
    names = sorted(docs)
    shift = client * len(names) // CLIENTS
    sent, sequence = [], []
    for index in range(count):
        if index % 2:
            latest = len(sent) - 1
            back = REPEAT_DISTANCES[latest % len(REPEAT_DISTANCES)]
            sequence.append((sent[max(0, latest - back)], True))
            continue
        name = names[(len(sent) + shift) % len(names)]
        items = MENU_PAIRS[len(sent) % len(MENU_PAIRS)]
        runs = [_spec(item, docs[name],
                      f"p{pass_no}c{client}r{index}:{name}:{item}", rng)
                for item in items]
        request = {"models": {"m": docs[name]["doc"]}, "runs": runs}
        sent.append(request)
        sequence.append((request, False))
    return sequence


def post(port: int, request: dict):
    """POST one request; returns ``(seconds, envelopes, summary)``."""
    body = json.dumps(request).encode("utf-8")
    started = time.perf_counter()
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request("POST", "/run", body,
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    elapsed = time.perf_counter() - started
    if response.status != 200:
        raise RuntimeError(f"server answered {response.status}: {payload!r}")
    lines = [json.loads(line) for line in payload.splitlines() if line]
    return elapsed, lines[:-1], lines[-1]


class Ledger:
    """Every answer, for the offline comparison after timing, and the
    transport time of each request. A served result is kept as the
    digest of its canonical document, so that the benchmark's memory
    does not grow with the number of passes."""

    def __init__(self):
        self.answers = []    # (request, is_repeat, envelopes, summary)
        self.transport = []  # client wall minus server wall per request

    def add(self, request, repeat, elapsed, envelopes, summary):
        from repro.farm.fingerprint import canonical_json
        envelopes = [dict(envelope, result=common.digest(
                         canonical_json(envelope["result"])))
                     for envelope in envelopes]
        self.answers.append((request, repeat, envelopes, summary))
        self.transport.append(elapsed - summary.get("wall_s", 0.0))


def interleaved(seed: int, docs: dict, pass_no: int, per_client: int):
    """Both clients' sequences of one pass, alternating."""
    sequences = [client_sequence(seed, docs, client, pass_no, per_client)
                 for client in range(CLIENTS)]
    return [item for pair in zip(*sequences) for item in pair]


def replay(port: int, sequence, ledger: Ledger, span: bool = False,
           timeline=None):
    """Send *sequence* one request at a time; *span* wraps each HTTP
    call in a ``bench.http`` span (traced run). A *timeline* records
    each request; the server runs in this process, so its threads' CPU
    time counts."""
    from repro import obs
    for request, repeat in sequence:
        if timeline is not None:
            timeline.begin()
        if span:
            with obs.span("bench.http"):
                elapsed, envelopes, summary = post(port, request)
        else:
            elapsed, envelopes, summary = post(port, request)
        if timeline is not None:
            timeline.end()
        ledger.add(request, repeat, elapsed, envelopes, summary)


def verify(ledger: Ledger, docs: dict, verdicts: common.Verdicts) -> None:
    """Compare every answer with an offline ``run_many`` of the same
    documents (the reference the server must match byte for byte)."""
    from repro.farm.fingerprint import canonical_json
    from repro.workbench import RunSpec, Workbench, load, source_from_doc

    by_model: dict[str, dict] = {}
    for request, _repeat, _envelopes, _summary in ledger.answers:
        for run in request["runs"]:
            by_model.setdefault(canonical_json(request["models"]["m"]),
                                {})[run["label"]] = run
    reference = {}
    for model_json, runs in by_model.items():
        doc = json.loads(model_json)
        workbench = Workbench()
        workbench.attach("m", load(source_from_doc(doc),
                                   **doc.get("options", {})))
        labels = sorted(runs)
        results = workbench.run_many(
            [RunSpec.from_doc(runs[label]) for label in labels],
            backend="serial")
        for label, result in zip(labels, results):
            reference[label] = common.digest(
                canonical_json(result.to_doc()))
    for request, repeat, envelopes, summary in ledger.answers:
        problems: list[str] = []
        common.compare(problems, "results", len(envelopes),
                       verdicts.want(len(request["runs"])))
        common.compare(problems, "errors", summary.get("errors"), 0)
        for envelope in envelopes:
            run = request["runs"][envelope["index"]]
            if envelope["result"] != reference[run["label"]]:
                problems.append(f"{run['label']}: served document differs "
                                f"from offline run_many")
            common.compare(problems, f"{run['label']} cached",
                           envelope["cached"], repeat)
        verdicts.record(request["runs"][0]["label"], problems)


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------

def start_server(store_dir):
    """Spawn ``repro serve``; returns ``(process, port)`` once it
    answers ``/healthz``."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--store", str(store_dir)],
        cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    try:
        line = process.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        port = int(line.split("listening on ")[1].split()[0]
                   .rsplit(":", 1)[1])
        _get(port, "/healthz")
    except BaseException:
        stop_server(process)
        raise
    return process, port


def server_setup_cpu_s() -> float:
    """Median CPU seconds, at the reference speed, of a ``repro serve``
    process from spawn through ready to a graceful stop."""
    cpus = []
    for attempt in range(common.SETUP_SAMPLES):
        store = common.work_dir(f"serve-setup{attempt}")
        spent, _none = common.child_cpu_scaled(
            lambda: stop_server(start_server(store)[0]))
        cpus.append(spent)
    return common.p50(cpus)


def stop_server(process) -> None:
    """SIGTERM (graceful drain), then wait; kill if it hangs."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()


def _get(port: int, path: str) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    if response.status != 200:
        raise RuntimeError(f"GET {path}: {response.status}")
    return json.loads(payload)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run(args, layer_metrics) -> None:
    docs = build_models(args.seed)
    per_client = TINY_PER_CLIENT if args.size == "tiny" else PER_CLIENT
    verdicts = common.Verdicts(corrupt=args.corrupt)
    setup = common.measure_setup({name: model["doc"]
                                  for name, model in docs.items()})
    if args.trace:
        _traced(args, docs, per_client, setup, verdicts, layer_metrics)
    else:
        _timed(args, docs, per_client, setup, verdicts)


def _timed(args, docs, per_client, setup, verdicts) -> None:
    from repro.serve import serve

    setup_s = setup["setup_s"] + server_setup_cpu_s()
    ledger = Ledger()
    timelines, walls = [], []
    server = serve(port=0, workers=2,
                   store=common.work_dir("serve-store")).start()
    port = server.server_address[1]
    try:
        replay(port, interleaved(args.seed, docs, -1, per_client), ledger)
        common.settle()
        started = time.perf_counter()
        pass_no = 0
        while not timelines or time.perf_counter() - started < args.seconds:
            sequence = interleaved(args.seed, docs, pass_no, per_client)
            begin = time.perf_counter()
            with common.Timeline() as timeline:
                replay(port, sequence, ledger, timeline=timeline)
            walls.append(time.perf_counter() - begin)
            timelines.append(timeline)
            pass_no += 1
        rss = common.peak_rss_mb()
    finally:
        server.drain()
    verify(ledger, docs, verdicts)
    requests = len(sequence) * len(timelines)
    timed = ledger.answers[-requests:]
    metrics = common.end_to_end(setup_s, timelines, rss)
    notes = {
        "models": len(docs), "max_models": 8,
        "models_to_cache_ratio": len(docs) / 8,
        "clients": CLIENTS, "passes": len(timelines),
        "requests": requests,
        "repeat_share": round(
            sum(repeat for _r, repeat, _e, _s in timed) / requests, 3),
        "transport_wall_s_p50": round(
            common.p50(ledger.transport[-requests:]), 6),
        **common.raw_notes(timelines, walls, metrics),
    }
    common.emit(NAME, args.seed, verdicts, metrics, notes)


def _in_process_pass(args, docs, per_client, store, verdicts,
                     traced: bool):
    """One pass of the interleaved sequence against an in-process
    server; returns ``(wall, ledger, metrics document, trace)``."""
    from repro.serve import serve

    ledger = Ledger()
    server = serve(port=0, workers=2, store=store).start()
    port = server.server_address[1]
    trace = common.Traced() if traced else None
    try:
        gc.collect()
        begin = time.perf_counter()
        if trace is not None:
            trace.__enter__()
        try:
            replay(port, interleaved(args.seed, docs, 0, per_client),
                   ledger, span=traced)
        finally:
            if trace is not None:
                trace.__exit__(None, None, None)
        wall = time.perf_counter() - begin
        document = _get(port, "/metrics")
    finally:
        server.drain()
    verify(ledger, docs, verdicts)
    return wall, ledger, document, trace


def _traced(args, docs, per_client, setup, verdicts, layer_metrics):
    from repro.workbench import load, source_from_doc

    stores = iter(range(4))

    def untraced():
        store = common.work_dir(f"serve-pass{next(stores)}")
        return _in_process_pass(args, docs, per_client, store, verdicts,
                                False)[0]

    def traced_pass():
        store = common.work_dir(f"serve-pass{next(stores)}")
        _wall, ledger, document, trace = _in_process_pass(
            args, docs, per_client, store, verdicts, True)
        return (ledger, document), trace

    (ledger, document), trace, overhead = common.traced_with_overhead(
        untraced, traced_pass)
    counters = document["counters"]
    latency = document["latency"]
    hits, misses = counters["store_hits"], counters["store_misses"]
    gets = [span.duration for span in trace.spans("store.get")]
    puts = [span.duration for span in trace.spans("store.put")]
    extra = {
        "store.hits": (hits, "count"),
        "store.misses": (misses, "count"),
        "store.hit_rate": (hits / (hits + misses), "ratio"),
        "store.get_us": (statistics.fmean(gets) * 1e6 if gets else 0.0,
                         "us"),
        "store.put_us": (statistics.fmean(puts) * 1e6 if puts else 0.0,
                         "us"),
        "serve.request_s_p50": (latency["request_s"]["p50_s"], "s"),
        "serve.transport_s_p50": (common.p50(ledger.transport), "s"),
        "serve.run_s_mean": (latency["run_s"]["mean_s"], "s"),
        "serve.compile_s_mean": (latency["compile_s"]["mean_s"], "s"),
        "serve.model_compiles": (counters["model_compiles"], "count"),
        "serve.model_evictions": (counters["model_evictions"], "count"),
        "serve.resident_nodes": (document["gauges"]["resident_bdd_nodes"],
                                 "count"),
    }
    metrics = layer_metrics(setup, trace, overhead, extra)
    handles = [load(source_from_doc(model["doc"]))
               for model in docs.values()]
    metrics.update(common.step_probe(handles, args.seed))
    requests = len(ledger.answers)
    notes = {
        "models": len(docs), "max_models": 8,
        "models_to_cache_ratio": len(docs) / 8,
        "requests": requests,
        "repeat_share": round(sum(r for _q, r, _e, _s in ledger.answers)
                              / requests, 3),
    }
    table = common.self_time_table(trace.self_times(), trace.wall)
    common.emit(NAME, args.seed, verdicts, metrics, notes, table)
