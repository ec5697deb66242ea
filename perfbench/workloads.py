"""The workloads: set-up, timed runs and the traced run.

Every run walks the whole user journey — set-up, offline selection,
live serving, chained ingest — so every end-to-end metric is measured
on every workload.  The workloads differ in the store the server
answers from:

* ``fresh_store``: the bundle set-up just published, one context;
* ``grown_store``: the same store after an ingest chain folded the
  tail into it, four contexts; the queries pin the newest one, whose
  answers come from a derived bundle, and ``/healthz`` walks every
  record.

Inputs come from the workload seed: the request mix and its seed-set
pools, the cut between the stored base log and the ingested tail, the
experiment seed (Monte-Carlo streams, RIS sketches) and the learn seed
of the stored bundle.  The dataset itself is the ``flixster`` ``small``
preset (600 nodes), fixed for every seed: a per-seed dataset changes
the size of the action log, and with it every wall time, by far more
than any bound a regression check could use.
"""

from __future__ import annotations

import contextlib
import gc
import random
import shutil
from pathlib import Path

from common import Outcome, clock, iqm, log, median
from ingest import IngestStage
from layers import CONTEXT_ARTIFACTS, Instrument, SpanTable
from offline import CONFIGS, OfflineStage, warm_up
from serving import ENDPOINTS, ServeStage

DATASET_SEED = 11
BUNDLE = [
    "credit_index",
    "cd_evaluator",
    "ic_probabilities/EM",
    "lt_weights",
    "influence_params",
]
INGEST_FRACTION = 0.10
DELTAS = 3
PREFIX_K_MAX = 10

#: Whether the served store first folds an ingest chain.
GROWN = {"fresh_store": False, "grown_store": True}
#: Warm loads of the served context in every round.
WARM_LOADS = 2
#: Rounds of a timed run.  A round is a light serving burst, warm loads
#: of the served context and one derive.  The CPU speed of a shared
#: machine drifts by up to ~1.5x in spells of seconds to minutes, so
#: every metric takes samples in several rounds, apart, and reports
#: their interquartile mean.  Twelve rounds fold four chains of
#: ``DELTAS`` derives.  The offline configs' wall times swing with the
#: host's speed by more than any bound could absorb, so they are
#: per-layer metrics, from the traced run; a timed run runs each config
#: once, after the rounds, for its checks.
ROUNDS = 12
#: Shares of ``--seconds`` for the light and the loaded serving phase.
#: A timed run splits the light phase evenly over its rounds; the rest
#: of it (30-40 s on a 2-CPU machine) is set-up, the derives, the
#: offline runs and the checks.  The loaded phase feeds per-layer metrics
#: only, so only the traced run has one.
LIGHT_SHARE = 0.20
LOADED_SHARE = 0.08
#: Pipeline stages with a time of their own (the dataset is handed in
#: and learning is lazy, so ``dataset`` and ``learn`` read about 0).
PIPELINE_STAGES = ("split", "select", "evaluate")
#: Repeats of the untraced and the traced pass in a traced run.
TRACE_REPEATS = 2


class Inputs:
    """What set-up produces: dataset, ingest split, stored bundle."""

    def __init__(self, seed: int, directory: Path) -> None:
        from repro.api import SelectionContext
        from repro.data.datasets import flixster_like
        from repro.store import ArtifactStore
        from repro.store.prefix import precompute_prefix
        from repro.store.warm import (
            load_context_record,
            load_serving_context,
            warm_start,
        )
        from repro.stream.delta import ActionLogDelta

        self.seed = seed
        self.dataset = flixster_like("small", seed=DATASET_SEED)
        log_ = self.dataset.log
        actions = list(log_.actions())
        rng = random.Random(f"ingest/{seed}")
        cut = int(len(actions) * (1.0 - INGEST_FRACTION)) + rng.randint(-5, 5)
        self.base_log = log_.restrict_to_actions(actions[:cut])
        self.union_log = log_
        tail = actions[cut:]
        size = len(tail) // DELTAS
        self.deltas = [
            ActionLogDelta.from_log(
                log_.restrict_to_actions(
                    tail[i * size:(i + 1) * size if i < DELTAS - 1 else None]
                )
            )
            for i in range(DELTAS)
        ]
        self.store = directory
        context = SelectionContext(
            self.dataset.graph, self.base_log, backend="numpy", seed=seed
        )
        store = ArtifactStore(str(directory))
        warm_start(store, context, BUNDLE, dataset_name="flixster-small-base")
        record = load_context_record(store)
        serving = load_serving_context(store, record)
        precompute_prefix(store, record, serving, "cd", PREFIX_K_MAX)
        self.base_key = record["context_key"]
        self.nodes = sorted(self.dataset.graph.nodes())


def set_up(seed: int, directory: Path) -> tuple[Inputs, float]:
    """Build the inputs into ``directory``; their wall time."""
    gc.collect()
    started = clock()
    inputs = Inputs(seed, directory)
    return inputs, clock() - started


def _journey(root: Path, workload: str, seed: int, workdir: Path):
    """Set-up #0, the stages, and (``grown_store``) the first chain.

    Returns the first inputs, their set-up time, the served context's
    key and the three stages.
    """
    # One-time costs of a fresh process (lazy imports, first use of
    # each kernel) land here, not in any timed unit.
    warm_up()
    first, setup_s = set_up(seed, workdir / "store0")
    offline = OfflineStage(first.dataset, seed, DATASET_SEED)
    ingest = IngestStage(first.deltas)
    context = None
    if GROWN[workload]:
        context = ingest.chain(first.store, first.base_key)
    serve = ServeStage(root, first.store, context, first.nodes, seed)
    return first, setup_s, context or first.base_key, offline, serve, ingest


def _check_all(outcome: Outcome, inputs: Inputs, offline, serve, ingest) -> None:
    offline.check(outcome)
    serve.check(outcome)
    ingest.check(outcome, inputs.dataset.graph, inputs.union_log, inputs.seed)


def timed_run(root: Path, workload: str, seed: int, seconds: float,
              workdir: Path) -> tuple[Outcome, dict]:
    """The end-to-end metrics, with tracing off.

    After set-up #0 a run is ``ROUNDS``: each a serving burst, warm
    loads of the served context, and one derive.  A
    chain starts on a fresh set-up's store and advances one derive per
    round.  The stages take turns, so each metric samples the machine
    across the whole run rather than one stretch of it.
    """
    first, setup_s, served, offline, serve, ingest = _journey(
        root, workload, seed, workdir
    )
    setups = [setup_s]
    # What set-up built stays alive for the whole run; frozen, the
    # garbage collector stops rescanning it inside every timed unit.
    gc.collect()
    gc.freeze()
    try:
        serve.start()
        for _ in range(ROUNDS):
            serve.burst(LIGHT_SHARE * seconds / ROUNDS)
            ingest.warm_loads(first.store, served, WARM_LOADS)
            if not ingest.folding:
                inputs, setup_s = set_up(seed, workdir / f"store{len(setups)}")
                setups.append(setup_s)
                ingest.start(inputs.store, inputs.base_key)
            ingest.step()
    finally:
        serve.stop()
    checked = clock()
    for name in CONFIGS:
        offline.run(name)
    outcome = Outcome()
    _check_all(outcome, first, offline, serve, ingest)
    metrics = {"setup_s": iqm(setups)}
    metrics.update(serve.metrics())
    metrics.update(ingest.metrics())
    log(
        f"set-ups {[round(wall, 3) for wall in setups]} s, derives "
        f"{len(ingest.derive_s)}, serve start {serve.start_s:.3f} s, "
        f"checks {clock() - checked:.3f} s"
    )
    return outcome, metrics


def _replay(service, requests) -> dict[str, list[float]]:
    """The light-phase request sequence, in-process through QueryService."""
    handlers = {
        "select": service.select,
        "spread": service.spread,
        "predict": service.predict,
        "healthz": lambda _payload: service.healthz(),
    }
    times: dict[str, list[float]] = {endpoint: [] for endpoint in ENDPOINTS}
    for request in requests:
        started = clock()
        handlers[request.endpoint](request.body)
        times[request.endpoint].append((clock() - started) * 1e3)
    return times


def traced_run(root: Path, workload: str, seed: int, seconds: float,
               workdir: Path) -> tuple[Outcome, dict, list[str]]:
    """The per-layer metrics.

    After the serving phases, the layer pass (the ``cd`` config, an
    ingest chain with two warm loads, an in-process replay of the
    light-phase requests) runs ``TRACE_REPEATS`` times untraced and as
    often traced, taking turns.  Each pass starts from the same state:
    its store copy and its warmed ``QueryService`` are made before the
    clock starts, and nothing is cleaned up until it stops.
    ``trace_overhead.s`` is the median traced pass minus the median
    untraced one.  The layer tables come from the last traced pass,
    which also runs the ``mc`` config.
    """
    from repro.obs.trace import Trace, span
    from repro.store.service import QueryService

    first, _, served, offline, serve, ingest = _journey(
        root, workload, seed, workdir
    )
    gc.collect()
    gc.freeze()
    try:
        serve.start()
        serve.burst(LIGHT_SHARE * seconds, LOADED_SHARE * seconds)
    finally:
        serve.stop()
    # The untraced wall time of the ``mc`` config; the last traced pass
    # runs it again for the layer tables.
    offline.run("mc")

    # The served store of ``grown_store`` already holds the chain; the
    # layer pass derives from a store of its own.
    base, _ = set_up(seed, workdir / "layer-base")
    replay = serve.light_schedule[:200]
    walls: dict[bool, list[float]] = {False: [], True: []}
    for index in range(2 * TRACE_REPEATS):
        traced = index % 2 == 1
        copy = workdir / f"layer{index}"
        shutil.copytree(base.store, copy)
        service = QueryService(str(first.store))
        _replay(service, replay[:40])
        trace, instrument = Trace(trace_id="perfbench"), Instrument()
        try:
            if traced:
                instrument.install()
            with trace.activate() if traced else contextlib.nullcontext():
                gc.collect()
                started = clock()
                offline.run("cd")
                ingest.chain(copy, base.base_key)
                ingest.warm_loads(first.store, served, WARM_LOADS)
                before_replay = instrument.snapshot()
                with span("bench.serve_replay"):
                    replay_ms = _replay(service, replay)
                walls[traced].append(clock() - started)
                if traced and index == 2 * TRACE_REPEATS - 1:
                    offline.run("mc")
        finally:
            instrument.remove()
        if not traced:
            untraced_replay_ms = replay_ms
        shutil.rmtree(copy, ignore_errors=True)
    # The last pass was traced: its trace and timers fill the tables.
    timers = {
        name: (calls - before_replay.get(name, (0, 0.0))[0],
               total - before_replay.get(name, (0, 0.0))[1])
        for name, (calls, total) in instrument.snapshot().items()
    }

    outcome = Outcome()
    _check_all(outcome, first, offline, serve, ingest)
    spans = trace.spans
    overhead = median(walls[True]) - median(walls[False])
    metrics = {}
    metrics.update(_offline_layers(SpanTable(spans, "bench.offline."), offline))
    metrics.update(_serve_layers(
        SpanTable(spans, "bench.serve_replay"), timers, serve, untraced_replay_ms
    ))
    metrics.update(_ingest_layers(spans, ingest.results[-DELTAS:]))
    metrics["untraced.s"] = SpanTable(spans).untraced()
    metrics["trace_overhead.s"] = overhead
    lines = []
    for name in ("bench.offline.cd", "bench.offline.mc", "bench.ingest.derive",
                 "bench.ingest.warm_load", "bench.serve_replay"):
        lines.extend(SpanTable(spans, name).render(f"{workload} / {name}"))
    lines.extend(_splits(spans))
    lines.append(
        f"tracing overhead: median traced pass {median(walls[True]):.3f} s - "
        f"median untraced pass {median(walls[False]):.3f} s = {overhead:+.3f} s "
        f"({TRACE_REPEATS} passes each)"
    )
    for phase in serve.phases.values():
        lines.append(f"serve phase {phase.name}: {phase.counts}")
    return outcome, metrics, lines


def _splits(spans: list) -> list[str]:
    """Where each headline wall time goes: the dominant layers' share."""
    lines = []
    for root, names in (
        ("bench.offline.cd", ["core.spread.kappa"]),
        ("bench.offline.mc", ["kernels.mc_numpy.spread_ic"]),
        ("bench.ingest.derive", ["stream.fold_delta", "store.prefix.refresh_prefixes"]),
    ):
        table = SpanTable(spans, root)
        part = sum(table.total(name) for name in names)
        lines.append(
            f"split {root}: {' + '.join(names)} = {part:.3f} s of "
            f"{table.wall:.3f} s ({100.0 * part / (table.wall or 1.0):.0f}%)"
        )
    return lines


def _offline_layers(table: SpanTable, offline: OfflineStage) -> dict:
    # The layer passes alternate untraced and traced, untraced first.
    found = {
        "cd_run_s": iqm(offline.walls["cd"][0::2]),
        "mc_run_s": offline.walls["mc"][0],
    }
    for name in ("core.spread.kappa", "kernels.mc_numpy.spread_ic",
                 "runtime.estimator.spread"):
        found[f"{name}.calls"] = table.calls(name)
        found[f"{name}.s"] = table.total(name)
    for artifact in CONTEXT_ARTIFACTS:
        found[f"api.context.{artifact}.s"] = table.total(f"api.context.{artifact}")
    calls = offline.oracle_calls()
    found["maximization.celf.oracle_calls.cd"] = calls["celf_cd"]
    found["maximization.celf.oracle_calls.ic"] = calls["celf_ic"]
    for stage, seconds in offline.stage_seconds().items():
        if stage in PIPELINE_STAGES:
            found[f"runtime.pipeline.{stage}.s"] = seconds
    return found


def _serve_layers(table: SpanTable, timers: dict, serve: ServeStage,
                  replay_ms: dict) -> dict:
    from repro.obs.metrics import exact_percentile

    served = serve.metrics()
    found = {
        name: served[name]
        for name in ("predict_p50_ms", "loaded_p50_ms", "loaded_p90_ms")
    }
    # The coalescing worker runs /spread and /predict engine passes on
    # its own thread, outside the trace context: the timers see them.
    calls, seconds = timers.get("runtime.estimator.spread_many", (0, 0.0))
    found["runtime.estimator.spread_many.calls"] = calls
    found["runtime.estimator.spread_many.s"] = seconds
    light = serve.phases["light"]
    for endpoint in ENDPOINTS:
        in_process = median(replay_ms[endpoint])
        found[f"store.service.{endpoint}.ms"] = in_process
        found[f"transport.{endpoint}.ms"] = median(light.wire_ms[endpoint]) - in_process
    calls, seconds = timers.get("api.registry.get_selector", (0, 0.0))
    found["api.registry.get_selector.us"] = 1e6 * seconds / calls if calls else 0.0
    healthz = table.calls("store.service.healthz")
    found["store.store.entries.calls_per_healthz"] = (
        table.calls("store.store.entries") / healthz if healthz else 0.0
    )
    counters = serve.counters()
    found["store.service.coalescer.items_per_dispatch"] = counters["items_per_dispatch"]
    found["serve.select_paths.prefix_share"] = counters["prefix_share"]
    found["server.start_s"] = serve.start_s
    found["server.rss_mb"] = serve.rss_mb
    for phase in serve.phases.values():
        found[f"server.cpu_s.{phase.name}"] = phase.server_cpu_s
        found[f"client.lateness_p99_ms.{phase.name}"] = exact_percentile(
            phase.lateness_ms, 0.99
        )
        found[f"client.lateness_max_ms.{phase.name}"] = max(phase.lateness_ms)
    return found


def _ingest_layers(spans: list, results: list) -> dict:
    derive = SpanTable(spans, "bench.ingest.derive")
    loads = SpanTable(spans, "bench.ingest.warm_load")
    derives = derive.calls("bench.ingest.derive") or 1
    warm_loads = loads.calls("bench.ingest.warm_load") or 1
    put_bytes = derive.bytes["store.serialize.dump_payload"]
    tuples = sum(result.report.delta_tuples for result in results) or 1
    return {
        "stream.fold_delta.s": derive.total("stream.fold_delta") / derives,
        "stream.load_base_state.s": derive.total("stream.load_base_state") / derives,
        "store.prefix.refresh_prefixes.s":
            derive.total("store.prefix.refresh_prefixes") / derives,
        "store.store.put.calls": derive.calls("store.put") / derives,
        "store.store.put.s": derive.total("store.put") / derives,
        "store.store.put.bytes": put_bytes / derives,
        "store.store.get.calls": loads.calls("store.get") / warm_loads,
        "store.store.get.s": loads.total("store.get") / warm_loads,
        "store.store.get.bytes":
            loads.bytes["store.serialize.load_payload"] / warm_loads,
        "stream.relearned_artifacts": sum(
            len(result.report.relearned) for result in results
        ) / derives,
        "store.bytes_written_per_tuple": put_bytes / tuples,
    }
