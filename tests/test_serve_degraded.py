"""Graceful degradation of the query service under injected faults.

The serving contract these tests pin down: artifact damage and engine
failures *degrade* — byte-correct cold answers, 503 + Retry-After for
transient refusals, ``/healthz`` flipping to ``degraded`` — and never
turn into a 500, a wedged worker, or a permanently stuck ingest lock.
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import time
from pathlib import Path

import pytest

from repro.api import ExperimentConfig, SelectionContext, run_experiment
from repro.data.split import train_test_split
from repro.faults.injector import FaultInjector
from repro.faults.plan import parse_fault_plan
from repro.store import ArtifactStore
from repro.store.keys import artifact_key
from repro.store.prefix import precompute_prefix
from repro.store.service import QueryService, ServiceError, make_server
from repro.store.warm import load_context_record, warm_start
from repro.utils.retry import RetryPolicy

PAYLOAD = {"tuples": [[1, 990, 1.0]]}


@pytest.fixture(scope="module")
def template_store(tmp_path_factory, flixster_mini):
    """A servable bundle with a persisted cd prefix (k_max=4)."""
    root = str(tmp_path_factory.mktemp("degraded") / "store")
    run_experiment(
        ExperimentConfig(
            dataset="flixster", scale="mini", selectors=["cd"],
            ks=[3], seed=11, store=root,
        )
    )
    train, _ = train_test_split(flixster_mini.log, every=5)
    context = SelectionContext(flixster_mini.graph, train, seed=11)
    store = ArtifactStore(root)
    warm_start(
        store,
        context,
        ["ic_probabilities/EM", "lt_weights"],
        dataset=flixster_mini,
        split={"split": True, "every": 5},
        dataset_name=flixster_mini.name,
    )
    precompute_prefix(
        store, load_context_record(store), context, "cd", k_max=4
    )
    return root


@pytest.fixture()
def store_copy(template_store, tmp_path):
    """A private, mutable copy of the template store."""
    root = tmp_path / "store"
    shutil.copytree(template_store, root)
    return str(root)


def _corrupt_prefix_payload(root: str) -> str:
    """Overwrite the cd prefix artifact's payload bytes; return its name."""
    store = ArtifactStore(root)
    record = load_context_record(store)
    row = next(
        row for row in record["prefixes"] if row["selector"] == "cd"
    )
    key = artifact_key(record["context_key"], row["name"])
    entry = store.entry(key)
    path = (
        store.root / "objects" / key[:2] / key / entry.payload_name
    )
    path.write_bytes(b"this is not a pickle")
    return row["name"]


class TestCorruptPrefixServesCold:
    """Satellite: on-disk prefix damage must not change response bytes."""

    def test_cold_answer_is_byte_identical(
        self, template_store, store_copy
    ):
        _corrupt_prefix_payload(store_copy)
        pristine = QueryService(template_store)
        damaged = QueryService(store_copy)
        request = {"selector": "cd", "k": 3}
        expected = pristine.select(request)
        observed = damaged.select(request)
        assert observed == expected
        # The pristine service answered warm, the damaged one cold.
        assert pristine.healthz()["select_paths"]["prefix"] == 1
        assert damaged.healthz()["select_paths"]["cold"] == 1

    def test_healthz_reports_the_degradation(self, store_copy):
        _corrupt_prefix_payload(store_copy)
        service = QueryService(store_copy)
        assert service.healthz()["status"] == "ok"  # nothing seen yet
        service.select({"selector": "cd", "k": 3})
        health = service.healthz()
        assert health["status"] == "degraded"
        assert health["degraded"].get("prefix_corrupt", 0) >= 1

    def test_degraded_marker_is_sticky(self, store_copy):
        service = QueryService(store_copy)
        _corrupt_prefix_payload(store_copy)
        # Drop the cached slot so the damaged artifact is re-read.
        service.select({"selector": "cd", "k": 3})
        assert service.healthz()["status"] == "degraded"
        # Later healthy requests do not clear the flag — an operator
        # should see that damage was observed, until a restart.
        service.spread({"seeds": [1, 2]})
        assert service.healthz()["status"] == "degraded"

    def test_warm_path_exception_falls_back_cold(
        self, template_store, monkeypatch
    ):
        expected = QueryService(template_store).select(
            {"selector": "cd", "k": 3}
        )
        service = QueryService(template_store)

        def boom(prefix, k):
            raise RuntimeError("damaged checkpoint list")

        monkeypatch.setattr("repro.store.service.selection_at", boom)
        observed = service.select({"selector": "cd", "k": 3})
        assert observed == expected
        health = service.healthz()
        assert health["degraded"].get("prefix_fallback", 0) == 1
        assert health["select_paths"]["cold"] == 1


class TestIngestLockRelease:
    """Satellite: a dying ingest worker must never wedge POST /ingest."""

    @pytest.mark.filterwarnings(
        # The re-raised SystemExit escaping the worker thread is the
        # behavior under test (process-death semantics preserved).
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_worker_killed_mid_derive_releases_the_lock(
        self, store_copy, monkeypatch
    ):
        import repro.stream.derive as derive_module

        def killed(*args, **kwargs):
            raise SystemExit("worker killed mid-derive")

        monkeypatch.setattr(derive_module, "derive_bundle", killed)
        service = QueryService(store_copy)
        job = service.ingest({**PAYLOAD, "wait": True})
        assert job["status"] == "failed"
        assert "killed mid-derive" in job["error"]
        # The one-at-a-time flag must be free again: a second ingest is
        # accepted (and fails the same way), not rejected with 409.
        second = service.ingest({**PAYLOAD, "wait": True})
        assert second["status"] == "failed"
        assert second["job"] == job["job"] + 1
        # GET /ingest reports both failures rather than a phantom
        # forever-"running" job.
        states = [
            entry["status"]
            for entry in service.ingest_status()["ingests"]
        ]
        assert states == ["failed", "failed"]
        assert service.healthz()["degraded"].get("ingest_failed", 0) == 2

    def test_thread_start_failure_is_a_503_and_releases(
        self, store_copy, monkeypatch
    ):
        import repro.store.service as service_module
        import repro.stream.derive as derive_module

        service = QueryService(store_copy)

        class BoomThread:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("cannot spawn threads")

        with monkeypatch.context() as patch:
            patch.setattr(service_module.threading, "Thread", BoomThread)
            with pytest.raises(ServiceError) as info:
                service.ingest(dict(PAYLOAD))
        assert info.value.status == 503
        assert info.value.retry_after == 5
        assert service.healthz()["degraded"].get("ingest_start_failed") == 1
        # With threads back (and a fast-failing derive), the next
        # ingest is accepted: the flag was not leaked.
        monkeypatch.setattr(
            derive_module,
            "derive_bundle",
            lambda *a, **k: (_ for _ in ()).throw(ValueError("bad delta")),
        )
        job = service.ingest({**PAYLOAD, "wait": True})
        assert job["status"] == "failed"


class TestEngineFaults:
    def test_injected_engine_failure_is_a_503_then_recovers(
        self, template_store
    ):
        injector = FaultInjector(parse_fault_plan("serve.spread:error@n=1"))
        service = QueryService(template_store, io=injector)
        expected = QueryService(template_store).spread({"seeds": [1, 2]})
        with pytest.raises(ServiceError) as info:
            service.spread({"seeds": [1, 2]})
        assert info.value.status == 503
        assert info.value.retry_after == 1
        assert "engine failure" in str(info.value)
        health = service.healthz()
        assert health["degraded"].get("engine_failure", 0) == 1
        # The very next evaluation succeeds, and matches a fault-free
        # service byte for byte.
        assert service.spread({"seeds": [1, 2]}) == expected

    def test_worker_death_recovers_on_next_submit(self, template_store):
        injector = FaultInjector(parse_fault_plan("serve.worker:die@n=1"))
        service = QueryService(template_store, io=injector)
        with pytest.raises(ServiceError) as info:
            service.spread({"seeds": [1, 2]})
        assert info.value.status == 503
        clean = QueryService(template_store).spread({"seeds": [1, 2]})
        assert service.spread({"seeds": [1, 2]}) == clean
        assert service.healthz()["queue"]["worker_deaths"] == 1

    def test_wedged_engine_times_out_with_retry_after(self, template_store):
        injector = FaultInjector(
            parse_fault_plan("serve.spread:delay@n=1@delay=2.0")
        )
        service = QueryService(
            template_store, io=injector, evaluation_timeout=0.1
        )
        with pytest.raises(ServiceError) as info:
            service.spread({"seeds": [1, 2]})
        assert info.value.status == 503
        assert info.value.retry_after == 5
        assert "timed out" in str(info.value)


class TestRetryAfterOverHttp:
    def test_503_carries_the_retry_after_header(self, template_store):
        injector = FaultInjector(parse_fault_plan("serve.spread:error@n=1"))
        server = make_server(template_store, io=injector)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            connection = http.client.HTTPConnection("127.0.0.1", port)
            connection.request(
                "POST", "/spread",
                body=json.dumps({"seeds": [1, 2]}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 503
            assert response.getheader("Retry-After") == "1"
            assert "engine failure" in body["error"]
        finally:
            server.shutdown()
            server.server_close()


class TestHealthzWithUnreadableStore:
    """RELIABILITY.md row 15: liveness never fails on a store read."""

    @staticmethod
    def _healthz_over_http(server):
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            status, body = response.status, json.loads(response.read())
            connection.close()
        finally:
            server.shutdown()
            server.server_close()
        return status, body

    @staticmethod
    def _assert_degraded(status, body):
        assert status == 200
        assert body["contexts"] is None
        assert body["status"] == "degraded"
        assert body["degraded"]["store_read_failed"] >= 1

    def test_every_manifest_read_failing(self, template_store):
        injector = FaultInjector(parse_fault_plan("read:eio@p=1"))
        server = make_server(
            template_store,
            io=injector,
            retry=RetryPolicy(attempts=2, base_delay_s=0.0),
        )
        status, body = self._healthz_over_http(server)
        self._assert_degraded(status, body)
        assert body["degraded"]["store_read_retry"] == 2

    def test_listing_failing_after_a_healthy_probe(self, store_copy):
        server = make_server(store_copy, retry=RetryPolicy(attempts=1))
        assert server.RequestHandlerClass.service.healthz()["contexts"] == 1
        # The manifests are now cached; the walk itself must still fail.
        objects = Path(store_copy) / "objects"
        objects.rename(objects.with_name("moved"))
        objects.write_text("not a directory")
        status, body = self._healthz_over_http(server)
        self._assert_degraded(status, body)


class TestShedLoad:
    """Satellite: sustained queue-full traffic sheds cleanly.

    With a depth-1 queue and the evaluator gated shut, one request is
    being served, one waits in the queue, and every further submit must
    be rejected with a clean 503 — exact counter math, no dead worker,
    and the gated requests still complete correctly after release.
    """

    def test_queue_full_rejects_exactly_the_overflow(
        self, template_store, monkeypatch
    ):
        service = QueryService(template_store, queue_depth=1)
        slot = service.slot(None)
        real = slot.context.cd_evaluator()
        gate = threading.Event()
        serving = threading.Event()

        class Gated:
            def spread(self, seeds):
                serving.set()
                assert gate.wait(10), "test gate never released"
                return real.spread(seeds)

        monkeypatch.setattr(slot.context, "cd_evaluator", lambda: Gated())
        results: dict[int, object] = {}

        def request(index: int) -> None:
            try:
                results[index] = service.spread({"seeds": [1, 2]})
            except ServiceError as error:
                results[index] = error

        first = threading.Thread(target=request, args=(0,))
        first.start()
        assert serving.wait(10)  # the worker is mid-batch, queue empty
        second = threading.Thread(target=request, args=(1,))
        second.start()
        deadline = time.monotonic() + 10
        while service._coalescer._queue.qsize() < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        overflow = [threading.Thread(target=request, args=(i,))
                    for i in (2, 3, 4)]
        for thread in overflow:
            thread.start()
        for thread in overflow:
            thread.join(10)
        shed = [results[i] for i in (2, 3, 4)]
        assert all(isinstance(r, ServiceError) for r in shed)
        assert all(r.status == 503 and r.retry_after == 1 for r in shed)
        gate.set()
        first.join(10)
        second.join(10)
        expected = real.spread([1, 2])
        assert results[0]["spread"] == expected
        assert results[1]["spread"] == expected
        stats = service._coalescer.stats()
        assert stats["rejected"] == 3
        assert stats["submitted"] == 2
        assert stats["worker_deaths"] == 0
        assert service._coalescer._worker.is_alive()
        # And the service keeps answering after the burst.
        monkeypatch.undo()
        follow_up = service.spread({"seeds": [1, 2]})
        assert follow_up["spread"] == expected
