"""Live serving: ``repro serve`` in a subprocess, driven over HTTP.

The client is an open loop in this process: one schedule of due times
at a fixed rate, split round-robin over client threads that each keep
one persistent :class:`http.client.HTTPConnection`.  The light phase
uses one thread, so the server never holds two of its requests at once
and a wire time is the path's own cost, with no queueing; the loaded
phase uses two.  Every request is timed
from its due time, so a stall also charges the requests queued behind
it; how late the generator ran is reported per phase.  The traffic mix
is 40% ``/select`` (cd, k in 1..10), 20% ``/spread`` (1-3 seeds), 20%
``/predict`` (IC) and 20% ``/healthz``.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

from common import clock, iqm, log, median

LIGHT_THREADS = 1
LOADED_THREADS = 2
LIGHT_RPS = 50.0
LOADED_RPS = 60.0
K_MAX = 10
#: Seed sets per endpoint and run.  Each is asked about several times
#: (the identical-bodies check); enough of them that the p50 does not
#: hang on which few sets a seed drew.
SEED_POOL = 64
ENDPOINTS = ("select", "spread", "predict", "healthz")
_BANNER = re.compile(r"http://([^:/\s]+):(\d+)")


class Request:
    __slots__ = ("due", "endpoint", "method", "path", "body")

    def __init__(self, due, endpoint, method, path, body) -> None:
        self.due = due
        self.endpoint = endpoint
        self.method = method
        self.path = path
        self.body = body


def seed_pools(rng: random.Random, nodes: list) -> dict[str, list]:
    """The seed sets ``/spread`` and ``/predict`` ask about in a run."""
    return {
        name: [
            sorted(rng.sample(nodes, rng.randint(1, 3)))
            for _ in range(SEED_POOL)
        ]
        for name in ("spread", "predict")
    }


def make_schedule(rng: random.Random, pools: dict, context: str | None,
                  rate: float, seconds: float) -> list[Request]:
    """The seeded request mix, due at ``1/rate`` intervals.

    ``context`` pins every query to one stored context (needed once the
    store holds more than one).
    """
    pin = {} if context is None else {"context": context}
    requests = []
    for index in range(max(1, int(rate * seconds))):
        due = index / rate
        draw = rng.random()
        if draw < 0.4:
            payload = {"selector": "cd", "k": rng.randint(1, K_MAX), **pin}
            requests.append(Request(due, "select", "POST", "/select", payload))
        elif draw < 0.6:
            payload = {"seeds": rng.choice(pools["spread"]), **pin}
            requests.append(Request(due, "spread", "POST", "/spread", payload))
        elif draw < 0.8:
            payload = {"seeds": rng.choice(pools["predict"]), "method": "IC", **pin}
            requests.append(Request(due, "predict", "POST", "/predict", payload))
        else:
            requests.append(Request(due, "healthz", "GET", "/healthz", None))
    return requests


class PhaseResult:
    """What one phase observed: latencies, lateness, outcomes, bodies.

    Latencies are kept for answered (200) requests only: a fast 503 or
    500 is not served work, and must not make the figures look better.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.lock = threading.Lock()
        self.from_due_ms: dict[str, list[float]] = {e: [] for e in ENDPOINTS}
        self.wire_ms: dict[str, list[float]] = {e: [] for e in ENDPOINTS}
        self.lateness_ms: list[float] = []
        self.counts = {"attempted": 0, "ok": 0, "503": 0, "5xx": 0,
                       "other": 0, "transport": 0}
        self.bodies: dict[str, set[bytes]] = {}
        self.server_cpu_s = 0.0

    def record(self, request: Request, status, body: bytes, due_ms: float,
               wire_ms: float, late_ms: float) -> None:
        with self.lock:
            self.counts["attempted"] += 1
            self.lateness_ms.append(late_ms)
            if status is None:
                self.counts["transport"] += 1
            elif status == 200:
                self.counts["ok"] += 1
                self.from_due_ms[request.endpoint].append(due_ms)
                self.wire_ms[request.endpoint].append(wire_ms)
                if request.endpoint != "healthz":
                    key = request.path + json.dumps(request.body, sort_keys=True)
                    self.bodies.setdefault(key, set()).add(body)
            elif status == 503:
                self.counts["503"] += 1
            elif status >= 500:
                self.counts["5xx"] += 1
            else:
                self.counts["other"] += 1

    @property
    def failed(self) -> int:
        return self.counts["attempted"] - self.counts["ok"]

    def all_from_due(self) -> list[float]:
        return [value for values in self.from_due_ms.values() for value in values]


def _exchange(connection, request: Request) -> tuple[int, bytes]:
    body = None if request.body is None else json.dumps(request.body)
    headers = {"Content-Type": "application/json"} if body else {}
    connection.request(request.method, request.path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def _client(port: int, requests: list[Request], start: float,
            result: PhaseResult) -> None:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for request in requests:
            due = start + request.due
            wait = due - clock()
            if wait > 0:
                threading.Event().wait(wait)
            sent = clock()
            try:
                status, body = _exchange(connection, request)
            except (OSError, http.client.HTTPException):
                status, body = None, b""
                connection.close()
            done = clock()
            result.record(request, status, body, (done - due) * 1e3,
                          (done - sent) * 1e3, (sent - due) * 1e3)
    finally:
        connection.close()


class Server:
    """``python -m repro.cli serve --port 0`` over a store, as a subprocess."""

    def __init__(self, root: Path, store: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--store", str(store), "--port", "0"],
            cwd=str(root),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = self._banner(timeout_s=60.0)
        match = _BANNER.search(banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve printed no address: {banner!r}")
        self.port = int(match.group(2))

    def _banner(self, timeout_s: float) -> str:
        line: list[str] = []
        reader = threading.Thread(
            target=lambda: line.append(self.process.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(timeout_s)
        return line[0] if line else ""

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def get(self, path: str) -> bytes:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            return connection.getresponse().read()
        finally:
            connection.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        if self.process.stdout is not None:
            self.process.stdout.close()


def run_phase(server: Server, result: PhaseResult,
              requests: list[Request], threads: int) -> None:
    """Send ``requests`` on schedule; add what was observed to ``result``.

    The client's own garbage collector is off for the phase: a pause in
    the load generator would be charged to the server's latency.
    """
    gc.collect()
    shares = [requests[i::threads] for i in range(threads)]
    cpu_before = server.cpu_s()
    start = clock() + 0.1
    clients = [
        threading.Thread(target=_client, args=(server.port, share, start, result))
        for share in shares
    ]
    gc.disable()
    try:
        for client in clients:
            client.start()
        for client in clients:
            client.join()
    finally:
        gc.enable()
    result.server_cpu_s += server.cpu_s() - cpu_before


def parse_exposition(page: str) -> dict[str, float]:
    """``{series: value}`` from a Prometheus text page (no histograms)."""
    values = {}
    for line in page.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            try:
                values[series] = float(value)
            except ValueError:
                continue
    return values


class ServeStage:
    """Light and loaded phases against one server; wire-level checks.

    A run may split each phase into several bursts between other work;
    the bursts of a phase add up to one sample set.  ``context`` pins
    the queries to one stored context (``None``: the store's only one).
    """

    def __init__(self, root: Path, store: Path, context: str | None,
                 nodes: list, seed: int) -> None:
        self.root = root
        self.store = store
        self.context = context
        self.phases = {name: PhaseResult(name) for name in ("light", "loaded")}
        self.server: Server | None = None
        self.scrape: dict[str, float] = {}
        self.rss_mb = 0.0
        self.start_s = 0.0
        self.light_schedule: list[Request] = []
        #: The light-phase wire p50 of each burst, per endpoint.
        self.burst_p50_ms: dict[str, list[float]] = {e: [] for e in ENDPOINTS}
        self._rng = random.Random(f"serve/{seed}")
        self._pools = seed_pools(self._rng, nodes)

    def _schedule(self, rate: float, seconds: float) -> list[Request]:
        return make_schedule(self._rng, self._pools, self.context, rate, seconds)

    def start(self) -> None:
        """Start the server and load its serving slot, untimed."""
        started = clock()
        self.server = Server(self.root, self.store)
        self.start_s = clock() - started
        warm = make_schedule(
            random.Random(0), self._pools, self.context, 1000.0, 0.06
        )
        run_phase(self.server, PhaseResult("warmup"), warm, LOADED_THREADS)

    def burst(self, light_s: float, loaded_s: float = 0.0) -> None:
        """One light and, if ``loaded_s``, one loaded stretch of the open loop."""
        light = self._schedule(LIGHT_RPS, light_s)
        self.light_schedule.extend(light)
        wire_ms = self.phases["light"].wire_ms
        before = {endpoint: len(wire_ms[endpoint]) for endpoint in ENDPOINTS}
        run_phase(self.server, self.phases["light"], light, LIGHT_THREADS)
        for endpoint in ENDPOINTS:
            answered = wire_ms[endpoint][before[endpoint]:]
            if answered:
                self.burst_p50_ms[endpoint].append(median(answered))
        if loaded_s:
            loaded = self._schedule(LOADED_RPS, loaded_s)
            run_phase(self.server, self.phases["loaded"], loaded, LOADED_THREADS)

    def stop(self) -> None:
        """Scrape the server's counters and stop it."""
        if self.server is None:
            return
        try:
            self.scrape = parse_exposition(self.server.get("/metrics").decode())
            self.rss_mb = self.server.rss_mb()
        finally:
            self.server.stop()
        from repro.obs.metrics import exact_percentile

        log("serve light burst p50s (ms): " + "; ".join(
            f"{endpoint} " + " ".join(f"{value:.2f}" for value in values)
            for endpoint, values in self.burst_p50_ms.items()
        ))
        for phase in self.phases.values():
            if phase.lateness_ms:
                log(
                    f"serve {phase.name}: {phase.counts}, lateness p99 "
                    f"{exact_percentile(phase.lateness_ms, 0.99):.2f} ms, "
                    f"max {max(phase.lateness_ms):.2f} ms"
                )

    def metrics(self) -> dict[str, float]:
        from repro.obs.metrics import exact_percentile

        # Each burst's p50 follows the host's speed during that burst;
        # their interquartile mean follows its average over the run.
        found = {
            f"{endpoint}_p50_ms": iqm(self.burst_p50_ms[endpoint])
            for endpoint in ENDPOINTS
        }
        latencies = self.phases["loaded"].all_from_due()
        if latencies:
            found["loaded_p50_ms"] = median(latencies)
            found["loaded_p90_ms"] = exact_percentile(latencies, 0.90)
        return found

    def check(self, outcome) -> None:
        """Every request answered; identical requests, identical bodies;
        wire /select == the in-process cold path."""
        from repro.store.service import QueryService

        for phase in self.phases.values():
            if not phase.counts["attempted"]:
                continue  # a timed run has no loaded phase
            outcome.count(phase.counts["attempted"], phase.failed)
            outcome.check(
                phase.failed == 0,
                f"serve {phase.name}: {phase.failed} requests not answered: "
                f"{phase.counts}",
            )
            for endpoint, samples in phase.wire_ms.items():
                outcome.check(
                    bool(samples), f"serve {phase.name}: no /{endpoint} answered"
                )
            for key, bodies in phase.bodies.items():
                outcome.check(
                    len(bodies) == 1,
                    f"serve {phase.name}: {len(bodies)} distinct bodies for {key}",
                )
        wire = {}
        for phase in self.phases.values():
            for key, bodies in phase.bodies.items():
                if key.startswith("/select"):
                    wire.setdefault(key, set()).update(bodies)
        cold = QueryService(str(self.store))
        cold.slot(self.context).record.pop("prefixes", None)
        for key, bodies in sorted(wire.items()):
            payload = json.loads(key[len("/select"):])
            expected = json.dumps(cold.select(payload), sort_keys=True).encode()
            outcome.check(
                bodies == {expected},
                f"serve: wire /select {payload} differs from the in-process cold path",
            )

    def counters(self) -> dict[str, float]:
        scrape = self.scrape
        submitted = scrape.get("repro_coalescer_submitted_total", 0.0)
        dispatches = scrape.get("repro_coalescer_dispatches_total", 0.0)
        paths = {
            path: scrape.get(f'repro_select_requests_total{{path="{path}"}}', 0.0)
            for path in ("prefix", "resume", "cold")
        }
        return {
            "items_per_dispatch": submitted / dispatches if dispatches else 0.0,
            "prefix_share": paths["prefix"] / (sum(paths.values()) or 1.0),
        }
