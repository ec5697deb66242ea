"""Per-layer tracing from the benchmark's side of the program boundary.

:class:`Instrument` wraps the public functions of each layer in
:func:`repro.obs.trace.span` while a traced run is active and restores
them afterwards.  The program's own spans (``pipeline.*``,
``maximize.celf``, ``store.get``/``store.put``/``store.derive``,
``serve.select``) nest with these wrappers inside one
:class:`~repro.obs.trace.Trace`, so one instrument fills the layer
table.  Methods are wrapped on their class; a module function is
wrapped where it is looked up (``repro.stream.derive`` imports
``fold_delta`` and ``refresh_prefixes`` by name).

:class:`SpanTable` folds a trace into count, total and self time per
span name.  The self time of the benchmark's own ``bench.*`` root spans
is the part of the wall time that no wrapper covers.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict

from common import clock
from repro.obs import trace as obs_trace

CONTEXT_ARTIFACTS = (
    "credit_index",
    "cd_evaluator",
    "ic_probabilities",
    "sketches",
    "compiled_log",
    "influence_params",
)


class Instrument:
    """Installs the layer wrappers while a traced run is active.

    Besides opening spans, every wrapper adds its calls and seconds to
    :attr:`timers`, which also sees calls on threads the trace context
    does not reach (the service's coalescing worker).
    """

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self.timers: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])

    def _replace(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str) -> None:
        fn = owner.__dict__[attr]
        timers, lock = self.timers, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                with obs_trace.span(name):
                    return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                with lock:
                    row = timers[name]
                    row[0] += 1
                    row[1] += elapsed

        self._replace(owner, attr, wrapper)

    def snapshot(self) -> dict[str, tuple[int, float]]:
        with self._lock:
            return {name: (row[0], row[1]) for name, row in self.timers.items()}

    def install(self) -> None:
        import repro.store.service as service
        import repro.store.store as store
        import repro.store.warm as warm
        import repro.stream.derive as derive
        from repro.api.context import SelectionContext
        from repro.core.spread import CDSpreadEvaluator
        from repro.kernels.mc_numpy import CompiledDiffusion
        from repro.runtime.estimator import SpreadEstimator

        self._wrap(CDSpreadEvaluator, "kappa", "core.spread.kappa")
        self._wrap(CompiledDiffusion, "spread_ic", "kernels.mc_numpy.spread_ic")
        self._wrap(SpreadEstimator, "spread", "runtime.estimator.spread")
        self._wrap(SpreadEstimator, "spread_many", "runtime.estimator.spread_many")
        for artifact in CONTEXT_ARTIFACTS:
            self._wrap(SelectionContext, artifact, f"api.context.{artifact}")
        for endpoint in ("select", "spread", "predict", "healthz"):
            self._wrap(service.QueryService, endpoint, f"store.service.{endpoint}")
        self._wrap(service, "get_selector", "api.registry.get_selector")
        self._wrap(store.ArtifactStore, "entries", "store.store.entries")
        self._wrap(warm, "load_context_record", "store.warm.load_context_record")
        self._wrap(warm, "load_serving_context", "store.warm.load_serving_context")
        self._wrap(derive, "fold_delta", "stream.fold_delta")
        self._wrap(derive, "load_base_state", "stream.load_base_state")
        self._wrap(derive, "refresh_prefixes", "store.prefix.refresh_prefixes")

        dump, load = store.dump_payload, store.load_payload

        @functools.wraps(dump)
        def dump_payload(obj):
            with obs_trace.span("store.serialize.dump_payload") as opened:
                data = dump(obj)
                opened.set(bytes=len(data))
            return data

        @functools.wraps(load)
        def load_payload(data):
            with obs_trace.span("store.serialize.load_payload", bytes=len(data)):
                return load(data)

        self._replace(store, "dump_payload", dump_payload)
        self._replace(store, "load_payload", load_payload)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SpanTable:
    """Count, total and self seconds (and bytes) per span name.

    ``root`` picks the subtrees to fold: every span whose name starts
    with it, or the top-level spans when ``None``.
    """

    def __init__(self, spans: list, root: str | None = None) -> None:
        children = defaultdict(list)
        ids = {recorded.span_id for recorded in spans}
        for recorded in spans:
            children[recorded.parent_id].append(recorded)
        roots = [
            s for s in spans
            if (
                s.name.startswith(root) if root is not None
                else s.parent_id not in ids
            )
        ]
        self.rows: dict[str, list[float]] = {}
        self.bytes: dict[str, int] = defaultdict(int)
        self.wall = sum(top.duration_s for top in roots)
        stack = list(roots)
        while stack:
            current = stack.pop()
            kids = children.get(current.span_id, [])
            covered = sum(kid.duration_s for kid in kids)
            row = self.rows.setdefault(current.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += current.duration_s
            row[2] += max(0.0, current.duration_s - covered)
            self.bytes[current.name] += int(current.attrs.get("bytes", 0))
            stack.extend(kids)

    def calls(self, name: str) -> int:
        return int(self.rows.get(name, [0, 0.0, 0.0])[0])

    def total(self, name: str) -> float:
        return self.rows.get(name, [0, 0.0, 0.0])[1]

    def untraced(self) -> float:
        """Root self time: the wall time no wrapper or program span covers."""
        return sum(
            row[2] for name, row in self.rows.items() if name.startswith("bench.")
        )

    def render(self, title: str) -> list[str]:
        lines = [
            f"layer table: {title} (wall {self.wall:.3f} s)",
            f"  {'span':<40} {'count':>7} {'total_s':>10} {'self_s':>10} {'self%':>6}",
        ]
        wall = self.wall or 1.0
        for name, (count, total, own) in sorted(
            self.rows.items(), key=lambda item: -item[1][2]
        ):
            lines.append(
                f"  {name:<40} {int(count):>7} {total:>10.4f} {own:>10.4f} "
                f"{100.0 * own / wall:>5.1f}%"
            )
        lines.append(
            f"  untraced remainder (bench.* self time): {self.untraced():.4f} s "
            f"= {100.0 * self.untraced() / wall:.1f}% of wall"
        )
        return lines

