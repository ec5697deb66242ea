"""Chained ingest: fold sequential deltas with ``ArtifactStore.derive``.

Each chain starts from a stored base bundle and folds the trailing
actions as equal sequential deltas, each onto the previous derived
bundle, in the same store (the ``repro ingest`` path).  It then answers
one prefix select from the final bundle.  Warm loads load a stored
context as ``repro serve`` does when it starts.
"""

from __future__ import annotations

import gc
from pathlib import Path

from common import clock, iqm
from repro.obs import trace as obs_trace

SELECT_K = 10


class IngestStage:
    """Derive chains in given stores; warm loads of a stored context.

    A chain may advance one delta at a time (:meth:`start`, then
    :meth:`step`), so a run can spread its derives over its rounds.
    """

    def __init__(self, deltas: list) -> None:
        self.deltas = deltas
        self.derive_s: list[float] = []
        self.warm_load_s: list[float] = []
        self.selected: list[list] = []
        self.results: list = []
        self._store = None
        self._key = ""
        self._pending: list = []

    @property
    def folding(self) -> bool:
        """Whether the started chain has deltas left to fold."""
        return bool(self._pending)

    def start(self, root: Path, base_key: str) -> None:
        """Begin a chain on context ``base_key`` of the store at ``root``."""
        from repro.store.store import ArtifactStore

        self._store = ArtifactStore(str(root), create=False)
        self._key = base_key
        self._pending = list(self.deltas)

    def step(self) -> str:
        """Fold the chain's next delta; the derived context's key.

        After the last delta, one prefix select is answered from the
        final bundle for the check.
        """
        from repro.store.prefix import load_prefix_checked, selection_at
        from repro.store import warm

        delta = self._pending.pop(0)
        gc.collect()
        started = clock()
        with obs_trace.span("bench.ingest.derive"):
            result = self._store.derive(delta, context=self._key)
        self.derive_s.append(clock() - started)
        self.results.append(result)
        self._key = result.derived_key
        if not self._pending:
            record = warm.load_context_record(self._store, self._key)
            prefix, _ = load_prefix_checked(self._store, record, "cd", {})
            self.selected.append(
                None if prefix is None
                else list(selection_at(prefix, SELECT_K).seeds)
            )
        return self._key

    def chain(self, root: Path, base_key: str) -> str:
        """Fold every delta in turn onto ``base_key``; the final key."""
        self.start(root, base_key)
        while self.folding:
            key = self.step()
        return key

    def warm_loads(self, root: Path, key: str, count: int) -> None:
        """Load context ``key`` of the store at ``root``, ``count`` times."""
        from repro.store import warm
        from repro.store.store import ArtifactStore

        store = ArtifactStore(str(root), create=False)
        for _ in range(count):
            gc.collect()
            started = clock()
            with obs_trace.span("bench.ingest.warm_load"):
                record = warm.load_context_record(store, key)
                context = warm.load_serving_context(store, record)
            self.warm_load_s.append(clock() - started)
            # Freeing the loaded bundle is not part of loading it.
            del context

    def metrics(self) -> dict[str, float]:
        return {
            "ingest_s": iqm(self.derive_s),
            "warm_load_s": iqm(self.warm_load_s),
        }

    def check(self, outcome, graph, union_log, learn_seed: int) -> None:
        """Derived cd seeds equal a cold context's over the union log."""
        from repro.api import SelectionContext, get_selector

        outcome.count(len(self.derive_s) + len(self.selected))
        outcome.check(
            all(r.derived_key != r.base_key for r in self.results),
            "ingest: a delta closed no action, so no bundle was derived",
        )
        cold = SelectionContext(graph, union_log, seed=learn_seed, backend="numpy")
        expected = list(get_selector("cd").select(cold, SELECT_K).seeds)
        for seeds in self.selected:
            outcome.check(
                seeds == expected,
                f"ingest: derived prefix seeds {seeds} != cold union seeds {expected}",
            )
