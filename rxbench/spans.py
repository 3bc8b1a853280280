"""In-memory span tracer that wraps the stack's layer boundaries.

The benchmark times each layer from the outside: :func:`layer_hooks` names
the public functions and methods that form the boundaries of the ``serve``,
``query``, ``build`` and ``persist`` layers, and :class:`Tracer` replaces
each name *where its caller looks it up* (a class attribute, or the module
global the calling module imported) with a wrapper that records one span.

A span is ``(name, start, end, parent, request id)``.  Spans nest through a
stack, so a span's parent is the innermost span open when it started, and a
span's *self time* is its duration minus the durations of its children.
Self times summed per layer, plus the time no span covered (the
remainder), add up to the wall-clock the tracer was enabled for.

Nothing is patched while the tracer is disabled: the untraced run executes
the unmodified program.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

#: The four layers of the stack on the request, update and restart paths.
LAYERS = ("serve", "query", "build", "persist")

#: Counts read off a boundary's return value, keyed by span name.
COUNTERS = {
    "query.trace": lambda launch: launch.counters.traversal_rounds,
}

#: Request id a flush's spans share: the first request of its window.
WINDOW_IDS = {
    "serve.flush": lambda service, *args, **kwargs: (
        service.scheduler.pending[0].request_id if service.scheduler.pending else -1
    ),
}


def layer_hooks() -> list[tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every wrapped boundary.

    The span name's prefix before the first dot is its layer.  ``owner`` is
    a class (method boundaries) or a module (a function name imported by
    the calling module).
    """
    from repro.core import keycodec, rx_index
    from repro.persist import segments, store
    from repro.rtx import bvh, geometry, pipeline
    from repro.serve.cache import ResultCache
    from repro.serve.scheduler import MicroBatchScheduler
    from repro.serve.service import IndexService
    from repro.serve.snapshot import EpochManager

    codecs = [keycodec.KeyCodec, *keycodec.KeyCodec.__subclasses__()]
    buffers = [geometry.PrimitiveBuffer, *geometry.PrimitiveBuffer.__subclasses__()]
    hooks = [
        # serve: admission, flush, cache, coalesced launch + demux, epochs
        ("serve.admit", IndexService, "submit_point"),
        ("serve.admit", IndexService, "submit_range"),
        ("serve.flush", IndexService, "pump"),
        ("serve.update", IndexService, "update"),
        ("serve.checkpoint", IndexService, "checkpoint"),
        ("serve.cache", ResultCache, "get"),
        ("serve.cache", ResultCache, "put"),
        ("serve.launch_window", MicroBatchScheduler, "launch_window"),
        ("serve.epoch", EpochManager, "pin"),
        ("serve.epoch", EpochManager, "current"),
        # query: key codec to rays, pipeline launch, intersection tests
        *(("query.rays", cls, "point_ray_batch") for cls in codecs),
        *(("query.rays", cls, "range_ray_batch") for cls in codecs),
        ("query.trace", pipeline.Pipeline, "launch"),
        *(("query.intersect", cls, "intersect_pairs") for cls in buffers),
        ("query.lookup", rx_index.RXIndex, "point_lookup"),
        # build: encode, Morton, hierarchy, compaction, delta, engine bind
        ("build.index", rx_index.RXIndex, "build"),
        ("build.update", rx_index.RXIndex, "update"),
        *(("build.encode", cls, "encode_points") for cls in codecs),
        ("build.encode", rx_index, "build_input_for_points"),
        ("build.morton", bvh, "morton_encode_3d"),
        ("build.bvh", pipeline, "build_bvh"),
        ("build.bvh", pipeline, "build_forest"),
        ("build.compact", pipeline, "compact_accel"),
        ("build.delta", pipeline, "delta_update_forest"),
        ("build.bind", pipeline.Pipeline, "__post_init__"),
        # persist: save, segment writes, fsync, checksums, load, install
        ("persist.save", rx_index.RXIndex, "save"),
        ("persist.save", rx_index, "save_snapshot"),
        ("persist.write", store, "write_segment"),
        ("persist.fsync", os, "fsync"),
        ("persist.checksum", segments, "crc32c"),
        ("persist.checksum", store, "payload_crc"),
        ("persist.checksum", store, "payload_sha256"),
        ("persist.load", rx_index, "load_snapshot"),
        ("persist.install", rx_index.RXIndex, "load"),
    ]
    # A hook only wraps an attribute its owner defines itself; subclasses
    # that inherit a method share the base class's wrapper.
    return [
        (name, owner, attr)
        for name, owner, attr in hooks
        if attr in vars(owner)
    ]


class Tracer:
    """Collects spans while enabled; restores every patched name on disable."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rids: list[int] = []
        #: request id stamped on spans opened while no request is known
        self.rid = -1
        #: seconds the tracer was enabled for (the traced wall-clock)
        self.wall = 0.0
        #: per span name, the sum of its :data:`COUNTERS` reading
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._enabled_at: float | None = None

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #

    def _wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, rids, stack = self.parents, self.rids, self._stack
        clock = time.perf_counter
        count = COUNTERS.get(name)
        counts = self.counts
        window_id = WINDOW_IDS.get(name)

        def traced(*args, **kwargs):
            outer_rid = self.rid
            if window_id is not None:
                self.rid = window_id(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            rids.append(self.rid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                self.rid = outer_rid
            rid = getattr(result, "request_id", None)
            if rid is not None:
                rids[idx] = rid
            if count is not None:
                counts[name] += count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def enable(self) -> None:
        if self._enabled_at is not None:
            return
        for name, owner, attr in layer_hooks():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        self._enabled_at = time.perf_counter()

    def disable(self) -> None:
        if self._enabled_at is None:
            return
        self.wall += time.perf_counter() - self._enabled_at
        self._enabled_at = None
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.names)

    def span_totals(self) -> tuple[dict, dict, dict]:
        """``(self seconds, inclusive seconds, calls)`` per span name."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                children[parent] += durations[i]
        own: dict = defaultdict(float)
        inclusive: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for i, name in enumerate(self.names):
            own[name] += durations[i] - children[i]
            inclusive[name] += durations[i]
            calls[name] += 1
        return dict(own), dict(inclusive), dict(calls)

    def root_seconds(self) -> float:
        """Summed duration of the spans no other span encloses."""
        return sum(
            self.ends[i] - self.starts[i]
            for i in range(len(self.names))
            if self.parents[i] < 0
        )

    def layer_self_seconds(self) -> dict[str, float]:
        own, _, _ = self.span_totals()
        layers = {layer: 0.0 for layer in LAYERS}
        for name, seconds in own.items():
            layers[name.split(".", 1)[0]] += seconds
        return layers

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for i, name in enumerate(self.names):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "request_id": self.rids[i],
                        }
                    )
                )
                out.write("\n")
