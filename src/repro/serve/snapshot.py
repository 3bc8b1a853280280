"""Epoch snapshots: pin in-flight batches to an immutable accel state.

``RXIndex.update()`` (rebuild or ``DELTA_SHARD``) swaps in a *new* pipeline
object bound to a *new* tree and value column, leaving the previous
pipeline's engine bound to the old arrays.  The epoch manager exploits that:
every accel state is wrapped in an :class:`EpochSnapshot` capturing the
pipeline, codec, key/value columns and config of one epoch, and the serving
layer pins each batching window to the snapshot that was current when the
window opened.  An update that lands mid-window therefore never leaks into
an in-flight batch — a batch sees entirely-old or entirely-new state, never
a mix — and the swap to the next epoch is atomic from the batch's point of
view (it is one Python reference assignment).

``REFIT`` updates are rejected: a refit rewrites the node bounds of the
*shared* tree in place (exactly like the OptiX update operation), so the
previous epoch's arrays would be silently corrupted under a pinned batch.

Warm restarts ride the same mechanism: ``IndexService.restore()`` makes the
index adopt a loaded snapshot with an epoch strictly greater than the
current one, so the next ``current()`` call captures the restored state
like any other epoch advance — listeners sweep the cache, and cursor pages
pinned to a pre-restore epoch retire with ``"epoch_retired"`` instead of
resuming over a different column state.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.core.config import RXConfig, UpdatePolicy
from repro.core.rx_index import RXIndex, trace_mode_for
from repro.rtx.pipeline import Pipeline
from repro.serve.scheduler import LaunchClass


@dataclass
class EpochSnapshot:
    """One immutable accel state: everything a pinned batch may touch."""

    epoch: int
    pipeline: Pipeline
    codec: object
    config: RXConfig
    keys: np.ndarray
    values: np.ndarray
    #: launch class every point request of this epoch shares: ``first_k``
    #: with a budget of 1 on a duplicate-free column, else all hits.  Made
    #: once per epoch, so classing a point request builds nothing.
    point_class: LaunchClass
    pins: int = 0

    @property
    def point_limit(self) -> int | None:
        """Point-lookup hit budget of this epoch's column: 1 or None."""
        return self.point_class.limit


@dataclass
class EpochManagerStats:
    epochs_seen: int = 0
    advances: int = 0
    retired: int = 0

    def as_dict(self) -> dict:
        return {
            "epochs_seen": self.epochs_seen,
            "advances": self.advances,
            "retired": self.retired,
        }


class EpochManager:
    """Tracks the index's accel epochs and hands out pinned snapshots.

    ``current()`` observes the index: when a build/update bumped
    ``RXIndex.epoch`` since the last observation, a fresh snapshot is
    captured, registered listeners (the result cache) are notified, and the
    previous snapshot is retired — though pinned batches keep it alive until
    they release it.
    """

    def __init__(self, index: RXIndex, fault_injector=None):
        self.index = index
        self.stats = EpochManagerStats()
        self._listeners: list = []
        #: optional :class:`repro.serve.faults.FaultInjector`: captures
        #: consult the "snapshot" site, and every captured pipeline gets the
        #: injector attached so coalesced launches hit the "launch" and
        #: "launch_latency" sites.
        self.faults = fault_injector
        self._snapshot = self._capture()

    def _capture(self) -> EpochSnapshot:
        index = self.index
        if index.config.update_policy is UpdatePolicy.REFIT:
            raise ValueError(
                "epoch snapshots require update_policy REBUILD or DELTA_SHARD: "
                "refits rewrite the shared accel's node bounds in place, so a "
                "pinned snapshot could observe a half-updated tree"
            )
        if self.faults is not None:
            self.faults.check("snapshot")
        pipeline = index.pipeline  # raises if the index is not built yet
        if self.faults is not None:
            pipeline.fault_injector = self.faults
        self.stats.epochs_seen += 1
        point_limit = index.point_limit()
        return EpochSnapshot(
            epoch=index.epoch,
            pipeline=pipeline,
            codec=index.codec,
            config=index.config,
            keys=index.keys,
            values=index.values,
            point_class=LaunchClass("point", trace_mode_for(point_limit), point_limit),
        )

    def add_listener(self, on_advance) -> None:
        """Register ``on_advance(new_epoch)`` to run on every epoch swap."""
        self._listeners.append(on_advance)

    def current(self) -> EpochSnapshot:
        """The snapshot of the index's present epoch (auto-advancing)."""
        if self.index.epoch != self._snapshot.epoch:
            self._snapshot = self._capture()
            self.stats.advances += 1
            for listener in self._listeners:
                listener(self._snapshot.epoch)
        return self._snapshot

    def pin(self, snapshot: EpochSnapshot) -> EpochSnapshot:
        """Pin ``snapshot`` for an in-flight batch (release when demuxed)."""
        snapshot.pins += 1
        return snapshot

    def release(self, snapshot: EpochSnapshot) -> None:
        if snapshot.pins < 1:
            raise ValueError(
                f"epoch {snapshot.epoch} released more often than pinned"
            )
        snapshot.pins -= 1
        if snapshot.pins == 0 and snapshot is not self._snapshot:
            # The last batch of a superseded epoch finished: the old accel
            # arrays become collectable the moment this reference drops.
            self.stats.retired += 1

    @contextmanager
    def releasing(self, snapshot: EpochSnapshot):
        """Release ``snapshot`` when the block exits — even by exception.

        This is the flush path's pin discipline: a launch that raises must
        not leave the window's snapshot pinned forever, or a superseded
        epoch's accel arrays stay unreclaimable for the service's lifetime.
        """
        try:
            yield snapshot
        finally:
            self.release(snapshot)
