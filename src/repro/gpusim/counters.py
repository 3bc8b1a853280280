"""Work profiles: the interface between functional indexes and the cost model.

A :class:`WorkProfile` describes the device work performed by one kernel-like
phase (a lookup batch, an index build, a sort): how many logical threads run,
how many instructions they execute, how many bytes they request from the
memory system, how deep their dependent-load chains are, and how many RT-core
tests they issue.  The :class:`repro.gpusim.costmodel.CostModel` turns a
profile into simulated milliseconds; :class:`repro.gpusim.cache.CacheModel`
decides how many of the requested bytes actually reach DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class WorkProfile:
    """Device work performed by one kernel-like phase.

    Attributes
    ----------
    name:
        Label used in reports ("lookup", "build", "sort", ...).
    threads:
        Number of logical threads (one per lookup in the paper's setup).
    instructions:
        Total scalar instructions executed on the SMs.
    bytes_accessed:
        Total bytes requested from the memory hierarchy (before caches).
    working_set_bytes:
        Size of the data structure (plus any referenced columns) the phase
        touches; determines how much of the traffic the L2 can absorb.
    serial_depth:
        Dependent memory accesses per thread that cannot be overlapped within
        the thread (e.g. binary-search steps); produces a latency term.
    rt_tests:
        Ray/box and ray/primitive tests executed on the RT cores.
    kernel_launches:
        Number of kernel/pipeline launches in this phase.
    locality:
        Access-locality hint in [0, 1]; raised by sorted lookups and skew.
    hot_fraction:
        Fraction of ``bytes_accessed`` that targets a small, heavily reused
        region (e.g. the top levels of a tree) which the L2 retains
        regardless of the total working-set size.
    dram_bytes_min:
        Compulsory DRAM traffic that no cache can avoid (e.g. streaming
        writes of results, first-touch reads of the lookup array).
    """

    name: str
    threads: int
    instructions: float = 0.0
    bytes_accessed: float = 0.0
    working_set_bytes: float = 0.0
    serial_depth: float = 0.0
    rt_tests: float = 0.0
    kernel_launches: int = 1
    locality: float = 0.0
    hot_fraction: float = 0.0
    dram_bytes_min: float = 0.0
    metadata: dict = field(default_factory=dict)

    def scaled(self, factor: float) -> "WorkProfile":
        """Return a copy with all extensive quantities multiplied by ``factor``.

        Used when a phase is repeated (e.g. one sort per batch): threads,
        instructions, bytes and launches scale; the working set and locality
        do not.
        """
        return replace(
            self,
            threads=int(self.threads * factor),
            instructions=self.instructions * factor,
            bytes_accessed=self.bytes_accessed * factor,
            serial_depth=self.serial_depth,
            rt_tests=self.rt_tests * factor,
            kernel_launches=max(int(round(self.kernel_launches * factor)), 1),
            dram_bytes_min=self.dram_bytes_min * factor,
        )
