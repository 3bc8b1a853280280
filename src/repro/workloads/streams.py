"""Timestamped query streams for the serving layer.

The serving benchmarks replay *streams* of independent requests rather than
one preformed batch: every request carries an arrival timestamp (which the
open-loop replay respects) and a small payload — one or a few point keys.  Query popularity
follows the paper's bounded Zipf distribution (Section 4.8), so a
coefficient of 0 is the uniform stream and 1-2 are the skewed streams where
the serving layer's result cache earns its keep.

Everything is deterministic under a seed, so two replays of one stream (and
the solo-launch reference for every request) see identical queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads.zipf import zipf_sample


@dataclass
class StreamRequest:
    """One point-lookup request of a replayable stream."""

    arrival: float
    queries: np.ndarray
    #: per-request deadline, relative seconds after arrival (None defers to
    #: the serving layer's configured default)
    deadline: float | None = None

    def submit(self, service, arrival: float):
        """Queue this request on ``service`` at stream time ``arrival``."""
        return service.submit_point(self.queries, arrival=arrival, deadline=self.deadline)


@dataclass
class QueryStream:
    """A finite stream of timestamped requests plus its generation metadata."""

    entries: list[StreamRequest]
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def num_queries(self) -> int:
        return sum(e.queries.shape[0] for e in self.entries)

    def requests(self) -> list[tuple[float, callable]]:
        """(arrival, submit) pairs in arrival order, for the replay drivers."""
        return [(e.arrival, e.submit) for e in self.entries]


def _arrival_times(
    n: int, rate: float, rng: np.random.Generator, poisson: bool
) -> np.ndarray:
    """Arrival stamps of an open-loop source: Poisson or fixed-rate."""
    if rate <= 0:
        raise ValueError(f"rate must be positive queries/second, got {rate}")
    if poisson:
        gaps = rng.exponential(1.0 / rate, size=n)
        return np.cumsum(gaps)
    return (np.arange(n, dtype=np.float64) + 1.0) / rate


def zipf_point_stream(
    keys: np.ndarray,
    num_requests: int,
    coefficient: float,
    rate: float,
    queries_per_request: int = 1,
    seed: int | np.random.Generator | None = 7,
    poisson: bool = True,
    deadline: float | None = None,
) -> QueryStream:
    """Open-loop stream of point-lookup requests with Zipf-skewed popularity.

    Popularity ranks map onto the key column in its stored order (the same
    convention as :func:`repro.workloads.lookups.zipf_point_lookups`), and
    requests arrive at ``rate`` requests/second — exponentially spaced when
    ``poisson`` (the memoryless open-loop source), evenly spaced otherwise.
    ``deadline`` stamps every request with a relative deadline (seconds
    after arrival) for the fault-tolerant serving path.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    keys = np.asarray(keys, dtype=np.uint64)
    if queries_per_request < 1:
        raise ValueError(
            f"queries_per_request must be at least 1, got {queries_per_request}"
        )
    total = num_requests * queries_per_request
    ranks = zipf_sample(keys.shape[0], total, coefficient, rng)
    queries = keys[ranks].reshape(num_requests, queries_per_request)
    arrivals = _arrival_times(num_requests, rate, rng, poisson)
    entries = [
        StreamRequest(
            arrival=float(arrivals[i]),
            queries=queries[i],
            deadline=deadline,
        )
        for i in range(num_requests)
    ]
    return QueryStream(
        entries=entries,
        metadata={
            "kind": "point",
            "coefficient": coefficient,
            "rate": rate,
            "queries_per_request": queries_per_request,
            "poisson": poisson,
            "deadline": deadline,
        },
    )
