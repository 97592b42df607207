"""Sharded multi-scheduler federation over the :mod:`repro.sim` kernel.

One cluster, many schedulers: the capacity vector is partitioned into
**shards**, each owned by a full online scheduling stack (any ranker /
registry-spec rescheduler / admission configuration of its own), and a
**routing layer** places every arrival on one shard while a **work
stealer** migrates jobs across shards when load drifts past a
threshold.  All shards cooperate on a single shared deterministic event
kernel — ``ROUTE`` and ``STEAL`` are ordinary event classes interleaved
with crashes, completions and arrivals — so a federated run is exactly
as reproducible as a single-scheduler one.

The run loop and the shards are the simulation engine's
(:mod:`repro.online.engine`); this package adds what only a federation
has: :mod:`~repro.federation.routing` (the :class:`Router` protocol and
the round-robin / least-load / hash / affinity policies behind
``"policy:key=val"`` spec strings), :mod:`~repro.federation.stealing`
(threshold rebalancing and crash rescue as ``STEAL`` kernel events),
capacity splitting (:mod:`~repro.federation.shard`), the facade
(:mod:`~repro.federation.engine`) and its result views
(:mod:`~repro.federation.results`).  A 1-shard federation and
:class:`repro.streaming.StreamingSimulator` are the same engine
configuration — same arrivals, ranker and faults produce an **equal**
result object.
"""

from .engine import FederatedStreamingSimulator
from .ledger import FROM_ADMITTED, FROM_BACKLOG, RESCUE, FederationLedger, StealRecord
from .results import (
    FederationComparison,
    FederationResult,
    ShardReport,
    aggregate_result,
)
from .routing import (
    AffinityRouter,
    HashRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
    parse_router_spec,
)
from .shard import Shard, ShardSpec, split_capacities
from .stealing import WorkStealer

__all__ = [
    "AffinityRouter",
    "FROM_ADMITTED",
    "FROM_BACKLOG",
    "FederatedStreamingSimulator",
    "FederationComparison",
    "FederationLedger",
    "FederationResult",
    "HashRouter",
    "LeastLoadedRouter",
    "RESCUE",
    "RoundRobinRouter",
    "Router",
    "Shard",
    "ShardReport",
    "ShardSpec",
    "StealRecord",
    "WorkStealer",
    "aggregate_result",
    "parse_router_spec",
    "split_capacities",
]
