"""Async screening gateway: the serving stack as a supervised service.

Where :mod:`repro.serving` provides the in-process building blocks (batched
predictors, registries, the micro-batching core and service),
``repro.gateway`` turns them into a *deployable front door* for model-based
worst-case noise sign-off at production scale:

* :class:`~repro.gateway.gateway.ScreeningGateway` — bounded admission with
  configurable overload behaviour, consistent-hash sharded workers (one
  warm :class:`~repro.serving.registry.PredictorRegistry` partition each)
  that answer through the service's
  :class:`~repro.serving.batching.MicroBatcher` core (so re-sent vectors
  hit one gateway-wide result cache), supervisor-driven crash restarts with
  backoff, hot checkpoint swaps that quiesce one shard between batches, and
  a graceful drain that resolves every accepted future;
* :class:`~repro.gateway.server.GatewayServer` — a stdlib asyncio TCP
  front-end speaking newline-delimited JSON;
* :class:`~repro.faults.FaultInjector` (re-exported here) — the
  deterministic fault-injection seam the concurrency test suite
  (``tests/gateway/``) scripts worker kills, duplicated/delayed deliveries,
  and checkpoint-load failures through.

See ``docs/serving.md`` for the architecture and semantics,
``scripts/run_gateway.py`` for the CLI entry point, and
``benchmarks/bench_gateway.py`` for the throughput gate against the bare
:class:`~repro.serving.service.ScreeningService` loop.
"""

from repro.faults import FaultInjector, NULL_FAULTS, WorkerKilled
from repro.gateway.gateway import SHED_POLICIES, ScreeningGateway
from repro.gateway.messages import (
    GatewayClosed,
    GatewayError,
    GatewayOverloaded,
    GatewayRequest,
    LoadShedError,
    SwapCommand,
    WorkerCrashed,
)
from repro.gateway.ring import ConsistentHashRing
from repro.gateway.server import GatewayServer
from repro.gateway.worker import ShardWorker

__all__ = [
    "ScreeningGateway",
    "GatewayServer",
    "ConsistentHashRing",
    "ShardWorker",
    "GatewayRequest",
    "SwapCommand",
    "FaultInjector",
    "NULL_FAULTS",
    "WorkerKilled",
    "GatewayError",
    "GatewayOverloaded",
    "GatewayClosed",
    "LoadShedError",
    "WorkerCrashed",
    "SHED_POLICIES",
]
