"""Serving layer: batched, cached, multi-design noise screening at scale.

The trained CNN replaces the transient simulator precisely because it is
orders of magnitude faster — this subpackage is where that speed is turned
into *throughput*.  It provides:

* :class:`~repro.serving.registry.PredictorRegistry` — per-design predictor
  checkpoints with LRU residency, so one process serves every design;
* :class:`~repro.serving.batching.MicroBatcher` — the one micro-batching
  core (fill loop, per-design groups, LRU result cache, in-flight
  coalescing, batched forward) behind both the service and the gateway;
* :class:`~repro.serving.service.ScreeningService` — the in-process
  front end: admission and lifecycle around a ``MicroBatcher``;
* :func:`~repro.serving.sweep.screen_scenarios` — a worker-pool sweep that
  fans workload scenarios across processes and aggregates
  :class:`~repro.io.results.ExperimentRecord` rows; its per-process
  screening job is the one the eval sweep adds ground truth to.

See ``DESIGN.md`` for how the pieces fit together and
``benchmarks/bench_serving.py`` for measured throughput.
"""

from repro.serving.batching import BatchRequest, MicroBatcher, ScreeningStats
from repro.serving.cache import (
    CacheStats,
    LRUCache,
    result_cache_key,
    trace_content_hash,
)
from repro.serving.registry import PredictorRegistry, RegistryStats
from repro.serving.service import ScreeningService, ServiceClosed
from repro.serving.sweep import ScenarioJob, screen_scenarios

__all__ = [
    "BatchRequest",
    "MicroBatcher",
    "CacheStats",
    "LRUCache",
    "result_cache_key",
    "trace_content_hash",
    "PredictorRegistry",
    "RegistryStats",
    "ScreeningService",
    "ScreeningStats",
    "ServiceClosed",
    "ScenarioJob",
    "screen_scenarios",
]
