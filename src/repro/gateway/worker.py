"""Shard worker: the actor that turns queued requests into predictions.

One :class:`ShardWorker` thread owns one shard of the design space and
drains its inbox through the gateway-wide
:class:`~repro.serving.batching.MicroBatcher` — the micro-batching core the
:class:`~repro.serving.service.ScreeningService` uses too (fill loop,
per-design groups, result cache, coalescing, one ``predict_batch`` per
group).  The ring routes a design to exactly one shard, so the registry
partition behind a worker keeps its designs' checkpoints warm.

The worker keeps what is gateway-specific: hot swaps at batch boundaries,
the fault seams, scenario materialisation and the crash handoff.  Its cache
lookup runs on the worker thread after the registry fetch, so admission
never blocks the event loop and never answers past a queued
:class:`~repro.gateway.messages.SwapCommand`.  A failing checkpoint load or
forward pass fails only that design group; an escaping
:class:`BaseException` (e.g. :class:`~repro.faults.WorkerKilled`, also
mid-fill) is a crash: every unanswered request the worker dequeued goes to
the supervisor's crash callback, and the gateway-owned inbox survives for
the replacement.  Answers go through the requests' set-once
``resolve``/``fail``, so duplicated deliveries and crash-requeue races
collapse to one visible answer per request.
"""

from __future__ import annotations

import threading
from queue import Queue
from typing import Callable

from repro.features.extraction import VectorFeatures, extract_vector_features
from repro.faults import FaultInjector
from repro.gateway.messages import STOP, GatewayRequest, SwapCommand
from repro.pdn.designs import Design, DesignFactory
from repro.serving.batching import group_by_design
from repro.serving.registry import PredictorRegistry
from repro.sim.waveform import CurrentTrace
from repro.utils import get_logger
from repro.workloads.scenarios import build_scenario_trace

_LOG = get_logger("gateway.worker")

CrashCallback = Callable[["ShardWorker", BaseException, list], None]
HealthyCallback = Callable[[int], None]


class ShardWorker(threading.Thread):
    """One supervised worker thread bound to a shard inbox and registry.

    Parameters
    ----------
    shard_id:
        Ring node this worker serves.
    inbox:
        The shard's FIFO queue of :class:`GatewayRequest`/:class:`SwapCommand`
        messages.  Owned by the gateway — it survives worker crashes, so
        queued requests are never lost with the thread.
    registry:
        The shard's predictor partition.  Also gateway-owned: a restarted
        worker inherits the warm LRU of its crashed predecessor.
    design_factory:
        Rebuilds a :class:`Design` from its name for scenario payloads and
        raw traces submitted by name (cached per worker incarnation).
    faults:
        Fault-injection seam; hooks run at dequeue, batch, load and swap.
    instruments:
        The gateway's ``_GatewayInstruments``: metric handles plus
        ``batcher``, the gateway-wide micro-batcher (cache outlives crashes).
    on_crash / on_healthy:
        Supervisor callbacks: crash hands over unanswered in-hand requests;
        healthy fires after each successful batch and resets crash backoff.
    generation:
        Incarnation counter for this shard (0 = first start), used in the
        thread name so crash logs identify the exact incarnation.
    """

    def __init__(
        self,
        shard_id: int,
        inbox: "Queue",
        registry: PredictorRegistry,
        design_factory: DesignFactory,
        faults: FaultInjector,
        instruments,
        on_crash: CrashCallback,
        on_healthy: HealthyCallback,
        generation: int = 0,
    ):
        super().__init__(
            name=f"gateway-shard-{shard_id}-gen{generation}", daemon=True
        )
        self.shard_id = int(shard_id)
        self.generation = int(generation)
        self.inbox = inbox
        self.registry = registry
        self._design_factory = design_factory
        self._designs: dict[str, Design] = {}
        self._faults = faults
        self._obs = instruments
        self._on_crash = on_crash
        self._on_healthy = on_healthy

    def run(self) -> None:
        """Drain the inbox until the stop sentinel; crash to the supervisor.

        A swap command or the stop sentinel ends batch filling and takes
        effect after the in-hand batch: that is the swap's quiesce point, and
        a graceful drain processes, never abandons.
        """
        batch: list[GatewayRequest] = []
        stop = None
        try:
            while stop is not STOP:
                batch = []
                stop = self._obs.batcher.fill(self.inbox, batch, self._dequeue)
                self._process_batch(batch)
                if isinstance(stop, SwapCommand):
                    command, stop = stop, None
                    self._apply_swap(command)
        except BaseException as error:  # noqa: BLE001 - supervised crash path
            survivors = [request for request in batch if not request.done]
            if isinstance(stop, SwapCommand):
                # A swap deferred behind the crashed batch must not be lost
                # with the thread; the replacement worker applies it.
                self.inbox.put(stop)
            _LOG.warning(
                "shard %d worker (gen %d) crashed with %d request(s) in hand: %s",
                self.shard_id,
                self.generation,
                len(survivors),
                error,
            )
            self._on_crash(self, error, survivors)

    def _dequeue(self, request: GatewayRequest):
        """Mark a request dispatched and pass it through the dequeue seam."""
        request.dispatched = True
        return self._faults.on_dequeue(self.shard_id, request)

    def _process_batch(self, batch: list[GatewayRequest]) -> None:
        """Predict one micro-batch, one fused forward pass per design group."""
        live = [request for request in batch if not request.done]
        if not live:
            return
        self._faults.before_batch(self.shard_id, live)
        for design_name, requests in group_by_design(live).items():
            self._process_group(design_name, requests)
        self._obs.shard_depth[self.shard_id].set(self.inbox.qsize())
        self._on_healthy(self.shard_id)

    def _process_group(self, design_name: str, requests: list[GatewayRequest]) -> None:
        """One design's slice of a batch; failures stay inside the group."""
        self._obs.batcher.run_group(design_name, requests, self._load, self._materialise)

    def _load(self, design_name: str):
        """The design's predictor, behind the checkpoint-load fault seam."""
        self._faults.on_checkpoint_load(self.shard_id, design_name)
        return self.registry.get(design_name)

    def _materialise(self, request: GatewayRequest, predictor) -> VectorFeatures:
        """Turn any accepted payload into extracted features."""
        payload = request.payload
        if isinstance(payload, VectorFeatures):
            return payload
        if isinstance(payload, CurrentTrace):
            trace = payload
        else:  # scenario family name or ScenarioSpec
            trace = build_scenario_trace(
                payload,
                self._design(request),
                num_steps=request.num_steps,
                dt=request.dt,
                seed=request.seed,
            )
        return extract_vector_features(
            trace,
            self._design(request),
            compression_rate=predictor.compression_rate,
            rate_step=predictor.rate_step,
        )

    def _design(self, request: GatewayRequest) -> Design:
        """The request's design object (factory-built and cached by name)."""
        if isinstance(request.design, Design):
            return request.design
        design = self._designs.get(request.design)
        if design is None:
            design = self._design_factory(request.design)
            self._designs[request.design] = design
        return design

    def _apply_swap(self, command: SwapCommand) -> None:
        """Apply a hot checkpoint swap at this quiesce point."""
        try:
            self._faults.before_swap(self.shard_id, command.design_name)
            if command.predictor is not None:
                self.registry.register(
                    command.design_name, command.predictor, persist=command.persist
                )
            else:
                self.registry.evict(command.design_name)
            fingerprint = self.registry.get(command.design_name).fingerprint
        except BaseException as error:  # noqa: BLE001 - forwarded to swapper
            try:
                command.done.set_exception(error)
            except Exception:  # pragma: no cover - done future already resolved
                pass
            if not isinstance(error, Exception):
                raise
            return
        self._obs.swaps.inc()
        try:
            command.done.set_result(fingerprint)
        except Exception:  # pragma: no cover - done future already resolved
            pass
        _LOG.info(
            "shard %d swapped checkpoint for %s (fingerprint %s)",
            self.shard_id,
            command.design_name,
            fingerprint[:12],
        )
