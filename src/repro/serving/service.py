"""The screening service: micro-batched, cached, multi-design inference.

:class:`ScreeningService` is the in-process serving front end.  Callers
submit test vectors (raw :class:`~repro.sim.waveform.CurrentTrace` objects or
pre-extracted :class:`~repro.features.extraction.VectorFeatures`) against a
design name; one worker thread answers them through a
:class:`~repro.serving.batching.MicroBatcher` — the core the gateway's shard
workers use too.  The service owns admission and lifecycle: the synchronous
unknown-design check, the submit-side cache/coalesce fast path, latency
accounting, and a shutdown that resolves every accepted future.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Optional, Sequence, Union

from repro import obs
from repro.core.inference import NoisePredictor, PredictionResult
from repro.features.extraction import VectorFeatures, extract_vector_features
from repro.obs.metrics import MetricsRegistry
from repro.pdn.designs import Design
from repro.serving.batching import BatchRequest, MicroBatcher, drain_inbox, group_by_design
from repro.serving.cache import ScreeningPayload, trace_content_hash
from repro.serving.registry import PredictorRegistry


class ServiceClosed(RuntimeError):
    """The service shut down before (or while) a request could be answered.

    Raised synchronously by :meth:`ScreeningService.submit_async` once the
    service is closed, and set on every future that was still queued when
    the worker exited — a caller blocked on ``future.result()`` therefore
    always gets an answer or this error, never a hang.  Subclasses
    :class:`RuntimeError` so pre-existing ``except RuntimeError`` callers
    keep working.
    """


_SENTINEL = object()


class ScreeningService:
    """Batched, cached worst-case noise screening across designs.

    Parameters
    ----------
    registry:
        Source of per-design predictors.
    max_batch:
        Maximum number of requests fused into one forward pass.
    max_wait:
        Seconds a batch may wait to fill after its first request; a couple
        of milliseconds fuses concurrent submissions invisibly.
    latency_window:
        Number of recent per-request latencies retained for reporting.
    metrics:
        Metrics registry to report into; defaults to the process-global
        :func:`repro.obs.metrics` registry (a no-op when observability is
        off).  The evaluation protocol passes a private live registry to
        collect latency histograms regardless of the global toggle.
    """

    def __init__(
        self,
        registry: PredictorRegistry,
        max_batch: int = 16,
        max_wait: float = 2e-3,
        latency_window: int = 4096,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.registry = registry
        # Instrument handles are resolved once here so the hot paths pay one
        # bound-method call each; with a disabled registry they are shared
        # no-op objects (gated by benchmarks/bench_obs.py).
        self.metrics = metrics if metrics is not None else obs.metrics()
        self._batcher = MicroBatcher(
            max_batch, max_wait, self.metrics, "serving", on_answer=self._answered
        )
        self.max_batch = self._batcher.max_batch
        self.max_wait = self._batcher.max_wait
        self.cache = self._batcher.cache
        self.stats = self._batcher.stats
        self._m_requests = self.metrics.counter("serving.requests")
        self._m_queue_depth = self.metrics.gauge("serving.queue_depth")
        self._m_latency = {
            path: self.metrics.histogram(f"serving.request_latency.{path}")
            for path in ("cache_hit", "coalesced", "batched")
        }
        self._queue: "queue.Queue" = queue.Queue()
        # The batcher's lock also guards the latencies and the closed flag.
        # Registry access never happens under it, so a cold checkpoint load
        # for one design cannot stall cache hits for resident designs.
        self._lock = self._batcher.lock
        self._latencies: deque[float] = deque(maxlen=int(latency_window))
        self._closed = False
        self._abandon = False
        self._worker = threading.Thread(
            target=self._run_worker, name="screening-service", daemon=True
        )
        self._worker.start()

    def submit(self, payload: ScreeningPayload, design: Union[Design, str]) -> PredictionResult:
        """Screen one vector synchronously (blocks until the result is ready)."""
        return self.submit_async(payload, design).result()

    def submit_async(
        self, payload: ScreeningPayload, design: Union[Design, str]
    ) -> "Future[PredictionResult]":
        """Enqueue one vector; the returned future resolves to its prediction.

        ``design`` may be the :class:`Design` object (required when
        ``payload`` is a raw trace, which still needs tiling) or just the
        design name (sufficient for pre-extracted features).  Raises
        :class:`ServiceClosed` once the service is closed — before the
        registry lookup, so a closed service neither cold-loads a checkpoint
        nor reports an unknown design — and :class:`KeyError` for an
        unregistered design.
        """
        started = time.perf_counter()
        if not isinstance(payload, VectorFeatures) and isinstance(design, str):
            raise TypeError(
                "raw traces need the Design object for tiling; pass pre-extracted "
                "VectorFeatures when only the design name is available"
            )
        if self._closed:
            raise ServiceClosed("service is closed")
        request = BatchRequest(payload=payload, design=design, submitted_at=started)
        predictor = self.registry.get(request.design_name)
        request.content_hash = trace_content_hash(payload)
        with self._lock:
            # Checked again under the lock, and the request is enqueued under
            # the same lock: a concurrent close() either rejects this
            # submission or places its shutdown sentinel behind it, so every
            # accepted request is drained before the worker exits.
            if self._closed:
                raise ServiceClosed("service is closed")
            self.stats.requests += 1
            self._m_requests.inc()
            path, found = self._batcher.admit(request, predictor)
            if path == "batched":
                self._queue.put(request)
                self._m_queue_depth.set(self._queue.qsize())
                return request.future
        # Settled OUTSIDE the lock: the latency hook takes it, and a
        # follower's relay runs inline here when its primary is already done.
        self._batcher.settle(request, path, found)
        return request.future

    def screen(
        self, payloads: Sequence[ScreeningPayload], design: Union[Design, str]
    ) -> list[PredictionResult]:
        """Screen many vectors of one design; results come back in input order.

        Submitting everything before waiting lets the micro-batcher fill its
        batches even with a single caller thread.
        """
        futures = [self.submit_async(payload, design) for payload in payloads]
        return [future.result() for future in futures]

    def latencies(self) -> list[float]:
        """Recent per-request latencies in seconds (submission to result).

        All three answer paths (cache hit, coalesce, batch) measure from the
        same submission timestamp, so samples are comparable; the per-path
        split lives in the ``serving.request_latency.*`` histograms of
        :attr:`metrics`.
        """
        with self._lock:
            return list(self._latencies)

    def _answered(self, request: BatchRequest, path: str) -> None:
        elapsed = time.perf_counter() - request.submitted_at
        with self._lock:
            self._latencies.append(elapsed)
            self._m_latency[path].observe(elapsed)

    def close(self, drain: bool = True) -> None:
        """Stop the worker, resolving every accepted future before returning.

        With ``drain=True`` (the default) requests still queued at shutdown
        are processed normally before the worker exits.  With ``drain=False``
        they are rejected immediately with :class:`ServiceClosed` instead of
        paying for their forward passes.  Either way, no accepted future is
        ever abandoned: anything left unresolved once the worker has exited —
        including requests stranded by a crashed worker thread — is rejected
        with :class:`ServiceClosed` so blocked callers wake up.  Idempotent.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
            if not drain:
                self._abandon = True
        if not already_closed:
            self._queue.put(_SENTINEL)
        self._worker.join()
        self._flush_unresolved(ServiceClosed("service closed before the request ran"))

    def __enter__(self) -> "ScreeningService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @staticmethod
    def _features(request: BatchRequest, predictor: NoisePredictor) -> VectorFeatures:
        if isinstance(request.payload, VectorFeatures):
            return request.payload
        return extract_vector_features(
            request.payload,
            request.design,
            compression_rate=predictor.compression_rate,
            rate_step=predictor.rate_step,
        )

    def _run_worker(self) -> None:
        # The worker must never die with unresolved futures behind it (a
        # dead in-flight entry would swallow every later identical request):
        # a BaseException fails the in-hand batch before it propagates, and
        # the ``finally`` sweep rejects whatever is still queued.
        batch: list[BatchRequest] = []
        try:
            stop = None
            while stop is not _SENTINEL:
                batch = []
                stop = self._batcher.fill(self._queue, batch)
                if self._abandon:
                    error = ServiceClosed("service closed before the request ran")
                    self._batcher.fail([request for request in batch if not request.done], error)
                    continue
                for design_name, requests in group_by_design(batch).items():
                    self._batcher.run_group(
                        design_name, requests, self.registry.get, self._features
                    )
        except BaseException as error:
            self._batcher.fail([request for request in batch if not request.done], error)
            raise
        finally:
            with self._lock:
                self._closed = True
            self._flush_unresolved(
                ServiceClosed("service worker exited before the request ran")
            )

    def _flush_unresolved(self, error: BaseException) -> None:
        """Reject queued requests and stale in-flight requests after worker exit.

        Only runs once the worker thread is gone (join or crash), so nothing
        races the queue drain.  Requests already answered are untouched.
        """
        leftovers = [item for item in drain_inbox(self._queue) if item is not _SENTINEL]
        with self._lock:
            leftovers += self._batcher.in_flight.values()
            self._batcher.in_flight.clear()
        for request in leftovers:
            request.fail(error)
