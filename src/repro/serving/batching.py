"""The micro-batching core shared by both screening front ends.

:class:`~repro.serving.service.ScreeningService` and the gateway's shard
workers (:mod:`repro.gateway.worker`) answer requests through one
:class:`MicroBatcher`.  It owns everything between a request inbox and the
model: the fill loop (``max_batch``/``max_wait``, stopping at the first
non-request item), grouping by design, the LRU result cache plus in-flight
map keyed by :func:`~repro.serving.cache.result_cache_key` on the
fingerprint of the predictor that actually runs, coalescing of identical
keys onto one forward pass (each follower gets a private map copy under its
own vector name), one ``predict_batch`` per design group, and per-group
failure handling that leaves no cache or in-flight entry behind.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence, Union

from repro.core.inference import NoisePredictor, PredictionResult
from repro.features.extraction import VectorFeatures
from repro.obs.metrics import MetricsRegistry
from repro.pdn.designs import Design
from repro.serving.cache import LRUCache, result_cache_key, trace_content_hash
from repro.sim.waveform import CurrentTrace
from repro.utils import check_positive, get_logger

_LOG = get_logger("serving.batching")

#: Result-cache capacity (entries) of every front end.
RESULT_CACHE_SIZE = 1024


@dataclass
class ScreeningStats:
    """Aggregate counters of a :class:`MicroBatcher` (and its front end)."""

    requests: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    model_batches: int = 0
    batched_vectors: int = 0
    max_batch_observed: int = 0
    failures: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests answered from the result cache."""
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average number of vectors per model forward pass."""
        return self.batched_vectors / self.model_batches if self.model_batches else 0.0


@dataclass(eq=False)
class BatchRequest:
    """One unit of screening work for a :class:`MicroBatcher`.

    Every latency sample is measured from ``submitted_at``.  Answers go
    through :meth:`resolve`/:meth:`fail`, the future's set-once transition,
    so a duplicated delivery or a late answer is a no-op returning ``False``.
    """

    payload: Any
    design: Union[Design, str]
    future: "Future[PredictionResult]" = field(default_factory=Future)
    submitted_at: float = field(default_factory=time.perf_counter)
    #: Number of times a resolution attempt actually won (asserted == 1).
    answers: int = 0
    #: The payload's :func:`~repro.serving.cache.trace_content_hash` (lazy).
    content_hash: Optional[str] = None
    #: Key under which this request is registered in the in-flight map.
    in_flight_key: Optional[str] = None

    @property
    def design_name(self) -> str:
        """The design's registry (and routing) key."""
        return self.design if isinstance(self.design, str) else self.design.name

    @property
    def vector_name(self) -> str:
        """The submitter's vector name (empty for unnamed payloads)."""
        return getattr(self.payload, "name", "")

    @property
    def done(self) -> bool:
        """Whether the request has been answered (result, error, or cancel)."""
        return self.future.done()

    def resolve(self, result: PredictionResult) -> bool:
        """Answer with a result; returns ``True`` iff this call won the race."""
        return self._answer(self.future.set_result, result)

    def fail(self, error: BaseException) -> bool:
        """Answer with an error; returns ``True`` iff this call won the race."""
        return self._answer(self.future.set_exception, error)

    def _answer(self, setter: Callable[[Any], None], value: Any) -> bool:
        try:
            setter(value)
        except InvalidStateError:
            return False
        self.answers += 1
        return True


def private_copy(result: PredictionResult, name: str, **changes) -> PredictionResult:
    """``result`` with its own copy of the map, under the caller's vector name."""
    return replace(result, noise_map=result.noise_map.copy(), name=name, **changes)


def group_by_design(requests: Sequence[BatchRequest]) -> dict[str, list]:
    """Split a micro-batch into per-design groups, keeping arrival order."""
    groups: dict[str, list] = {}
    for request in requests:
        groups.setdefault(request.design_name, []).append(request)
    return groups


def drain_inbox(inbox: "queue.Queue") -> list:
    """Everything still queued in ``inbox``, taken without blocking."""
    items = []
    while True:
        try:
            items.append(inbox.get_nowait())
        except queue.Empty:
            return items


class MicroBatcher:
    """Fill loop, result cache, in-flight map and per-group forward passes.

    ``metrics`` receives ``<prefix>.cache_hits``, ``.coalesced``,
    ``.failures``, ``.model_batches``, ``.batched_vectors``,
    ``.duplicates_dropped`` (answers that lost the set-once race) and the
    ``.batch_size`` gauge (vectors per forward pass); ``on_answer(request,
    path)`` runs just before each answer, ``path`` being ``"cache_hit"``,
    ``"coalesced"`` or ``"batched"``.  :attr:`lock` guards :attr:`cache`,
    :attr:`in_flight` and :attr:`stats`; a front end may share it.
    """

    def __init__(
        self,
        max_batch: int,
        max_wait: float,
        metrics: MetricsRegistry,
        prefix: str,
        on_answer: Callable[[BatchRequest, str], None],
    ):
        check_positive(max_batch, "max_batch")
        check_positive(max_wait, "max_wait", strict=False)
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.cache: LRUCache[PredictionResult] = LRUCache(RESULT_CACHE_SIZE)
        self.in_flight: dict[str, BatchRequest] = {}
        self.stats = ScreeningStats()
        self.lock = threading.Lock()
        self._on_answer = on_answer
        self._counters = {
            name: metrics.counter(f"{prefix}.{name}")
            for name in ("cache_hits", "coalesced", "failures", "model_batches", "batched_vectors")
        }
        self._m_duplicates = metrics.counter(f"{prefix}.duplicates_dropped")
        self._m_batch_size = metrics.gauge(f"{prefix}.batch_size")

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump one :attr:`stats` field and its metric (lock held)."""
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        self._counters[name].inc(amount)

    def fill(
        self,
        inbox: "queue.Queue",
        batch: list,
        on_dequeue: Optional[Callable[[BatchRequest], Sequence[BatchRequest]]] = None,
    ) -> Optional[object]:
        """Block for the next inbox item, then micro-batch into ``batch``.

        A request joins the caller's ``batch`` *before* ``on_dequeue``
        swaps in the deliveries it returns, so an error leaves every
        dequeued request in the caller's hands.  Returns the first
        non-request item, or ``None`` once full or ``max_wait`` elapsed.
        """
        item = inbox.get()
        deadline = time.perf_counter() + self.max_wait
        while isinstance(item, BatchRequest):
            batch.append(item)
            if on_dequeue is not None:
                batch[-1:] = on_dequeue(item)
            if len(batch) >= self.max_batch:
                return None
            remaining = deadline - time.perf_counter()
            try:
                item = inbox.get(timeout=remaining) if remaining > 0 else inbox.get_nowait()
            except queue.Empty:
                return None
        return item

    @staticmethod
    def key(request: BatchRequest, predictor: NoisePredictor) -> Optional[str]:
        """The request's result-cache key (``None``: a scenario, never cached)."""
        if request.content_hash is None:
            if not isinstance(request.payload, (CurrentTrace, VectorFeatures)):
                return None
            request.content_hash = trace_content_hash(request.payload)
        return result_cache_key(request.payload, predictor, request.content_hash)

    def _claim(self, key: Optional[str], primaries: dict):
        """``(path, cached result or live primary)`` for one key (lock held)."""
        cached = self.cache.get(key) if key is not None else None
        if cached is not None:
            self._count("cache_hits")
            return "cache_hit", cached
        primary = primaries.get(key)
        # A primary that is already done is stale — cancelled by its caller,
        # or failed — and coalescing onto it would hand the newcomer an old
        # failure with no fresh attempt; the newcomer replaces it instead.
        if primary is not None and not primary.done:
            self._count("coalesced")
            return "coalesced", primary
        return "batched", None

    def admit(self, request: BatchRequest, predictor: NoisePredictor):
        """Submit-side fast path (caller holds :attr:`lock`): ``(path, found)``.

        ``"cache_hit"``/``"coalesced"`` go to :meth:`settle` after the lock
        is released; ``"batched"`` registers the request in flight to queue.
        """
        key = self.key(request, predictor)
        path, found = self._claim(key, self.in_flight)
        if path == "batched" and key is not None:
            request.in_flight_key = key
            self.in_flight[key] = request
        return path, found

    def settle(self, request: BatchRequest, path: str, found) -> None:
        """Answer a request :meth:`admit` or a group absorbed (lock not held).

        A cache hit is answered at once; a follower gets a private copy of
        its primary's answer (or its error, or its cancellation) once it lands.
        """
        if path == "cache_hit":
            runtime = time.perf_counter() - request.submitted_at
            hit = private_copy(found, request.vector_name, runtime_seconds=runtime)
            self._deliver(request, path, hit)
            return

        def relay(source: "Future[PredictionResult]") -> None:
            if source.cancelled():
                request.future.cancel()
            elif source.exception() is not None:
                request.fail(source.exception())
            else:
                self._deliver(request, path, private_copy(source.result(), request.vector_name))

        found.future.add_done_callback(relay)

    def _release(self, request: BatchRequest) -> None:
        """Drop the request's in-flight entry, if it still holds it (lock held)."""
        key = request.in_flight_key
        if key is not None and self.in_flight.get(key) is request:
            del self.in_flight[key]

    def _deliver(self, request: BatchRequest, path: str, result: PredictionResult) -> None:
        if not request.done:
            self._on_answer(request, path)
        if not request.resolve(result):
            # Duplicate delivery, cancellation or shutdown race: the request
            # was already answered elsewhere; this answer is dropped.
            self._m_duplicates.inc()

    def fail(self, requests: Sequence[BatchRequest], error: BaseException) -> None:
        """Fail ``requests`` and drop their in-flight entries (followers relay it)."""
        with self.lock:
            self._count("failures", len(requests))
            for request in requests:
                self._release(request)
        for request in requests:
            request.fail(error)

    def run_group(
        self,
        design_name: str,
        requests: Sequence[BatchRequest],
        load: Callable[[str], NoisePredictor],
        materialise: Callable[[BatchRequest, NoisePredictor], VectorFeatures],
    ) -> None:
        """Answer one design's slice of a batch with at most one forward pass.

        Cache hits and duplicate keys are settled; the rest go through
        ``materialise`` and one ``predict_batch``.  An :class:`Exception`
        fails the group's unanswered requests; a :class:`BaseException`
        propagates to the caller's crash path.
        """
        unanswered = list(requests)
        try:
            predictor = load(design_name)
            keys = [self.key(request, predictor) for request in requests]
            absorbed, forward, primaries = [], [], {}
            with self.lock:
                for request, key in zip(requests, keys):
                    path, found = self._claim(key, primaries)
                    if path != "batched":
                        absorbed.append((request, path, found))
                        continue
                    if key is not None:
                        primaries[key] = request
                    forward.append((request, key))
            unanswered = [request for request, _ in forward]
            for settled in absorbed:
                self.settle(*settled)
            if not forward:
                return
            features = [materialise(request, predictor) for request in unanswered]
            results = predictor.predict_batch(features, max_batch=self.max_batch)
        except Exception as error:  # noqa: BLE001 - forwarded to callers
            self.fail(unanswered, error)
            _LOG.warning(
                "%s: batch for design %s failed: %s",
                threading.current_thread().name,
                design_name,
                error,
            )
            return
        with self.lock:
            self._count("model_batches")
            self._count("batched_vectors", len(forward))
            self.stats.max_batch_observed = max(self.stats.max_batch_observed, len(forward))
            self._m_batch_size.set(len(forward))
            for (request, key), result in zip(forward, results):
                # A private copy, so a caller mutating its map cannot poison
                # later hits.
                if key is not None:
                    self.cache.put(key, replace(result, noise_map=result.noise_map.copy()))
                self._release(request)
        for (request, _), result in zip(forward, results):
            self._deliver(request, "batched", result)
