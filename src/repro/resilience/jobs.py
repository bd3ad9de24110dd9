"""One pooled-job runner: process pool, inline fallback, retry waves.

:func:`run_jobs` is the only process-pool loop of the pipeline: corpus
shards (:func:`repro.datagen.generate_corpus`), eval sweep rows
(:class:`repro.eval.ScenarioSweep`) and serving sweep jobs
(:func:`repro.serving.screen_scenarios`) all fan out through it and keep
only their own artefacts (manifests, quarantine, records).  The two sweeps
share one worker initializer and screening step as well
(:mod:`repro.serving.sweep`).
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from repro import obs
from repro.resilience.retry import RetryPolicy
from repro.utils import get_logger

__all__ = ["JobOutcome", "run_jobs"]

_LOG = get_logger("resilience.jobs")


@dataclass(frozen=True)
class JobOutcome:
    """Final outcome of one task after ``attempts`` attempts.

    ``value`` is what the job returned; ``error`` is ``None`` on success,
    else the ``repr`` of the last attempt's exception, taken where it ran.
    """

    task: Any
    value: Any
    error: Optional[str]
    attempts: int


def _attempt(job: Callable[[Any], Any], task: Any) -> tuple[bool, Any]:
    """Run one attempt; an :class:`Exception` becomes its ``repr``."""
    try:
        return True, job(task)
    except Exception as error:
        return False, repr(error)
    finally:
        obs.flush_shard()


def _abandon(pool: ProcessPoolExecutor, reason: str, on_broken) -> None:
    """Kill and reap every process of ``pool``, then run ``on_broken``."""
    _LOG.warning("%s; running the remaining tasks inline", reason)
    # No public way to kill pool workers before Python 3.14; shutdown alone
    # would wait for a stuck worker to finish on its own.
    for process in list(pool._processes.values()):
        process.kill()
    pool.shutdown(wait=True, cancel_futures=True)
    if on_broken is not None:
        on_broken()


def run_jobs(
    job: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    retry: RetryPolicy,
    num_workers: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
    timeout_s: Optional[float] = None,
    unit: str = "job",
    on_broken: Optional[Callable[[], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[JobOutcome]:
    """Run ``job`` on every task; yield each task's final :class:`JobOutcome`.

    ``job`` must be picklable (top-level) and runs once per attempt; this
    process's telemetry shard is flushed after each attempt.  Failed tasks
    are retried in waves — all first attempts, then all second attempts —
    sleeping ``retry.delay(wave)`` between waves; a wave hands outcomes back
    in task order as they complete.  Each failed attempt ticks
    ``faults.errors``, each scheduled retry ``faults.retries`` and each task
    out of budget ``faults.exhausted``.  ``num_workers=None`` means
    ``min(len(tasks), cpu_count)`` and ``0`` means inline.  ``initializer``
    runs in each worker and, before the first inline attempt, once here.

    ``timeout_s`` bounds the wait for each pooled result in turn (inline
    attempts cannot be bounded): an overrun is a failed attempt counted in
    ``faults.<unit>_timeouts`` and abandons the pool, as a broken pool does.
    ``unit`` names one task in logs and timeout errors; ``on_broken`` runs
    once an abandoned pool's processes are reaped.  A
    :class:`~repro.faults.WorkerKilled` unwinds unchanged, never retried.
    """
    if num_workers is None:
        num_workers = min(len(tasks), os.cpu_count() or 1)
    pool = None
    if tasks and num_workers > 0:
        try:
            pool = ProcessPoolExecutor(num_workers, initializer=initializer, initargs=initargs)
        except (OSError, NotImplementedError) as error:
            _LOG.warning("cannot create process pool (%s); running %ss inline", error, unit)
    inline_ready = False
    metrics = obs.metrics()
    attempts = [0] * len(tasks)
    pending = list(range(len(tasks)))
    wave = 0
    try:
        while pending:
            futures = []
            if pool is not None:
                try:
                    futures = [pool.submit(_attempt, job, tasks[i]) for i in pending]
                except BrokenProcessPool as error:  # a worker died between waves
                    _abandon(pool, f"process pool broke ({error})", on_broken)
                    pool = None
            retry_next = []
            for future, position in zip(futures or [None] * len(pending), pending):
                result = None
                if pool is not None:
                    try:
                        result = future.result(timeout=timeout_s)
                    except FutureTimeoutError:
                        metrics.counter(f"faults.{unit}_timeouts").inc()
                        result = (False, f"TimeoutError('{unit} exceeded {timeout_s}s deadline')")
                        _abandon(pool, f"a {unit} exceeded its {timeout_s}s deadline", on_broken)
                        pool = None
                    except (BrokenProcessPool, pickle.PicklingError) as error:
                        # Worker startup/transport failure, not a task failure.
                        _abandon(pool, f"process pool broke ({error})", on_broken)
                        pool = None
                elif future is not None and future.done() and not future.cancelled() and (
                    future.exception() is None
                ):
                    result = future.result()  # finished before the pool was abandoned
                if result is None:
                    if not inline_ready and initializer is not None:
                        initializer(*initargs)
                    inline_ready = True
                    result = _attempt(job, tasks[position])
                ok, value = result
                attempts[position] += 1
                if ok:
                    yield JobOutcome(tasks[position], value, None, attempts[position])
                    continue
                metrics.counter("faults.errors").inc()
                if attempts[position] >= retry.max_attempts:
                    metrics.counter("faults.exhausted").inc()
                    yield JobOutcome(tasks[position], None, value, attempts[position])
                else:
                    metrics.counter("faults.retries").inc()
                    retry_next.append(position)
            pending, wave = retry_next, wave + 1
            if pending and retry.delay(wave) > 0:
                sleep(retry.delay(wave))
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
