"""Crash-safety layer: retries, quarantine, checkpoints, typed failures.

``repro.resilience`` is what lets the offline pipeline treat worker death,
solver blow-ups and bit-rot as *expected inputs* instead of run-enders:

* :mod:`~repro.resilience.errors` — every way the pipeline gives up is a
  typed exception carrying evidence (:class:`CorruptShardError` names the
  shard and both hashes, :class:`ShardFailedError` lists the exhausted
  shards, :class:`DivergenceError` names the epoch).
* :mod:`~repro.resilience.retry` — the shared
  :class:`RetryPolicy` / :func:`run_with_retry` vocabulary with injectable
  sleep.
* :mod:`~repro.resilience.jobs` — :func:`run_jobs`, the one pooled-job
  runner behind datagen shards, eval sweep rows and serving sweep jobs.
* :mod:`~repro.resilience.quarantine` — poisoned vectors and rows become
  :class:`QuarantineRecord` entries in the artefact instead of crashes.
* :mod:`~repro.resilience.checkpoint` — preemption-safe training:
  :class:`CheckpointPolicy` / :class:`TrainingGuard` give bit-identical
  resume and divergence rollback via atomic ``.npz`` snapshots.

The failure *injection* side lives in :mod:`repro.faults`; this package is
the *recovery* side.  See ``docs/resilience.md`` for the failure model and
the chaos-test contract.
"""

from repro.resilience.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    TrainingCheckpoint,
    TrainingGuard,
    divergence_detail,
)
from repro.resilience.errors import (
    CheckpointError,
    CorruptShardError,
    DivergenceError,
    ResilienceError,
    ShardFailedError,
)
from repro.resilience.jobs import JobOutcome, run_jobs
from repro.resilience.quarantine import QuarantineRecord, poisoned_sample_indices
from repro.resilience.retry import RetryPolicy, run_with_retry

__all__ = [
    "ResilienceError",
    "CorruptShardError",
    "ShardFailedError",
    "DivergenceError",
    "CheckpointError",
    "RetryPolicy",
    "run_with_retry",
    "JobOutcome",
    "run_jobs",
    "QuarantineRecord",
    "poisoned_sample_indices",
    "CheckpointPolicy",
    "TrainingCheckpoint",
    "CheckpointManager",
    "TrainingGuard",
    "divergence_detail",
]
