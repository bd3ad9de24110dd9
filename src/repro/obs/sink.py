"""Process-pool-safe event sink: JSONL shards merged into one run report.

The sink follows the corpus-manifest conventions from :mod:`repro.datagen`:

* every process of a run (the parent and each pool worker) flushes its
  telemetry into its **own** JSONL shard ``events-<label>.jsonl`` inside the
  run directory, written atomically (temp file + replace) so a crash or a
  concurrent reader never observes a torn shard;
* a shard is **cumulative** — re-flushing a label overwrites that label's
  shard with the process's complete current state, so flushing is idempotent
  and workers can flush after every task without an append protocol;
* the parent merges shards **deterministically**: shards are read in sorted
  filename order, counters and histograms combine by addition, spans are
  grouped per shard label, and the merged ``run_report.json`` is rendered as
  canonical JSON (sorted keys) — the same inputs always produce a
  byte-identical report, which the tier-1 suite asserts pool-vs-inline;
* the report is stamped with a ``config_hash`` (sha256 of the canonical JSON
  of the run configuration) and the git revision, like every other resumable
  artefact in the repository.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.io.atomic import atomic_write_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanTracer
from repro.utils.artifacts import git_revision

__all__ = [
    "SHARD_PREFIX",
    "RUN_REPORT_NAME",
    "REPORT_VERSION",
    "config_hash",
    "shard_path",
    "write_event_shard",
    "read_event_shard",
    "merge_shards",
    "build_run_report",
    "write_run_report",
    "load_run_report",
]

#: Filename prefix of per-process event shards inside a run directory.
SHARD_PREFIX = "events-"

#: Filename of the merged run report inside a run directory.
RUN_REPORT_NAME = "run_report.json"

#: Schema version stamped into every run report.
REPORT_VERSION = 1


def config_hash(config: Optional[dict]) -> str:
    """sha256 over the canonical JSON of the run configuration.

    Mirrors :meth:`repro.datagen.spec.CorpusSpec.config_hash` /
    :meth:`repro.eval.config.EvalConfig.config_hash`: sorted keys, compact
    separators.  ``None`` hashes the empty configuration, so every report
    carries *some* stamp.
    """
    canonical = json.dumps(config or {}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def shard_path(directory: Union[str, Path], label: str) -> Path:
    """Path of the event shard a process flushing as ``label`` writes."""
    return Path(directory) / f"{SHARD_PREFIX}{label}.jsonl"


def write_event_shard(
    directory: Union[str, Path],
    label: str,
    metrics: MetricsRegistry,
    spans: Union[SpanTracer, Sequence[dict], None] = None,
) -> Path:
    """Atomically (over)write the event shard for ``label``.

    The shard holds the process's *complete* current telemetry: one header
    line, one ``metric`` line per instrument (name-sorted), one ``span``
    line per retained span record.  Because the shard is cumulative,
    re-flushing is idempotent — the merge never double-counts.

    Parameters
    ----------
    directory:
        Run directory (created if missing).
    label:
        Shard label; the parent process uses ``"main"``, pool workers use
        ``w<pid>``.
    metrics:
        The registry whose :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
        to persist.
    spans:
        A :class:`~repro.obs.trace.SpanTracer` (its records are taken) or an
        explicit sequence of span record dicts; ``None`` writes no spans.

    Returns
    -------
    The shard path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(spans, SpanTracer):
        span_records = spans.records()
    else:
        span_records = list(spans) if spans is not None else []
    lines = [json.dumps({"kind": "shard", "label": label}, sort_keys=True)]
    snapshot = metrics.snapshot()
    for name in sorted(snapshot):
        lines.append(
            json.dumps(
                {"kind": "metric", "name": name, **snapshot[name]}, sort_keys=True
            )
        )
    for record in span_records:
        lines.append(json.dumps({"kind": "span", **record}, sort_keys=True))
    path = shard_path(directory, label)
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def read_event_shard(path: Union[str, Path]) -> dict:
    """Parse one shard into ``{"label", "metrics", "spans"}``.

    Raises
    ------
    ValueError
        On a malformed shard (missing header, unknown event kind).
    """
    path = Path(path)
    label: Optional[str] = None
    metrics: dict[str, dict] = {}
    spans: list[dict] = []
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            kind = event.pop("kind", None)
            if kind == "shard":
                label = event["label"]
            elif kind == "metric":
                metrics[event.pop("name")] = event
            elif kind == "span":
                spans.append(event)
            else:
                raise ValueError(f"{path}:{line_number}: unknown event kind {kind!r}")
    if label is None:
        raise ValueError(f"{path}: missing shard header line")
    return {"label": label, "metrics": metrics, "spans": spans}


def merge_shards(directory: Union[str, Path]) -> dict:
    """Deterministically merge every ``events-*.jsonl`` shard in a directory.

    Shards are read in sorted filename order; metric instruments combine
    across shards (counters/histograms add, gauge extremes widen) and spans
    stay grouped per shard label.

    Returns
    -------
    ``{"metrics": MetricsRegistry, "spans": {label: [records]},
    "shards": [labels]}`` — the in-memory merge that
    :func:`build_run_report` serialises.
    """
    directory = Path(directory)
    merged = MetricsRegistry()
    spans: dict[str, list[dict]] = {}
    labels: list[str] = []
    for path in sorted(directory.glob(f"{SHARD_PREFIX}*.jsonl")):
        shard = read_event_shard(path)
        labels.append(shard["label"])
        merged.merge_snapshot(shard["metrics"])
        spans.setdefault(shard["label"], []).extend(shard["spans"])
    return {"metrics": merged, "spans": spans, "shards": labels}


def build_run_report(
    directory: Union[str, Path],
    config: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Merge a run directory's shards into the run-report payload.

    Histogram instruments additionally carry a human-oriented ``summary``
    block (count / mean / p50 / p95 / p99 / min / max) alongside their full
    bucket snapshot, so the report is directly readable and still merges
    losslessly downstream.

    Parameters
    ----------
    directory:
        Run directory holding the event shards.
    config:
        The run configuration; hashed into ``config_hash`` and embedded.
    extra:
        Optional additional top-level keys (must not collide with the
        standard ones).
    """
    merged = merge_shards(directory)
    registry: MetricsRegistry = merged["metrics"]
    metrics: dict[str, dict] = {}
    for name, instrument in registry:
        payload = instrument.to_dict()
        if payload.get("type") == "histogram":
            payload["summary"] = instrument.summary()
        metrics[name] = payload
    report = {
        "version": REPORT_VERSION,
        "config_hash": config_hash(config),
        "git_rev": git_revision(),
        "config": config or {},
        "shards": merged["shards"],
        "metrics": metrics,
        "spans": merged["spans"],
    }
    if extra:
        collisions = set(extra) & set(report)
        if collisions:
            raise ValueError(f"extra report keys collide: {sorted(collisions)}")
        report.update(extra)
    return report


def write_run_report(
    directory: Union[str, Path],
    config: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> Path:
    """Merge shards and atomically write ``run_report.json``; returns its path.

    The report is rendered as canonical JSON (sorted keys, two-space
    indent): merging the same shards always produces a byte-identical file.
    """
    directory = Path(directory)
    report = build_run_report(directory, config=config, extra=extra)
    path = directory / RUN_REPORT_NAME
    atomic_write_text(path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return path


def load_run_report(path: Union[str, Path]) -> dict:
    """Load a ``run_report.json`` (accepts the file or its run directory).

    Raises
    ------
    ValueError
        When the payload's ``version`` is newer than this code understands.
    """
    path = Path(path)
    if path.is_dir():
        path = path / RUN_REPORT_NAME
    payload = json.loads(path.read_text())
    version = payload.get("version", 0)
    if version > REPORT_VERSION:
        raise ValueError(
            f"run report {path} has version {version}; this code understands "
            f"≤ {REPORT_VERSION}"
        )
    return payload
