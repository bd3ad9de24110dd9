"""Scenario sweeps over the cross-design campaign's trained models.

Where :class:`~repro.eval.protocol.CrossDesignEvaluator` measures accuracy on
the held-out designs' *random* test vectors, :class:`ScenarioSweep` stresses
the same trained models with the named workload scenarios of
:mod:`repro.workloads.scenarios` — DVFS ramps, power viruses, clock-gating
storms — across trace-length and seed variants.  Every row is the serving
sweep's screening job (:func:`repro.serving.sweep.screen_job`: the held-out
design's scenario trace predicted through the campaign's served checkpoint)
plus the scenario's simulated ground truth, and reports the noise-map error
and hotspot precision/recall, so the sweep answers the question the random
vectors cannot: does the model hold up on *structured* workloads it was
never trained for?

Rows fan out through :func:`repro.resilience.jobs.run_jobs` with the serving
sweep's worker initializer (checkpoints cross the process boundary, each
worker builds its designs and transient factorisations once, failed rows
retry in waves), and the sweep manifest (``sweep.json``) follows the same
resumable-artefact conventions: config hash, atomic row-by-row saves,
complete rows skipped.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.core.metrics import hotspot_precision_recall
from repro.eval.config import EvalConfig
from repro.io.atomic import atomic_write_text
from repro.io.results import ExperimentRecord, format_table
from repro.pdn.designs import Design, design_from_name
from repro.resilience.jobs import run_jobs
from repro.resilience.retry import RetryPolicy
from repro.serving.sweep import ScenarioJob, screen_job, worker_init
from repro.sim.dynamic_noise import DynamicNoiseAnalysis
from repro.sim.transient import TransientOptions
from repro import faults, obs
from repro.utils import get_logger

__all__ = ["ScenarioSweep"]

_LOG = get_logger("eval.sweep")

#: Sweep manifest file name inside a campaign workdir.
SWEEP_NAME = "sweep.json"

#: Sweep manifest schema version.
SWEEP_VERSION = 1


def _design_for_label(references: dict[str, str], label: str) -> Design:
    """Build a campaign design from its label (``"D3"`` -> ``"D3@0.12"``)."""
    return design_from_name(references[label])


# Ground-truth analyses of this process, keyed by design label; an entry is
# reused only for the design object the screening worker currently caches.
_ANALYSES: dict[str, tuple[Design, float, DynamicNoiseAnalysis]] = {}


def _analysis(label: str, design: Design, dt: float) -> DynamicNoiseAnalysis:
    """Build (or fetch) the cached ground-truth analysis for one design."""
    cached = _ANALYSES.get(label)
    if cached is None or cached[0] is not design or cached[1] != dt:
        options = TransientOptions(store_waveform=False, solver_method="cholesky")
        cached = (design, dt, DynamicNoiseAnalysis(design, dt, options))
        _ANALYSES[label] = cached
    return cached[2]


def _run_sweep_job(job: ScenarioJob) -> dict:
    """Run one sweep row inside a worker: the screening job plus ground truth."""
    faults.active().before_row(job.key)
    design, trace, prediction, predict_s = screen_job(job)
    truth = _analysis(job.design, design, job.dt).run(trace)
    true_worst = float(np.max(truth.tile_noise))
    precision, recall = hotspot_precision_recall(
        prediction.noise_map, truth.tile_noise, design.spec.hotspot_threshold
    )
    return {
        "heldout": job.design,
        "scenario": job.scenario_label,
        "num_steps": job.num_steps,
        "seed": job.seed,
        "true_worst_noise_v": true_worst,
        "predicted_worst_noise_v": prediction.worst_noise,
        "worst_noise_error_mv": abs(prediction.worst_noise - true_worst) * 1e3,
        "map_mae_mv": float(np.mean(np.abs(prediction.noise_map - truth.tile_noise))) * 1e3,
        "hotspot_precision": precision,
        "hotspot_recall": recall,
        "sim_runtime_s": truth.runtime_seconds,
        "predict_runtime_s": predict_s,
        "speedup": truth.runtime_seconds / predict_s if predict_s > 0 else float("inf"),
        "worker_pid": os.getpid(),
    }


class ScenarioSweep:
    """Fans scenario-variant evaluations across a process pool, resumably.

    Parameters
    ----------
    config:
        The campaign configuration (supplies the scenario grid, the design
        references and the held-out labels).
    workdir:
        The campaign workdir of the :class:`CrossDesignEvaluator` that
        trained the checkpoints; the sweep reads ``<workdir>/checkpoints``
        and writes ``<workdir>/sweep.json``.
    retry:
        Per-row retry budget (see
        :class:`~repro.resilience.retry.RetryPolicy`).  Rows that exhaust
        it are *quarantined* into the manifest — recorded with their final
        error and re-attempted on the next resumed run — instead of killing
        the sweep.
    """

    def __init__(
        self,
        config: EvalConfig,
        workdir: Union[str, Path],
        retry: RetryPolicy = RetryPolicy(),
    ):
        self.config = config
        self.workdir = Path(workdir)
        self.registry_root = self.workdir / "checkpoints"
        self.retry = retry

    @property
    def manifest_path(self) -> Path:
        """Location of the sweep's resumable manifest."""
        return self.workdir / SWEEP_NAME

    def jobs(self) -> list[ScenarioJob]:
        """The full job grid: held-out designs x scenarios x variants."""
        return [
            ScenarioJob(
                design=heldout, scenario=scenario, num_steps=steps, dt=self.config.dt,
                seed=seed,
            )
            for heldout in self.config.heldout
            for scenario in self.config.scenarios
            for steps in self.config.scenario_steps
            for seed in self.config.scenario_seeds
        ]

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #

    def _load_manifest(self) -> dict:
        """The manifest payload (empty when none exists).

        Raises
        ------
        ValueError
            On a schema-version or config-hash mismatch — the manifest
            belongs to a different campaign.
        """
        if not self.manifest_path.exists():
            return {}
        payload = json.loads(self.manifest_path.read_text())
        if payload.get("version") != SWEEP_VERSION:
            raise ValueError(
                f"unsupported sweep manifest version {payload.get('version')!r} "
                f"in {self.manifest_path}"
            )
        expected = self.config.config_hash()
        if payload.get("config_hash") != expected:
            raise ValueError(
                f"sweep manifest at {self.manifest_path} belongs to a different "
                f"campaign (manifest hash {payload.get('config_hash', '')[:12]}…, "
                f"config hash {expected[:12]}…); use a fresh workdir"
            )
        return payload

    def load_rows(self) -> dict[str, dict]:
        """Completed rows from the manifest (empty when none exists).

        Raises ``ValueError`` when the manifest belongs to a different campaign.
        """
        return dict(self._load_manifest().get("rows", {}))

    def load_quarantined(self) -> dict[str, dict]:
        """Quarantined rows from the manifest: key -> {error, attempts}.

        Empty when the manifest is missing or predates the resilience layer;
        raises ``ValueError`` when it belongs to a different campaign.
        """
        return dict(self._load_manifest().get("quarantined", {}))

    def _save_rows(
        self, rows: dict[str, dict], quarantined: Optional[dict[str, dict]] = None
    ) -> None:
        """Persist the manifest atomically (rows + quarantine + health)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        quarantined = quarantined or {}
        payload = {
            "version": SWEEP_VERSION,
            "config_hash": self.config.config_hash(),
            "rows": rows,
            "quarantined": quarantined,
            "health": {
                "rows_completed": len(rows),
                "rows_quarantined": len(quarantined),
            },
        }
        atomic_write_text(self.manifest_path, json.dumps(payload, indent=2, sort_keys=True))

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        num_workers: Optional[int] = None,
        resume: bool = True,
        faults_factory: Optional[Callable[[], "faults.FaultInjector"]] = None,
    ) -> list[ExperimentRecord]:
        """Run (or finish) the sweep and return every completed row as a record.

        Pending jobs fan out across worker processes (``0`` runs inline;
        platforms that refuse to spawn degrade to inline execution); the
        manifest is re-saved after every finished job, so an interrupted
        sweep resumes from the last completed row.  Failed rows are retried
        under the sweep's :class:`~repro.resilience.retry.RetryPolicy`; rows
        that exhaust it are quarantined in the manifest (and re-attempted by
        the next resumed run) rather than aborting the sweep.
        """
        jobs = self.jobs()
        rows = self.load_rows() if resume else {}
        # Previously quarantined rows get a fresh chance each resumed run:
        # the quarantine is rebuilt from this run's failures only.
        quarantined: dict[str, dict] = {}
        pending = [job for job in jobs if job.key not in rows]
        new_target = len(pending)
        if pending:
            design_factory = functools.partial(_design_for_label, dict(self.config.designs))
            initargs = (str(self.registry_root), design_factory, faults_factory)
            for outcome in run_jobs(
                _run_sweep_job, pending, retry=self.retry, num_workers=num_workers,
                initializer=worker_init, initargs=initargs, unit="row",
            ):
                job = outcome.task
                if outcome.error is None:
                    rows[job.key] = outcome.value
                else:
                    obs.metrics().counter("faults.quarantined_rows").inc()
                    quarantined[job.key] = {"error": outcome.error, "attempts": outcome.attempts}
                    _LOG.warning("sweep row %s quarantined after %d attempts: %s",
                                 job.key, outcome.attempts, outcome.error)
                self._save_rows(rows, quarantined)
        else:
            _LOG.info("sweep already complete (%d rows)", len(rows))
        self._save_rows(rows, quarantined)
        records = [
            ExperimentRecord(
                experiment="scenario_sweep",
                label=job.key,
                values=rows[job.key],
            )
            for job in jobs
            if job.key in rows
        ]
        _LOG.info(
            "scenario sweep: %d rows (%d new, %d quarantined)\n%s",
            len(records),
            new_target - len(quarantined),
            len(quarantined),
            format_table(records, title="scenario sweep"),
        )
        return records
