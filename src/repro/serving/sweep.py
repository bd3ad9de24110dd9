"""The per-process scenario-screening job, and the serving sweep over it.

:func:`screen_job` is the pipeline's one scenario-screening step: fetch
the worker's cached design, fetch its predictor from the worker's
:class:`~repro.serving.registry.PredictorRegistry`, build the scenario trace
(see :mod:`repro.workloads.scenarios`) and predict it under one
``sweep.job`` span.  :func:`worker_init` sets up that per-process state, so
designs and predictors are built/loaded once per worker rather than once
per job.

Two sweeps fan the step out through :func:`repro.resilience.jobs.run_jobs`,
the runner the datagen engine shares.  :func:`screen_scenarios` here formats
each prediction into an :class:`~repro.io.results.ExperimentRecord` row
ready for the standard table/CSV/JSON exporters; the eval sweep
(:class:`repro.eval.ScenarioSweep`) adds transient-simulation ground truth
to the same step and reports the error.

Checkpoints — not live predictor objects — are what crosses the process
boundary, which keeps the jobs picklable and guarantees every worker serves
exactly the bytes that were registered.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.inference import PredictionResult
from repro.io.results import ExperimentRecord
from repro.pdn.designs import Design, DesignFactory, design_from_name
from repro.resilience.errors import ResilienceError
from repro.resilience.jobs import run_jobs
from repro.resilience.retry import RetryPolicy
from repro.serving.registry import PredictorRegistry
from repro.sim.waveform import CurrentTrace
from repro import faults, obs
from repro.workloads.scenarios import build_scenario_trace
from repro.workloads.specs import ScenarioLike, normalize_scenario


@dataclass(frozen=True)
class ScenarioJob:
    """One (design, scenario) screening task.

    Attributes
    ----------
    design:
        Design name understood by the sweep's design factory (and matching a
        registered checkpoint).
    scenario:
        A family name from :func:`repro.workloads.scenarios.scenario_families`
        or a :class:`~repro.workloads.specs.ScenarioSpec` — parameter
        variants and compositions screen exactly like named scenarios.
    num_steps / dt:
        Trace length and time step handed to the scenario builder.
    seed:
        Seed for the scenario's random choices.
    """

    design: str
    scenario: ScenarioLike
    num_steps: int = 200
    dt: float = 1e-11
    seed: int = 0

    @property
    def scenario_label(self) -> str:
        """Short scenario identifier (family name, or family + spec hash)."""
        return normalize_scenario(self.scenario).label

    @property
    def key(self) -> str:
        """Stable manifest key of this job (name-only jobs keep legacy keys)."""
        return f"{self.design}:{self.scenario_label}:{self.num_steps}:s{self.seed}"


# Per-worker state, initialised once per process by worker_init.
_WORKER_REGISTRY: Optional[PredictorRegistry] = None
_WORKER_FACTORY: Optional[DesignFactory] = None
_WORKER_DESIGNS: dict[str, Design] = {}


def worker_init(
    registry_root: str,
    design_factory: DesignFactory,
    faults_factory: Optional[Callable[[], "faults.FaultInjector"]] = None,
) -> None:
    """Process-pool initializer: checkpoint registry, design factory, fresh cache.

    ``faults_factory`` mirrors the datagen engine's: when given, its product
    is installed as the process-global fault injector so pooled jobs script
    the same failures an inline run would.
    """
    global _WORKER_REGISTRY, _WORKER_FACTORY
    _WORKER_REGISTRY = PredictorRegistry(registry_root)
    _WORKER_FACTORY = design_factory
    _WORKER_DESIGNS.clear()
    if faults_factory is not None:
        faults.install(faults_factory())


def screen_job(job: ScenarioJob) -> tuple[Design, CurrentTrace, PredictionResult, float]:
    """Build and predict one job's scenario trace inside a worker.

    Returns the worker's design, the trace, the prediction and the predict
    seconds.
    """
    assert _WORKER_REGISTRY is not None and _WORKER_FACTORY is not None
    design = _WORKER_DESIGNS.get(job.design)
    if design is None:
        design = _WORKER_FACTORY(job.design)
        _WORKER_DESIGNS[job.design] = design
    predictor = _WORKER_REGISTRY.get(job.design)
    trace = build_scenario_trace(
        job.scenario, design, num_steps=job.num_steps, dt=job.dt, seed=job.seed
    )
    with obs.get_tracer().span(
        "sweep.job", design=job.design, scenario=job.scenario_label
    ) as predict_span:
        result = predictor.predict_trace(trace, design)
    obs.metrics().histogram("sweep.predict_seconds").observe(predict_span.duration_s)
    return design, trace, result, predict_span.duration_s


def _run_job(job: ScenarioJob) -> dict:
    """Screen one scenario inside a worker; returns plain record fields."""
    design, _, result, predict_s = screen_job(job)
    hotspots = result.hotspot_map(design.spec.hotspot_threshold)
    return {
        "design": job.design,
        "scenario": job.scenario_label,
        "worst_noise_v": result.worst_noise,
        "mean_noise_v": float(np.mean(result.noise_map)),
        "hotspot_fraction": float(np.mean(hotspots)),
        "runtime_s": predict_s,
        "worker_pid": os.getpid(),
    }


def screen_scenarios(
    jobs: Sequence[ScenarioJob],
    registry_root: Union[str, Path],
    design_factory: DesignFactory = design_from_name,
    num_workers: Optional[int] = None,
    experiment: str = "serving_sweep",
) -> list[ExperimentRecord]:
    """Screen every job, fanned out across worker processes.

    Parameters
    ----------
    jobs:
        The (design, scenario) tasks; job order is preserved in the output.
    registry_root:
        Directory of per-design checkpoints (see
        :meth:`PredictorRegistry.register`); every design referenced by a job
        must have a checkpoint there.
    design_factory:
        Top-level callable rebuilding a design from its name inside each
        worker (must be importable, i.e. picklable by reference).
    num_workers:
        Process count; ``0`` runs everything inline in this process (useful
        for tests and debugging), ``None`` picks ``min(len(jobs), cpu_count)``.
        When the platform refuses to spawn processes the sweep degrades to
        inline execution rather than failing.
    experiment:
        Experiment tag stamped on every record.

    Raises
    ------
    repro.resilience.ResilienceError
        On the first job that raises (jobs are not retried), identically
        inline and pooled: ``scenario job <design>:<scenario> failed:
        <repr(error)>``, the ``repr`` taken in the process that ran the job.
    """
    records = []
    for outcome in run_jobs(
        _run_job, jobs, retry=RetryPolicy(max_attempts=1), num_workers=num_workers,
        initializer=worker_init, initargs=(str(registry_root), design_factory),
        unit="scenario job",
    ):
        job = outcome.task
        label = f"{job.design}:{job.scenario_label}"
        if outcome.error is not None:
            raise ResilienceError(f"scenario job {label} failed: {outcome.error}")
        records.append(ExperimentRecord(experiment=experiment, label=label, values=outcome.value))
    return records
