"""Cross-design evaluation: the layer that *verifies* the reproduction.

The first three subsystems of this repository train (:mod:`repro.core`),
generate data (:mod:`repro.datagen`) and serve (:mod:`repro.serving`); this
package closes the loop by measuring the paper's headline claim — a CNN
trained on a pool of PDN designs predicts worst-case dynamic noise on
*unseen* designs — and locking the measured accuracy in as a regression
gate:

* :class:`CrossDesignEvaluator` runs leave-one-design-out campaigns: pooled
  training on every other design (:class:`MultiDesignTrainer`), evaluation
  of the held-out design through the real serving stack, one paper-style
  report row per held-out design, resumable ``report.json`` artefacts.
* :class:`ScenarioSweep` stresses the trained models with named workload
  scenarios across trace-length/seed variants over a process pool, with the
  same resumable-manifest conventions.
* :class:`BaselineStore` pins the gated accuracy metrics (content-hashed,
  with per-metric tolerances) under ``eval/baselines/``; CI re-runs the
  campaign via ``scripts/run_eval.py`` and fails on drift.

Budgets (``tiny`` / ``smoke`` / ``paper``) are registered in
:mod:`repro.eval.config`; see ``docs/evaluation.md`` for the protocols and
the baseline-refresh workflow.
"""

from repro.eval.baselines import (
    DEFAULT_TOLERANCES,
    Baseline,
    BaselineStore,
    DriftReport,
    MetricDrift,
    metrics_content_hash,
)
from repro.eval.config import EvalConfig, budget, budget_names
from repro.eval.protocol import CrossDesignEvaluator, CrossDesignReport, HeldoutEvaluation
from repro.eval.sweep import ScenarioSweep
from repro.eval.training import MultiDesignTrainer, PooledTrainingResult, fit_pooled_normalizer

__all__ = [
    "EvalConfig",
    "budget",
    "budget_names",
    "MultiDesignTrainer",
    "PooledTrainingResult",
    "fit_pooled_normalizer",
    "CrossDesignEvaluator",
    "CrossDesignReport",
    "HeldoutEvaluation",
    "ScenarioSweep",
    "BaselineStore",
    "Baseline",
    "DriftReport",
    "MetricDrift",
    "metrics_content_hash",
    "DEFAULT_TOLERANCES",
]
