"""Pooled multi-design training for the cross-design protocol.

The paper's headline claim is about *unseen* designs: a model trained on a
pool of PDN designs predicts worst-case noise on a design it never saw.
:class:`MultiDesignTrainer` trains one model on a *pool* of per-design
corpora, on the same epoch driver and batched engine as the single-design
trainer (:func:`repro.core.training.train_epochs` over a
:class:`repro.core.training.BatchedEngine` holding every design):

* the feature normaliser is fitted once on the pooled training partitions
  (current/noise percentiles over every design, distance scale from the
  largest die in the pool), so one scale set serves every design;
* every minibatch is homogeneous in design — the CNN is fully convolutional,
  so designs of different tile shapes share one model, but each forward pass
  uses its design's own distance tensor;
* the per-epoch schedule interleaves the designs' minibatches in seeded
  shuffled order; validation is one sample-weighted loss over the pool.

Training is deterministic under a fixed seed, exactly like the single-design
trainer (the determinism suite asserts it).  Pooled training runs without a
checkpoint guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.model import WorstCaseNoiseNet
from repro.core.training import BatchedEngine, TrainingHistory, train_epochs
from repro.features.extraction import FeatureNormalizer
from repro.utils import get_logger
from repro.workloads.dataset import DatasetSplit, NoiseDataset, expansion_split

__all__ = ["MultiDesignTrainer", "PooledTrainingResult", "fit_pooled_normalizer"]

_LOG = get_logger("eval.training")

def fit_pooled_normalizer(
    datasets: Mapping[str, NoiseDataset],
    splits: Mapping[str, DatasetSplit],
    percentile: float = 99.0,
) -> FeatureNormalizer:
    """Fit one :class:`FeatureNormalizer` over a pool of design corpora.

    Scales are derived from the *training* partitions only (no leakage from
    validation/test vectors): the current and noise scales are pooled
    percentiles across every design, the distance scale is the largest
    distance value of any design in the pool — so the biggest die still
    normalises into the network's input range.

    Parameters
    ----------
    datasets:
        Per-design corpora (label -> dataset).
    splits:
        Per-design partitions; only ``train`` indices contribute.
    percentile:
        Percentile used for the current/noise scales.
    """
    currents: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    distance_scale = 0.0
    for label, dataset in datasets.items():
        distance_scale = max(distance_scale, float(np.max(dataset.distance)))
        for index in splits[label].train:
            sample = dataset.samples[int(index)]
            currents.append(sample.features.current_maps.ravel())
            targets.append(sample.target.ravel())
    pooled_currents = np.concatenate(currents) if currents else np.zeros(0)
    positive = pooled_currents[pooled_currents > 0]
    current_scale = float(np.percentile(positive, percentile)) if positive.size else 1.0
    pooled_noise = np.concatenate(targets) if targets else np.zeros(0)
    noise_scale = float(np.percentile(pooled_noise, percentile)) if pooled_noise.size else 1.0
    return FeatureNormalizer(
        current_scale=current_scale if current_scale > 0 else 1.0,
        distance_scale=distance_scale if distance_scale > 0 else 1.0,
        noise_scale=noise_scale if noise_scale > 0 else 1.0,
    )


@dataclass
class PooledTrainingResult:
    """Everything a cross-design evaluation needs after pooled training."""

    model: WorstCaseNoiseNet
    normalizer: FeatureNormalizer
    history: TrainingHistory
    splits: dict[str, DatasetSplit]

    @property
    def num_train_samples(self) -> int:
        """Total training-partition size across the design pool."""
        return sum(len(split.train) for split in self.splits.values())


class MultiDesignTrainer:
    """Trains one :class:`WorstCaseNoiseNet` on a pool of design corpora.

    Parameters
    ----------
    datasets:
        Per-design labelled corpora (label -> :class:`NoiseDataset`), all
        sharing one bump count (the distance tensor's channel dimension is
        baked into the model).  Tile shapes may differ — the network is
        fully convolutional, and minibatches never mix designs.
    splits:
        Optional per-design partitions; computed with the expansion
        strategy (per design, from ``training_config.seed``) when omitted.
    model_config / training_config:
        Hyper-parameters; the ``sequential`` engine flag is ignored (pooled
        training is always batched).
    train_fraction / validation_ratio:
        Expansion-split shares used when ``splits`` is omitted.
    """

    def __init__(
        self,
        datasets: Mapping[str, NoiseDataset],
        splits: Optional[Mapping[str, DatasetSplit]] = None,
        model_config: ModelConfig = ModelConfig(),
        training_config: TrainingConfig = TrainingConfig(),
        train_fraction: float = 0.7,
        validation_ratio: float = 0.3,
    ):
        if not datasets:
            raise ValueError("pooled training needs at least one design corpus")
        self.datasets = dict(datasets)
        bump_counts = {label: ds.num_bumps for label, ds in self.datasets.items()}
        if len(set(bump_counts.values())) != 1:
            raise ValueError(
                "all designs of a pool must share one bump count "
                f"(the model's distance channels); got {bump_counts}"
            )
        for label, dataset in self.datasets.items():
            if len(dataset) < 3:
                raise ValueError(
                    f"design {label!r} has {len(dataset)} samples; "
                    "the expansion split needs at least 3"
                )
        self.model_config = model_config
        self.training_config = training_config
        if splits is None:
            splits = {
                label: expansion_split(
                    dataset,
                    train_fraction=train_fraction,
                    validation_ratio=validation_ratio,
                    seed=training_config.seed,
                )
                for label, dataset in self.datasets.items()
            }
        self.splits = dict(splits)
        self.normalizer = fit_pooled_normalizer(self.datasets, self.splits)
        self.model = WorstCaseNoiseNet(
            num_bumps=next(iter(bump_counts.values())), config=model_config
        )

    def train(self) -> PooledTrainingResult:
        """Run the pooled training loop and return the best model.

        One :class:`~repro.core.training.BatchedEngine` over every design of
        the pool, driven by :func:`~repro.core.training.train_epochs`.
        """
        labels = list(self.datasets)
        engine = BatchedEngine(
            self.model,
            self.training_config,
            self.normalizer,
            [(self.datasets[label], self.splits[label]) for label in labels],
        )
        history = train_epochs(self.model, self.training_config, engine)
        _LOG.info(
            "pooled training over %s: %d epochs, best val %.5f",
            labels,
            history.num_epochs,
            history.best_validation_loss,
        )
        return PooledTrainingResult(
            model=self.model,
            normalizer=self.normalizer,
            history=history,
            splits=self.splits,
        )
