"""Training engine for the worst-case noise prediction model (Sec. 3.4.4).

The trainer consumes a labelled :class:`~repro.workloads.dataset.NoiseDataset`
plus a train/validation/test split (usually produced by the training-set
expansion strategy), fits the feature normaliser on the training partition,
and optimises the model with Adam on the L1 loss of the normalised noise
maps.  Early stopping tracks the validation loss and the best-epoch weights
are restored at the end.

Every trainer in the repository runs on one epoch driver,
:func:`train_epochs`.  It owns the Adam optimiser, the seeded shuffle
stream, the step loop with its fault seam, the per-epoch telemetry, the
divergence check and checkpoint guard, the early-stopping bookkeeping
(:func:`note_epoch`), the best-state restore and the wall clock.  What a
step computes comes from an *engine* — an object with ``num_train``,
``num_validation``, ``schedule(rng)``, ``step(batch)`` and
``validation_loss()``:

* :class:`BatchedEngine` (default) — a pool of design parts, each
  normalised *once* into stacked ``(N, T, m, n)`` current tensors (per-sample
  arrays when stamp counts are ragged), ``(N, m, n)`` targets and the
  design's normalised distance tensor.  Every minibatch stays within one
  design and runs through :meth:`WorstCaseNoiseNet.forward_batch` as a
  single autograd graph built under :class:`~repro.nn.tensor.record_graph`;
  validation is one sample-weighted batched loss over the parts under
  ``no_grad``.  The single-design trainer is a one-design pool; the pooled
  cross-design trainer of :mod:`repro.eval.training` passes every design.
* the sequential engine (``TrainingConfig.sequential=True``) — the original
  per-sample loop, kept bit-exact with the pre-batched trainer as the
  denominator of the training-speed gate.

Both engines draw identical shuffle streams from the same seed, so their
minibatch compositions match and the loss curves differ only by float
re-association (see ``benchmarks/bench_training.py`` for the measured
tolerance and speedup).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro import faults, obs
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.model import WorstCaseNoiseNet
from repro.features.extraction import FeatureNormalizer, fit_normalizer
from repro.nn import Adam, huber_loss, l1_loss, mse_loss, no_grad
from repro.nn.tensor import record_graph
from repro.pdn.designs import Design
from repro.resilience.checkpoint import (
    CheckpointPolicy,
    TrainingGuard,
    divergence_detail,
)
from repro.utils import get_logger
from repro.utils.random import ensure_rng
from repro.workloads.dataset import DatasetSplit, NoiseDataset, expansion_split

__all__ = ["TrainingHistory", "TrainingResult", "NoiseModelTrainer"]

_LOG = get_logger("core.training")

#: Loss name -> callable table shared by every training engine.
LOSS_FUNCTIONS = {"l1": l1_loss, "mse": mse_loss, "huber": huber_loss}

#: A normalised partition's current maps: one dense ``(N, T, m, n)`` stack
#: when every sample retains the same number of stamps, else one ``(T_i, m,
#: n)`` array per sample (ragged Algorithm-1 compression).
_PartitionInputs = Union[np.ndarray, List[np.ndarray]]


def _gradient_norm(parameters) -> float:
    """Global L2 norm over every parameter gradient (missing grads skipped)."""
    total = 0.0
    for parameter in parameters:
        if parameter.grad is not None:
            flat = parameter.grad.reshape(-1)
            total += float(np.dot(flat, flat))
    return float(np.sqrt(total))


def _observe_epoch(metrics, optimizer, num_examples: int, step_seconds: float) -> None:
    """Record one epoch's telemetry: step time, throughput, gradient norm.

    The gradient norm is read from the optimiser's parameters as left by the
    epoch's final backward pass — a cheap per-epoch health signal; it is only
    computed when the registry is live.
    """
    metrics.histogram("training.step_seconds").observe(max(step_seconds, 0.0))
    if step_seconds > 0.0:
        metrics.gauge("training.examples_per_sec").set(num_examples / step_seconds)
    if metrics.enabled:
        metrics.gauge("training.grad_norm").set(_gradient_norm(optimizer.parameters))


@dataclass
class TrainingHistory:
    """Per-epoch loss curves and the early-stopping bookmark."""

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)
    best_epoch: int = 0
    best_validation_loss: float = float("inf")
    wall_clock_seconds: float = 0.0

    @property
    def num_epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)


@dataclass
class TrainingResult:
    """Everything the inference side needs after training."""

    model: WorstCaseNoiseNet
    normalizer: FeatureNormalizer
    history: TrainingHistory
    split: DatasetSplit


# ---------------------------------------------------------------------- #
# the epoch driver
# ---------------------------------------------------------------------- #


def train_epochs(
    model: WorstCaseNoiseNet,
    config: TrainingConfig,
    engine,
    checkpointing: Optional[CheckpointPolicy] = None,
) -> TrainingHistory:
    """Run the epoch loop over ``engine`` and leave the best weights in ``model``.

    The one training loop of the repository.  Each epoch walks the engine's
    seeded ``schedule(rng)``; every minibatch is one ``zero_grad`` /
    ``engine.step(batch)`` (forward, loss, backward; returns the batch's
    summed loss) / Adam step, followed by the ``training.step`` fault seam.
    After the epoch, ``engine.validation_loss()`` feeds the divergence check
    (when ``checkpointing`` is set) and :func:`note_epoch`.
    """
    rng = ensure_rng(config.seed)
    optimizer = Adam(
        model.parameters(),
        learning_rate=config.learning_rate,
        weight_decay=config.weight_decay,
    )
    history = TrainingHistory()
    best_state = model.state_dict()
    epochs_without_improvement = 0
    epoch = 0
    guard = None
    if checkpointing is not None:
        guard = TrainingGuard(checkpointing, model, optimizer, rng)
        epoch, best_state, epochs_without_improvement = guard.restore(
            history, best_state, epochs_without_improvement
        )

    metrics = obs.metrics()
    started = time.perf_counter()
    while epoch < config.epochs:
        epoch_started = time.perf_counter()
        epoch_loss = 0.0
        for step, batch in enumerate(engine.schedule(rng)):
            optimizer.zero_grad()
            epoch_loss += engine.step(batch)
            optimizer.step()
            faults.active().on_train_step(epoch, step, model)
        epoch_loss /= engine.num_train
        _observe_epoch(
            metrics, optimizer, engine.num_train, time.perf_counter() - epoch_started
        )

        validation_loss = engine.validation_loss()
        if guard is not None:
            detail = divergence_detail(
                epoch_loss, validation_loss, engine.num_validation > 0
            )
            if detail is not None:
                epoch, best_state, epochs_without_improvement = (
                    guard.handle_divergence(epoch, detail, history)
                )
                continue
        stop, best_state, epochs_without_improvement = note_epoch(
            model,
            config,
            history,
            epoch,
            epoch_loss,
            validation_loss,
            best_state,
            epochs_without_improvement,
        )
        if guard is not None:
            guard.after_epoch(epoch, history, best_state, epochs_without_improvement)
        if stop:
            break
        epoch += 1

    model.load_state_dict(best_state)
    history.wall_clock_seconds = time.perf_counter() - started
    return history


def note_epoch(
    model: WorstCaseNoiseNet,
    config: TrainingConfig,
    history: TrainingHistory,
    epoch: int,
    epoch_loss: float,
    validation_loss: float,
    best_state: dict,
    epochs_without_improvement: int,
) -> tuple[bool, dict, int]:
    """One epoch of loss-curve recording and early-stopping bookkeeping.

    Appends the losses to ``history``, bookmarks the best validation epoch
    (snapshotting ``model.state_dict()``), and applies the patience rule.

    Returns
    -------
    ``(stop, best_state, epochs_without_improvement)`` — ``stop`` is ``True``
    when the patience budget is exhausted.
    """
    history.train_loss.append(epoch_loss)
    history.validation_loss.append(validation_loss)

    monitored = validation_loss if np.isfinite(validation_loss) else epoch_loss
    if monitored < history.best_validation_loss - config.early_stopping_min_delta:
        history.best_validation_loss = monitored
        history.best_epoch = epoch
        best_state = model.state_dict()
        epochs_without_improvement = 0
    else:
        epochs_without_improvement += 1

    if epoch % config.log_every == 0:
        _LOG.info(
            "epoch %d: train %.5f, val %.5f", epoch, epoch_loss, validation_loss
        )
    stop = (
        config.early_stopping_patience is not None
        and epochs_without_improvement >= config.early_stopping_patience
    )
    if stop:
        _LOG.info("early stopping at epoch %d", epoch)
    return stop, best_state, epochs_without_improvement


# ---------------------------------------------------------------------- #
# engines
# ---------------------------------------------------------------------- #


class _Part(NamedTuple):
    """One design's normalised partition plus its normalised distance tensor."""

    inputs: _PartitionInputs
    targets: np.ndarray
    distance: np.ndarray


def _normalized_part(
    normalizer: FeatureNormalizer,
    dataset: NoiseDataset,
    indices: np.ndarray,
    distance: np.ndarray,
) -> _Part:
    """Normalise one design's partition once, up front."""
    samples = [dataset.samples[int(index)] for index in indices]
    if not samples:
        empty = np.zeros((0,) + dataset.tile_shape)
        return _Part(empty, empty, distance)
    currents = [
        normalizer.normalize_currents(sample.features.current_maps) for sample in samples
    ]
    targets = np.stack([normalizer.normalize_noise(sample.target) for sample in samples])
    if len({maps.shape[0] for maps in currents}) == 1:
        return _Part(np.stack(currents), targets, distance)
    return _Part(currents, targets, distance)


class BatchedEngine:
    """Batched engine over a pool of design parts (see the module docstring).

    Parameters
    ----------
    model:
        The network being trained.
    config:
        Batch size, shuffle flag and loss name are read from it.
    normalizer:
        Scales applied to every part.
    pool:
        ``(dataset, split)`` per design; the train and validation partitions
        are normalised once here.  Minibatches never mix designs.
    """

    def __init__(
        self,
        model: WorstCaseNoiseNet,
        config: TrainingConfig,
        normalizer: FeatureNormalizer,
        pool: Sequence[tuple[NoiseDataset, DatasetSplit]],
    ):
        self.model = model
        self.config = config
        self.loss_function = LOSS_FUNCTIONS[config.loss]
        self.train_parts: list[_Part] = []
        self.validation_parts: list[_Part] = []
        for dataset, split in pool:
            distance = normalizer.normalize_distance(dataset.distance)
            self.train_parts.append(
                _normalized_part(normalizer, dataset, split.train, distance)
            )
            self.validation_parts.append(
                _normalized_part(normalizer, dataset, split.validation, distance)
            )
        self.num_train = sum(len(part.targets) for part in self.train_parts)
        self.num_validation = sum(len(part.targets) for part in self.validation_parts)
        if self.num_train == 0:
            raise ValueError("the training partition is empty")

    def schedule(self, rng: np.random.Generator) -> list[tuple[int, np.ndarray]]:
        """One epoch's ``(part, rows)`` minibatches.

        Each part's rows are shuffled and chunked; with more than one part
        the chunks are then interleaved in shuffled order.  All draws come
        from the one seeded stream, so the schedule is a function of the
        seed, and a one-design pool draws exactly what the rows need.
        """
        config = self.config
        schedule = []
        for index, part in enumerate(self.train_parts):
            order = np.arange(len(part.targets))
            if config.shuffle:
                rng.shuffle(order)
            for start in range(0, len(order), config.batch_size):
                schedule.append((index, order[start:start + config.batch_size]))
        if config.shuffle and len(self.train_parts) > 1:
            rng.shuffle(schedule)
        return schedule

    def step(self, batch: tuple[int, np.ndarray]) -> float:
        """Forward, loss and backward for one minibatch; its summed loss."""
        index, rows = batch
        part = self.train_parts[index]
        inputs = (
            part.inputs[rows]
            if isinstance(part.inputs, np.ndarray)
            else [part.inputs[int(row)] for row in rows]
        )
        with record_graph():
            prediction = self.model.forward_batch(inputs, part.distance)
            loss = self.loss_function(prediction, part.targets[rows])
            loss.backward()
        return loss.item() * len(rows)

    def validation_loss(self) -> float:
        """Sample-weighted mean validation loss over every part (NaN if none)."""
        total = 0.0
        # Inference holds no autograd buffers, so evaluation can run much
        # wider minibatches than training without a memory downside.
        batch_size = max(self.config.batch_size, 32)
        with no_grad():
            for part in self.validation_parts:
                count = len(part.targets)
                if count == 0:
                    continue
                # Weights are fixed during evaluation, so the distance subnet
                # runs once for all of the part's minibatches.
                reduced_distance = self.model.reduce_distance(part.distance)
                for start in range(0, count, batch_size):
                    stop = min(start + batch_size, count)
                    prediction = self.model.forward_batch(
                        part.inputs[start:stop],
                        part.distance,
                        reduced_distance=reduced_distance,
                    )
                    total += self.loss_function(
                        prediction, part.targets[start:stop]
                    ).item() * (stop - start)
        return total / self.num_validation if self.num_validation else float("nan")


class _SequentialEngine:
    """The original per-sample loop, normalising each sample every step."""

    def __init__(
        self,
        model: WorstCaseNoiseNet,
        config: TrainingConfig,
        normalizer: FeatureNormalizer,
        dataset: NoiseDataset,
        split: DatasetSplit,
    ):
        self.model = model
        self.config = config
        self.normalizer = normalizer
        self.dataset = dataset
        self.split = split
        self.loss_function = LOSS_FUNCTIONS[config.loss]
        self.distance = normalizer.normalize_distance(dataset.distance)
        self.num_train = len(split.train)
        self.num_validation = len(split.validation)

    def schedule(self, rng: np.random.Generator) -> list[np.ndarray]:
        """One epoch's minibatches of dataset indices."""
        indices = np.array(self.split.train, dtype=int)
        if self.config.shuffle:
            rng.shuffle(indices)
        size = self.config.batch_size
        return [indices[start:start + size] for start in range(0, len(indices), size)]

    def _sample_loss(self, index: int):
        """Forward pass plus loss for one sample (returns the loss tensor)."""
        sample = self.dataset.samples[index]
        current = self.normalizer.normalize_currents(sample.features.current_maps)
        target = self.normalizer.normalize_noise(sample.target)
        return self.loss_function(self.model(current, self.distance), target)

    def step(self, batch: np.ndarray) -> float:
        """Summed per-sample losses, averaged and backpropagated; the batch's summed loss."""
        batch_loss = None
        for index in batch:
            loss = self._sample_loss(int(index))
            batch_loss = loss if batch_loss is None else batch_loss + loss
        batch_loss = batch_loss * (1.0 / len(batch))
        batch_loss.backward()
        return batch_loss.item() * len(batch)

    def validation_loss(self) -> float:
        """Mean per-sample validation loss (NaN for an empty partition)."""
        if self.num_validation == 0:
            return float("nan")
        total = 0.0
        with no_grad():
            for index in self.split.validation:
                total += self._sample_loss(int(index)).item()
        return total / self.num_validation


# ---------------------------------------------------------------------- #
# the single-design trainer
# ---------------------------------------------------------------------- #


class NoiseModelTrainer:
    """Trains a :class:`WorstCaseNoiseNet` on a labelled dataset.

    Parameters
    ----------
    dataset:
        Labelled dataset (current maps, distance tensor, ground-truth maps).
    design:
        The design the dataset was built from (provides Vdd and die size for
        normalisation).  Optional — when omitted, normalisation scales are
        derived from the dataset alone.
    split:
        Train/validation/test indices; computed with the expansion strategy
        when omitted.
    model_config / training_config:
        Hyper-parameters.  ``training_config.sequential`` selects the
        engine (batched by default, see the module docstring).
    checkpointing:
        Optional :class:`~repro.resilience.checkpoint.CheckpointPolicy`
        enabling preemption-safe training: periodic atomic checkpoints
        (model + optimiser + RNG + history), bit-identical resume from the
        latest one, and divergence rollback.  Deliberately *not* a
        ``TrainingConfig`` field — it changes how a run survives, never
        what it computes, so config hashes stay stable.
    """

    def __init__(
        self,
        dataset: NoiseDataset,
        design: Optional[Design] = None,
        split: Optional[DatasetSplit] = None,
        model_config: ModelConfig = ModelConfig(),
        training_config: TrainingConfig = TrainingConfig(),
        checkpointing: Optional[CheckpointPolicy] = None,
    ):
        if len(dataset) < 3:
            raise ValueError("training requires at least 3 samples")
        self.dataset = dataset
        self.design = design
        self.model_config = model_config
        self.training_config = training_config
        self.checkpointing = checkpointing
        self.split = split if split is not None else expansion_split(
            dataset, seed=training_config.seed
        )
        if len(self.split.train) == 0:
            raise ValueError("the training partition is empty")
        self.normalizer = self._fit_normalizer()
        self.model = WorstCaseNoiseNet(num_bumps=dataset.num_bumps, config=model_config)

    def _fit_normalizer(self) -> FeatureNormalizer:
        """Fit feature scales on the training partition only (no leakage)."""
        train_samples = [self.dataset.samples[i] for i in self.split.train]
        current_stack = np.concatenate(
            [sample.features.current_maps for sample in train_samples], axis=0
        )
        noise_stack = np.stack([sample.target for sample in train_samples])
        if self.design is not None:
            return fit_normalizer(self.design, current_stack, noise_stack)
        diagonal = float(np.max(self.dataset.distance)) or 1.0
        positive = current_stack[current_stack > 0]
        return FeatureNormalizer(
            current_scale=float(np.percentile(positive, 99.0)) if positive.size else 1.0,
            distance_scale=diagonal,
            noise_scale=float(np.percentile(noise_stack, 99.0)) or 1.0,
        )

    def train(self) -> TrainingResult:
        """Run the full training loop and return the best model.

        Runs :func:`train_epochs` on the batched engine (a one-design pool),
        or on the bit-exact sequential per-sample engine when
        ``training_config.sequential`` is set.

        Training runs in float64 only — gradcheck coverage, optimizer state
        and convergence baselines all assume full precision; float32 is an
        inference-only precision (cast after training via
        ``model.astype("float32")`` or serve with
        ``NoisePredictor(dtype="float32")``).
        """
        for name, parameter in self.model.named_parameters():
            if parameter.data.dtype != np.float64:
                raise TypeError(
                    f"training requires float64 parameters, but {name!r} is "
                    f"{parameter.data.dtype.name}; cast the model back with "
                    "model.astype('float64') — float32 is an inference-only dtype"
                )
        config = self.training_config
        if config.sequential:
            engine = _SequentialEngine(
                self.model, config, self.normalizer, self.dataset, self.split
            )
        else:
            engine = BatchedEngine(
                self.model, config, self.normalizer, [(self.dataset, self.split)]
            )
        history = train_epochs(self.model, config, engine, self.checkpointing)
        return TrainingResult(
            model=self.model,
            normalizer=self.normalizer,
            history=history,
            split=self.split,
        )
