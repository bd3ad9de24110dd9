"""``train``: fit the three-subnet CNN on a labelled corpus, then score it.

Set-up labels a ``D1@0.3`` corpus (15x15 tiles, 64 vectors x 200 steps).
Each timed unit runs :meth:`WorstCaseNoiseFramework.train` with the
expansion split, the default :class:`ModelConfig`, batch 4 and a fixed four
epochs (no early stopping), then :meth:`~WorstCaseNoiseFramework.evaluate`
on the held-out vectors.  The ``nn`` kernels do most of the work, forward
and backward; ``sim`` is idle in the timed region.
"""

from __future__ import annotations

import math
import time

import numpy as np

from harness import OpLedger, median, run_units

DESIGN = "D1@0.3"
NUM_VECTORS = 64
NUM_STEPS = 200
EPOCHS = 4
BATCH = 4


class TrainWorkload:
    timed_by_clock = False

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self._setups = 0
        self.test_mre_pct: list[float] = []

    def _framework(self, epochs: int):
        from repro.core.config import PipelineConfig, TrainingConfig
        from repro.core.pipeline import WorstCaseNoiseFramework

        config = PipelineConfig(
            num_vectors=NUM_VECTORS, num_steps=NUM_STEPS, seed=self.seed,
            training=TrainingConfig(
                epochs=epochs, batch_size=BATCH, early_stopping_patience=None
            ),
        )
        return WorstCaseNoiseFramework(self.design, config)

    def setup(self) -> None:
        from repro.datagen import (
            CorpusDesignSpec, CorpusSpec, generate_corpus, load_design_dataset,
        )
        from repro.pdn import designs

        self.design = designs.design_from_name(DESIGN)
        design = self.design
        spec = CorpusSpec(designs=(CorpusDesignSpec(
            label="D1", design=DESIGN, num_vectors=NUM_VECTORS, num_steps=NUM_STEPS,
            shard_size=NUM_VECTORS, seed=self.seed,
        ),))
        root = self.workdir / f"train-corpus-{self._setups}"
        self._setups += 1
        generate_corpus(spec, root, num_workers=0, resume=False,
                        design_factory=lambda _: design)
        self.dataset = load_design_dataset(root, "D1", verify=True)
        self.framework = self._framework(EPOCHS)
        # Warm-up pass: one epoch through the same graph shapes.
        self._framework(1).train(self.dataset)

    def _unit(self, ledger: OpLedger):
        def unit(measured):
            started = time.perf_counter()
            training = self.framework.train(self.dataset)
            trained = time.perf_counter()
            accuracy, runtime, _, _ = self.framework.evaluate(self.dataset, training)
            elapsed = time.perf_counter() - started
            num_train = len(training.split.train)
            steps = EPOCHS * math.ceil(num_train / BATCH)
            ledger.attempt(steps)
            history = training.history
            losses = np.asarray(history.train_loss + history.validation_loss, dtype=float)
            if len(history.train_loss) != EPOCHS or not np.all(np.isfinite(losses)):
                ledger.fail(steps, "loss history is not finite for every epoch")
            measured.op_ms.append(1e3 * (trained - started) / steps)
            measured.other_ms.extend(1e3 * np.asarray(runtime.per_vector_seconds))
            self.test_mre_pct.append(100.0 * accuracy.mean_re)
            return EPOCHS * num_train, elapsed

        return unit

    def run(self, seconds: float, ledger: OpLedger):
        return run_units(seconds, self._unit(ledger))

    def check(self, ledger: OpLedger, measured) -> None:
        """Loss histories are checked per unit, as each training finishes."""

    def named(self, measured) -> dict:
        return {
            "train_examples_per_s": (measured.rate, "examples/s"),
            "test_mre_pct": (median(self.test_mre_pct), "%"),
            "predict_vector_ms": (median(measured.other_ms), "ms"),
        }

    def layer_extras(self, tracer, window, untraced, traced) -> dict:
        return {"core.test_mre_pct": (median(self.test_mre_pct), "%")}

    def close(self) -> None:
        pass
