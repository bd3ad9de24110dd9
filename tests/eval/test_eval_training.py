"""Tests for repro.eval.training — the pooled cross-design trainer."""

import numpy as np
import pytest

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.training import NoiseModelTrainer
from repro.datagen import load_corpus
from repro.eval import MultiDesignTrainer, fit_pooled_normalizer
from repro.workloads.dataset import expansion_split

TINY_MODEL = ModelConfig(distance_kernels=3, fusion_kernels=3, prediction_kernels=3, seed=0)


@pytest.fixture(scope="module")
def pool(tiny_campaign):
    """The tiny campaign's per-design corpora (D1/D2/D3 at small scale)."""
    _, workdir, _, _ = tiny_campaign
    return load_corpus(workdir / "corpus")


def make_trainer(pool, labels, epochs=2, seed=0):
    return MultiDesignTrainer(
        {label: pool[label] for label in labels},
        model_config=TINY_MODEL,
        training_config=TrainingConfig(
            epochs=epochs, batch_size=4, early_stopping_patience=None, seed=seed
        ),
    )


class TestPooledNormalizer:
    def test_scales_are_pooled_and_positive(self, pool):
        splits = {
            label: expansion_split(dataset, seed=0) for label, dataset in pool.items()
        }
        normalizer = fit_pooled_normalizer(pool, splits)
        assert normalizer.current_scale > 0
        assert normalizer.noise_scale > 0
        # The distance scale covers the largest die of the pool.
        assert normalizer.distance_scale == pytest.approx(
            max(float(np.max(ds.distance)) for ds in pool.values())
        )

    def test_uses_training_partitions_only(self, pool):
        label, dataset = next(iter(pool.items()))
        full = expansion_split(dataset, seed=0)
        # A normaliser fitted on a single training sample differs from one
        # fitted on the whole partition — proof the split is respected.
        one_sample = type(full)(
            train=full.train[:1], validation=full.validation, test=full.test
        )
        wide = fit_pooled_normalizer({label: dataset}, {label: full})
        narrow = fit_pooled_normalizer({label: dataset}, {label: one_sample})
        assert wide.current_scale != narrow.current_scale


class TestMultiDesignTrainer:
    def test_trains_across_designs_with_different_tile_shapes(self, pool):
        shapes = {ds.tile_shape for ds in pool.values()}
        assert len(shapes) > 1  # the premise of the cross-design setting
        result = make_trainer(pool, list(pool)).train()
        assert result.history.num_epochs == 2
        assert np.isfinite(result.history.train_loss).all()
        assert result.num_train_samples == sum(
            len(split.train) for split in result.splits.values()
        )

    def test_loss_decreases_with_more_epochs(self, pool):
        result = make_trainer(pool, list(pool), epochs=6).train()
        assert result.history.train_loss[-1] < result.history.train_loss[0]

    def test_fresh_runs_are_bit_identical(self, pool):
        first = make_trainer(pool, list(pool)).train()
        second = make_trainer(pool, list(pool)).train()
        assert first.history.train_loss == second.history.train_loss
        assert first.history.validation_loss == second.history.validation_loss
        for name, value in first.model.state_dict().items():
            np.testing.assert_array_equal(value, second.model.state_dict()[name])

    def test_seed_changes_the_schedule(self, pool):
        first = make_trainer(pool, list(pool)).train()
        other = make_trainer(pool, list(pool), seed=9).train()
        assert first.history.train_loss != other.history.train_loss

    def test_one_design_pool_matches_single_design_trainer(self, tiny_dataset, tiny_split):
        # Both trainers run the one epoch driver and batched engine; a
        # one-design pool draws no interleave shuffle, so with equal
        # normalisers (same percentiles, same max distance) the runs agree
        # bit for bit.
        model_config = ModelConfig(
            distance_kernels=4, fusion_kernels=4, prediction_kernels=6, seed=0
        )
        training_config = TrainingConfig(
            epochs=3, batch_size=2, early_stopping_patience=None, seed=0
        )
        assert len(tiny_split.train) > 2 * training_config.batch_size
        pooled = MultiDesignTrainer(
            {"x": tiny_dataset},
            splits={"x": tiny_split},
            model_config=model_config,
            training_config=training_config,
        ).train()
        single = NoiseModelTrainer(
            tiny_dataset,
            design=None,
            split=tiny_split,
            model_config=model_config,
            training_config=training_config,
        ).train()
        assert pooled.history.train_loss == single.history.train_loss
        assert pooled.history.validation_loss == single.history.validation_loss
        single_state = single.model.state_dict()
        for name, value in pooled.model.state_dict().items():
            np.testing.assert_array_equal(value, single_state[name])

    def test_rejects_mixed_bump_counts(self, pool):
        from repro.pdn import small_test_design
        from repro.workloads import build_dataset, generate_test_vectors
        from repro.workloads.vectors import VectorConfig

        # The unit-test design has 9 bumps; the reference analogues have 4.
        design = small_test_design(tile_rows=6, tile_cols=6, num_loads=24, seed=0)
        traces = generate_test_vectors(
            design, 3, VectorConfig(num_steps=20, dt=1e-11), seed=0
        )
        other = build_dataset(design, traces, compression_rate=0.4)
        datasets = dict(pool)
        datasets["odd"] = other
        with pytest.raises(ValueError, match="bump count"):
            MultiDesignTrainer(datasets, model_config=TINY_MODEL)

    def test_rejects_empty_and_tiny_pools(self, pool):
        with pytest.raises(ValueError, match="at least one design"):
            MultiDesignTrainer({}, model_config=TINY_MODEL)
        label, dataset = next(iter(pool.items()))
        with pytest.raises(ValueError, match="at least 3"):
            MultiDesignTrainer({label: dataset.subset([0, 1])}, model_config=TINY_MODEL)
