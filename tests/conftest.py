"""Shared fixtures for the test suite.

Heavy objects (designs, simulated datasets) are session-scoped so the many
tests that need "some realistic design" or "some labelled samples" do not
each pay for simulation.  Tests that mutate state build their own objects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.inference import NoisePredictor
from repro.core.model import WorstCaseNoiseNet
from repro.features.extraction import FeatureNormalizer, distance_feature
from repro.pdn import small_test_design
from repro.workloads import build_dataset, expansion_split, generate_test_vectors
from repro.workloads.vectors import VectorConfig


@pytest.fixture(scope="session")
def tiny_design():
    """A small but complete design (3 metal layers, package, clusters)."""
    return small_test_design(tile_rows=8, tile_cols=8, num_loads=48, seed=0)


@pytest.fixture(scope="session")
def tiny_traces(tiny_design):
    """A handful of short random test vectors for the tiny design."""
    return generate_test_vectors(
        tiny_design, 10, VectorConfig(num_steps=80, dt=1e-11), seed=3
    )


@pytest.fixture(scope="session")
def tiny_dataset(tiny_design, tiny_traces):
    """Labelled dataset (simulated ground truth) for the tiny design."""
    return build_dataset(tiny_design, tiny_traces, compression_rate=0.4)


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    """Expansion split of the tiny dataset."""
    return expansion_split(tiny_dataset, seed=0)


@pytest.fixture(scope="session")
def tiny_predictor(tiny_design):
    """An (untrained) predictor for the tiny design; weights don't matter.

    Shared by the inference and serving suites (which used to duplicate it).
    Tests must treat it as read-only — anything that mutates weights or
    normaliser builds its own predictor.
    """
    model = WorstCaseNoiseNet(
        num_bumps=tiny_design.grid.num_bumps,
        config=ModelConfig(distance_kernels=4, fusion_kernels=4, prediction_kernels=4, seed=0),
    )
    normalizer = FeatureNormalizer(current_scale=0.05, distance_scale=1000.0, noise_scale=0.15)
    return NoisePredictor(
        model=model,
        normalizer=normalizer,
        distance=distance_feature(tiny_design),
        compression_rate=0.4,
    )


@pytest.fixture(scope="session")
def alt_predictor(tiny_design):
    """A predictor with *different* weights (and fingerprint) than tiny_predictor.

    The hot-swap tests (serving and gateway) use it to prove which
    checkpoint served a request: its outputs and fingerprint are
    distinguishable from the default predictor's.  Read-only, like
    ``tiny_predictor``.
    """
    model = WorstCaseNoiseNet(
        num_bumps=tiny_design.grid.num_bumps,
        config=ModelConfig(
            distance_kernels=4, fusion_kernels=4, prediction_kernels=4, seed=99
        ),
    )
    normalizer = FeatureNormalizer(current_scale=0.05, distance_scale=1000.0, noise_scale=0.15)
    return NoisePredictor(
        model=model,
        normalizer=normalizer,
        distance=distance_feature(tiny_design),
        compression_rate=0.4,
    )


@pytest.fixture(scope="session")
def write_legacy_checkpoint():
    """Writer for the retired sidecar predictor layout.

    Returns ``write(predictor, path, with_sidecar)``: weights + metadata in
    the main archive and (optionally) the distance tensor in a
    ``<name>.distance.npz`` sidecar.  ``NoisePredictor.load`` no longer reads
    sidecars, so such an archive fails to load for want of a distance tensor.
    """
    from repro.nn import save_checkpoint

    def write(predictor, path, with_sidecar=True):
        metadata = {
            "normalizer": predictor.normalizer.to_dict(),
            "compression_rate": predictor.compression_rate,
            "rate_step": predictor.rate_step,
            "num_bumps": predictor.model.num_bumps,
            "model_config": {
                "distance_kernels": predictor.model.config.distance_kernels,
                "fusion_kernels": predictor.model.config.fusion_kernels,
                "prediction_kernels": predictor.model.config.prediction_kernels,
                "kernel_size": predictor.model.config.kernel_size,
                "distance_depth": predictor.model.config.distance_depth,
                "prediction_depth": predictor.model.config.prediction_depth,
                "seed": predictor.model.config.seed,
            },
            "distance_shape": list(predictor.distance.shape),
        }
        save_checkpoint(predictor.model, path, metadata=metadata)
        if with_sidecar:
            np.savez_compressed(str(path) + ".distance.npz", distance=predictor.distance)

    return write


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(1234)


# --------------------------------------------------------------------- #
# deterministic concurrency helpers (shared by the serving and gateway
# suites; see tests/gateway/conftest.py for the gateway-specific fixtures)
# --------------------------------------------------------------------- #


class GatedPredictor:
    """Predictor wrapper whose batched forward pass blocks on an event.

    The serving/gateway concurrency tests used to rely on ``max_wait``
    timing windows ("submit twice within 250 ms") which flake under load.
    Gating the forward pass instead makes the interleaving *deterministic*:
    the test waits for ``started`` (the worker is provably mid-batch), acts,
    then sets ``release``.  ``started`` is re-armable with ``clear()`` for
    multi-batch scripts.
    """

    def __init__(self, delegate, timeout: float = 10.0):
        import threading

        self.delegate = delegate
        self.timeout = timeout
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    @property
    def fingerprint(self):
        return self.delegate.fingerprint

    @property
    def compression_rate(self):
        return self.delegate.compression_rate

    @property
    def rate_step(self):
        return self.delegate.rate_step

    def predict_batch(self, features, max_batch=64):
        self.calls += 1
        self.started.set()
        if not self.release.wait(self.timeout):
            raise TimeoutError("GatedPredictor was never released")
        return self.delegate.predict_batch(features, max_batch=max_batch)

    def predict_features(self, features):
        return self.delegate.predict_features(features)

    def predict_trace(self, trace, design):
        return self.delegate.predict_trace(trace, design)

    def save(self, path):
        return self.delegate.save(path)


class FlakyPredictor:
    """Predictor wrapper that raises scripted errors before recovering.

    ``failures`` is consumed one error per ``predict_batch`` call; once the
    list is empty the wrapped delegate serves normally.  Used to test that
    batch-worker failures reject futures with the injected error and leave
    no stale in-flight entries behind.
    """

    def __init__(self, delegate, failures):
        self.delegate = delegate
        self.failures = list(failures)
        self.calls = 0

    @property
    def fingerprint(self):
        return self.delegate.fingerprint

    @property
    def compression_rate(self):
        return self.delegate.compression_rate

    @property
    def rate_step(self):
        return self.delegate.rate_step

    def predict_batch(self, features, max_batch=64):
        self.calls += 1
        if self.failures:
            raise self.failures.pop(0)
        return self.delegate.predict_batch(features, max_batch=max_batch)

    def predict_features(self, features):
        return self.delegate.predict_features(features)

    def save(self, path):
        return self.delegate.save(path)


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.001):
    """Poll ``predicate`` until truthy; raise ``TimeoutError`` otherwise.

    For conditions that have no natural event to wait on (queue sizes,
    counter values).  The tight poll interval keeps tests fast while the
    generous timeout keeps them deterministic under load.
    """
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise TimeoutError("condition not reached within timeout")


@pytest.fixture()
def make_gated_predictor():
    """Factory fixture: wrap a predictor so its batches block on an event."""
    return GatedPredictor


@pytest.fixture()
def make_flaky_predictor():
    """Factory fixture: wrap a predictor with scripted batch failures."""
    return FlakyPredictor


@pytest.fixture()
def wait_for():
    """The :func:`wait_until` predicate-polling helper as a fixture."""
    return wait_until
