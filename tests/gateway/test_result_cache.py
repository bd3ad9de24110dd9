"""The gateway's result cache and coalescing, and parity with the service.

Both front ends answer through one :class:`~repro.serving.batching.
MicroBatcher`, so the same request stream must give the same maps and the
same cache/forward accounting whichever front end serves it.  Scripts that
need a batch to fill deterministically pin the worker on a gated blocker
request first, so nothing here depends on a ``max_wait`` window.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serving import PredictorRegistry, ScreeningService


def _count(gateway, name):
    return gateway.metrics.counter(f"gateway.{name}").value


def test_resend_is_answered_from_the_cache(make_gateway, tiny_design, tiny_features):
    gateway = make_gateway()
    first = gateway.submit_async(tiny_features[0], tiny_design.name).result(timeout=10)
    twin = dataclasses.replace(tiny_features[0], name="resent")
    again = gateway.submit_async(twin, tiny_design.name).result(timeout=10)

    assert _count(gateway, "cache_hits") == 1
    assert _count(gateway, "batched_vectors") == 1
    assert len(gateway.cache) == 1
    assert np.array_equal(again.noise_map, first.noise_map)
    # A private copy under the re-sender's own name.
    assert again.noise_map is not first.noise_map
    assert again.name == "resent"
    first.noise_map[:] = -1.0  # a caller mutating its map cannot poison the cache
    third = gateway.submit_async(tiny_features[0], tiny_design.name).result(timeout=10)
    assert np.array_equal(third.noise_map, again.noise_map)


def test_resend_after_swap_is_recomputed_on_new_weights(
    make_gateway, tiny_design, tiny_features, alt_predictor, expected_results, assert_noise_close
):
    gateway = make_gateway()
    old = gateway.submit_async(tiny_features[0], tiny_design.name).result(timeout=10)
    assert_noise_close(old, expected_results[0])
    fingerprint = gateway.swap_checkpoint(tiny_design.name, alt_predictor, persist=False)
    assert fingerprint.result(timeout=10) == alt_predictor.fingerprint

    new = gateway.submit_async(tiny_features[0], tiny_design.name).result(timeout=10)
    assert_noise_close(new, alt_predictor.predict_batch([tiny_features[0]])[0])
    assert not np.allclose(new.noise_map, old.noise_map)
    assert _count(gateway, "cache_hits") == 0
    assert _count(gateway, "batched_vectors") == 2


def test_in_batch_duplicates_share_one_forward(
    make_gateway, make_gated_predictor, tiny_design, tiny_predictor, tiny_features
):
    gateway = make_gateway()
    gated = make_gated_predictor(tiny_predictor)
    gateway.swap_checkpoint(tiny_design.name, gated, persist=False).result(timeout=5)

    blocker = gateway.submit_async(tiny_features[0], tiny_design.name)
    assert gated.started.wait(5)  # the worker is provably mid-batch
    twins = [dataclasses.replace(tiny_features[1], name=f"twin-{i}") for i in range(3)]
    futures = [gateway.submit_async(twin, tiny_design.name) for twin in twins]
    gated.release.set()
    blocker.result(timeout=10)
    results = [future.result(timeout=10) for future in futures]

    # The three queued twins landed in one batch: one forward, two followers.
    assert gated.calls == 2
    assert _count(gateway, "batched_vectors") == 2
    assert _count(gateway, "coalesced") == 2
    assert [result.name for result in results] == ["twin-0", "twin-1", "twin-2"]
    for result in results[1:]:
        assert np.array_equal(result.noise_map, results[0].noise_map)
        assert result.noise_map is not results[0].noise_map


def test_failed_group_leaves_no_cache_entry(
    make_gateway, make_flaky_predictor, tiny_design, tiny_predictor, tiny_features
):
    gateway = make_gateway()
    flaky = make_flaky_predictor(tiny_predictor, [RuntimeError("transient")])
    gateway.swap_checkpoint(tiny_design.name, flaky, persist=False).result(timeout=5)
    with pytest.raises(RuntimeError, match="transient"):
        gateway.submit_async(tiny_features[0], tiny_design.name).result(timeout=10)
    assert len(gateway.cache) == 0
    # The resubmission gets a fresh forward on the recovered predictor.
    assert gateway.submit_async(tiny_features[0], tiny_design.name).result(timeout=10)
    assert _count(gateway, "cache_hits") == 0
    assert flaky.calls == 2


#: Indices into ``tiny_traces``: six distinct vectors, four re-sends.
STREAM = (0, 1, 0, 2, 1, 3, 0, 4, 5, 2)


@pytest.fixture()
def service(gateway_root):
    with ScreeningService(
        PredictorRegistry(gateway_root), metrics=MetricsRegistry()
    ) as service:
        yield service


def test_service_and_gateway_agree_on_a_sequential_stream(
    make_gateway, service, tiny_design, tiny_traces
):
    # One request at a time: every forward is a batch of one on both front
    # ends, so the maps must be bitwise identical, not just close.
    gateway = make_gateway()
    via_service = [service.submit(tiny_traces[i], tiny_design) for i in STREAM]
    via_gateway = [
        gateway.submit_async(tiny_traces[i], tiny_design).result(timeout=10) for i in STREAM
    ]
    for ours, theirs in zip(via_service, via_gateway):
        assert np.array_equal(ours.noise_map, theirs.noise_map)
        assert ours.name == theirs.name
    distinct = len(set(STREAM))
    assert service.stats.cache_hits == _count(gateway, "cache_hits") == len(STREAM) - distinct
    assert service.stats.batched_vectors == _count(gateway, "batched_vectors") == distinct


def test_service_and_gateway_agree_on_a_concurrent_stream(
    make_gateway, service, tiny_design, tiny_traces
):
    # Everything in flight at once: whether a re-send is a cache hit or
    # coalesces onto its in-flight twin depends on timing, but every re-send
    # is absorbed and each distinct vector is forwarded exactly once.
    gateway = make_gateway()
    via_service = service.screen([tiny_traces[i] for i in STREAM], tiny_design)
    via_gateway = gateway.screen([(tiny_traces[i], tiny_design) for i in STREAM])
    for ours, theirs in zip(via_service, via_gateway):
        assert np.allclose(ours.noise_map, theirs.noise_map, rtol=1e-12, atol=0.0)
    distinct = len(set(STREAM))
    absorbed = _count(gateway, "cache_hits") + _count(gateway, "coalesced")
    assert service.stats.cache_hits + service.stats.coalesced == absorbed == len(STREAM) - distinct
    assert service.stats.batched_vectors == _count(gateway, "batched_vectors") == distinct
