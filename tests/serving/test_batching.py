"""Unit tests for the shared micro-batching core's fill loop."""

import queue

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serving.batching import BatchRequest, MicroBatcher


@pytest.fixture()
def batcher():
    return MicroBatcher(
        max_batch=3, max_wait=1e-3, metrics=MetricsRegistry(), prefix="test",
        on_answer=lambda request, path: None,
    )


def _inbox(*items):
    inbox = queue.Queue()
    for item in items:
        inbox.put(item)
    return inbox


def _requests(count, design="a"):
    return [BatchRequest(payload=None, design=design) for _ in range(count)]


def test_fill_stops_at_first_non_request_and_returns_it(batcher):
    first, second = _requests(2)
    stop = object()
    inbox = _inbox(first, second, stop, *_requests(1))
    batch = []
    assert batcher.fill(inbox, batch) is stop
    assert batch == [first, second]
    assert inbox.qsize() == 1  # nothing behind the stop item was taken


def test_fill_caps_at_max_batch_and_times_out_when_short(batcher):
    requests = _requests(5)
    inbox = _inbox(*requests)
    batch = []
    assert batcher.fill(inbox, batch) is None
    assert batch == requests[:3]
    batch = []
    assert batcher.fill(inbox, batch) is None  # max_wait elapsed, batch short
    assert batch == requests[3:]


def test_fill_keeps_every_dequeued_request_when_the_hook_raises(batcher):
    requests = _requests(3)
    inbox = _inbox(*requests)

    def on_dequeue(request):
        if request is requests[1]:
            raise RuntimeError("crash mid-fill")
        return (request,)

    batch = []
    with pytest.raises(RuntimeError):
        batcher.fill(inbox, batch, on_dequeue)
    assert batch == requests[:2]
