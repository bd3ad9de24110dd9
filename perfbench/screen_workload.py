"""``screen``: screen raw test vectors through a two-shard gateway.

A :class:`~repro.gateway.ScreeningGateway` with two shards serves
random-init checkpoints for ``D1@0.3`` (15x15 tiles) and ``D2@0.22``
(29x29), one design per shard.  Requests carry raw 200-step traces, so
feature extraction runs on the worker thread before every forward.  Two
closed-loop clients run for the whole timed region:

* **bulk** keeps 16 requests in flight, 8 per design, refilled in turn so
  the stream interleaves the designs; every fourth request of a design
  re-sends one of its earlier vectors (traffic a result cache would absorb;
  the gateway has none);
* **interactive** sends one ``D1`` request at a time; it queues behind the
  bulk ``D1`` window, since the gateway serves each shard in FIFO order.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait

import numpy as np

from harness import OpLedger, Measured, median, tail_percentile

DESIGNS = (("D1", "D1@0.3"), ("D2", "D2@0.22"))
NUM_STEPS = 200
DT = 1e-11
BULK_PER_DESIGN = 8
RESEND_EVERY = 4
WARMUP_PER_DESIGN = 16
#: Vectors generated per design and second of timed region.  The measured
#: rates stay below, so every request that is not a re-send carries a new
#: vector; the run record counts wrap-arounds as ``pool_wraps``.
POOL_RATE = {"D1": 70, "D2": 30}
ANSWER_TIMEOUT_S = 60.0
ATOL = 1e-8


class _Request:
    __slots__ = ("client", "design", "index", "future", "sent", "done")

    def __init__(self, client, design, index, future, sent):
        self.client, self.design, self.index = client, design, index
        self.future, self.sent, self.done = future, sent, None


class ScreenWorkload:
    timed_by_clock = True

    def __init__(self, seed: int, workdir, seconds: float):
        self.seed = seed
        self.workdir = workdir
        self.seconds = seconds
        self.gateway = None
        self._setups = 0
        self._cursor = {name: 0 for name, _ in DESIGNS}
        self._cursor_lock = threading.Lock()
        self.pool_wraps = 0
        self.sessions: list[list[_Request]] = []

    # ------------------------------------------------------------------ #
    # set-up
    # ------------------------------------------------------------------ #

    def setup(self) -> None:
        from repro.core.config import ModelConfig
        from repro.core.inference import NoisePredictor
        from repro.core.model import WorstCaseNoiseNet
        from repro.features.extraction import FeatureNormalizer, distance_feature
        from repro.gateway import ScreeningGateway
        from repro.obs import MetricsRegistry
        from repro.pdn import designs
        from repro.serving import PredictorRegistry
        from repro.workloads import generate_test_vectors
        from repro.workloads.vectors import VectorConfig

        self.close()
        self.pools = {}
        root = self.workdir / f"screen-checkpoints-{self._setups}"
        self._setups += 1
        registry = PredictorRegistry(root)
        self.designs, self.checkpoints = {}, {}
        config = VectorConfig(num_steps=NUM_STEPS, dt=DT)
        for position, (name, reference) in enumerate(DESIGNS):
            design = designs.design_from_name(reference)
            model = WorstCaseNoiseNet(
                num_bumps=design.grid.num_bumps, config=ModelConfig(seed=self.seed + position)
            )
            predictor = NoisePredictor(
                model=model,
                normalizer=FeatureNormalizer(
                    current_scale=0.05, distance_scale=1000.0, noise_scale=0.15
                ),
                distance=distance_feature(design),
                compression_rate=0.3,
            )
            self.checkpoints[name] = registry.register(name, predictor)
            size = WARMUP_PER_DESIGN + math.ceil(POOL_RATE[name] * self.seconds)
            self.pools[name] = generate_test_vectors(
                design, size, config, seed=np.random.default_rng([self.seed, position])
            )
            self.designs[name] = design
        self.metrics = MetricsRegistry()
        self.gateway = ScreeningGateway(root, num_shards=2, metrics=self.metrics)
        shards = {self.gateway.shard_for(name) for name, _ in DESIGNS}
        if len(shards) != len(DESIGNS):
            raise RuntimeError("the ring put both designs on one shard")
        # Warm-up: load both checkpoints and push a full micro-batch per
        # design through the workers; the clients never reuse these vectors.
        futures = [
            self.gateway.submit_async(self.pools[name][i], self.designs[name])
            for i in range(WARMUP_PER_DESIGN) for name, _ in DESIGNS
        ]
        for future in futures:
            future.result(timeout=ANSWER_TIMEOUT_S)
        self._cursor = {name: WARMUP_PER_DESIGN for name, _ in DESIGNS}

    # ------------------------------------------------------------------ #
    # timed region
    # ------------------------------------------------------------------ #

    def _next_index(self, name: str) -> int:
        """Next unsent pool slot of a design (both clients draw ``D1`` slots)."""
        with self._cursor_lock:
            index = self._cursor[name]
            self._cursor[name] += 1
            if index == len(self.pools[name]):
                self.pool_wraps += 1
                index = self._cursor[name] = WARMUP_PER_DESIGN
                self._cursor[name] += 1
        return index

    def _submit(self, client, name, index, ledger, log, lock):
        from repro.gateway import GatewayOverloaded

        sent = time.perf_counter()
        with lock:
            ledger.attempt()
        try:
            future = self.gateway.submit_async(self.pools[name][index], self.designs[name])
        except GatewayOverloaded:
            with lock:
                ledger.fail(1, f"{client} request rejected by admission control")
            return None
        request = _Request(client, name, index, future, sent)

        def finished(_):
            request.done = time.perf_counter()

        future.add_done_callback(finished)
        with lock:
            log.append(request)
        return request

    def _bulk(self, deadline, ledger, log, lock):
        in_flight = {name: set() for name, _ in DESIGNS}
        fresh = {name: [] for name, _ in DESIGNS}
        sent = {name: 0 for name, _ in DESIGNS}
        while time.perf_counter() < deadline:
            # Refill one request per design in turn, so the stream
            # interleaves the designs and each keeps its half of the window.
            for _ in range(BULK_PER_DESIGN):
                for name, pending in in_flight.items():
                    if len(pending) >= BULK_PER_DESIGN:
                        continue
                    sent[name] += 1
                    if sent[name] % RESEND_EVERY == 0:
                        # Re-send one of this design's earlier vectors, picked
                        # by a fixed stride so runs repeat exactly.
                        index = fresh[name][(sent[name] * 7919) % len(fresh[name])]
                    else:
                        index = self._next_index(name)
                        fresh[name].append(index)
                    request = self._submit("bulk", name, index, ledger, log, lock)
                    if request is not None:
                        pending.add(request.future)
            done, _ = wait(
                set().union(*in_flight.values()), timeout=ANSWER_TIMEOUT_S,
                return_when=FIRST_COMPLETED,
            )
            for pending in in_flight.values():
                pending -= done
        wait(set().union(*in_flight.values()), timeout=ANSWER_TIMEOUT_S)

    def _interactive(self, deadline, ledger, log, lock):
        while time.perf_counter() < deadline:
            request = self._submit("interactive", "D1", self._next_index("D1"), ledger, log, lock)
            if request is not None:
                wait([request.future], timeout=ANSWER_TIMEOUT_S)

    def run(self, seconds: float, ledger: OpLedger) -> Measured:
        log: list[_Request] = []
        lock = threading.Lock()
        started = time.perf_counter()
        deadline = started + seconds
        clients = [
            threading.Thread(target=target, args=(deadline, ledger, log, lock), name=target.__name__)
            for target in (self._bulk, self._interactive)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        wall = time.perf_counter() - started
        self.sessions.append(log)
        # ``done`` is stamped by the future's callback, which can trail the
        # waiter it wakes by a moment; such a request is still checked later.
        answered = [r for r in log if r.done is not None and r.future.exception() is None]
        measured = Measured(wall_s=wall)
        measured.unit_rates.append(len(answered) / wall)
        measured.op_ms = [
            1e3 * (r.done - r.sent) for r in answered if r.client == "interactive"
        ]
        measured.other_ms = [1e3 * (r.done - r.sent) for r in answered if r.client == "bulk"]
        return measured

    # ------------------------------------------------------------------ #
    # correctness
    # ------------------------------------------------------------------ #

    def check(self, ledger: OpLedger, measured) -> None:
        """Every answer must equal ``predict_batch`` on the same features."""
        from repro.core.inference import NoisePredictor
        from repro.features.extraction import extract_vector_features

        references = {}
        for name, _ in DESIGNS:
            predictor = NoisePredictor.load(self.checkpoints[name])
            wanted = sorted({
                r.index for log in self.sessions for r in log
                if r.design == name and r.future.done() and r.future.exception() is None
            })
            features = [
                extract_vector_features(
                    self.pools[name][i], self.designs[name],
                    compression_rate=predictor.compression_rate,
                    rate_step=predictor.rate_step,
                )
                for i in wanted
            ]
            for index, result in zip(wanted, predictor.predict_batch(features, max_batch=4)):
                references[name, index] = result.noise_map
        for log in self.sessions:
            for request in log:
                if not request.future.done():
                    ledger.fail(1, f"{request.client} request never answered")
                elif request.future.exception() is not None:
                    ledger.fail(1, f"{request.client} request failed: "
                                   f"{request.future.exception()!r}")
                else:
                    answer = request.future.result().noise_map
                    reference = references[request.design, request.index]
                    if not np.allclose(answer, reference, rtol=0.0, atol=ATOL):
                        ledger.fail(1, f"{request.design} vector {request.index}: "
                                       "answer differs from predict_batch")

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def named(self, measured) -> dict:
        return {
            "screen_vectors_per_s": (measured.rate, "vectors/s"),
            "bulk_p50_ms": (median(measured.other_ms), "ms"),
            "interactive_p50_ms": (median(measured.op_ms), "ms"),
            "pool_wraps": (self.pool_wraps, "count"),
        }

    def layer_extras(self, tracer, window, untraced, traced) -> dict:
        """Gateway and serving metrics of the traced session.

        Tail latencies come from the untraced session, so tracing cost does
        not leak into them.
        """
        groups = [s for s in tracer.spans if s["name"] == "gateway.group" and s["phase"] == "timed"]
        group_of = {}
        busy = {shard: 0.0 for shard in range(len(DESIGNS))}
        for span in groups:
            busy[span["shard"]] += span["end"] - span["start"]
            for request_id in span["requests"]:
                group_of[request_id] = span["end"] - span["start"]
        traced_log = self.sessions[-1]
        answered = [r for r in traced_log if r.future.done() and r.future.exception() is None]
        waits = [
            (r.done - r.sent) - group_of[id(r.future)]
            for r in answered if id(r.future) in group_of
        ]
        forwarded = sum(
            s["batch"] for s in tracer.spans if s["name"] == "core.predict" and s["phase"] == "timed"
        )
        span_s = window[1] - window[0]
        out = {
            "serving.forwarded_per_request": (forwarded / max(1, len(answered)), "ratio"),
            "gateway.wait_ms_mean": (1e3 * float(np.mean(waits)) if waits else 0.0, "ms"),
        }
        for shard, seconds in busy.items():
            out[f"gateway.worker_busy_share.shard{shard}"] = (seconds / span_s, "ratio")
        for client, latencies in (("bulk", untraced.other_ms), ("interactive", untraced.op_ms)):
            percentile, value, count = tail_percentile(latencies)
            out[f"gateway.{client}_tail_ms"] = (value if value is not None else 0.0, "ms")
            out[f"gateway.{client}_tail_pct"] = (percentile if percentile is not None else 0.0, "%")
            out[f"gateway.{client}_tail_samples"] = (count, "count")
        for counter in ("rejected", "restarts", "failures"):
            instrument = self.metrics.get(f"gateway.{counter}")
            out[f"gateway.{counter}"] = (instrument.value if instrument else 0, "count")
        return out

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
            self.gateway = None
