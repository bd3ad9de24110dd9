"""``label``: a sign-off engineer labels a corpus with the full-order solver.

Random 400-step vectors on ``D1@0.5`` (3269 nodes, 25x25 tiles) go through
:func:`repro.datagen.generate_corpus` inline (``num_workers=0``) with the
default cholesky / backward-Euler solver and a lockstep batch of 48; each
timed unit writes one 48-vector shard to a fresh directory.  The block
back-substitution dominates; ``nn``, ``serving`` and ``gateway`` stay idle.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from harness import OpLedger, median, run_units

DESIGN = "D1@0.5"
NUM_STEPS = 400
BATCH = 48
WARMUP_STEPS = 100
RESOLVE_SAMPLE = 8
#: Lockstep labels agree with per-vector runs to solver rounding
#: (docs/data-pipeline.md); benchmarks/bench_datagen.py asserts this band.
RTOL, ATOL = 1e-9, 1e-12


class LabelWorkload:
    timed_by_clock = False

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self._units = 0
        self._hashes = None
        self._kept = None

    def _spec(self, num_steps: int, seed: int):
        from repro.datagen import CorpusDesignSpec, CorpusSpec

        return CorpusSpec(
            designs=(CorpusDesignSpec(
                label="D1", design=DESIGN, num_vectors=BATCH, num_steps=num_steps,
                shard_size=BATCH, seed=seed,
            ),),
            sim_batch_size=BATCH,
        )

    def _generate(self, spec, root):
        from repro.datagen import generate_corpus

        design = self.design
        return generate_corpus(
            spec, root, num_workers=0, resume=False, design_factory=lambda _: design
        )

    def setup(self) -> None:
        from repro.pdn import designs

        self.design = designs.design_from_name(DESIGN)
        self.spec = self._spec(NUM_STEPS, self.seed)
        # Warm-up pass: the same 48-wide blocks at a quarter of the length,
        # so first-touch allocation and lazy imports stay out of the timing.
        warm = self.workdir / "label-warmup"
        self._generate(self._spec(WARMUP_STEPS, self.seed + 1), warm)
        shutil.rmtree(warm)

    def _unit(self, ledger: OpLedger):
        def unit(measured):
            root = self.workdir / f"label-{self._units}"
            self._units += 1
            started = time.perf_counter()
            report = self._generate(self.spec, root)
            elapsed = time.perf_counter() - started
            ledger.attempt(BATCH)
            hashes = [record.content_hash for record in report.manifest.records]
            if not report.complete:
                ledger.fail(BATCH, f"{root.name}: corpus incomplete")
            elif self._hashes is None:
                self._hashes, self._kept = hashes, root
            elif hashes != self._hashes:
                ledger.fail(BATCH, f"{root.name}: shard hashes differ from the first run")
            if root != self._kept:
                shutil.rmtree(root)
            measured.op_ms.append(1e3 * elapsed)
            return BATCH, elapsed

        return unit

    def run(self, seconds: float, ledger: OpLedger):
        return run_units(seconds, self._unit(ledger))

    def check(self, ledger: OpLedger, measured) -> None:
        """Re-solve a sample of stored vectors one at a time and compare labels."""
        from repro.datagen import load_design_dataset, shard_vectors
        from repro.sim.dynamic_noise import DynamicNoiseAnalysis

        design_spec = self.spec.designs[0]
        dataset = load_design_dataset(self._kept, "D1", verify=True)
        traces = shard_vectors(self.design, design_spec, 0)
        analysis = DynamicNoiseAnalysis(
            self.design, design_spec.dt, self.spec.transient_options()
        )
        rng = np.random.default_rng([self.seed, 7])
        for index in sorted(rng.choice(BATCH, RESOLVE_SAMPLE, replace=False)):
            sample = dataset.samples[int(index)]
            started = time.perf_counter()
            single = analysis.run(traces[int(index)])
            measured.other_ms.append(1e3 * (time.perf_counter() - started))
            if sample.name != traces[int(index)].name or not np.allclose(
                single.tile_noise, sample.target, rtol=RTOL, atol=ATOL
            ):
                ledger.fail(1, f"vector {index}: stored label disagrees with a single re-solve")

    def named(self, measured) -> dict:
        return {
            "label_vectors_per_s": (measured.rate, "vectors/s"),
            "single_vector_solve_ms": (median(measured.other_ms), "ms"),
        }

    def layer_extras(self, tracer, window, untraced, traced) -> dict:
        return {}

    def close(self) -> None:
        pass
