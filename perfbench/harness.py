"""Statistics, op accounting and the run record shared by every workload.

Apart from :func:`run_record`, everything here works on plain numbers, so
the benchmark's own tests (``perfbench/tests``) exercise it without running
a workload.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float], min_beyond: int = 10):
    """The highest percentile that still has ``min_beyond`` samples above it.

    Returns ``(percentile, value, count)``: with ``n`` samples sorted
    ascending, the reported value is the ``n - min_beyond``-th smallest
    (1-based), so exactly ``min_beyond`` samples lie beyond it, and the
    percentile is its rank as a share of ``n`` (in percent, floored to a
    tenth).  A sample too small to leave ``min_beyond`` samples beyond any
    point yields ``(None, None, n)``.
    """
    ordered = sorted(values)
    count = len(ordered)
    rank = count - min_beyond
    if rank < 1:
        return None, None, count
    percentile = math.floor(1000.0 * rank / count) / 10.0
    return percentile, float(ordered[rank - 1]), count


@dataclass
class OpLedger:
    """Counts ops attempted and failed; every correctness failure lands here.

    An op is one labelled vector, one training step or one screening
    request.  ``fail`` may be called for an op more than once across
    different checks; the ledger caps failures at the attempted count.
    """

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += int(count)

    def fail(self, count: int, why: str) -> None:
        if count <= 0:
            return
        self.failed = min(self.attempted, self.failed + int(count))
        if len(self.problems) < 20:
            self.problems.append(why)

    @property
    def failed_pct(self) -> float:
        """Failed ops as a percentage of ops attempted (100 when none ran)."""
        if self.attempted <= 0:
            return 100.0
        return 100.0 * self.failed / self.attempted

    @property
    def ok_pct(self) -> float:
        """Ops that succeeded, as a percentage of ops attempted."""
        return 100.0 - self.failed_pct


@dataclass
class Measured:
    """What one timed region produced.

    ``unit_rates`` holds ops/s per timed unit (the reported throughput is
    their median); ``op_ms`` the op latency the end-to-end ``op_p50_ms``
    reports; ``other_ms`` a second, workload-specific latency that only the
    run record carries.
    """

    wall_s: float = 0.0
    unit_rates: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)
    other_ms: list = field(default_factory=list)

    @property
    def rate(self) -> float:
        return median(self.unit_rates)


def run_units(seconds: float, unit) -> Measured:
    """Repeat ``unit(measured)`` until starting another would overrun ``seconds``.

    ``unit`` returns ``(ops, seconds)`` for the work it timed and may append
    latencies to the :class:`Measured` it is given.  At least two units run,
    so every run reports a median of more than one sample.
    """
    measured = Measured()
    durations = []
    while len(durations) < 2 or measured.wall_s + median(durations) <= seconds:
        ops, elapsed = unit(measured)
        durations.append(elapsed)
        measured.wall_s += elapsed
        measured.unit_rates.append(ops / elapsed)
    return measured


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_record(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Provenance stamped into every result: seed, code revision, host, libraries."""
    import numpy
    import scipy

    from repro.nn import kernels
    from repro.utils.artifacts import git_revision

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_rev": git_revision(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0),
        "kernel_threads": kernels.kernel_threads(),
        "argv": sys.argv[1:],
    }
