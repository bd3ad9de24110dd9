"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same workload with span wrappers at every layer
boundary and reports the per-layer metrics instead.  Either way the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record (seed,
code revision, host and library versions, and the workload's named
metrics).  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WORKLOADS = ("label", "train", "screen")


def make_workload(name: str, seed: int, workdir: Path, seconds: float):
    if name == "label":
        from label_workload import LabelWorkload

        return LabelWorkload(seed, workdir)
    if name == "train":
        from train_workload import TrainWorkload

        return TrainWorkload(seed, workdir)
    from screen_workload import ScreenWorkload

    return ScreenWorkload(seed, workdir, seconds)


def end_to_end(setup_times, measured, peak_mb, ledger) -> dict:
    from harness import median, metric

    return {
        "setup_s": metric(median(setup_times), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "ok_pct": metric(ledger.ok_pct, "%"),
        "ops_per_s": metric(measured.rate, "1/s"),
        "op_p50_ms": metric(median(measured.op_ms), "ms"),
    }


def measure(workload, seconds, ledger):
    """Untraced run: repeated set-up, then the timed region."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
    measured = workload.run(seconds, ledger)
    return setup_times, measured


def traced(workload, seconds, ledger, trace_path: Path) -> tuple:
    """Traced run: set-up traced once, then the timed region untraced and
    again traced; the throughput ratio of the two is the tracing overhead.

    Unit-based workloads run their minimum of two units each time, a fixed
    amount of work, so the computed counts repeat exactly from run to run;
    the closed-loop ``screen`` session runs half of ``seconds`` each time.
    """
    from repro import obs
    from tracing import Boundaries, Tracer, layer_metrics, unattributed_seconds

    tracer = Tracer()
    boundaries = Boundaries(tracer)
    boundaries.install()
    try:
        workload.setup()
    finally:
        boundaries.uninstall()
    half = seconds / 2 if workload.timed_by_clock else 0.0
    untraced = workload.run(half, ledger)
    obs.configure(enabled=True)
    tracer.phase = "timed"
    boundaries.install()
    try:
        window_start = time.perf_counter()
        traced_half = workload.run(half, ledger)
        window = (window_start, time.perf_counter())
    finally:
        boundaries.uninstall()
        program_metrics = obs.metrics().snapshot()
        obs.reset()
    timed_spans = [s for s in tracer.spans if s["phase"] == "timed"]
    metrics = layer_metrics(tracer.spans)
    metrics.update(idle_layer_metrics())
    metrics.update(workload.layer_extras(tracer, window, untraced, traced_half))
    metrics["obs.overhead_pct"] = (100.0 * (untraced.rate / traced_half.rate - 1.0), "%")
    metrics["run.unattributed_s"] = (unattributed_seconds(timed_spans, window), "s")
    tracer.write(trace_path, {"window": window, "program_metrics": program_metrics})
    return metrics, untraced


def idle_layer_metrics() -> dict:
    """Workload-specific layer metrics, zero where the workload has no such layer."""
    out = {"serving.forwarded_per_request": (0.0, "ratio"), "gateway.wait_ms_mean": (0.0, "ms")}
    for shard in range(2):
        out[f"gateway.worker_busy_share.shard{shard}"] = (0.0, "ratio")
    for client in ("bulk", "interactive"):
        out[f"gateway.{client}_tail_ms"] = (0.0, "ms")
        out[f"gateway.{client}_tail_pct"] = (0.0, "%")
        out[f"gateway.{client}_tail_samples"] = (0, "count")
    for counter in ("rejected", "restarts", "failures"):
        out[f"gateway.{counter}"] = (0, "count")
    out["core.test_mre_pct"] = (0.0, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One process, one thread per kernel: the runs measure the code, not the
    # scheduler.  Nothing has imported numpy yet when this runs as a script.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    os.environ["REPRO_KERNEL_THREADS"] = "1"
    # A terminated run still closes its gateway and deletes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import OpLedger, metric, peak_rss_mb, run_record

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = make_workload(args.workload, args.seed, workdir, args.seconds)
    ledger = OpLedger()
    try:
        if args.trace:
            trace_path = scratch / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            layer, measured = traced(workload, args.seconds, ledger, trace_path)
        else:
            setup_times, measured = measure(workload, args.seconds, ledger)
        # Taken before the correctness check, whose reference computations
        # are not part of the workload.
        peak_mb = peak_rss_mb()
        try:
            workload.check(ledger, measured)
        except Exception as error:  # noqa: BLE001 - a crashed check fails every op
            ledger.fail(ledger.attempted, f"correctness check crashed: {error!r}")
        named = workload.named(measured)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: metric(value, unit) for name, (value, unit) in sorted(layer.items())}
    else:
        metrics = end_to_end(setup_times, measured, peak_mb, ledger)
    named["failed_pct"] = (ledger.failed_pct, "%")
    record = run_record(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    record["named"] = {name: metric(value, unit) for name, (value, unit) in named.items()}
    record["unit_rates"] = measured.unit_rates
    record["problems"] = ledger.problems
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
