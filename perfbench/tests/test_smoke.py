"""Tiny-size runs of every workload emit exactly the declared metrics."""

import json
from pathlib import Path

import pytest

import label_workload
import run
import screen_workload
import train_workload

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

TINY = {
    "label": (label_workload, {"DESIGN": "D1@0.1", "NUM_STEPS": 12, "BATCH": 4,
                               "WARMUP_STEPS": 4, "RESOLVE_SAMPLE": 2}),
    "train": (train_workload, {"DESIGN": "D1@0.1", "NUM_VECTORS": 12, "NUM_STEPS": 12,
                               "EPOCHS": 1}),
    "screen": (screen_workload, {"DESIGNS": (("D1", "D1@0.1"), ("D2", "D2@0.1")),
                                 "NUM_STEPS": 12, "WARMUP_PER_DESIGN": 2,
                                 "POOL_RATE": {"D1": 20, "D2": 20}}),
}


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["label", "train", "screen"])
def test_tiny_run_emits_every_metric(capsys, monkeypatch, workload):
    module, sizes = TINY[workload]
    for name, value in sizes.items():
        monkeypatch.setattr(module, name, value)

    record, result = _run(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["seed"] == 3 and record["named"]["failed_pct"]["value"] == 0.0
    for key in ("git_rev", "nproc", "numpy", "scipy", "blas_threads", "kernel_threads"):
        assert key in record

    _, traced = _run(capsys, workload, trace=1)
    assert traced["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared
