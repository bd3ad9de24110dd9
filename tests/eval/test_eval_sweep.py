"""Tests for repro.eval.sweep — the resumable scenario sweep."""

import dataclasses
import json
import shutil

import pytest

from repro.eval import ScenarioSweep
from repro.eval.sweep import SWEEP_NAME
from repro.serving import ScenarioJob
from repro.workloads import scenario_spec


@pytest.fixture(scope="module")
def completed_sweep(tiny_campaign):
    """A finished (inline) sweep over the tiny campaign's checkpoints."""
    config, workdir, _, _ = tiny_campaign
    sweep = ScenarioSweep(config, workdir)
    records = sweep.run(num_workers=0)
    return config, workdir, sweep, records


class TestScenarioSweep:
    def test_job_grid(self, tiny_campaign):
        config, workdir, _, _ = tiny_campaign
        jobs = ScenarioSweep(config, workdir).jobs()
        expected = (
            len(config.heldout)
            * len(config.scenarios)
            * len(config.scenario_steps)
            * len(config.scenario_seeds)
        )
        assert len(jobs) == expected
        assert len({job.key for job in jobs}) == len(jobs)

    def test_rows_cover_grid_with_sane_fields(self, completed_sweep):
        config, _, sweep, records = completed_sweep
        assert len(records) == len(sweep.jobs())
        for record in records:
            values = record.values
            assert values["heldout"] in config.heldout
            assert values["scenario"] in config.scenarios
            assert values["true_worst_noise_v"] > 0
            assert values["map_mae_mv"] >= 0
            assert 0.0 <= values["hotspot_precision"] <= 1.0
            assert 0.0 <= values["hotspot_recall"] <= 1.0
            assert values["sim_runtime_s"] > 0
            assert values["predict_runtime_s"] > 0

    def test_manifest_written_with_config_hash(self, completed_sweep):
        config, workdir, _, _ = completed_sweep
        payload = json.loads((workdir / SWEEP_NAME).read_text())
        assert payload["config_hash"] == config.config_hash()
        assert len(payload["rows"]) > 0

    def test_resume_skips_completed_rows(self, completed_sweep):
        config, workdir, sweep, records = completed_sweep
        # Poison one stored row; a resumed run must keep it verbatim instead
        # of recomputing (the manifest, not the work, is the source of truth).
        rows = sweep.load_rows()
        key = next(iter(rows))
        rows[key] = dict(rows[key], map_mae_mv=-123.0)
        sweep._save_rows(rows)
        resumed = sweep.run(num_workers=0)
        poisoned = [r for r in resumed if r.label == key]
        assert poisoned and poisoned[0].values["map_mae_mv"] == -123.0
        # Repair for any later user of the fixture.
        sweep._save_rows({r.label: r.values for r in records})

    def test_mismatched_config_rejects_manifest(self, completed_sweep):
        config, workdir, _, _ = completed_sweep
        changed = dataclasses.replace(config, num_vectors=config.num_vectors + 1)
        with pytest.raises(ValueError, match="different campaign"):
            ScenarioSweep(changed, workdir).load_rows()

    def test_spec_variants_fan_out_and_run_end_to_end(self, tiny_campaign, tmp_path):
        # Parameter variants of one family are distinct sweep jobs with
        # distinct keys, and they run through the same checkpoints as named
        # scenarios (fresh workdir so the manifest hash matches the config).
        config, workdir, _, _ = tiny_campaign
        variant_config = dataclasses.replace(
            config,
            scenarios=(
                "steady_state",
                scenario_spec("steady_state", level=0.9),
                scenario_spec("power_virus", period_scale=2.0),
            ),
        )
        variant_workdir = tmp_path / "variants"
        variant_workdir.mkdir()
        shutil.copytree(workdir / "checkpoints", variant_workdir / "checkpoints")
        sweep = ScenarioSweep(variant_config, variant_workdir)
        jobs = sweep.jobs()
        assert len({job.key for job in jobs}) == len(jobs)
        records = sweep.run(num_workers=0)
        assert len(records) == len(jobs)
        labels = {record.values["scenario"] for record in records}
        assert "steady_state" in labels
        assert any(label.startswith("steady_state[") for label in labels)
        assert any(label.startswith("power_virus[") for label in labels)
        # The hotter steady-state variant predicts more noise than default.
        by_label = {r.values["scenario"]: r.values for r in records}
        default = by_label["steady_state"]
        hot = next(v for k, v in by_label.items() if k.startswith("steady_state["))
        assert hot["predicted_worst_noise_v"] > default["predicted_worst_noise_v"]

    def test_job_keys_stable_for_named_scenarios(self):
        job = ScenarioJob(design="D3", scenario="power_virus", num_steps=60, seed=1)
        assert job.key == "D3:power_virus:60:s1"
        spec_job = ScenarioJob(
            design="D3", scenario=scenario_spec("power_virus", swing=2.0),
            num_steps=60, seed=1,
        )
        assert spec_job.key.startswith("D3:power_virus[")

    def test_sweep_is_deterministic_for_fixed_jobs(self, completed_sweep, tmp_path):
        # Re-running the same jobs against the same checkpoints from a fresh
        # manifest reproduces the accuracy fields exactly (runtimes differ).
        config, workdir, _, records = completed_sweep
        fresh = ScenarioSweep(config, workdir)
        fresh_rows = fresh.run(num_workers=0, resume=False)
        by_key = {r.label: r.values for r in fresh_rows}
        for record in records:
            again = by_key[record.label]
            for field in ("true_worst_noise_v", "predicted_worst_noise_v", "map_mae_mv"):
                assert again[field] == record.values[field]
