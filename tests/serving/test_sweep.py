"""Tests for the worker-pool scenario sweep."""

import numpy as np
import pytest

from repro.pdn import small_test_design
from repro.resilience import ResilienceError
from repro.serving import ScenarioJob, default_design_factory, screen_scenarios
from repro.workloads.scenarios import scenario_names


def _tiny_factory(name: str):
    """Top-level (hence picklable) factory matching the test fixtures."""
    return small_test_design(tile_rows=8, tile_cols=8, num_loads=48, seed=0)


@pytest.fixture()
def sweep_jobs(tiny_design):
    return [
        ScenarioJob(design=tiny_design.name, scenario=name, num_steps=60)
        for name in scenario_names()[:3]
    ]


class TestScreenScenarios:
    def test_inline_sweep_produces_records(self, registry, sweep_jobs):
        records = screen_scenarios(
            sweep_jobs, registry.root, design_factory=_tiny_factory, num_workers=0
        )
        assert len(records) == len(sweep_jobs)
        for job, record in zip(sweep_jobs, records):
            assert record.experiment == "serving_sweep"
            assert record.label == f"{job.design}:{job.scenario}"
            values = record.values
            assert np.isfinite(values["worst_noise_v"])
            assert 0.0 <= values["hotspot_fraction"] <= 1.0
            assert values["runtime_s"] > 0

    def test_inline_sweep_is_deterministic(self, registry, sweep_jobs):
        first = screen_scenarios(
            sweep_jobs, registry.root, design_factory=_tiny_factory, num_workers=0
        )
        second = screen_scenarios(
            sweep_jobs, registry.root, design_factory=_tiny_factory, num_workers=0
        )
        for a, b in zip(first, second):
            assert a.values["worst_noise_v"] == pytest.approx(b.values["worst_noise_v"])

    def test_empty_job_list(self, registry):
        assert screen_scenarios([], registry.root, num_workers=0) == []

    def test_spec_built_suites_screen_like_named_scenarios(self, registry, tiny_design):
        from repro.workloads import overlay, scenario_spec

        jobs = [
            ScenarioJob(design=tiny_design.name, scenario="power_virus", num_steps=60),
            ScenarioJob(
                design=tiny_design.name,
                scenario=scenario_spec("power_virus", base=0.6),
                num_steps=60,
            ),
            ScenarioJob(
                design=tiny_design.name,
                scenario=overlay("steady_state", "didt_step_train"),
                num_steps=60,
            ),
        ]
        records = screen_scenarios(
            jobs, registry.root, design_factory=_tiny_factory, num_workers=0
        )
        assert len(records) == 3
        for job, record in zip(jobs, records):
            assert record.label == f"{job.design}:{job.scenario_label}"
            assert np.isfinite(record.values["worst_noise_v"])
        # The hotter parameter variant screens hotter than the default.
        assert records[1].values["worst_noise_v"] > records[0].values["worst_noise_v"]

    def test_process_pool_sweep(self, registry, sweep_jobs):
        try:
            records = screen_scenarios(
                sweep_jobs, registry.root, design_factory=_tiny_factory, num_workers=2
            )
        except Exception as error:  # pragma: no cover - sandbox without fork
            pytest.skip(f"process pool unavailable: {error}")
        assert len(records) == len(sweep_jobs)
        inline = screen_scenarios(
            sweep_jobs, registry.root, design_factory=_tiny_factory, num_workers=0
        )
        for pooled, local in zip(records, inline):
            assert pooled.values["worst_noise_v"] == pytest.approx(
                local.values["worst_noise_v"]
            )


    def test_failing_job_raises_the_same_error_inline_and_pooled(
        self, registry, tiny_design
    ):
        jobs = [
            ScenarioJob(design=tiny_design.name, scenario="power_virus", num_steps=60),
            ScenarioJob(design="unregistered", scenario="power_virus", num_steps=60),
        ]
        messages = []
        for num_workers in (0, 2):
            with pytest.raises(ResilienceError) as excinfo:
                screen_scenarios(
                    jobs, registry.root, design_factory=_tiny_factory,
                    num_workers=num_workers,
                )
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(
            "scenario job unregistered:power_virus failed: KeyError("
        )


class TestDefaultDesignFactory:
    def test_small_names(self):
        design = default_design_factory("small")
        assert design.tile_grid.shape == (8, 8)
        sized = default_design_factory("small@6")
        assert sized.tile_grid.shape == (6, 6)

    def test_reference_names_with_scale(self):
        design = default_design_factory("D1@0.1")
        assert design.name == "D1"
