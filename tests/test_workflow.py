"""The CI workflow parses, and every step runs a command or uses an action."""
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_tier1_workflow_steps_are_well_formed():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    assert jobs
    for name, job in jobs.items():
        assert job["steps"], name
        for step in job["steps"]:
            assert isinstance(step.get("run"), str) or isinstance(step.get("uses"), str), (
                name,
                step,
            )
