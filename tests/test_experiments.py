"""Experiment recipes: reports that repeat, and per-seed results independent of job order."""

import pytest

from memctx import experiments
from memctx.experiments import ExperimentRecipe


@pytest.fixture(autouse=True)
def two_step_sampling(monkeypatch):
    """Sample in 2 Euler steps rather than 8, which halves the time of this file's recipe runs.

    What these tests check, that a job's results follow from its arm and seed alone, holds
    at any step count; CI runs a recipe at its own count from the command line.
    """
    monkeypatch.setattr(experiments, "SAMPLE_STEPS", 2)


def _lines(text):
    """A report's text or CSV lines, less the one that times the run."""
    return [line for line in text.splitlines() if not line.startswith("wall_clock_s")]


@pytest.mark.parametrize(
    "run", [experiments.run_ablation_compression, experiments.run_omega_policy_ablation],
    ids=["compression", "omega"],
)
def test_recipe_reports_repeat_apart_from_wall_clock(run, tmp_path):
    recipe = ExperimentRecipe("t", seeds=(0,), pretrain_steps=1, finetune_steps=1, n_scenes=2)
    first, second = tmp_path / "first", tmp_path / "second"
    run(recipe, str(first))
    run(recipe, str(second))
    names = sorted(p.name for p in first.iterdir())
    assert len(names) == 2 and names == sorted(p.name for p in second.iterdir())  # text and CSV
    for name in names:
        assert _lines((first / name).read_text()) == _lines((second / name).read_text())


def test_pretrain_results_per_seed_do_not_depend_on_seed_order():
    """Each (arm, seed) job seeds its own streams, so a job pool may run them in any order.

    The two runs also write the same text and CSV once the later run's seeds are put back in order.
    """
    forward = experiments.run_pretrain_ablation(
        ExperimentRecipe("t", seeds=(0, 1), pretrain_steps=1, finetune_steps=1, n_scenes=2)
    )
    backward = experiments.run_pretrain_ablation(
        ExperimentRecipe("t", seeds=(1, 0), pretrain_steps=1, finetune_steps=1, n_scenes=2)
    )
    assert backward["per_seed"] == forward["per_seed"][::-1]
    reordered = dict(backward, per_seed=backward["per_seed"][::-1])
    for render in (experiments.report_text, experiments.report_csv):
        assert _lines(render(reordered)) == _lines(render(forward))
