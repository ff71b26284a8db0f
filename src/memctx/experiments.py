"""Seeded experiment recipes for the desk-scale comparisons.

Each recipe trains a set of arms that differ in exactly one factor
(compression structure, pretraining, or index-set policy) under shared
datasets, seeds, and step budgets, then evaluates them with the retrieval
or rollout protocol and reports the resulting orderings.  One runner serves
every recipe: it runs one job per (arm, seed), arm-major, and hands the
results to the recipe's summary.  Each job seeds its own streams, so job
order does not change them.  Reports are deterministic given the recipe,
and can be written as text and CSV.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
import time
from types import SimpleNamespace

import numpy as np

from . import diffusion, rollout, training

__all__ = [
    "ExperimentRecipe",
    "Arm",
    "COMPRESSION_ARMS",
    "run_ablation_compression",
    "run_pretrain_ablation",
    "run_omega_policy_ablation",
    "write_report",
]

# Settings every recipe shares; the CLI sets only the ExperimentRecipe fields.
DATASET_SEED = 100  # training scenes; +1000 for held-out eval scenes, +2000 for static ones
EVAL_SEED = 9
N_EVAL = 8
BATCH = 4
LR = 3e-3
TIMESTEPS = diffusion.TimestepDistribution(mu=2.0, sigma=0.8)
MARGIN_DB = 0.5
SAMPLE_STEPS = 8
ROLLOUT_STEPS = 2


@dataclasses.dataclass(frozen=True)
class ExperimentRecipe:
    """One self-contained experiment: arms share everything but the ablated factor."""

    name: str
    seeds: tuple
    pretrain_steps: int
    finetune_steps: int
    n_scenes: int

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("recipe needs at least one seed")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be non-negative, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):  # a repeated seed would count as two
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.pretrain_steps < 0 or self.finetune_steps < 0:
            raise ValueError("step budgets must be non-negative")
        if self.n_scenes < 1:
            raise ValueError(f"a recipe needs at least one scene, got {self.n_scenes}")


@dataclasses.dataclass(frozen=True)
class Arm:
    """One trained model per seed: its encoder, and whether and how it is pretrained."""

    name: str
    rate: tuple = (4, 4, 2)
    variant: str = "dual"
    pretrained: bool = True
    omega_policy: str = "uniform"


COMPRESSION_ARMS = (
    Arm("2x2x1", (2, 2, 1)),
    Arm("2x2x2", (2, 2, 2)),
    Arm("4x4x2"),
    Arm("only_lr_4x4x2", variant="only_lr"),
    Arm("without_lr_4x4x2", variant="without_lr"),
    Arm("large_patchifier_4x4x2", variant="large_patchifier"),
)

# Expected quality orderings between compression arms (better, worse), asserted with MARGIN_DB.
COMPRESSION_ORDERINGS = (
    ("2x2x1", "2x2x2"),
    ("2x2x2", "4x4x2"),
    ("4x4x2", "only_lr_4x4x2"),
    ("4x4x2", "without_lr_4x4x2"),
    ("4x4x2", "large_patchifier_4x4x2"),
)
PRETRAIN_ARMS = (Arm("pretrained"), Arm("scratch", pretrained=False))
OMEGA_ARMS = (Arm("uniform"), Arm("fixed_endpoints", omega_policy="fixed-endpoints"))


def _run(recipe: ExperimentRecipe, out_dir, kind, arms, job, summary) -> dict:
    """Run ``job`` once per (arm, seed), arm-major; report ``summary`` of the results by seed."""
    data = SimpleNamespace(
        train=training.make_dataset(DATASET_SEED, recipe.n_scenes),
        eval=training.make_dataset(DATASET_SEED + 1000, N_EVAL // 2),
        static=training.make_dataset(DATASET_SEED + 2000, 2, static=True),
    )
    t0 = time.time()
    jobs = [(arm, seed) for arm in arms for seed in recipe.seeds]
    results = {(arm.name, seed): job(recipe, arm, seed, data) for arm, seed in jobs}
    per_seed = [{arm.name: results[arm.name, seed] for arm in arms} for seed in recipe.seeds]
    report = {"recipe": recipe.name, "kind": kind, **summary(per_seed)}
    report["wall_clock_s"] = round(time.time() - t0, 1)
    if out_dir:
        write_report(report, out_dir)
    return report


def _trained(recipe, arm, seed, dataset):
    enc, g = training.build_models(seed, rate=arm.rate, variant=arm.variant)
    if arm.pretrained and recipe.pretrain_steps:
        training.pretrain_retrieval(
            enc, g, dataset, steps=recipe.pretrain_steps, seed=seed, batch=BATCH, lr=LR,
            omega_policy=arm.omega_policy, timestep_dist=TIMESTEPS,
        )
    return enc, g


def _retrieval(enc, g, eval_ds, policy="uniform") -> dict:
    return training.evaluate_retrieval(enc, g, eval_ds, seed=EVAL_SEED, n_eval=N_EVAL,
                                       policy=policy, sample_steps=SAMPLE_STEPS)


def run_ablation_compression(recipe: ExperimentRecipe, out_dir: str | None = None) -> dict:
    """Train every compression arm on retrieval and report PSNR/SSIM orderings."""
    return _run(recipe, out_dir, "compression_ablation", COMPRESSION_ARMS,
                _compression_job, _compression_summary)


def _compression_job(recipe, arm, seed, data):
    return _retrieval(*_trained(recipe, arm, seed, data.train), data.eval)


def _compression_summary(per_seed) -> dict:
    arms = {}
    for arm in COMPRESSION_ARMS:
        runs = [s[arm.name] for s in per_seed]
        arms[arm.name] = {
            "psnr": float(np.mean([r["psnr"] for r in runs])),
            "ssim": float(np.mean([r["ssim"] for r in runs])),
            "per_seed_psnr": [r["psnr"] for r in runs],
        }
    orderings = []
    for better, worse in COMPRESSION_ORDERINGS:
        gap = arms[better]["psnr"] - arms[worse]["psnr"]
        orderings.append(dict(better=better, worse=worse, gap_db=gap, holds=gap >= MARGIN_DB))
    holds = all(o["holds"] for o in orderings)
    return {"arms": arms, "orderings": orderings, "all_orderings_hold": holds}


def run_pretrain_ablation(recipe: ExperimentRecipe, out_dir: str | None = None) -> dict:
    """Retrieval-pretrained vs. scratch encoder, equal fine-tune budgets.

    Reports held-out retrieval PSNR before fine-tuning and rollout
    consistency (PSNR of each generated clip against the seed clip on a
    static-background scene) after fine-tuning.
    """
    return _run(recipe, out_dir, "pretrain_ablation", PRETRAIN_ARMS,
                _pretrain_job, _pretrain_summary)


def _pretrain_job(recipe, arm, seed, data):
    enc, g = _trained(recipe, arm, seed, data.train)
    retrieval = _retrieval(enc, g, data.eval)["psnr"]
    if recipe.finetune_steps:
        training.finetune_next_clip(
            enc, g, data.train, steps=recipe.finetune_steps, seed=seed, batch=BATCH, lr=LR
        )
    return {
        "retrieval_psnr_pre_finetune": retrieval,
        "rollout_consistency_psnr": _rollout_consistency(enc, g, data.static, seed),
    }


def _rollout_consistency(enc, g, static_ds, seed):
    scores = []
    for lat, cond in static_ds:
        session = rollout.RolloutSession(
            g, enc, seed=(seed, 0x2011), condition_schedule=((0, cond),),
            sample_steps=SAMPLE_STEPS, seed_clip=lat[: enc.chunk_len],
        )
        _, records = session.run(ROLLOUT_STEPS)
        scores.append(np.mean([r["consistency_psnr"] for r in records]))
    return float(np.mean(scores))


def _pretrain_summary(per_seed) -> dict:
    wins = sum(
        s["pretrained"]["rollout_consistency_psnr"] >= s["scratch"]["rollout_consistency_psnr"]
        for s in per_seed
    )
    retrieval_wins = sum(
        s["pretrained"]["retrieval_psnr_pre_finetune"] > s["scratch"]["retrieval_psnr_pre_finetune"]
        for s in per_seed
    )
    return {
        "per_seed": per_seed,
        "consistency_wins": int(wins),
        "retrieval_wins": int(retrieval_wins),
        "n_seeds": len(per_seed),
        "majority_holds": bool(wins * 2 > len(per_seed)),
    }


def run_omega_policy_ablation(recipe: ExperimentRecipe, out_dir: str | None = None) -> dict:
    """Uniformly random index sets vs. always-the-last-frame index sets.

    The uniform policy should win at random held-out positions; the fixed
    policy should do at least as well at its own endpoint position as at
    random positions (it shortcuts to reproducing the final frame).
    """
    return _run(recipe, out_dir, "omega_policy_ablation", OMEGA_ARMS, _omega_job, _omega_summary)


def _omega_job(recipe, arm, seed, data):
    enc, g = _trained(recipe, arm, seed, data.train)
    return {
        "random_position_psnr": _retrieval(enc, g, data.eval)["psnr"],
        "endpoint_psnr": _retrieval(enc, g, data.eval, policy="fixed-endpoints")["psnr"],
    }


def _omega_summary(per_seed) -> dict:
    mean_uniform = float(np.mean([s["uniform"]["random_position_psnr"] for s in per_seed]))
    mean_fixed = float(np.mean([s["fixed_endpoints"]["random_position_psnr"] for s in per_seed]))
    fixed_endpoint_ok = all(
        s["fixed_endpoints"]["endpoint_psnr"] >= s["fixed_endpoints"]["random_position_psnr"]
        for s in per_seed
    )
    return {
        "per_seed": per_seed,
        "uniform_random_psnr": mean_uniform,
        "fixed_random_psnr": mean_fixed,
        "gap_db": mean_uniform - mean_fixed,
        "uniform_wins": bool(mean_uniform - mean_fixed >= 1.0),
        "fixed_best_at_endpoint": bool(fixed_endpoint_ok),
    }


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def report_text(report: dict) -> str:
    """Deterministic human-readable rendering of a report."""
    rows = []
    _flatten("", report, rows)
    width = max(len(k) for k, _ in rows)
    lines = [f"# {report.get('recipe', 'experiment')} ({report.get('kind', '?')})"]
    for key, value in rows:
        if isinstance(value, float):
            value = f"{value:.4f}"
        lines.append(f"{key.ljust(width)}  {value}")
    return "\n".join(lines) + "\n"


def report_csv(report: dict) -> str:
    rows = []
    _flatten("", report, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in rows:
        writer.writerow([key, value])
    return buf.getvalue()


def write_report(report: dict, out_dir: str) -> tuple:
    """Write text and CSV renderings; returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{report.get('recipe', 'experiment')}_{report.get('kind', 'report')}"
    txt_path = os.path.join(out_dir, stem + ".txt")
    csv_path = os.path.join(out_dir, stem + ".csv")
    with open(txt_path, "w") as fh:
        fh.write(report_text(report))
    with open(csv_path, "w") as fh:
        fh.write(report_csv(report))
    return txt_path, csv_path
