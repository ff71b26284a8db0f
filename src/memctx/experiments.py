"""Seeded experiment recipes for the desk-scale comparisons.

Each recipe trains a set of arms that differ in exactly one factor
(compression structure, pretraining, or index-set policy) under shared
datasets, seeds, and step budgets, then evaluates them with the retrieval
or rollout protocol and reports the resulting orderings.  Reports are
deterministic given the recipe, and can be written as text and CSV.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
import time

import numpy as np

from . import diffusion, rollout, training

__all__ = [
    "ExperimentRecipe",
    "ABLATION_ARMS",
    "run_ablation_compression",
    "run_pretrain_ablation",
    "run_omega_policy_ablation",
    "write_report",
]


# Compression-structure arms: (name, rate, encoder variant).
ABLATION_ARMS = (
    ("2x2x1", (2, 2, 1), "dual"),
    ("2x2x2", (2, 2, 2), "dual"),
    ("4x4x2", (4, 4, 2), "dual"),
    ("only_lr_4x4x2", (4, 4, 2), "only_lr"),
    ("without_lr_4x4x2", (4, 4, 2), "without_lr"),
    ("large_patchifier_4x4x2", (4, 4, 2), "large_patchifier"),
)

# Expected quality orderings between compression arms (better, worse),
# asserted with the recipe margin.
ABLATION_ORDERINGS = (
    ("2x2x1", "2x2x2"),
    ("2x2x2", "4x4x2"),
    ("4x4x2", "only_lr_4x4x2"),
    ("4x4x2", "without_lr_4x4x2"),
    ("4x4x2", "large_patchifier_4x4x2"),
)


@dataclasses.dataclass(frozen=True)
class ExperimentRecipe:
    """One self-contained experiment: arms share everything but the ablated factor."""

    name: str
    dataset_seed: int = 100
    n_scenes: int = 256
    eval_seed: int = 9
    n_eval: int = 8
    seeds: tuple = (0, 1, 2)
    pretrain_steps: int = 2000
    finetune_steps: int = 1000
    batch: int = 4
    lr: float = 3e-3
    timestep_mu: float = 2.0
    timestep_sigma: float = 0.8
    margin_db: float = 0.5
    sample_steps: int = 8
    rollout_steps: int = 2

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("recipe needs at least one seed")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be non-negative, got {list(self.seeds)}")
        if self.pretrain_steps < 0 or self.finetune_steps < 0:
            raise ValueError("step budgets must be non-negative")
        if self.n_scenes < 1:
            raise ValueError(f"a recipe needs at least one scene, got {self.n_scenes}")


def _train_arm(recipe, seed, rate, variant, dataset, omega_policy="uniform"):
    enc, g = training.build_models(seed, rate=rate, variant=variant)
    if recipe.pretrain_steps:
        training.pretrain_retrieval(
            enc,
            g,
            dataset,
            steps=recipe.pretrain_steps,
            seed=seed,
            batch=recipe.batch,
            lr=recipe.lr,
            omega_policy=omega_policy,
            timestep_dist=diffusion.TimestepDistribution(
                mu=recipe.timestep_mu, sigma=recipe.timestep_sigma
            ),
        )
    return enc, g


def run_ablation_compression(recipe: ExperimentRecipe, out_dir: str | None = None) -> dict:
    """Train every compression arm on retrieval and report PSNR/SSIM orderings."""
    dataset = training.make_dataset(recipe.dataset_seed, recipe.n_scenes)
    eval_ds = training.make_dataset(recipe.dataset_seed + 1000, max(recipe.n_eval // 2, 1))
    arms = {}
    t0 = time.time()
    for name, rate, variant in ABLATION_ARMS:
        psnrs, ssims = [], []
        for seed in recipe.seeds:
            enc, g = _train_arm(recipe, seed, rate, variant, dataset)
            res = training.evaluate_retrieval(
                enc,
                g,
                eval_ds,
                seed=recipe.eval_seed,
                n_eval=recipe.n_eval,
                sample_steps=recipe.sample_steps,
            )
            psnrs.append(res["psnr"])
            ssims.append(res["ssim"])
        arms[name] = {
            "psnr": float(np.mean(psnrs)),
            "ssim": float(np.mean(ssims)),
            "per_seed_psnr": [float(p) for p in psnrs],
        }
    orderings = []
    for better, worse in ABLATION_ORDERINGS:
        gap = arms[better]["psnr"] - arms[worse]["psnr"]
        orderings.append(
            {
                "better": better,
                "worse": worse,
                "gap_db": float(gap),
                "holds": bool(gap >= recipe.margin_db),
            }
        )
    report = {
        "recipe": recipe.name,
        "kind": "compression_ablation",
        "arms": arms,
        "orderings": orderings,
        "all_orderings_hold": all(o["holds"] for o in orderings),
        "wall_clock_s": round(time.time() - t0, 1),
    }
    if out_dir:
        write_report(report, out_dir)
    return report


def run_pretrain_ablation(recipe: ExperimentRecipe, out_dir: str | None = None) -> dict:
    """Retrieval-pretrained vs. scratch encoder, equal fine-tune budgets.

    Reports held-out retrieval PSNR before fine-tuning and rollout
    consistency (PSNR of each generated clip against the seed clip on a
    static-background scene) after fine-tuning.
    """
    dataset = training.make_dataset(recipe.dataset_seed, recipe.n_scenes)
    eval_ds = training.make_dataset(recipe.dataset_seed + 1000, max(recipe.n_eval // 2, 1))
    static_ds = training.make_dataset(recipe.dataset_seed + 2000, 2, static=True)
    t0 = time.time()
    per_seed = []
    for seed in recipe.seeds:
        arms = {}
        for arm_name, presteps in (("pretrained", recipe.pretrain_steps), ("scratch", 0)):
            sub = dataclasses.replace(recipe, pretrain_steps=presteps)
            enc, g = _train_arm(sub, seed, (4, 4, 2), "dual", dataset)
            retrieval = training.evaluate_retrieval(
                enc, g, eval_ds, seed=recipe.eval_seed, n_eval=recipe.n_eval,
                sample_steps=recipe.sample_steps,
            )["psnr"]
            if recipe.finetune_steps:
                training.finetune_next_clip(
                    enc, g, dataset, steps=recipe.finetune_steps, seed=seed,
                    batch=recipe.batch, lr=recipe.lr,
                )
            consistency = _rollout_consistency(enc, g, static_ds, seed, recipe)
            arms[arm_name] = {
                "retrieval_psnr_pre_finetune": float(retrieval),
                "rollout_consistency_psnr": float(consistency),
            }
        per_seed.append(arms)
    wins = sum(
        s["pretrained"]["rollout_consistency_psnr"] >= s["scratch"]["rollout_consistency_psnr"]
        for s in per_seed
    )
    retrieval_wins = sum(
        s["pretrained"]["retrieval_psnr_pre_finetune"] > s["scratch"]["retrieval_psnr_pre_finetune"]
        for s in per_seed
    )
    report = {
        "recipe": recipe.name,
        "kind": "pretrain_ablation",
        "per_seed": per_seed,
        "consistency_wins": int(wins),
        "retrieval_wins": int(retrieval_wins),
        "n_seeds": len(recipe.seeds),
        "majority_holds": bool(wins * 2 > len(recipe.seeds)),
        "wall_clock_s": round(time.time() - t0, 1),
    }
    if out_dir:
        write_report(report, out_dir)
    return report


def _rollout_consistency(enc, g, static_ds, seed, recipe):
    scores = []
    for lat, cond in static_ds:
        session = rollout.RolloutSession(
            g,
            enc,
            seed=(seed, 0x2011),
            condition_schedule=((0, cond),),
            sample_steps=recipe.sample_steps,
            seed_clip=lat[: enc.chunk_len],
        )
        _, records = session.run(recipe.rollout_steps)
        scores.append(np.mean([r["consistency_psnr"] for r in records]))
    return float(np.mean(scores))


def run_omega_policy_ablation(recipe: ExperimentRecipe, out_dir: str | None = None) -> dict:
    """Uniformly random index sets vs. always-the-last-frame index sets.

    The uniform policy should win at random held-out positions; the fixed
    policy should do at least as well at its own endpoint position as at
    random positions (it shortcuts to reproducing the final frame).
    """
    dataset = training.make_dataset(recipe.dataset_seed, recipe.n_scenes)
    eval_ds = training.make_dataset(recipe.dataset_seed + 1000, max(recipe.n_eval // 2, 1))
    t0 = time.time()
    per_seed = []
    for seed in recipe.seeds:
        arms = {}
        for arm_name, policy in (("uniform", "uniform"), ("fixed_endpoints", "fixed-endpoints")):
            enc, g = _train_arm(recipe, seed, (4, 4, 2), "dual", dataset, omega_policy=policy)
            random_psnr = training.evaluate_retrieval(
                enc, g, eval_ds, seed=recipe.eval_seed, n_eval=recipe.n_eval,
                sample_steps=recipe.sample_steps,
            )["psnr"]
            endpoint_psnr = training.evaluate_retrieval(
                enc, g, eval_ds, seed=recipe.eval_seed, n_eval=recipe.n_eval,
                positions="endpoint", sample_steps=recipe.sample_steps,
            )["psnr"]
            arms[arm_name] = {
                "random_position_psnr": float(random_psnr),
                "endpoint_psnr": float(endpoint_psnr),
            }
        per_seed.append(arms)
    mean_uniform = float(np.mean([s["uniform"]["random_position_psnr"] for s in per_seed]))
    mean_fixed = float(np.mean([s["fixed_endpoints"]["random_position_psnr"] for s in per_seed]))
    fixed_endpoint_ok = all(
        s["fixed_endpoints"]["endpoint_psnr"] >= s["fixed_endpoints"]["random_position_psnr"]
        for s in per_seed
    )
    report = {
        "recipe": recipe.name,
        "kind": "omega_policy_ablation",
        "per_seed": per_seed,
        "uniform_random_psnr": mean_uniform,
        "fixed_random_psnr": mean_fixed,
        "gap_db": mean_uniform - mean_fixed,
        "uniform_wins": bool(mean_uniform - mean_fixed >= 1.0),
        "fixed_best_at_endpoint": bool(fixed_endpoint_ok),
        "wall_clock_s": round(time.time() - t0, 1),
    }
    if out_dir:
        write_report(report, out_dir)
    return report


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
