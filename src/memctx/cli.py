"""Command-line harness: pretrain, finetune, rollout, eval, budget, experiment.

Exit codes: 0 success; 2 for bad inputs: an invalid config (bad JSON, an unknown key, a value
out of range, such as a negative seed, or not finite; or, found as ``_build`` builds the models
before any scene is made or checkpoint read, rates or a chunk length that do not tile the desk
grid, a DiT width that is not its head count times a multiple of 8, a condition schedule not
starting at frame 0, with two entries at one frame or with a code outside the vocabulary), a
file that cannot be read or written (missing, a directory, no permission: any OSError), a
corrupt latent file (bad magic, unsupported version, unknown dtype, truncated, bytes after its
end), two latent files ``eval`` cannot compare (another frame shape, no frames, frames with no
pixels, or a NaN, infinite or larger than 1e75 value among the frames compared), an
``experiment`` with a negative or repeated seed, a negative step budget or fewer than one scene
(rejected before any training runs), a ``finetune`` whose ``encoder.chunk_len`` leaves fewer
than two chunks per scene, a ``--resume`` checkpoint whose step is past ``training.steps``, a
``budget`` geometry that is not positive and finite, whose frame count (fps times duration) is
not finite, or that reduces to zero tokens, or a checkpoint that does not fit (bad magic,
unsupported version, truncated file, bytes after its end, a parameter name that is not UTF-8, a
shape or payload larger than the bytes left in the file or that numpy cannot hold, unknown
dtype, missing, unknown or mis-shaped parameters or optimizer state); 3 for a runtime or
numeric failure: diverged training, or any other ValueError or ArithmeticError. Argument errors
that argparse reports (a missing or non-numeric argument, an unknown experiment recipe) also
exit 2. All commands are deterministic given config + seed; checkpoints are written atomically
and training can resume from them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import checkpoint, config as config_mod, data, diffusion, experiments, metrics, rollout, seeding, training

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build(cfg):
    """The config's encoder and DiT; a config that they or a rollout session refuse is a ConfigError."""
    try:
        enc, g = training.build_models(
            cfg["seed"],
            rate=tuple(cfg["encoder"]["rate"]),
            variant=cfg["encoder"]["variant"],
            chunk_len=cfg["encoder"]["chunk_len"],
            model_dim=cfg["dit"]["inner_dim"],
            n_blocks=cfg["dit"]["blocks"],
            n_heads=cfg["dit"]["heads"],
            vocab=cfg["dataset"]["vocab"],
        )
        rollout.check_schedule(g, cfg["rollout"]["condition_schedule"])
    except ValueError as e:
        raise config_mod.ConfigError(str(e)) from None
    if cfg["dit"]["lora_rank"] > 0:
        g.enable_lora(cfg["dit"]["lora_rank"], seeding.stream(cfg["seed"], 0x10BA))
    return enc, g


def _dataset(cfg):
    return training.make_dataset(
        cfg["dataset"]["seed"],
        cfg["dataset"]["size"],
        vocab=cfg["dataset"]["vocab"],
        static=cfg["dataset"]["static"],
    )


def _train_command(cfg, resume: str | None, objective: str, out_name: str,
                   init_from: str | None = None) -> int:
    enc, g = _build(cfg)
    out_dir = cfg["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)
    named = training.named_params(enc, g)
    dataset = _dataset(cfg)
    tr = cfg["training"]
    optimizer = None
    start_step = 0
    if init_from:  # weights only; step counter, optimizer and adapters the checkpoint lacks start fresh
        # no digest check: a fine-tune config differs from its pretrain one by design (the LoRA rank)
        params, _, _ = checkpoint.load_checkpoint(init_from)
        checkpoint.restore_into({k: p for k, p in named.items() if k in params or ".lora." not in k}, params)
    if resume:
        params, start_step, opt_arrays = checkpoint.load_checkpoint(resume, cfg)
        if start_step > tr["steps"]:
            raise config_mod.ConfigError(
                f"{resume} is at step {start_step}, past training.steps {tr['steps']}"
            )
        checkpoint.restore_into(named, params)
        if opt_arrays is not None:
            optimizer = training.nn.Adam(named, lr=tr["lr"])
            try:
                optimizer.load_state_arrays(opt_arrays)
            except (KeyError, ValueError) as e:
                raise checkpoint.CheckpointMismatch(f"{resume} does not fit this model: {e}") from None
    log_path = os.path.join(out_dir, out_name + ".log")
    log_lines = []
    eval_ds = None
    if tr["eval_every"]:
        eval_ds = training.make_dataset(cfg["dataset"]["seed"] + 1000, 4,
                                        vocab=cfg["dataset"]["vocab"])

    def on_step(step, loss):
        if step % tr["log_every"] == 0 or step == tr["steps"]:
            log_lines.append(f"step {step} loss {loss:.6f}")
        if tr["eval_every"] and step % tr["eval_every"] == 0:
            res = training.evaluate_retrieval(
                enc, g, eval_ds, seed=cfg["seed"], n_eval=4, policy="uniform",
                sample_steps=cfg["diffusion"]["sample_steps"],
            )
            log_lines.append(f"step {step} eval_psnr {res['psnr']:.3f}")

    kwargs = dict(
        steps=tr["steps"],
        seed=cfg["seed"],
        batch=tr["batch"],
        lr=tr["lr"],
        optimizer=optimizer,
        start_step=start_step,
        on_step=on_step,
    )
    if objective == "retrieval":
        d = cfg["diffusion"]
        opt = training.pretrain_retrieval(
            enc, g, dataset, omega_policy=tr["omega_policy"],
            timestep_dist=diffusion.TimestepDistribution(mu=d["mu"], sigma=d["sigma"], shift=d["shift"]),
            **kwargs,
        )
    else:
        opt = training.finetune_next_clip(
            enc, g, dataset, freeze_encoder=tr["freeze_encoder"],
            window_frames=cfg["rollout"]["window_frames"], **kwargs,
        )
    ckpt_path = os.path.join(out_dir, out_name + ".mcck")
    checkpoint.save_checkpoint(ckpt_path, named, cfg, tr["steps"], opt.state_arrays())
    with open(log_path, "w") as fh:
        fh.write("\n".join(log_lines) + "\n")
    print(f"checkpoint written to {ckpt_path} ({len(named)} parameters, step {tr['steps']})")
    print(f"log written to {log_path}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = config_mod.load_config(args.config)
    return _train_command(cfg, args.resume, "retrieval", "pretrain")


def cmd_finetune(args) -> int:
    cfg = config_mod.load_config(args.config)
    chunk_len, scene_len = cfg["encoder"]["chunk_len"], data.DESK_LATENT[0]
    if scene_len // chunk_len < 2:  # a history chunk and the chunk after it
        raise config_mod.ConfigError(
            f"encoder.chunk_len {chunk_len} leaves {scene_len // chunk_len} chunk(s) per {scene_len}-frame scene;"
            " finetuning needs two chunks per scene"
        )
    return _train_command(cfg, args.resume, "next_clip", "finetune", init_from=args.pretrained)


def cmd_rollout(args) -> int:
    cfg = config_mod.load_config(args.config)
    enc, g = _build(cfg)
    out_dir = cfg["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)
    named = training.named_params(enc, g)
    params, _, _ = checkpoint.load_checkpoint(args.checkpoint, cfg)
    checkpoint.restore_into(named, params)
    dataset = _dataset(cfg)
    ro = cfg["rollout"]
    lat, _cond = dataset[ro["seed_scene"] % len(dataset)]
    session = rollout.RolloutSession(
        g,
        enc,
        seed=cfg["seed"],
        condition_schedule=tuple(tuple(e) for e in ro["condition_schedule"]),
        window_frames=ro["window_frames"],
        sample_steps=cfg["diffusion"]["sample_steps"],
        seed_clip=lat[: enc.chunk_len],
    )
    video, records = session.run(ro["n_steps"])
    lat_path = os.path.join(out_dir, "rollout.mctx")
    checkpoint.save_latents(lat_path, video)
    met_path = os.path.join(out_dir, "rollout_metrics.json")
    with open(met_path, "w") as fh:
        json.dump({"records": records, "frames": int(video.shape[0])}, fh, indent=2, sort_keys=True)
    print(f"latents written to {lat_path} ({video.shape[0]} frames)")
    print(f"metrics written to {met_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    a = checkpoint.load_latents(args.generated)
    b = checkpoint.load_latents(args.reference)
    if a.shape[1:] != b.shape[1:] or 0 in a.shape + b.shape:
        raise config_mod.ConfigError(f"cannot compare latents of shapes {a.shape} and {b.shape}")
    n = min(a.shape[0], b.shape[0])
    a, b = a[:n], b[:n]
    # NaN fails the comparison too; below 1e75, SSIM's products of four values stay finite in float64
    if not all(float(np.abs(x).max()) <= 1e75 for x in (a, b)):
        raise config_mod.ConfigError("cannot compare latents that hold NaN, infinite or huge (past 1e75) values")
    scores = {
        "psnr": metrics.psnr(a, b),
        "ssim": metrics.ssim(a, b, window=min(7, *a.shape[1:3])),
        "frames_compared": int(n),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(scores, fh, indent=2, sort_keys=True)
    print(json.dumps(scores, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_budget(args) -> int:
    grid = [(1, 1, 1), (2, 2, 1), (2, 2, 2), (4, 4, 2), (8, 8, 4)]
    try:
        spec = metrics.BudgetSpec(width=args.width, height=args.height, fps=args.fps, duration_s=args.duration,
                                  vae_spatial=args.vae_spatial, vae_temporal=args.vae_temporal)
        rows = metrics.budget_table(spec, grid)
    except ValueError as e:  # a value not positive and finite, an infinite frame count, or under one token
        raise config_mod.ConfigError(str(e)) from None
    print(f"uncompressed context length: {rows[0]['uncompressed']}")
    print(f"{'rate':>8} {'tokens':>12} {'reduction':>10}  accounting")
    for row in rows:
        print(f"{row['rate']:>8} {row['tokens']:>12} {row['reduction']:>10.1f}  {row['accounting']}")
    if args.csv:
        import csv as _csv

        with open(args.csv, "w") as fh:
            w = _csv.writer(fh, lineterminator="\n")
            w.writerow(["rate", "tokens", "uncompressed", "reduction", "accounting"])
            for row in rows:
                reduction = f"{row['reduction']:.4f}"
                w.writerow([row["rate"], row["tokens"], row["uncompressed"], reduction, row["accounting"]])
        print(f"csv written to {args.csv}")
    return EXIT_OK


RECIPES = {
    "compression": experiments.run_ablation_compression,
    "pretrain": experiments.run_pretrain_ablation,
    "omega": experiments.run_omega_policy_ablation,
}


def cmd_experiment(args) -> int:
    try:
        recipe = experiments.ExperimentRecipe(
            name=args.recipe,
            seeds=tuple(args.seeds),
            pretrain_steps=args.pretrain_steps,
            finetune_steps=args.finetune_steps,
            n_scenes=args.scenes,
        )
    except ValueError as e:  # a negative or repeated seed, a negative step budget, or no scenes
        raise config_mod.ConfigError(str(e)) from None
    report = RECIPES[args.recipe](recipe, out_dir=args.out_dir)
    print(experiments.report_text(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="memctx", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pretrain", help="train on the frame-retrieval objective")
    sp.add_argument("config")
    sp.add_argument("--resume", help="checkpoint to continue from")
    sp.set_defaults(fn=cmd_pretrain)

    sf = sub.add_parser("finetune", help="train on the next-clip objective")
    sf.add_argument("config")
    sf.add_argument("--pretrained", help="pretrained checkpoint to start from")
    sf.add_argument("--resume", help="checkpoint to continue from")
    sf.set_defaults(fn=cmd_finetune)

    sr = sub.add_parser("rollout", help="autoregressive generation from a checkpoint")
    sr.add_argument("config")
    sr.add_argument("checkpoint")
    sr.set_defaults(fn=cmd_rollout)

    se = sub.add_parser("eval", help="recompute metrics between two latent files")
    se.add_argument("generated")
    se.add_argument("reference")
    se.add_argument("--out", help="optional JSON output path")
    se.set_defaults(fn=cmd_eval)

    sb = sub.add_parser("budget", help="context-length trade-off table")
    sb.add_argument("--width", type=int, default=832)
    sb.add_argument("--height", type=int, default=480)
    sb.add_argument("--fps", type=float, default=24)
    sb.add_argument("--duration", type=float, default=60)
    sb.add_argument("--vae-spatial", type=int, default=16)
    sb.add_argument("--vae-temporal", type=int, default=4)
    sb.add_argument("--csv", help="optional CSV output path")
    sb.set_defaults(fn=cmd_budget)

    sx = sub.add_parser("experiment", help="run a named ablation recipe")
    sx.add_argument("recipe", choices=RECIPES)
    sx.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    sx.add_argument("--pretrain-steps", type=int, default=2000)
    sx.add_argument("--finetune-steps", type=int, default=1000)
    sx.add_argument("--scenes", type=int, default=8)
    sx.add_argument("--out-dir", default="runs/experiments")
    sx.set_defaults(fn=cmd_experiment)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (config_mod.ConfigError, checkpoint.CheckpointMismatch, checkpoint.LatentFileError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, ValueError, ArithmeticError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
