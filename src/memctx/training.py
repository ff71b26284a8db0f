"""Shared training and evaluation loops for pretraining and fine-tuning."""

from __future__ import annotations

import numpy as np

from . import data, diffusion, metrics, nn, seeding
from .compressor import CompressionRate, EncoderModel
from .dit import DiTModel, large_patchifier_variant
from .tensor import backward, no_grad

__all__ = [
    "make_dataset",
    "build_models",
    "pretrain_retrieval",
    "finetune_next_clip",
    "evaluate_retrieval",
    "evaluate_retrieval_baselines",
]

DESK_GEOMETRY = data.DESK_LATENT  # (24, 8, 8, 4)


def make_dataset(seed: int, n_scenes: int, vocab: int = 16, static: bool = False):
    """Deterministic list of (latents, condition_code) scenes."""
    out = []
    for i in range(n_scenes):
        spec = data.SceneSpec.random((seed, i), static=static, vocab=vocab)
        out.append((data.make_latent_scene(spec, (seed, i, 1)).data, spec.condition_code))
    return out


def build_models(
    seed: int,
    rate=(4, 4, 2),
    variant: str = "dual",
    arch: str = "encoder",
    chunk_len: int = 8,
    model_dim: int = 64,
    n_blocks: int = 4,
    n_heads: int = 4,
    cross_attn: bool = False,
):
    """Construct an (encoder, dit) pair for one experiment arm.

    ``arch='large_patchifier'`` builds no encoder; history enters the DiT
    through an enlarged patchify kernel of the same total reduction.
    """
    r = CompressionRate(*rate)
    g = DiTModel(
        seeding.stream(seed, 0xD17),
        inner_dim=model_dim,
        n_blocks=n_blocks,
        n_heads=n_heads,
        cross_attn=cross_attn,
    )
    if arch == "large_patchifier":
        kernel = (r.r_t, r.r_h, r.r_w)
        large_patchifier_variant(g, kernel, r, seeding.stream(seed, 0xD18))
        return None, g
    enc = EncoderModel(
        r,
        seeding.stream(seed, 0xE6C),
        model_dim=model_dim,
        chunk_len=chunk_len,
        variant=variant,
    )
    return enc, g


def _all_params(enc, g):
    params = list(g.parameters())
    if enc is not None:
        enc.materialize_pos(DESK_GEOMETRY[1], DESK_GEOMETRY[2])
        params += enc.parameters()
    return params


def pretrain_retrieval(
    enc,
    g,
    dataset,
    steps: int,
    seed: int,
    batch: int = 4,
    lr: float = 2e-3,
    omega_policy: str = "uniform",
    timestep_dist: diffusion.TimestepDistribution | None = None,
    log_every: int = 50,
    optimizer: nn.Adam | None = None,
    start_step: int = 0,
    on_step=None,
    lr_schedule=None,
):
    """Train on the frame-retrieval objective; returns (optimizer, loss_log)."""
    opt = optimizer or nn.Adam(_all_params(enc, g), lr=lr)
    losses = []
    t_h = dataset[0][0].shape[0]
    for step in range(start_step, steps):
        rng = seeding.stream(seed, 0x57E9, step)
        idx = rng.integers(0, len(dataset), size=batch)
        h = np.stack([dataset[i][0] for i in idx])
        cond = np.asarray([dataset[i][1] for i in idx])
        omega = data.sample_omega(t_h, (seed, 0x03E6, step), policy=omega_policy)
        if enc is not None:
            loss = diffusion.retrieval_loss(
                g, enc, h, omega, cond, seed=(seed, 0x105, step), timestep_dist=timestep_dist
            )
        else:
            loss = _large_patchifier_retrieval_loss(
                g, h, omega, cond, seed=(seed, 0x105, step), timestep_dist=timestep_dist
            )
        if not np.isfinite(loss.item()):
            raise FloatingPointError(f"training diverged at step {step} (loss={loss.item()})")
        if lr_schedule is not None:
            opt.lr = lr_schedule(step + 1)
        opt.zero_grad()
        backward(loss)
        opt.step()
        if (step + 1) % log_every == 0 or step == steps - 1:
            losses.append((step + 1, float(loss.item())))
        if on_step is not None:
            on_step(step + 1, float(loss.item()))
    return opt, losses


def _large_patchifier_retrieval_loss(g, h, omega, cond, seed, timestep_dist=None):
    """Retrieval objective for the enlarged-patchifier arm (no encoder)."""
    import dataclasses as _dc

    dist = timestep_dist or diffusion.TimestepDistribution()
    rng = seeding.stream(seed, 0x2E72)
    target = h[:, list(omega.indices)]
    masked = diffusion._mask_history(h, omega, rng)
    eps = rng.standard_normal(target.shape).astype(h.dtype)
    t = dist.sample(rng, size=h.shape[0])
    x_t = (1.0 - t[:, None, None, None, None]) * target + t[:, None, None, None, None] * eps
    pred = g.predict_velocity(
        x_t, t, cond, frame_indices=list(omega.indices), raw_history=masked
    )
    from .tensor import Tensor

    resid = pred - Tensor((eps - target).astype(h.dtype))
    return resid.square().mean()


def finetune_next_clip(
    enc,
    g,
    dataset,
    steps: int,
    seed: int,
    batch: int = 4,
    lr: float = 2e-3,
    chunk_len: int = 8,
    freeze_encoder: bool = False,
    window_frames: int = 0,
    log_every: int = 50,
    optimizer: nn.Adam | None = None,
    start_step: int = 0,
    on_step=None,
    lr_schedule=None,
):
    """Train the next-clip objective on (history, future) splits of scenes."""
    opt = optimizer or nn.Adam(_all_params(enc, g), lr=lr)
    losses = []
    t_total = dataset[0][0].shape[0]
    n_chunks = t_total // chunk_len
    for step in range(start_step, steps):
        rng = seeding.stream(seed, 0xF75, step)
        idx = rng.integers(0, len(dataset), size=batch)
        split = int(rng.integers(1, n_chunks))  # history = split chunks, future = next chunk
        h = np.stack([dataset[i][0][: split * chunk_len] for i in idx])
        fut = np.stack(
            [dataset[i][0][split * chunk_len : (split + 1) * chunk_len] for i in idx]
        )
        cond = np.asarray([dataset[i][1] for i in idx])
        window = None
        win_idx = None
        if window_frames > 0:
            w = min(window_frames, h.shape[1])
            window = h[:, -w:]
            win_idx = list(range(h.shape[1] - w, h.shape[1]))
        loss = diffusion.finetune_loss(
            g,
            enc,
            h,
            fut,
            cond,
            seed=(seed, 0x3F1, step),
            freeze_encoder=freeze_encoder,
            window_latents=window,
            window_frame_indices=win_idx,
        )
        if not np.isfinite(loss.item()):
            raise FloatingPointError(f"training diverged at step {step} (loss={loss.item()})")
        if lr_schedule is not None:
            opt.lr = lr_schedule(step + 1)
        opt.zero_grad()
        backward(loss)
        opt.step()
        if (step + 1) % log_every == 0 or step == steps - 1:
            losses.append((step + 1, float(loss.item())))
        if on_step is not None:
            on_step(step + 1, float(loss.item()))
    return opt, losses


def evaluate_retrieval(
    enc,
    g,
    dataset,
    seed: int,
    n_eval: int = 6,
    positions: str = "random",
    max_targets: int = 4,
    sample_steps: int = 8,
    with_baselines: bool = False,
):
    """Held-out retrieval PSNR under the training-style masking protocol.

    Per scene: draw an index set, mask the history (index-set frames kept
    clean, all others noised), compress, then sample reconstructions at the
    clean index positions — random positions (``positions='random'``) or
    the final frame only (``positions='endpoint'``).  Baselines, when
    requested, reconstruct the masked positions from the clean anchors.
    """
    scores = []
    ssim_scores = []
    base_a = []
    base_b = []
    for k in range(n_eval):
        lat, cond = dataset[k % len(dataset)]
        t_h = lat.shape[0]
        policy = "fixed-endpoints" if positions == "endpoint" else "uniform"
        omega = data.sample_omega(t_h, (seed, 0xE7A1, k), policy=policy)
        masked_hist = diffusion.mask_history(lat, omega, (seed, 0xE7A3, k))
        targets = sorted(omega.indices)[:max_targets]
        with no_grad():
            ctx = enc.compress(masked_hist) if enc is not None else None
            recon = diffusion.sample(
                g,
                ctx,
                cond,
                (len(targets),) + lat.shape[1:],
                seed=(seed, 0xE7A4, k),
                steps=sample_steps,
                frame_indices=targets,
            ) if enc is not None else _large_patchifier_sample(
                g, masked_hist, cond, targets, lat.shape, (seed, 0xE7A4, k), sample_steps
            )
        scores.append(metrics.psnr(recon, lat[targets]))
        ssim_scores.append(metrics.ssim(recon, lat[targets], window=7))
        if with_baselines:
            base = metrics.retrieval_baselines(lat, omega)
            midx = base["masked_indices"]
            base_a.append(metrics.psnr(base["copy_nearest"], lat[midx]))
            base_b.append(metrics.psnr(base["dataset_mean"], lat[midx]))
    result = {
        "psnr": float(np.mean(scores)),
        "ssim": float(np.mean(ssim_scores)),
        "per_scene": scores,
    }
    if with_baselines:
        result["copy_nearest_psnr"] = float(np.mean(base_a))
        result["dataset_mean_psnr"] = float(np.mean(base_b))
    return result


def _large_patchifier_sample(g, masked_hist, cond, targets, lat_shape, seed, steps):
    rng = seeding.stream(seed, 0x5A3B)
    x = rng.standard_normal((len(targets),) + lat_shape[1:]).astype(np.float32)
    dt = 1.0 / steps
    for i in range(steps):
        t = 1.0 - i * dt
        v = g.predict_velocity(
            x[None], t, cond, frame_indices=targets, raw_history=masked_hist[None]
        ).numpy()[0]
        x = x - dt * v
    return x


def evaluate_retrieval_baselines(dataset, seed: int, n_eval: int = 6, max_targets: int = 4):
    """Baseline-only variant of the retrieval evaluation (no model needed)."""
    res_a, res_b = [], []
    for k in range(n_eval):
        lat, _ = dataset[k % len(dataset)]
        t_h = lat.shape[0]
        omega = data.sample_omega(t_h, (seed, 0xE7A1, k), policy="uniform")
        base = metrics.retrieval_baselines(lat, omega)
        midx = base["masked_indices"]
        res_a.append(metrics.psnr(base["copy_nearest"], lat[midx]))
        res_b.append(metrics.psnr(base["dataset_mean"], lat[midx]))
    return {"copy_nearest_psnr": float(np.mean(res_a)), "dataset_mean_psnr": float(np.mean(res_b))}
