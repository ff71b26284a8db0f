"""Shared training loops for pretraining and fine-tuning, and the retrieval cases that
recipes, the CLI's periodic eval and the retrieval demo all score."""

from __future__ import annotations

import numpy as np

from . import data, diffusion, metrics, nn, seeding
from .compressor import CompressionRate, EncoderModel
from .dit import DiTModel
from .tensor import backward, no_grad

__all__ = [
    "make_dataset",
    "build_models",
    "pretrain_retrieval",
    "finetune_next_clip",
    "retrieval_cases",
    "evaluate_retrieval",
]

DESK_GEOMETRY = data.DESK_LATENT  # (24, 8, 8, 4)


def make_dataset(seed: int, n_scenes: int, vocab: int = 16, static: bool = False):
    """Deterministic list of (latents, condition_code) scenes."""
    out = []
    for i in range(n_scenes):
        spec = data.SceneSpec.random((seed, i), static=static, vocab=vocab)
        out.append((data.make_latent_scene(spec, (seed, i, 1)), spec.condition_code))
    return out


def build_models(
    seed: int,
    rate=(4, 4, 2),
    variant: str = "dual",
    chunk_len: int = 8,
    model_dim: int = 64,
    n_blocks: int = 4,
    n_heads: int = 4,
    vocab: int = 16,
):
    """Construct an (encoder, dit) pair for one experiment arm; the DiT embeds ``vocab`` condition codes."""
    g = DiTModel(
        seeding.stream(seed, 0xD17),
        inner_dim=model_dim,
        n_blocks=n_blocks,
        n_heads=n_heads,
        cond_vocab=vocab,
    )
    # the patchifier draws from its own stream, so its seeded reports stay reproducible
    stream = 0xD18 if variant == "large_patchifier" else 0xE6C
    enc = EncoderModel(
        CompressionRate(*rate),
        seeding.stream(seed, stream),
        model_dim=model_dim,
        chunk_len=chunk_len,
        variant=variant,
    )
    return enc, g


def named_params(enc, g) -> dict:
    """Every parameter by its checkpoint name."""
    return {**g.named_parameters(), **enc.named_parameters()}


def _train(enc, g, batch_loss, steps, lr, optimizer, start_step, on_step):
    """Step Adam on ``batch_loss(step)`` for steps ``start_step`` to ``steps``; returns the optimizer."""
    opt = optimizer or nn.Adam(named_params(enc, g), lr=lr)
    for step in range(start_step, steps):
        loss = batch_loss(step)
        value = loss.item()
        if not np.isfinite(value):
            raise FloatingPointError(f"training diverged at step {step} (loss={value})")
        opt.zero_grad()
        backward(loss)  # looked up in this module per call: the benchmark's tracer wraps it here
        del loss  # the consumed graph goes now, not when the next step's forward rebinds the name
        opt.step()
        if on_step is not None:
            on_step(step + 1, value)
    return opt


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
    optimizer: nn.Adam | None = None,
    start_step: int = 0,
    on_step=None,
):
    """Train on the frame-retrieval objective; returns the optimizer."""
    t_h = dataset[0][0].shape[0]

    def batch_loss(step):
        rng = seeding.stream(seed, 0x57E9, step)
        idx = rng.integers(0, len(dataset), size=batch)
        h = np.stack([dataset[i][0] for i in idx])
        cond = np.asarray([dataset[i][1] for i in idx])
        omega = data.sample_omega(t_h, (seed, 0x03E6, step), policy=omega_policy)
        return diffusion.retrieval_loss(
            g, enc, h, omega, cond, seed=(seed, 0x105, step), timestep_dist=timestep_dist
        )

    return _train(enc, g, batch_loss, steps, lr, optimizer, start_step, on_step)


def finetune_next_clip(
    enc,
    g,
    dataset,
    steps: int,
    seed: int,
    batch: int = 4,
    lr: float = 2e-3,
    freeze_encoder: bool = False,
    window_frames: int = 0,
    optimizer: nn.Adam | None = None,
    start_step: int = 0,
    on_step=None,
):
    """Train the next-clip objective on (history, future) splits of scenes; returns the optimizer."""
    chunk_len = enc.chunk_len
    n_chunks = dataset[0][0].shape[0] // chunk_len

    def batch_loss(step):
        rng = seeding.stream(seed, 0xF75, step)
        idx = rng.integers(0, len(dataset), size=batch)
        split = int(rng.integers(1, n_chunks))  # history = split chunks, future = next chunk
        h = np.stack([dataset[i][0][: split * chunk_len] for i in idx])
        fut = np.stack(
            [dataset[i][0][split * chunk_len : (split + 1) * chunk_len] for i in idx]
        )
        cond = np.asarray([dataset[i][1] for i in idx])
        window = h[:, -window_frames:] if window_frames > 0 else None
        return diffusion.finetune_loss(
            g,
            enc,
            h,
            fut,
            cond,
            seed=(seed, 0x3F1, step),
            freeze_encoder=freeze_encoder,
            window_latents=window,
        )

    return _train(enc, g, batch_loss, steps, lr, optimizer, start_step, on_step)


def retrieval_cases(dataset, seed: int, n_eval: int, policy: str):
    """Yield the retrieval-scoring protocol's cases: (latents, condition, masked history,
    targets, sample seed) for scenes 0 to ``n_eval`` - 1, cycling through ``dataset``.

    Per scene: draw an index set under ``data.sample_omega``'s ``policy``,
    keep its frames clean and noise all others, and target its first four
    clean frames.
    """
    for k in range(n_eval):
        lat, cond = dataset[k % len(dataset)]
        omega = data.sample_omega(lat.shape[0], (seed, 0xE7A1, k), policy=policy)
        masked = diffusion.mask_history(lat, omega, (seed, 0xE7A3, k))
        yield lat, cond, masked, sorted(omega.indices)[:4], (seed, 0xE7A4, k)


def evaluate_retrieval(enc, g, dataset, seed: int, n_eval: int, policy: str, sample_steps: int):
    """Held-out retrieval PSNR and SSIM: per ``retrieval_cases`` case, compress the masked
    history and sample the targets in ``sample_steps`` Euler steps."""
    scores, ssim_scores = [], []
    for lat, cond, masked, targets, sample_seed in retrieval_cases(dataset, seed, n_eval, policy):
        with no_grad():
            ctx = enc.compress(masked)
        shape = (len(targets),) + lat.shape[1:]
        recon = diffusion.sample(g, ctx, cond, shape, sample_seed, targets, steps=sample_steps)
        scores.append(metrics.psnr(recon, lat[targets]))
        ssim_scores.append(metrics.ssim(recon, lat[targets], window=7))
    return {
        "psnr": float(np.mean(scores)),
        "ssim": float(np.mean(ssim_scores)),
        "per_scene": scores,
    }
