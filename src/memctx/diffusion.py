"""Flow-matching machinery.

The shifted logit-normal timestep distribution, the frame-retrieval
pretraining loss, the autoregressive fine-tuning loss and a deterministic
Euler sampler.  Each loss draws its own targets, noise and timesteps, then
ends in one velocity regression on the straight-line path
x_t = (1 - t) x0 + t eps with target eps - x0.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

from . import seeding
from .data import FrameIndexSet
from .tensor import Tensor, as_default_dtype, default_dtype, no_grad

__all__ = [
    "TimestepDistribution",
    "retrieval_loss",
    "finetune_loss",
    "sample",
]


@dataclasses.dataclass(frozen=True)
class TimestepDistribution:
    """Shifted logit-normal over (0, 1): t = s*u / (1 + (s-1)*u), u = sigmoid(mu + sigma*z).

    Only ``sample`` runs in the library. The closed-form CDF that the
    Kolmogorov-Smirnov tests check these draws against lives with them
    (``timestep_cdf`` in ``tests/test_diffusion.py``), so the runtime needs
    numpy alone.
    """

    mu: float = 0.0
    sigma: float = 1.0
    shift: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.shift <= 0:
            raise ValueError("shift must be positive")

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        z = rng.standard_normal(size)
        u = 1.0 / (1.0 + np.exp(-(self.mu + self.sigma * z)))
        s = self.shift
        return s * u / (1.0 + (s - 1.0) * u)


FINETUNE_TIMESTEPS = TimestepDistribution()  # the standard logit-normal: μ 0, σ 1, shift 1


def _mask_history(history: np.ndarray, omega: FrameIndexSet, rng) -> np.ndarray:
    """Noise-as-mask: non-selected frames interpolated toward noise at their level."""
    masked = history.copy()
    for frame, level in omega.mask_noise_levels.items():
        eps = rng.standard_normal(masked[..., frame, :, :, :].shape)
        masked[..., frame, :, :, :] = (1.0 - level) * masked[..., frame, :, :, :] + level * eps
    return masked.astype(history.dtype)


def mask_history(history: np.ndarray, omega: FrameIndexSet, seed: int) -> np.ndarray:
    return _mask_history(history, omega, seeding.stream(seed, 0x3A5C))


def _velocity_loss(g, ctx, x0, eps, t, c, frame_indices, window_latents=None) -> Tensor:
    """Mean squared velocity residual at x_t = (1 - t) x0 + t eps of the (N, T, H, W, C) targets
    ``x0`` at global ``frame_indices``, reading ``ctx`` and any (N, w, H, W, C) window before them."""
    x_t = (1.0 - t[:, None, None, None, None]) * x0 + t[:, None, None, None, None] * eps
    window_frames = 0 if window_latents is None else np.shape(window_latents)[1]
    memory = g.read_memory(ctx, x0.shape[2:4])
    rope = g.row_rope(x_t.shape, frame_indices, window_frames)
    pred = g.predict_velocity(x_t, t, c, memory, rope, window_latents)
    resid = pred - as_default_dtype(eps - x0)
    return resid.square().mean()


def retrieval_loss(
    g,
    phi,
    history,
    omega: FrameIndexSet,
    c,
    seed: int,
    timestep_dist: TimestepDistribution | None = None,
) -> Tensor:
    """Frame-retrieval objective.

    The clean frames at the selected indices of the (N, T, H, W, C) history
    are cloned as the diffusion target while the compressed input carries
    the noise-masked history; the model regresses the flow velocity toward
    those targets.
    """
    if len(omega.indices) == 0:
        raise ValueError("retrieval needs at least one selected frame")
    h = np.asarray(history)
    if omega.total_frames != h.shape[1]:
        raise ValueError("index set does not match history length")
    rng = seeding.stream(seed, 0x2E72)
    target = h[:, list(omega.indices)]  # (N, |omega|, H, W, C)
    masked = _mask_history(h, omega, rng)
    eps = rng.standard_normal(target.shape).astype(h.dtype)
    t = (timestep_dist or TimestepDistribution()).sample(rng, size=h.shape[0])
    return _velocity_loss(g, phi.compress(masked), target, eps, t, c, omega.indices)


def finetune_loss(
    g,
    phi,
    history,
    x0_future,
    c,
    seed: int,
    freeze_encoder: bool = False,
    window_latents=None,
) -> Tensor:
    """Next-clip objective: predict the velocity of the (N, T', H, W, C)
    future clip given the compressed (N, T, H, W, C) history and,
    optionally, its last w frames uncompressed as (N, w, H, W, C)
    ``window_latents``.  Timesteps follow ``FINETUNE_TIMESTEPS``.  A frozen
    encoder compresses under ``no_grad``, so it stays off the tape."""
    h = np.asarray(history)
    x0 = np.asarray(x0_future)
    if h.shape[0] != x0.shape[0] or h.shape[2:] != x0.shape[2:]:
        raise ValueError(f"history {h.shape} and future clip {x0.shape} disagree")
    rng = seeding.stream(seed, 0xF17E)
    eps = rng.standard_normal(x0.shape).astype(h.dtype)
    t = FINETUNE_TIMESTEPS.sample(rng, size=h.shape[0])
    with no_grad() if freeze_encoder else contextlib.nullcontext():
        ctx = phi.compress(h)
    frames = range(h.shape[1], h.shape[1] + x0.shape[1])
    return _velocity_loss(g, ctx, x0, eps, t, c, frames, window_latents)


def sample(g, ctx, c, shape, seed: int, frame_indices, steps: int = 8, window_latents=None) -> np.ndarray:
    """Deterministic Euler integration of the learned velocity from t=1 to 0.

    ``shape`` is the clip's (T, H, W, C), at global frames ``frame_indices``;
    the optional (w, H, W, C) ``window_latents`` sit on the w frames before
    them.  Neither the context's memory nor the rows' rotary angles depend
    on t, so both are built once, before the loop, and every step reads them.
    """
    if steps < 1:
        raise ValueError("need at least one integration step")
    rng = seeding.stream(seed, 0x5A3B)
    x = rng.standard_normal(shape).astype(default_dtype())
    dt = 1.0 / steps
    window = None if window_latents is None else np.asarray(window_latents)[None]
    with no_grad():
        memory = None if ctx is None else g.read_memory(ctx, shape[1:3])
        rope = g.row_rope(shape, frame_indices, 0 if window is None else window.shape[1])
        for i in range(steps):
            t = 1.0 - i * dt
            x = x - dt * g.predict_velocity(x[None], t, c, memory, rope, window).numpy()[0]
    return x
