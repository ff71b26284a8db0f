"""Procedural latent-video data.

Synthetic sprite scenes with persistent object identity, rendered as
single-channel (T, H, W) pixel videos, a fixed linear "toy VAE" that turns
them into 4-channel latents, and random frame index sets with noise-as-mask
levels.

Latents are bitwise reproducible, because the encoder adds in one fixed
float32 order: each 8-pixel block row pairwise, its 4-pixel halves left to
right, then the rows of a block one at a time from zero, frame by frame
(``toy_vae_encode``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import seeding

__all__ = [
    "SceneSpec",
    "FrameIndexSet",
    "generate_scene",
    "toy_vae_encode",
    "sample_omega",
    "sample_mask_levels",
    "make_latent_scene",
    "VAE_RATES",
    "LATENT_CHANNELS",
    "DESK_PIXEL",
    "DESK_LATENT",
]

VAE_RATES = (4, 8, 8)  # temporal, height, width
LATENT_CHANNELS = 4
DESK_PIXEL = (96, 64, 64)  # T, H, W
DESK_LATENT = (24, 8, 8, LATENT_CHANNELS)


@dataclasses.dataclass(frozen=True)
class SceneSpec:
    """Script for one synthetic scene.

    Sprite identity vectors (intensity, size) are constant across every
    frame; they are the consistency signal retrieval has to preserve.
    """

    sprite_intensities: tuple
    sprite_sizes: tuple
    speeds: tuple
    shot_len: int
    background: float
    condition_code: int
    static: bool = False

    @staticmethod
    def random(seed: int, vocab: int = 16, static: bool = False) -> "SceneSpec":
        rng = seeding.stream(seed, 0xA11CE)
        return SceneSpec(
            sprite_intensities=tuple(rng.uniform(0.35, 1.0, size=3).round(3)),
            sprite_sizes=tuple(int(s) for s in rng.integers(14, 29, size=3)),
            speeds=tuple(rng.uniform(1.0, 3.0, size=3).round(3)),
            shot_len=10**6 if static else int(rng.integers(16, 33)),
            background=round(float(rng.uniform(0.05, 0.2)), 3),
            condition_code=int(rng.integers(0, vocab)),
            static=static,
        )


@dataclasses.dataclass(frozen=True)
class FrameIndexSet:
    """Retrieval index set: clean indices plus per-masked-frame noise levels."""

    indices: tuple
    mask_noise_levels: dict  # frame -> level in (0.2, 1]
    total_frames: int

    def __post_init__(self):
        if len(self.indices) < 1:
            raise ValueError("frame index set must keep at least one clean frame")
        if any(i < 0 or i >= self.total_frames for i in self.indices):
            raise ValueError("frame index outside [0, T_h)")
        masked = set(range(self.total_frames)) - set(self.indices)
        if masked != set(self.mask_noise_levels):
            raise ValueError("every non-selected frame needs exactly one mask noise level")


def generate_scene(spec: SceneSpec, t_pixel: int, h_pixel: int, w_pixel: int, seed: int) -> np.ndarray:
    """Render a single-channel (T, H, W) pixel video in [0, 1], deterministic in (spec, seed).

    Sprites move smoothly (bouncing) within a shot; a shot change
    repositions everything while keeping sprite identities fixed.  Each
    sprite's corners for a whole shot are computed as arrays, then painted
    frame by frame in sprite order, so later sprites cover earlier ones.
    """
    rt, rh, rw = VAE_RATES
    for name, extent, rate in (("T", t_pixel, rt), ("H", h_pixel, rh), ("W", w_pixel, rw)):
        if extent <= 0 or extent % rate != 0:
            raise ValueError(f"pixel extent {name}={extent} not divisible by toy-VAE rate {rate}")

    video = np.full((t_pixel, h_pixel, w_pixel), spec.background, dtype=np.float32)
    n = len(spec.sprite_intensities)
    n_shots = (t_pixel + spec.shot_len - 1) // spec.shot_len
    for shot in range(n_shots):
        rng = seeding.stream(seed, spec.condition_code, shot)
        pos = rng.uniform(0, 1, size=(n, 2))
        ang = rng.uniform(0, 2 * np.pi, size=n)
        t0 = shot * spec.shot_len
        t1 = min(t_pixel, t0 + spec.shot_len)
        dt = np.zeros(t1 - t0) if spec.static else np.arange(t1 - t0, dtype=np.float64)
        for s in range(n):
            size = spec.sprite_sizes[s]
            span_h = max(h_pixel - size, 1)
            span_w = max(w_pixel - size, 1)
            vy = spec.speeds[s] * np.sin(ang[s])
            vx = spec.speeds[s] * np.cos(ang[s])
            ys = _bounce(pos[s, 0] * span_h + vy * dt, span_h)
            xs = _bounce(pos[s, 1] * span_w + vx * dt, span_w)
            for t, y, x in zip(range(t0, t1), ys, xs):
                video[t, y : y + size, x : x + size] = spec.sprite_intensities[s]
    return video


def _bounce(p: np.ndarray, span: int) -> list:
    """Reflect coordinates into [0, span] (triangle wave), rounded half to even."""
    period = 2.0 * span
    p = np.remainder(p, period)
    return np.rint(np.where(p > span, period - p, p)).astype(np.int64).tolist()


def toy_vae_encode(pixels: np.ndarray) -> np.ndarray:
    """Linear block encoding of a (T, H, W) video: per 4x8x8 block keep (mean, h-diff, v-diff, t-diff).

    The three difference channels are half-block mean contrasts divided
    by two.

    Every sum runs in one fixed float32 order, numpy's own order for these
    reductions written out.  Each 8-pixel block row is summed pairwise,
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and its two 4-pixel halves left
    to right.  The row sums of a block, or of a half block, are then added
    to zero one at a time, frame-major, and divided by their count, a power
    of two.
    """
    rt, rh, rw = VAE_RATES
    t, h, w = pixels.shape
    if t % rt or h % rh or w % rw:
        raise ValueError(f"pixel shape {pixels.shape} not divisible by rates {VAE_RATES}")
    r = pixels.reshape(t // rt, rt, h // rh, rh, w // rw, rw).transpose(5, 1, 3, 0, 2, 4)
    rows = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))  # (rt, rh, T', H', W')
    left = ((r[0] + r[1]) + r[2]) + r[3]
    right = ((r[4] + r[5]) + r[6]) + r[7]

    def block_mean(sums, width):  # sums: (frame row, pixel row, T', H', W') sums of `width` pixels
        return sum(row for frame in sums for row in frame) / (len(sums) * len(sums[0]) * width)

    mean = block_mean(rows, rw)
    hdiff = (block_mean(left, rw // 2) - block_mean(right, rw // 2)) / 2
    vdiff = (block_mean(rows[:, : rh // 2], rw) - block_mean(rows[:, rh // 2 :], rw)) / 2
    tdiff = (block_mean(rows[: rt // 2], rw) - block_mean(rows[rt // 2 :], rw)) / 2
    return np.stack([mean, hdiff, vdiff, tdiff], axis=-1).astype(np.float32, copy=False)


# Fixed standardization of generator latents to roughly unit per-channel
# variance over the moving-sprite distribution (measured once, then frozen).
LATENT_SHIFT = np.array([0.28, 0.0, 0.0, 0.0], dtype=np.float32)
LATENT_SCALE = np.array([4.4, 17.5, 17.5, 19.0], dtype=np.float32)


def make_latent_scene(spec: SceneSpec, seed: int, pixel_shape=DESK_PIXEL) -> np.ndarray:
    """Generate a scene and encode it with the toy VAE, as standardized (T, H, W, C) float32 latents."""
    t, h, w = pixel_shape
    pixels = generate_scene(spec, t, h, w, seed)
    return (toy_vae_encode(pixels) - LATENT_SHIFT) * LATENT_SCALE


def sample_mask_levels(rng: np.random.Generator, count: int) -> np.ndarray:
    """Noise-as-mask levels: standard logit-normal draws affinely rescaled into (0.2, 1]."""
    u = 1.0 / (1.0 + np.exp(-rng.standard_normal(count)))
    return 0.2 + 0.8 * u


def sample_omega(t_h: int, seed: int, policy: str = "uniform") -> FrameIndexSet:
    """Draw the retrieval index set for a T_h-frame history.

    uniform: |indices| uniform in [1, max(1, T_h // 8)], positions drawn
    without replacement.  fixed-endpoints: always {T_h - 1}; exists only
    to reproduce the shortcut-learning ablation.
    """
    if t_h < 1:
        raise ValueError("history must contain at least one frame")
    rng = seeding.stream(seed, 0x0E6A)
    if policy == "uniform":
        kmax = max(1, t_h // 8)
        k = int(rng.integers(1, kmax + 1))
        idx = tuple(sorted(int(i) for i in rng.choice(t_h, size=k, replace=False)))
    elif policy == "fixed-endpoints":
        idx = (t_h - 1,)
    else:
        raise ValueError(f"unknown omega policy {policy!r}")
    masked = [i for i in range(t_h) if i not in idx]
    levels = sample_mask_levels(rng, len(masked))
    return FrameIndexSet(
        indices=idx,
        mask_noise_levels={f: float(l) for f, l in zip(masked, levels)},
        total_frames=t_h,
    )
