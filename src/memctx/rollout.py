"""Autoregressive inference.

A session repeatedly samples the next latent clip conditioned on the
compressed history (streamingly extended chunk by chunk), an optional
small uncompressed sliding window, and the storyboard condition whose
timestamp most recently precedes the current position.
"""

from __future__ import annotations

import numpy as np

from . import diffusion
from .compressor import CompressedContext
from .metrics import psnr
from .tensor import no_grad

__all__ = ["RolloutSession"]


class RolloutSession:
    """Single-owner autoregressive generation state."""

    def __init__(
        self,
        dit,
        encoder,
        seed: int,
        condition_schedule=((0, 0),),
        window_frames: int = 0,
        sample_steps: int = 8,
        seed_clip: np.ndarray | None = None,
    ):
        self.dit = dit
        self.encoder = encoder
        self.seed = seed
        self.schedule = sorted((int(s), int(c)) for s, c in condition_schedule)
        if not self.schedule or self.schedule[0][0] != 0:
            raise ValueError("condition schedule must start at frame 0")
        self.window_frames = int(window_frames)
        self.sample_steps = sample_steps
        self.clip_len = encoder.chunk_len  # one chunk per step keeps streaming aligned
        self.history: list = []
        self.ctx: CompressedContext | None = None
        self.steps_taken = 0
        if seed_clip is not None:
            self._append(np.asarray(seed_clip, dtype=np.float32))

    # -- state ------------------------------------------------------------------

    @property
    def generated_frames(self) -> int:
        return sum(clip.shape[0] for clip in self.history)

    def full_history(self) -> np.ndarray:
        if not self.history:
            raise ValueError("empty session history")
        return np.concatenate(self.history, axis=0)

    def window_latents(self) -> np.ndarray | None:
        """Most recent min(w, generated) latent frames, uncompressed."""
        if self.window_frames <= 0 or not self.history:
            return None
        tail = self.full_history()
        return tail[-min(self.window_frames, tail.shape[0]) :]

    def active_condition(self) -> int:
        pos = self.generated_frames
        code = self.schedule[0][1]
        for start, c in self.schedule:
            if start <= pos:
                code = c
        return code

    def _append(self, clip: np.ndarray) -> None:
        if clip.shape[0] % self.clip_len:
            raise ValueError(
                f"clip of {clip.shape[0]} frames misaligned with chunk length {self.clip_len}"
            )
        with no_grad():
            for i in range(clip.shape[0] // self.clip_len):
                chunk = clip[i * self.clip_len : (i + 1) * self.clip_len]
                self.ctx = self.encoder.compress_streaming(self.ctx, chunk)
        self.history.append(clip)

    # -- generation ----------------------------------------------------------------

    def step(self) -> np.ndarray:
        """Generate the next clip, append it to history, extend the context."""
        base = self.generated_frames
        shape = self._clip_shape()
        window = self.window_latents()
        win_idx = None if window is None else list(range(base - window.shape[0], base))
        clip = diffusion.sample(
            self.dit,
            self.ctx,
            self.active_condition(),
            shape,
            seed=(self.seed, self.steps_taken),
            steps=self.sample_steps,
            frame_indices=list(range(base, base + self.clip_len)),
            window_latents=window,
            window_frame_indices=win_idx,
        )
        self._append(clip)
        self.steps_taken += 1
        return clip

    def _clip_shape(self):
        if self.history:
            spatial = self.history[0].shape[1:]
        else:
            raise ValueError("session needs a seed clip to fix the latent geometry")
        return (self.clip_len,) + spatial

    def run(self, n_steps: int):
        """Roll out n clips; returns (full video, per-step metric records)."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        records = []
        for _ in range(n_steps):
            condition = self.active_condition()  # the condition this clip is generated with
            clip = self.step()
            rec = {
                "step": self.steps_taken,
                "history_frames": self.generated_frames,
                "context_length": self.ctx.length,
                "condition": condition,
                "consistency_psnr": psnr(clip, self.history[0][: clip.shape[0]]),
            }
            records.append(rec)
        return self.full_history(), records
