"""Autoregressive inference.

A session repeatedly samples the next latent clip conditioned on the
compressed history (streamingly extended chunk by chunk), an optional
small uncompressed sliding window, and the storyboard condition whose
timestamp most recently precedes the current position.
"""

from __future__ import annotations

import time

import numpy as np

from . import diffusion
from .compressor import CompressedContext
from .metrics import psnr
from .tensor import default_dtype, no_grad

__all__ = ["RolloutSession", "check_schedule"]


def check_schedule(dit, schedule) -> list:
    """``schedule``'s (start frame, code) entries sorted by start frame; ``ValueError`` for an
    empty schedule, a first start other than frame 0, two entries at one frame, or a code
    that ``dit.cond_emb`` cannot embed."""
    schedule = sorted((int(s), c) for s, c in schedule)
    if not schedule:
        raise ValueError("condition schedule is empty")
    if schedule[0][0] != 0:
        raise ValueError(f"condition schedule must start at frame 0, its earliest entry is at {schedule[0][0]}")
    for (a, _), (b, _) in zip(schedule, schedule[1:]):
        if a == b:
            raise ValueError(f"condition schedule has two entries at frame {a}")
    with no_grad():
        dit.cond_emb(np.array([c for _, c in schedule]))
    return schedule


class RolloutSession:
    """Single-owner autoregressive generation state, primed by a seed clip that fixes the latent geometry."""

    def __init__(
        self,
        dit,
        encoder,
        seed: int,
        seed_clip: np.ndarray,
        condition_schedule=((0, 0),),
        window_frames: int = 0,
        sample_steps: int = 8,
    ):
        self.dit = dit
        self.encoder = encoder
        self.seed = seed
        self.schedule = check_schedule(dit, condition_schedule)
        self.window_frames = int(window_frames)
        self.sample_steps = sample_steps
        self.clip_len = encoder.chunk_len  # one chunk per step keeps streaming aligned
        self.history: list = []
        self.ctx: CompressedContext | None = None
        self.steps_taken = 0
        self._append(np.asarray(seed_clip, dtype=default_dtype()))

    # -- state ------------------------------------------------------------------

    @property
    def generated_frames(self) -> int:
        return sum(clip.shape[0] for clip in self.history)

    def full_history(self) -> np.ndarray:
        return np.concatenate(self.history, axis=0)

    def window_latents(self) -> np.ndarray | None:
        """Most recent min(w, generated) latent frames, uncompressed.

        Reads only the trailing clips that cover the window, so its cost does
        not grow with the history.
        """
        if self.window_frames <= 0:
            return None
        clips, frames = [], 0
        for clip in reversed(self.history):
            clips.append(clip)
            frames += clip.shape[0]
            if frames >= self.window_frames:
                break
        tail = np.concatenate(clips[::-1], axis=0)
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
        clip = diffusion.sample(
            self.dit,
            self.ctx,
            self.active_condition(),
            (self.clip_len,) + self.history[0].shape[1:],
            seed=(self.seed, self.steps_taken),
            steps=self.sample_steps,
            frame_indices=range(base, base + self.clip_len),
            window_latents=self.window_latents(),
        )
        self._append(clip)
        self.steps_taken += 1
        return clip

    def run(self, n_steps: int):
        """Roll out n clips; returns (full video, per-step metric records).

        Each record carries the clip's ``latency_ms``, the wall time of its
        ``step()``; ``memory_tokens``, the context length the clip read; and
        ``context_length``, the length after the clip's own append.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        records = []
        for _ in range(n_steps):
            condition = self.active_condition()  # the condition this clip is generated with
            memory_tokens = 0 if self.ctx is None else self.ctx.length
            start = time.perf_counter()
            clip = self.step()
            latency_ms = (time.perf_counter() - start) * 1e3
            rec = {
                "step": self.steps_taken,
                "history_frames": self.generated_frames,
                "memory_tokens": memory_tokens,
                "context_length": self.ctx.length,
                "condition": condition,
                "consistency_psnr": psnr(clip, self.history[0][: clip.shape[0]]),
                "latency_ms": latency_ms,
            }
            records.append(rec)
        return self.full_history(), records
