"""The three closed-loop workloads of the memctx benchmark.

Each workload is one caller that waits for every result before it sends
the next request.  ``setup`` builds the inputs from the seed alone;
``run_round`` then performs a fixed round of operations.  A round of a
given index does the same work every time it runs, so a traced pass can
repeat the rounds of an untraced one.

An operation that raises is counted as failed, by exception type, and
the run goes on.  Outputs are checked as they are produced.
"""

from __future__ import annotations

import collections
import sys
import time
import traceback

import numpy as np

from memctx import data, diffusion, rollout, tensor, training

from tracing import NullTracer

BATCH = 4
TRAIN_SCENES = 48  # config default dataset.size
TRAIN_STEPS = 8  # pretrain steps, then finetune steps, per round
ROUND_SEEDS = 1000  # round r of seed s trains with seed s * ROUND_SEEDS + r

# (name, history frames, uncompressed window frames).  h256 runs past the
# DiT's 192-row temporal position table and fails with IndexError today; it
# stays in the round so the failure is counted, and it is left out of the
# clip figures so that fixing it does not move them.
ROLLOUT_POINTS = (("h32", 32, 0), ("h96", 96, 0), ("h176", 176, 0), ("h176w8", 176, 8), ("h256", 256, 0))
ROLLOUT_TIMED = ("h32", "h96", "h176", "h176w8")
CLIP_SHAPE = (8, 8, 8, 4)

INGEST_FRAMES = 2048
INGEST_SCENES = 16  # distinct scenes, repeated to fill the history
STREAM_TOLERANCE = 1e-6


def _p90(values):
    return float(np.percentile(values, 90)) if values else None


def _median(values):
    return float(np.median(values)) if values else None


def _rate(count, seconds):
    return count / seconds if seconds > 0 else None


def _dtypes(*models) -> list:
    return sorted({str(p.dtype) for m in models for p in m.parameters()})


class Workload:
    """Operation and check accounting shared by the workloads."""

    name = ""
    unit = ""  # what one operation is, for the per-operation layer figures

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = NullTracer()
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.errors = collections.Counter()
        self.checks: dict = {}  # name -> [passed, failed]
        self.round_s: list = []

    def fail(self, exc: Exception, count: int = 1) -> None:
        kind = type(exc).__name__
        if kind not in self.errors:
            traceback.print_exception(exc, file=sys.stderr)
        self.failed += count
        self.errors[kind] += count

    def check(self, name: str, ok: bool) -> None:
        self.checks.setdefault(name, [0, 0])[0 if ok else 1] += 1

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(p > 0 and f == 0 for p, f in self.checks.values())

    def run_round(self, r: int) -> None:
        start = time.perf_counter()
        self._round(r)
        self.round_s.append(time.perf_counter() - start)

    def verify(self) -> None:
        """Checks that need the whole run; nothing by default."""

    def output_dtypes(self) -> dict:
        return {}


class Train(Workload):
    """Retrieval pretraining, then next-clip finetuning, on fresh models.

    The only workload that records a tape, runs backward and steps Adam.
    Per-step losses are too noisy at batch 4 to show progress over a few
    steps, so the round's train loss is both objectives' mean on one fixed
    batch, before the first step and after the last.
    """

    name = "train"
    unit = "train step"

    def setup(self) -> None:
        self.dataset = training.make_dataset(self.seed, TRAIN_SCENES)
        self.models = training.build_models(self.seed)
        self.phase_s = {"pretrain": [], "finetune": []}
        self.step_ms: list = []
        self.losses: dict = {}  # round -> (step losses, fixed-batch loss before, after)

    def _fixed_batch_loss(self, enc, g, seed: int) -> float:
        self.tracer.idle()
        latents = np.stack([lat for lat, _ in self.dataset[:BATCH]])
        codes = np.asarray([code for _, code in self.dataset[:BATCH]])
        split = latents.shape[1] - enc.chunk_len
        with tensor.no_grad():
            omega = data.sample_omega(latents.shape[1], (seed, 1))
            pre = diffusion.retrieval_loss(g, enc, latents, omega, codes, seed=(seed, 2))
            fin = diffusion.finetune_loss(g, enc, latents[:, :split], latents[:, split:], codes, seed=(seed, 3))
        self.loss_dtype = str(fin.dtype)
        return (pre.item() + fin.item()) / 2

    def _train(self, r: int):
        """One round; returns (step losses, fixed-batch loss before and after, phase seconds).

        Phase seconds is None when a step raised.
        """
        seed = self.seed * ROUND_SEEDS + r
        enc, g = training.build_models(seed)
        before = self._fixed_batch_loss(enc, g, seed)
        losses: list = []
        phase_s: dict = {}
        tr = self.tracer
        for phase, loop in (
            ("pretrain", training.pretrain_retrieval),
            ("finetune", training.finetune_next_clip),
        ):
            marks = [time.perf_counter()]
            tr.next_op()
            span = tr.open("training.step")

            def on_step(step, loss):
                nonlocal span
                marks.append(time.perf_counter())
                losses.append(loss)
                tr.close(span)
                tr.next_op()
                span = tr.open("training.step")

            self.attempted += TRAIN_STEPS
            try:
                loop(enc, g, self.dataset, steps=TRAIN_STEPS, seed=seed, batch=BATCH, on_step=on_step)
            except Exception as exc:  # a failed step ends the round; the run goes on
                self.fail(exc, TRAIN_STEPS - (len(marks) - 1))
                self.units += len(marks) - 1
                return losses, (before, None), None
            finally:
                tr.close(span, keep=False)
            phase_s[phase] = time.perf_counter() - marks[0]
            self.units += TRAIN_STEPS
            self.step_ms += [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
        return losses, (before, self._fixed_batch_loss(enc, g, seed)), phase_s

    def _round(self, r: int) -> None:
        losses, (before, after), phase_s = self._train(r)
        self.check("loss_finite", bool(np.all(np.isfinite(losses + [before] + ([] if after is None else [after])))))
        if phase_s is None:
            return
        self.check("loss_below_first", after < before)
        self.losses.setdefault(r, (losses, before, after))
        for phase, s in phase_s.items():
            self.phase_s[phase].append(s)

    def verify(self) -> None:
        """Round 0 again from fresh models: every loss must be bitwise equal."""
        if 0 not in self.losses:
            return
        units = self.units
        losses, (before, after), _ = self._train(0)
        self.units = units
        self.check("loss_repeatable", (losses, before, after) == self.losses[0])

    def summary(self):
        per_phase = BATCH * TRAIN_STEPS
        pre, fin = sum(self.phase_s["pretrain"]), sum(self.phase_s["finetune"])
        rounds = len(self.phase_s["finetune"])
        gated = {
            "items_per_s": (_rate(2 * per_phase * rounds, pre + fin), "1/s"),
            "op_ms.p90": (_p90(self.step_ms), "ms"),
        }
        detail = {
            "pretrain_samples_per_s": (_rate(per_phase * rounds, pre), "samples/s"),
            "finetune_samples_per_s": (_rate(per_phase * rounds, fin), "samples/s"),
        }
        info = {"rounds": rounds, "steps_timed": len(self.step_ms)}
        if 0 in self.losses:
            _, before, after = self.losses[0]
            info["train_loss"] = {"first": before, "final": after, "final_hex": after.hex()}
        return gated, detail, info

    def output_dtypes(self) -> dict:
        return {"params": _dtypes(*self.models), "loss": getattr(self, "loss_dtype", None)}


class Rollout(Workload):
    """Autoregressive clips from sessions primed to fixed history lengths.

    No-grad DiT attention whose context grows with history; each session
    is restored after every clip, so its history length stays fixed.
    """

    name = "rollout"
    unit = "clip"

    def setup(self) -> None:
        longest = max(frames for _, frames, _ in ROLLOUT_POINTS)
        scenes = training.make_dataset(self.seed, -(-longest // training.DESK_GEOMETRY[0]))
        history = np.concatenate([lat for lat, _ in scenes])
        enc, g = training.build_models(self.seed)
        self.models = (enc, g)
        self.sessions = {}
        for name, frames, window in ROLLOUT_POINTS:
            s = rollout.RolloutSession(g, enc, seed=self.seed, window_frames=window, seed_clip=history[:frames])
            self.sessions[name] = (s, list(s.history), s.ctx)
        self.clip_ms = {name: [] for name, _, _ in ROLLOUT_POINTS}
        self.point_ops = {name: collections.Counter() for name, _, _ in ROLLOUT_POINTS}

    def _round(self, r: int) -> None:
        for name, (session, history, ctx) in self.sessions.items():
            self.tracer.next_op()
            self.attempted += 1
            self.units += 1
            self.point_ops[name]["attempted"] += 1
            start = time.perf_counter()
            try:
                clip = session.step()
                elapsed = time.perf_counter() - start
            except Exception as exc:  # counted per point; the next point still runs
                self.fail(exc)
                self.point_ops[name]["failed"] += 1
                self.point_ops[name][type(exc).__name__] += 1
                continue
            finally:
                session.history, session.ctx, session.steps_taken = list(history), ctx, 0
            self.clip_ms[name].append(elapsed * 1e3)
            self.clip_dtype = str(clip.dtype)
            self.check("clip_shape_finite", clip.shape == CLIP_SHAPE and bool(np.isfinite(clip).all()))

    def summary(self):
        timed = [ms for name in ROLLOUT_TIMED for ms in self.clip_ms[name]]
        frames = CLIP_SHAPE[0] * len(timed)
        gated = {
            "items_per_s": (_rate(frames, sum(timed) / 1e3), "1/s"),
            "op_ms.p90": (_p90(timed), "ms"),
        }
        detail = {f"clip_ms.{name}": (_median(ms), "ms") for name, ms in self.clip_ms.items()}
        info = {
            "rounds": len(self.round_s),
            "clips_timed": len(timed),
            "context_tokens": {name: s.ctx.length for name, (s, _, _) in self.sessions.items()},
            "ops_by_point": {name: dict(c) for name, c in self.point_ops.items()},
        }
        return gated, detail, info

    def output_dtypes(self) -> dict:
        return {"params": _dtypes(*self.models), "clip": getattr(self, "clip_dtype", None)}


class Ingest(Workload):
    """Stream a long history into memory chunk by chunk, then compress it whole.

    The memory-write path: conv3d and the per-chunk append bookkeeping.
    The DiT is idle.
    """

    name = "ingest"
    unit = "chunk"

    def setup(self) -> None:
        scenes = training.make_dataset(self.seed, INGEST_SCENES)
        frames = np.concatenate([lat for lat, _ in scenes])
        self.history = np.concatenate([frames] * -(-INGEST_FRAMES // len(frames)))[:INGEST_FRAMES]
        self.encoder, _ = training.build_models(self.seed)
        self.chunk_ms: list = []
        self.batch_ms: list = []

    def _round(self, r: int) -> None:
        enc, hist = self.encoder, self.history
        n = enc.chunk_len
        ctx = None
        with tensor.no_grad():
            for i in range(len(hist) // n):
                self.tracer.next_op()
                self.attempted += 1
                self.units += 1
                start = time.perf_counter()
                try:
                    ctx = enc.compress_streaming(ctx, hist[i * n : (i + 1) * n])
                except Exception as exc:  # the rest of this stream cannot be built
                    self.fail(exc)
                    return
                self.chunk_ms.append((time.perf_counter() - start) * 1e3)
            self.tracer.next_op()
            self.attempted += 1
            start = time.perf_counter()
            try:
                batch = enc.compress(hist)
            except Exception as exc:
                self.fail(exc)
                return
            self.batch_ms.append((time.perf_counter() - start) * 1e3)
        self.token_dtype = str(ctx.tokens.dtype)
        streamed, whole = ctx.tokens.numpy(), batch.tokens.numpy()
        self.check(
            "stream_equals_batch",
            streamed.shape == whole.shape
            and float(np.max(np.abs(streamed - whole))) <= STREAM_TOLERANCE
            and batch.provenance == ctx.provenance,
        )

    def summary(self):
        frames = self.encoder.chunk_len * len(self.chunk_ms)
        gated = {
            "items_per_s": (_rate(frames, sum(self.chunk_ms) / 1e3), "1/s"),
            "op_ms.p90": (_p90(self.chunk_ms), "ms"),
        }
        detail = {
            "ingest_frames_per_s": (gated["items_per_s"][0], "frames/s"),
            "ingest_chunk_ms.p90": gated["op_ms.p90"],
            "compress_batch_ms": (_median(self.batch_ms), "ms"),
        }
        info = {"rounds": len(self.round_s), "chunks_timed": len(self.chunk_ms)}
        return gated, detail, info

    def output_dtypes(self) -> dict:
        return {"params": _dtypes(self.encoder), "context_tokens": getattr(self, "token_dtype", None)}


WORKLOADS = {w.name: w for w in (Train, Rollout, Ingest)}
