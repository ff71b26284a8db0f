"""Span tracing for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``installed`` replaces
public callables of memctx modules, at the attribute where their callers
look them up, with wrappers that open and close a span around the call.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

SETUP_OP = -1  # spans recorded while the workload sets up
NO_OP = -2  # spans that belong to no operation (dropped from the per-op figures)


class NullTracer:
    """Stand-in used by untraced passes: every hook is a no-op."""

    def next_op(self) -> None:
        pass

    def idle(self) -> None:
        pass

    def open(self, name: str):
        return None

    def close(self, span, keep: bool = True) -> None:
        pass


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
    enclosing span (-1 at the top) and ``op`` identifies the operation (a
    train step, a clip or a chunk) the span served.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}  # name -> [sum, samples] of per-call counts
        self.op = SETUP_OP
        self._next_op = 0
        self._stack: list = []

    def next_op(self) -> None:
        """Attribute the spans that follow to a new operation."""
        self.op = self._next_op
        self._next_op += 1

    def idle(self) -> None:
        """Attribute the spans that follow to no operation."""
        self.op = NO_OP

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, span: int, keep: bool = True) -> None:
        rec = self.spans[span]
        rec[2] = time.perf_counter()
        if not keep:
            rec[4] = NO_OP
        if self._stack.pop() != span:
            raise RuntimeError(f"span {rec[0]} closed out of order")

    def count(self, name: str, value: float) -> None:
        if self.op < 0:
            return
        acc = self.counts.setdefault(name, [0.0, 0])
        acc[0] += value
        acc[1] += 1

    def self_times(self) -> list:
        """Each span's duration minus the part of it its children cover.

        Calls run on one thread, so children of a span are disjoint and
        nested inside it; the covered part is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def layer_totals(self, op_filter) -> dict:
        """name -> [calls, total seconds, self seconds] over spans whose op passes."""
        out: dict = {}
        for (name, start, end, _, op), self_s in zip(self.spans, self.self_times()):
            if op_filter(op):
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += 1
                acc[1] += end - start
                acc[2] += self_s
        return out

    def write(self, path, meta: dict) -> None:
        """Write the spans as JSON: a name table plus one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p, op] for n, a, b, p, op in self.spans]
        with open(path, "w") as f:
            json.dump(
                {**meta, "columns": ["name", "start", "end", "parent", "op"], "names": names, "spans": rows},
                f,
                separators=(",", ":"),
            )


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        span = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer, out)
        return out

    return traced


def _count_tape(tracer, args, kwargs):
    """Nodes and output bytes of the graph reachable from the loss, before backward."""
    seen = {}
    stack = [args[0]]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    tracer.count("tensor.tape_nodes", len(seen))
    tracer.count("tensor.tape_mb", sum(n.data.nbytes for n in seen.values()) / 2**20)


def _seq_tokens_counter(predict_velocity):
    """Count the tokens a DiT call attends over: condition, context, window, target."""
    sig = inspect.signature(predict_velocity)

    def count(tracer, args, kwargs):
        call = sig.bind(*args, **kwargs).arguments
        model = call["self"]

        def patches(latents):
            t, h, w = latents.shape[-4:-1]
            pt, ph, pw = model.patch
            return (t // pt) * (h // ph) * (w // pw)

        tokens = 1 + patches(call["x_t"])
        if call.get("ctx") is not None:
            tokens += call["ctx"].length
        if call.get("window_latents") is not None:
            tokens += patches(call["window_latents"])
        tracer.count("dit.seq_tokens", tokens)

    return count


def _count_ctx_tokens(tracer, ctx):
    tracer.count("compressor.ctx_tokens", ctx.length)


def wrap_points():
    """(layer name, owner, attribute, before hook, after hook) for every traced callable."""
    from memctx import compressor, diffusion, dit, nn, rollout, training

    return [
        ("training.make_dataset", training, "make_dataset", None, None),
        ("tensor.backward", training, "backward", _count_tape, None),
        ("nn.Adam.step", nn.Adam, "step", None, None),
        ("nn.softmax", nn, "softmax", None, None),
        ("nn.AttentionLayer", nn.AttentionLayer, "__call__", None, None),
        ("nn.Linear", nn.Linear, "__call__", None, None),
        ("nn.layernorm", nn, "layernorm", None, None),
        ("nn.Conv3dLayer", nn.Conv3dLayer, "__call__", None, None),
        (
            "dit.predict_velocity",
            dit.DiTModel,
            "predict_velocity",
            _seq_tokens_counter(dit.DiTModel.predict_velocity),
            None,
        ),
        ("diffusion.sample", diffusion, "sample", None, None),
        ("diffusion.retrieval_loss", diffusion, "retrieval_loss", None, None),
        ("diffusion.finetune_loss", diffusion, "finetune_loss", None, None),
        ("compressor.compress", compressor.EncoderModel, "compress", None, _count_ctx_tokens),
        (
            "compressor.compress_streaming",
            compressor.EncoderModel,
            "compress_streaming",
            None,
            _count_ctx_tokens,
        ),
        ("rollout.RolloutSession.step", rollout.RolloutSession, "step", None, None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every traced callable for its wrapper; restore the originals on exit."""
    saved = []
    try:
        for name, owner, attr, before, after in wrap_points():
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, before, after))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
