"""Memory compression encoder.

A dual-branch model maps a long latent history onto a short token
context: a low-resolution branch block-averages and projects into the
transformer's inner dimension, a high-resolution branch runs a strided
3D conv stack ending in chunk-local attention, and the two are summed
after projection.  The ``large_patchifier`` variant is the ablation
baseline: a patchify kernel as large as the rate followed by one linear
map.  All computation is chunk-local in time, so streaming chunk appends
reproduce batch compression exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import nn
from .data import DESK_LATENT
from .tensor import Tensor, as_default_dtype, concat, default_dtype

__all__ = [
    "CompressionRate",
    "EncoderModel",
    "CompressedContext",
    "combine_contexts",
]

VARIANTS = ("dual", "only_lr", "without_lr", "large_patchifier")
CHANNELS = (8, 16, 32, 64)  # conv widths of the high-rate branch
POS_POOL = 65536  # floats every encoder draws for its chunk-position table


@dataclasses.dataclass(frozen=True)
class CompressionRate:
    """Reduction factors in the height x width x time naming convention."""

    r_h: int
    r_w: int
    r_t: int

    def __post_init__(self):
        for name, r in (("r_h", self.r_h), ("r_w", self.r_w), ("r_t", self.r_t)):
            if r < 1:
                raise ValueError(f"{name} must be >= 1, got {r}")
        for name, r in (("r_h", self.r_h), ("r_w", self.r_w)):
            if r & (r - 1):
                raise ValueError(f"{name} must be a power of two for stride realizability, got {r}")

    @property
    def volume(self) -> int:
        return self.r_h * self.r_w * self.r_t

    def __str__(self):
        return f"{self.r_h}x{self.r_w}x{self.r_t}"


@dataclasses.dataclass
class CompressedContext:
    """Short token context plus per-token provenance."""

    tokens: Tensor  # (N, L, D)
    provenance: list  # one record per token: (encoder_id, chunk, t0, t1, h, w)
    rates: tuple  # CompressionRate per contributing encoder
    span_frames: int  # history frames covered

    @property
    def length(self) -> int:
        return self.tokens.shape[1]


def position_rows(rate: CompressionRate, chunk_len: int, width: int) -> int:
    """Rows of the chunk-position table: one per token of a desk-grid chunk.

    Raises ``ValueError`` when ``width``-wide rows for them do not fit in
    the ``POS_POOL`` floats the table is cut from.
    """
    _, h, w, _ = DESK_LATENT
    n_pos = (chunk_len // rate.r_t) * (h // rate.r_h) * (w // rate.r_w)
    if n_pos * width > POS_POOL:
        raise ValueError(
            f"a desk-grid chunk of {n_pos} tokens exceeds the position pool: "
            f"{n_pos * width} floats against {POS_POOL}"
        )
    return n_pos


def _stride_factors(r: int) -> list:
    """Decompose a rate into conv strides: twos first, odd remainder last."""
    out = []
    while r % 2 == 0:
        out.append(2)
        r //= 2
    if r > 1:
        out.append(r)
    return out


class EncoderModel:
    """The compression model phi(.) for one rate triple."""

    def __init__(
        self,
        rate: CompressionRate,
        rng,
        latent_channels: int = 4,
        model_dim: int = 64,
        chunk_len: int = 8,
        variant: str = "dual",
        channels=CHANNELS,
        heads: int = 4,
        encoder_id: int = 0,
    ):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if chunk_len % rate.r_t:
            raise ValueError(f"chunk length {chunk_len} not divisible by temporal rate {rate.r_t}")
        self.rate = rate
        self.latent_channels = latent_channels
        self.model_dim = model_dim
        self.chunk_len = chunk_len
        self.variant = variant
        self.encoder_id = encoder_id
        if variant == "large_patchifier":
            # one rate-sized block per token: its only parameter is this map
            self.patch_proj = nn.Linear(rate.volume * latent_channels, model_dim, rng)
            return

        # stride schedule: consume all temporal reduction before spatial
        t_factors = _stride_factors(rate.r_t)
        h_factors = _stride_factors(rate.r_h)
        w_factors = _stride_factors(rate.r_w)
        n_sp = max(len(h_factors), len(w_factors))
        h_factors += [1] * (n_sp - len(h_factors))
        w_factors += [1] * (n_sp - len(w_factors))
        strides = [(f, 1, 1) for f in t_factors] + [(1, fh, fw) for fh, fw in zip(h_factors, w_factors)]
        n_layers = max(len(channels), len(strides))
        strides += [(1, 1, 1)] * (n_layers - len(strides))

        self.convs = []
        c_in = latent_channels
        for i, stride in enumerate(strides):
            c_out = channels[min(i, len(channels) - 1)]
            kernel = tuple(max(3, s) if s % 2 else max(3, s + 1) for s in stride)
            # k odd with p = (k - s + 1) // 2 downsamples exactly by s on divisible extents
            padding = tuple((k - s + 1) // 2 for k, s in zip(kernel, stride))
            self.convs.append(nn.Conv3dLayer(c_in, c_out, kernel, stride, padding, rng))
            c_in = c_out
        self.attn = nn.AttentionLayer(c_in, heads, rng)
        # every variant draws the same pool, so the parameters drawn after it keep their values
        pool = rng.normal(0.0, 0.02, size=(POS_POOL,)).astype(default_dtype())
        if variant != "only_lr":
            # one learned position row per token of a desk-grid chunk, shared across chunks
            n_pos = position_rows(rate, chunk_len, c_in)
            self.pos = Tensor(pool[: n_pos * c_in].reshape(n_pos, c_in).copy(), requires_grad=True)
        self.hr_proj = nn.Linear(c_in, model_dim, rng)
        self.lr_proj = nn.Linear(latent_channels, model_dim, rng)

    # -- forward ---------------------------------------------------------------

    def _check_geometry(self, shape):
        n, t, h, w, c = shape
        rate = self.rate
        for axis, extent, div in (
            ("T", t, self.chunk_len),
            ("H", h, rate.r_h),
            ("W", w, rate.r_w),
        ):
            if extent % div:
                raise ValueError(f"history axis {axis}={extent} not divisible by {div}")
        if c != self.latent_channels:
            raise ValueError(f"expected {self.latent_channels} latent channels, got {c}")

    def compress_chunk(self, chunk: Tensor) -> Tensor:
        """Compress one (N, chunk_len, H, W, C) chunk into (N, L_chunk, D) tokens."""
        chunk = as_default_dtype(chunk)
        n, t, h, w, c = chunk.shape
        if t != self.chunk_len:
            raise ValueError(f"chunk temporal extent {t} != chunk length {self.chunk_len}")
        self._check_geometry(chunk.shape)
        rate = self.rate
        to, ho, wo = t // rate.r_t, h // rate.r_h, w // rate.r_w
        l_chunk = to * ho * wo

        if self.variant == "large_patchifier":
            x = chunk.reshape(n, to, rate.r_t, ho, rate.r_h, wo, rate.r_w, c)
            x = x.transpose(0, 1, 3, 5, 2, 4, 6, 7).reshape(n, l_chunk, rate.volume * c)
            return self.patch_proj(x)

        lr_tokens = None
        if self.variant != "without_lr":
            pooled = chunk.reshape(n, to, rate.r_t, ho, rate.r_h, wo, rate.r_w, c).mean(axis=(2, 4, 6))
            lr_tokens = self.lr_proj(pooled.reshape(n, l_chunk, c))

        hr_tokens = None
        if self.variant != "only_lr":
            if l_chunk != self.pos.shape[0]:
                raise ValueError(
                    f"chunk of {l_chunk} tokens does not match the {self.pos.shape[0]}-token "
                    f"position table of the {DESK_LATENT[1]}x{DESK_LATENT[2]} desk grid"
                )
            x = chunk.transpose(0, 4, 1, 2, 3)  # (N, C, T, H, W)
            for conv in self.convs:
                x = conv(x).silu()
            feat = x.transpose(0, 2, 3, 4, 1).reshape(n, l_chunk, self.attn.model_dim)
            feat = feat + self.pos
            feat = feat + self.attn(feat)
            hr_tokens = self.hr_proj(feat)

        if lr_tokens is None:
            return hr_tokens
        if hr_tokens is None:
            return lr_tokens
        return lr_tokens + hr_tokens  # residual addition after projection

    def compress(self, history) -> CompressedContext:
        """Compress a full (T, H, W, C) or (N, T, H, W, C) latent history."""
        x = as_default_dtype(history)
        if x.ndim == 4:
            x = x.reshape((1,) + x.shape)
        self._check_geometry(x.shape)
        n, t = x.shape[0], x.shape[1]
        chunks = []
        provenance = []
        for ci in range(t // self.chunk_len):
            chunk = x[:, ci * self.chunk_len : (ci + 1) * self.chunk_len]
            chunks.append(self.compress_chunk(chunk))
            provenance.extend(self._chunk_provenance(ci, x.shape))
        tokens = concat(chunks, axis=1) if len(chunks) > 1 else chunks[0]
        return CompressedContext(
            tokens=tokens, provenance=provenance, rates=(self.rate,), span_frames=t
        )

    def _chunk_provenance(self, chunk_index: int, shape):
        _, _, h, w, _ = shape
        rate = self.rate
        recs = []
        base_t = chunk_index * self.chunk_len
        for ti in range(self.chunk_len // rate.r_t):
            for hi in range(h // rate.r_h):
                for wi in range(w // rate.r_w):
                    recs.append(
                        (
                            self.encoder_id,
                            chunk_index,
                            base_t + ti * rate.r_t,
                            base_t + (ti + 1) * rate.r_t,
                            hi,
                            wi,
                        )
                    )
        return recs

    def compress_streaming(self, prior: CompressedContext | None, new_chunk) -> CompressedContext:
        """Extend a compressed context by one chunk without recomputation."""
        chunk = as_default_dtype(new_chunk)
        if chunk.ndim == 4:
            chunk = chunk.reshape((1,) + chunk.shape)
        if chunk.shape[1] != self.chunk_len:
            raise ValueError(
                f"streaming chunk has {chunk.shape[1]} frames, expected {self.chunk_len}"
            )
        chunk_index = 0 if prior is None else prior.span_frames // self.chunk_len
        if prior is not None and prior.span_frames % self.chunk_len:
            raise ValueError("prior context is not chunk-aligned")
        tokens = self.compress_chunk(chunk)
        prov = self._chunk_provenance(chunk_index, chunk.shape)
        if prior is None:
            return CompressedContext(tokens, prov, (self.rate,), chunk.shape[1])
        return CompressedContext(
            tokens=concat([prior.tokens, tokens], axis=1),
            provenance=prior.provenance + prov,
            rates=prior.rates,
            span_frames=prior.span_frames + chunk.shape[1],
        )

    # -- bookkeeping --------------------------------------------------------------

    def token_count(self, t: int, h: int, w: int) -> int:
        return (t // self.rate.r_t) * (h // self.rate.r_h) * (w // self.rate.r_w)

    def parameters(self):
        return list(self.named_parameters().values())

    def named_parameters(self, prefix="enc"):
        if self.variant == "large_patchifier":
            proj = self.patch_proj
            return {f"{prefix}.patch_proj.w": proj.weight, f"{prefix}.patch_proj.b": proj.bias}
        # only what compress_chunk reads: the constructor draws every branch,
        # so each variant's seeded values match the dual encoder's
        out = {}
        if self.variant != "only_lr":
            for i, conv in enumerate(self.convs):
                out[f"{prefix}.conv{i}.w"] = conv.weight
                out[f"{prefix}.conv{i}.b"] = conv.bias
            for name, lin in (("q", self.attn.wq), ("k", self.attn.wk), ("v", self.attn.wv), ("o", self.attn.wo)):
                out[f"{prefix}.attn.{name}.w"] = lin.weight
                out[f"{prefix}.attn.{name}.b"] = lin.bias
            out[f"{prefix}.pos"] = self.pos
            out[f"{prefix}.hr_proj.w"] = self.hr_proj.weight
            out[f"{prefix}.hr_proj.b"] = self.hr_proj.bias
        if self.variant != "without_lr":
            out[f"{prefix}.lr_proj.w"] = self.lr_proj.weight
            out[f"{prefix}.lr_proj.b"] = self.lr_proj.bias
        return out


def combine_contexts(contexts) -> CompressedContext:
    """Concatenate contexts from multiple encoders over the same span."""
    contexts = list(contexts)
    if not contexts:
        raise ValueError("need at least one context")
    if len(contexts) == 1:
        return contexts[0]
    d = contexts[0].tokens.shape[-1]
    span = contexts[0].span_frames
    for ctx in contexts[1:]:
        if ctx.tokens.shape[-1] != d:
            raise ValueError(f"token dim mismatch: {ctx.tokens.shape[-1]} vs {d}")
        if ctx.span_frames != span:
            raise ValueError("contexts must cover the same history span")
    return CompressedContext(
        tokens=concat([c.tokens for c in contexts], axis=1),
        provenance=[r for c in contexts for r in c.provenance],
        rates=tuple(r for c in contexts for r in c.rates),
        span_frames=span,
    )
