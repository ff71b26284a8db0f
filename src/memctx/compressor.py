"""Memory compression encoder.

A dual-branch model maps a long latent history onto a short token
context: a low-resolution branch block-averages and projects into the
transformer's inner dimension, a high-resolution branch runs a strided
3D conv stack ending in chunk-local attention, and the two are summed
after projection.  The ``large_patchifier`` variant is the ablation
baseline: a patchify kernel as large as the rate followed by one linear
map.  All computation is chunk-local in time, so streaming chunk appends
reproduce batch compression, bitwise when both run at the same batch size.
A streamed append writes only the new chunk's rows into buffers that
double their capacity, so its cost does not grow with the context.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import nn
from .data import DESK_LATENT, LATENT_CHANNELS
from .tensor import Tensor, as_default_dtype, concat, default_dtype, no_grad

__all__ = ["CompressionRate", "EncoderModel", "CompressedContext", "Provenance"]

VARIANTS = ("dual", "only_lr", "without_lr", "large_patchifier")
CHANNELS = (8, 16, 32, 64)  # conv widths of the high-rate branch
HEADS = 4  # of the high-rate branch's chunk-local attention
POS_POOL = 65536  # fewest floats an encoder draws for its chunk-position table


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


class Provenance:
    """Read-only per-token provenance: an (L, 5) int64 array of ``(chunk, t0, t1, h0, w0)`` rows.

    A token of chunk ``chunk`` covers history frames ``[t0, t1)`` and the
    rate-sized latent block whose top-left row and column are ``(h0, w0)``.
    Frames, rows and columns are latent units, so a reader places tokens
    without knowing the encoder's rate.  Two provenances compare equal, as
    a plain bool, when their records are.
    """

    __slots__ = ("records",)

    def __init__(self, records: np.ndarray):
        records.flags.writeable = False
        self.records = records

    def __len__(self) -> int:
        return self.records.shape[0]

    def __eq__(self, other):
        if isinstance(other, Provenance):
            return bool(np.array_equal(self.records, other.records))
        return NotImplemented


@dataclasses.dataclass
class CompressedContext:
    """Short token context of one encoder plus per-token provenance.

    ``provenance`` holds one :class:`Provenance` row per token.  A streamed
    context views a prefix of token and record buffers shared along its
    stream; rows once written are never written again, so a context, once
    returned, does not change.
    """

    tokens: Tensor  # (N, L, D)
    provenance: Provenance  # (L, 5) records
    span_frames: int  # history frames covered
    _stream: _Stream | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    @property
    def length(self) -> int:
        return self.tokens.shape[1]


class _Stream:
    """Buffers behind a run of streamed contexts: tokens (N, cap, D), records (cap, 5).

    The first ``length`` rows are written; each context of the run views a
    prefix of them.  Only the newest view may be extended in place, and an
    append writes rows past every view, so no returned context changes.
    Capacity doubles when full, so an append costs O(chunk) amortised.
    """

    def __init__(self, tokens: np.ndarray, records: np.ndarray):
        self.tokens, self.records, self.length = tokens, records, records.shape[0]
        self._view()

    def _view(self) -> None:
        """Make read-only views of the written rows the newest (tokens, Provenance)."""
        tokens = self.tokens[:, : self.length]
        tokens.flags.writeable = False
        self.newest = (tokens, Provenance(self.records[: self.length]))

    def extends(self, ctx: CompressedContext, tokens: np.ndarray) -> bool:
        """Whether ``ctx`` is the newest view, by identity, and ``tokens`` fit the buffer."""
        newest_tokens, newest_prov = self.newest
        n, _, d = self.tokens.shape
        return (
            getattr(ctx.tokens, "data", None) is newest_tokens
            and ctx.provenance is newest_prov
            and tokens.dtype == self.tokens.dtype
            and (tokens.shape[0], tokens.shape[2]) == (n, d)
        )

    def append(self, tokens: np.ndarray, records: np.ndarray) -> None:
        start, end = self.length, self.length + records.shape[0]
        if end > self.records.shape[0]:
            cap = max(end, 2 * self.records.shape[0])
            grown = np.empty((self.tokens.shape[0], cap, self.tokens.shape[2]), self.tokens.dtype)
            grown[:, :start] = self.tokens[:, :start]
            grown_records = np.empty((cap, 5), np.int64)
            grown_records[:start] = self.records[:start]
            self.tokens, self.records = grown, grown_records
        self.tokens[:, start:end] = tokens
        self.records[start:end] = records
        self.length = end
        self._view()


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
        model_dim: int = 64,
        chunk_len: int = 8,
        variant: str = "dual",
    ):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if chunk_len % rate.r_t:
            raise ValueError(f"chunk length {chunk_len} not divisible by temporal rate {rate.r_t}")
        self.rate = rate
        self.model_dim = model_dim
        self.chunk_len = chunk_len
        # the position table is sized for the desk grid, so chunks must tile it: checked before any draw
        self._check_geometry((1,) + DESK_LATENT)
        self.variant = variant
        self._first_chunk_records: dict = {}  # (H, W) -> chunk 0's provenance records
        if variant == "large_patchifier":
            # one rate-sized block per token: its only parameter is this map
            self.patch_proj = nn.Linear(rate.volume * LATENT_CHANNELS, model_dim, rng)
            return

        # stride schedule: consume all temporal reduction before spatial
        t_factors = _stride_factors(rate.r_t)
        h_factors = _stride_factors(rate.r_h)
        w_factors = _stride_factors(rate.r_w)
        n_sp = max(len(h_factors), len(w_factors))
        h_factors += [1] * (n_sp - len(h_factors))
        w_factors += [1] * (n_sp - len(w_factors))
        strides = [(f, 1, 1) for f in t_factors] + [(1, fh, fw) for fh, fw in zip(h_factors, w_factors)]
        n_layers = max(len(CHANNELS), len(strides))
        strides += [(1, 1, 1)] * (n_layers - len(strides))

        self.convs = []
        c_in = LATENT_CHANNELS
        for i, stride in enumerate(strides):
            c_out = CHANNELS[min(i, len(CHANNELS) - 1)]
            kernel = tuple(max(3, s) if s % 2 else max(3, s + 1) for s in stride)
            # k odd with p = (k - s + 1) // 2 downsamples exactly by s on divisible extents
            padding = tuple((k - s + 1) // 2 for k, s in zip(kernel, stride))
            self.convs.append(nn.Conv3dLayer(c_in, c_out, kernel, stride, padding, rng))
            c_in = c_out
        self.attn = nn.AttentionLayer(c_in, HEADS, rng)
        # one learned position row per token of a desk-grid chunk, shared across chunks; every
        # variant draws the same pool of at least POS_POOL floats, so the parameters drawn
        # after it keep their seeded values
        _, h, w, _ = DESK_LATENT
        n_pos = (chunk_len // rate.r_t) * (h // rate.r_h) * (w // rate.r_w)
        pool = rng.normal(0.0, 0.02, size=(max(POS_POOL, n_pos * c_in),)).astype(default_dtype())
        if variant != "only_lr":
            self.pos = Tensor(pool[: n_pos * c_in].reshape(n_pos, c_in).copy(), requires_grad=True)
        self.hr_proj = nn.Linear(c_in, model_dim, rng)
        self.lr_proj = nn.Linear(LATENT_CHANNELS, model_dim, rng)

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
        if c != LATENT_CHANNELS:
            raise ValueError(f"expected {LATENT_CHANNELS} latent channels, got {c}")

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
        t = x.shape[1]
        n_chunks = t // self.chunk_len
        chunks = [
            self.compress_chunk(x[:, ci * self.chunk_len : (ci + 1) * self.chunk_len])
            for ci in range(n_chunks)
        ]
        tokens = concat(chunks, axis=1) if len(chunks) > 1 else chunks[0]
        records = np.concatenate([self._chunk_records(ci, x.shape) for ci in range(n_chunks)])
        return CompressedContext(tokens=tokens, provenance=Provenance(records), span_frames=t)

    def _chunk_records(self, chunk_index: int, shape) -> np.ndarray:
        """(L_chunk, 5) provenance records of one chunk, in its token order (t, h, w)."""
        _, _, h, w, _ = shape
        first = self._first_chunk_records.get((h, w))
        if first is None:
            rate = self.rate
            grid = (self.chunk_len // rate.r_t, h // rate.r_h, w // rate.r_w)
            ti, hi, wi = np.indices(grid, dtype=np.int64).reshape(3, -1)
            first = np.stack(
                [np.zeros_like(ti), ti * rate.r_t, (ti + 1) * rate.r_t, hi * rate.r_h, wi * rate.r_w], axis=1
            )
            self._first_chunk_records[(h, w)] = first
        # chunk k's records are chunk 0's, k chunks later
        return first + chunk_index * np.array([1, self.chunk_len, self.chunk_len, 0, 0])

    def compress_streaming(self, prior: CompressedContext | None, new_chunk) -> CompressedContext:
        """Extend a compressed context by one chunk without recompressing the others.

        This is the inference write path: the chunk is compressed under
        ``no_grad``, so the tokens never require grad (training compresses
        through ``compress``).  Appending onto the newest context of a stream
        writes only the new chunk's rows into the stream's doubling buffers,
        so an append costs O(chunk), not O(context).  Any other prior (an
        older context of the stream, one from ``compress`` or built by hand,
        or one whose tokens or provenance were replaced) is first copied into
        fresh buffers.  No context already returned is ever written.
        """
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
        with no_grad():
            tokens = self.compress_chunk(chunk).data
        records = self._chunk_records(chunk_index, chunk.shape)
        if prior is None:
            stream, span = _Stream(tokens, records), 0
        else:
            stream, span = prior._stream, prior.span_frames
            if stream is not None and stream.extends(prior, tokens):
                stream.append(tokens, records)
            else:
                prior_tokens = Tensor._coerce(prior.tokens).data
                stream = _Stream(
                    np.concatenate([prior_tokens, tokens], axis=1),
                    np.concatenate([prior.provenance.records, records]),
                )
        view_tokens, provenance = stream.newest
        ctx = CompressedContext(Tensor._make(view_tokens, (), None), provenance, span + chunk.shape[1])
        ctx._stream = stream
        return ctx

    # -- bookkeeping --------------------------------------------------------------

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

