"""Toy diffusion transformer.

Patchifies a noisy latent clip into tokens, prepends a condition token
(and optional uncompressed window tokens), runs self-attention blocks
over those rows, and unpatchifies the target segment into a velocity
prediction.  The compressed history context is read-only memory: each
block reads the context tokens, plus a context marker, through its own
``ln1`` and key/value maps, and puts those keys and values in front of
the keys and values of its rows.  No block queries, modulates or updates
a context token, so the memory does not depend on the timestep.  Positions
are rotary: queries and keys turn by their (frame, grid row, grid column),
a memory key by its provenance, so scores depend on offsets and frames
have no upper bound.  ``predict_velocity`` takes one input form: its
caller builds the memory (``DiTModel.read_memory``) and the rows' angles
(``DiTModel.row_rope``), as a sampler does once per clip.  The velocity
reads only the target rows, so the last block queries only the target
tokens.  Every linear map can take a low-rank adapter for fine-tuning;
parameters are named by their place in the model, adapters beside the
frozen weights they adapt.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .compressor import CompressedContext
from .data import LATENT_CHANNELS
from .nn import _into_first
from .tensor import Tensor, _unbroadcast, as_default_dtype, concat, default_dtype

__all__ = ["DiTModel"]

PATCH = (1, 2, 2)  # latent frames, rows and columns per token
ROPE_BASE = 10000.0  # pair i of a rotary group of n turns ROPE_BASE ** (-i / n) radians per step


class _Block:
    """Transformer block with timestep modulation (adaLN-zero style) and a memory read.

    The timestep embedding produces per-block shift/scale/gate vectors;
    gates start at zero so an untrained block is the identity.  The
    multiplicative path matters: the optimal velocity carries a 1/t gain
    that additive conditioning alone cannot express.  Attention keys and
    values cover the memory (this block's ``ln1`` and ``attn.wk``/``attn.wv``
    of the context tokens, without the t-modulation) and then the block's
    own rows; only the rows are queried and updated.  Each stage is one tape
    node: ``_adaln`` normalizes and modulates, the attention node turns q and
    k, ``nn.mlp`` runs fc1, the SiLU and fc2, and ``_gated`` gates a branch
    and adds it to the residual.
    """

    def __init__(self, dim, heads, rng):
        self.ln1 = _LayerNormParams(dim)
        self.attn = nn.AttentionLayer(dim, heads, rng)
        self.ln2 = _LayerNormParams(dim)
        self.fc1 = nn.Linear(dim, 4 * dim, rng)
        self.fc2 = nn.Linear(4 * dim, dim, rng)
        self.mod = nn.Linear(dim, 6 * dim, rng)
        self.mod.weight.data[:] = 0.0

    def __call__(self, x: Tensor, temb: Tensor, memory, rope, n_query: int | None = None) -> Tensor:
        """The block over every row, or with ``n_query`` over the last ``n_query`` only.

        ``memory`` is this block's (K, V) pair from ``DiTModel.read_memory``
        or None; ``rope`` turns the rows.  Keys and values read the memory and
        every row either way; a query-limited block returns just its query rows.
        """
        # rows of mod: shift, scale and gate of the attention, then of the MLP
        mod = self.mod(temb.silu()).reshape(temb.shape[0], 1, 6, x.shape[-1])
        h = _adaln(x, self.ln1, mod, 1, 0)
        q = h
        if n_query is not None:
            x, q = x[:, -n_query:], h[:, -n_query:]
        x = _gated(x, self.attn(q, h, memory, rope), mod, 2)
        return _gated(x, nn.mlp(_adaln(x, self.ln2, mod, 4, 3), self.fc1, self.fc2), mod, 5)

    def named_modules(self):
        return {
            "ln1": self.ln1, "attn": self.attn, "ln2": self.ln2,
            "fc1": self.fc1, "fc2": self.fc2, "mod": self.mod,
        }


def _one_plus(mod: Tensor, index: int) -> np.ndarray:
    """mod[:, :, index] + 1 for a block's (N, 1, 6, D) ``mod``; the 1 enters as a default-dtype
    array, as an operand of a composed op would."""
    return mod.data[:, :, index] + np.asarray(1.0, dtype=default_dtype())


def _adaln(x: Tensor, ln: "_LayerNormParams", mod: Tensor, scale_index: int, shift_index: int) -> Tensor:
    """ln(x)·(mod[:, :, scale_index] + 1) + mod[:, :, shift_index] as one tape node.

    ``mod`` is a block's (N, 1, 6, D) modulation output, read in place.  The
    node keeps the normalized ``x`` and its std, as ``nn.layernorm`` does, and
    backward rebuilds ln(x) from them rather than keeping it.
    """
    gain, shift = ln.gain, ln.shift
    xhat, std = nn._normalized(x.data)
    s1 = _one_plus(mod, scale_index)
    y = _into_first(np.add, xhat * gain.data, shift.data)
    y = _into_first(np.multiply, y, s1)
    y = _into_first(np.add, y, mod.data[:, :, shift_index])
    needs = (x.requires_grad, gain.requires_grad, shift.requires_grad)

    def vjp(g):
        h = _into_first(np.add, xhat * gain.data, shift.data)
        gmod = np.zeros(mod.shape, dtype=g.dtype)
        gmod[:, :, scale_index] = _unbroadcast(g * h, s1.shape)
        gmod[:, :, shift_index] = _unbroadcast(g, s1.shape)
        gh = g * s1
        return (
            nn._normalized_vjp(gh, xhat, std, gain.data) if needs[0] else None,
            _unbroadcast(gh * xhat, gain.shape) if needs[1] else None,
            _unbroadcast(gh, shift.shape) if needs[2] else None,
            gmod,
        )

    return Tensor._make(y, (x, gain, shift, mod), vjp)


def _gated(x: Tensor, h: Tensor, mod: Tensor, index: int) -> Tensor:
    """x + h·(mod[:, :, index] + 1): a gated branch ``h`` added to the residual ``x``, as one tape node."""
    s1 = _one_plus(mod, index)
    y = _into_first(np.add, h.data * s1, x.data)

    def vjp(g):
        gmod = np.zeros(mod.shape, dtype=g.dtype)
        gmod[:, :, index] = _unbroadcast(g * h.data, s1.shape)
        return (g, g * s1, gmod)

    return Tensor._make(y, (x, h, mod), vjp)


class _LayerNormParams:
    def __init__(self, dim):
        self.gain = Tensor(np.ones(dim, dtype=default_dtype()), requires_grad=True)
        self.shift = Tensor(np.zeros(dim, dtype=default_dtype()), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return nn.layernorm(x, self.gain, self.shift)

    def named_parameters(self, prefix):
        return {f"{prefix}.gain": self.gain, f"{prefix}.shift": self.shift}


class DiTModel:
    """Velocity predictor over [condition | window | target] rows reading context memory."""

    def __init__(
        self,
        rng,
        inner_dim: int = 64,
        n_blocks: int = 4,
        n_heads: int = 4,
        cond_vocab: int = 16,
    ):
        self.inner_dim, self.head_dim = inner_dim, inner_dim // n_heads
        if inner_dim % n_heads or self.head_dim % 8:  # _rope splits a head's pairs in half and quarters
            raise ValueError(f"inner_dim {inner_dim} must be {n_heads} heads of a multiple of 8 features")
        self.patch = PATCH
        patch_in = int(np.prod(PATCH)) * LATENT_CHANNELS
        self.patch_proj = nn.Linear(patch_in, inner_dim, rng)
        self.cond_emb = nn.Embedding(cond_vocab, inner_dim, rng)
        self.t_fc1 = nn.Linear(inner_dim, inner_dim, rng)
        self.t_fc2 = nn.Linear(inner_dim, inner_dim, rng)
        # one marker row shared by every memory token; the draws skip 1,216 rows of the
        # deleted position tables and 2,047 more marker rows, so later parameters keep their values
        rng.normal(size=(1216, inner_dim))
        self.ctx_emb = nn.Embedding(1, inner_dim, rng)
        rng.normal(size=(2047, inner_dim))
        self.blocks = [_Block(inner_dim, n_heads, rng) for _ in range(n_blocks)]
        self.ln_out = _LayerNormParams(inner_dim)
        self.out_proj = nn.Linear(inner_dim, patch_in, rng)
        self.out_proj.weight.data[:] = 0.0  # velocity head starts at zero

    # -- tokenization ---------------------------------------------------------

    def _grid(self, shape):
        t, h, w, c = shape[-4:]
        pt, ph, pw = self.patch
        if c != LATENT_CHANNELS:
            raise ValueError(f"expected {LATENT_CHANNELS} channels, got {c}")
        for axis, extent, p in (("T", t, pt), ("H", h, ph), ("W", w, pw)):
            if extent % p:
                raise ValueError(f"latent axis {axis}={extent} not divisible by patch {p}")
        return t // pt, h // ph, w // pw

    def patchify(self, x: Tensor) -> Tensor:
        """(N, T, H, W, C) -> (N, L, D) tokens, t-major ordering."""
        x = as_default_dtype(x)
        n = x.shape[0]
        gt, gh, gw = self._grid(x.shape)
        pt, ph, pw = self.patch
        x = x.reshape(n, gt, pt, gh, ph, gw, pw, LATENT_CHANNELS)
        x = x.transpose(0, 1, 3, 5, 2, 4, 6, 7).reshape(n, gt * gh * gw, pt * ph * pw * LATENT_CHANNELS)
        return self.patch_proj(x)

    def _unpatchify(self, tokens: Tensor, shape) -> Tensor:
        n, t, h, w, c = shape
        gt, gh, gw = self._grid(shape)
        pt, ph, pw = self.patch
        x = tokens.reshape(n, gt, gh, gw, pt, ph, pw, c)
        return x.transpose(0, 1, 4, 2, 5, 3, 6, 7).reshape(n, t, h, w, c)

    def _positions(self, shape, frame_indices) -> np.ndarray:
        """(3, L) int (frame, grid row, grid column) of the patch tokens of latents of ``shape``."""
        frames = np.asarray(frame_indices, dtype=np.int64)
        if len(frames) != shape[-4]:
            raise ValueError("need one global frame index per target frame")
        positions = np.indices(self._grid(shape)).reshape(3, -1)  # t-major, as patchify orders tokens
        positions[0] = frames[:: self.patch[0]][positions[0]]
        return positions

    def _rope(self, positions):
        """``nn.rotate``'s and ``nn.attention``'s (cos, sin) for (3, L) int (frame, row, column) positions.

        Each is (L, head_dim), shared by every head: cos θ twice, and −sin θ
        then sin θ.  A head's first half of feature pairs turn with the frame,
        a quarter each with the row and the column; (0, 0, 0) does not turn.
        Angles are float64 and cos/sin are cast once: a float32 angle at frame
        4,000 would be off by up to 2.4e-4 rad.
        """
        pairs = self.head_dim // 2
        groups = (pairs // 2, pairs // 4, pairs // 4)
        theta = np.concatenate([p[:, None] * ROPE_BASE ** (-np.arange(n) / n) for p, n in zip(positions, groups)], 1)
        cos, sin = np.cos(theta), np.sin(theta)
        return tuple(np.concatenate(halves, 1).astype(default_dtype()) for halves in ((cos, cos), (-sin, sin)))

    def row_rope(self, shape, frame_indices, window_frames: int = 0):
        """The rows' (cos, sin) for target latents of ``shape`` at global frames ``frame_indices``.

        The rows are the condition row, which does not turn, then the patches
        of a window of ``window_frames`` latents on the frames just before
        ``frame_indices[0]``, then the target's patches.  ``shape`` is
        (…, T, H, W, C); frame indices have no upper bound.
        """
        positions = [np.zeros((3, 1), np.int64)]
        if window_frames:
            window = range(frame_indices[0] - window_frames, frame_indices[0])
            positions.append(self._positions((window_frames,) + tuple(shape[-3:]), window))
        positions.append(self._positions(shape, frame_indices))
        return self._rope(np.concatenate(positions, axis=1))

    # -- forward -------------------------------------------------------------

    def read_memory(self, ctx: CompressedContext, latent_hw) -> list:
        """Every block's keys and values of the context tokens: the read-only memory.

        ``ctx.tokens`` plus the marker ``ctx_emb`` go through each block's own
        ``ln1`` (without the t-modulation) and ``attn.wk``/``attn.wv``; keys turn
        by provenance: first frame ``t0`` and the target patch holding corner
        ``(h0, w0)``, clamped onto the grid of target latents ``latent_hw`` =
        (H, W).  Nothing here depends on the timestep, the condition or the
        target, so a context's memory is built once and read at every Euler
        step.  Returns one (K, V) pair of (N, L, inner_dim) tensors per block.
        """
        _, ph, pw = self.patch
        _, t0, _, h0, w0 = ctx.provenance.records.T
        hp = np.minimum(h0 // ph, latent_hw[0] // ph - 1)
        wp = np.minimum(w0 // pw, latent_hw[1] // pw - 1)
        rope = self._rope(np.stack([t0, hp, wp]))
        mem = as_default_dtype(ctx.tokens) + self.ctx_emb.table
        return [block.attn.keys_values(block.ln1(mem), rope) for block in self.blocks]

    def predict_velocity(self, x_t, t, c, memory, rope, window_latents=None) -> Tensor:
        """Predict the flow velocity of target latents ``x_t`` of shape (N, T, H, W, C).

        ``memory`` is ``read_memory(ctx, (H, W))`` of a batch-N context, or
        None for no context; ``rope`` is ``row_rope(x_t.shape, frame_indices,
        window_frames)`` for the global frames of the target (retrieval
        targets sit at their history indices).  Neither depends on ``t``, so
        a sampler builds both once per clip.  The optional (N, w, H, W, C)
        window latents enter uncompressed through the patchifier, at the
        frames ``rope`` gives them.  Float inputs are cast to the default
        dtype.
        """
        x_t = as_default_dtype(x_t)
        n = x_t.shape[0]
        t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (n,))
        if np.any(t_arr <= 0) or np.any(t_arr > 1):
            raise ValueError("timestep must lie in (0, 1]")
        if memory is None:
            memory = [None] * len(self.blocks)

        c_idx = np.broadcast_to(np.asarray(c), (n,))
        segments = [self.cond_emb(c_idx).reshape(n, 1, self.inner_dim)]
        if window_latents is not None:
            segments.append(self.patchify(window_latents))
        tgt_tokens = self.patchify(x_t)
        segments.append(tgt_tokens)
        tokens = concat(segments, axis=1)

        temb = Tensor(nn.sinusoidal_embedding(t_arr, self.inner_dim))
        temb = nn.mlp(temb, self.t_fc1, self.t_fc2)
        tokens = tokens + temb.reshape(n, 1, self.inner_dim)

        # the velocity reads only the target rows, so the last block queries only those
        for block, kv in zip(self.blocks[:-1], memory):
            tokens = block(tokens, temb, kv, rope)
        out = self.ln_out(self.blocks[-1](tokens, temb, memory[-1], rope, n_query=tgt_tokens.shape[1]))
        return self._unpatchify(self.out_proj(out), x_t.shape)

    # -- variants -------------------------------------------------------------

    def enable_lora(self, rank: int, rng) -> None:
        """Give every linear map a low-rank adapter (``nn.Linear.adapt``); the maps' own weights freeze."""
        maps = [self.patch_proj, self.t_fc1, self.t_fc2, self.out_proj]
        for b in self.blocks:
            maps += [b.attn.wq, b.attn.wk, b.attn.wv, b.attn.wo, b.fc1, b.fc2, b.mod]
        for m in maps:
            m.adapt(rank, rng)

    def parameters(self):
        return list(self.named_parameters().values())

    def named_parameters(self, prefix="dit"):
        """Every parameter by its place in the model, e.g. ``dit.blocks.0.attn.wq.w``.

        An adapted map keeps its own weights' names (frozen) and adds
        ``….lora.A`` and ``….lora.B``, so a plain checkpoint names the same
        base weights as an adapted model.
        """
        modules = {
            "patch_proj": self.patch_proj,
            "cond_emb": self.cond_emb,
            "t_fc1": self.t_fc1,
            "t_fc2": self.t_fc2,
            "ctx_emb": self.ctx_emb,
        }
        for i, b in enumerate(self.blocks):
            modules.update({f"blocks.{i}.{key}": m for key, m in b.named_modules().items()})
        modules.update(ln_out=self.ln_out, out_proj=self.out_proj)
        out = {}
        for key, m in modules.items():
            out.update(m.named_parameters(f"{prefix}.{key}"))
        return out

