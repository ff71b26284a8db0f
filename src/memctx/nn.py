"""Neural building blocks over the autodiff tensor core.

Linear maps (with optional low-rank adapters), strided 3D convolution,
multi-head attention, layer normalization, learned embeddings, and the
Adam optimizer used by every training loop.

Softmax, layernorm and the attention core compute directly on arrays when
no tape would be recorded (under ``no_grad``, or when nothing requires a
gradient).  Those fused paths run the same numpy operations in the same
order and dtypes as the taped ones, so their outputs are bitwise equal.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _tracks, default_dtype

__all__ = [
    "Linear",
    "LoraLinear",
    "Conv3dLayer",
    "AttentionLayer",
    "Embedding",
    "layernorm",
    "softmax",
    "sinusoidal_embedding",
    "Adam",
]


class Linear:
    """y = x @ W.T + b with W of shape (out, in)."""

    def __init__(self, in_dim, out_dim, rng, bias=True, init_scale=None):
        scale = init_scale if init_scale is not None else (1.0 / np.sqrt(in_dim))
        self.weight = Tensor(rng.normal(0.0, scale, size=(out_dim, in_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = x @ self.weight.transpose(1, 0)
        if self.bias is not None:
            y = y + self.bias
        return y

    def parameters(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])


class LoraLinear:
    """Frozen base linear plus trainable low-rank residual (alpha/r)·A·B.

    A is (out, r) zero-initialized so the wrapped map equals the base at
    step 0; B is (r, in) with small Gaussian init.
    """

    def __init__(self, base: Linear, rank: int, rng, alpha: float | None = None):
        if rank <= 0:
            raise ValueError(f"LoRA rank must be positive, got {rank}")
        out_dim, in_dim = base.weight.shape
        self.base = base
        base.weight.requires_grad = False
        if base.bias is not None:
            base.bias.requires_grad = False
        self.rank = rank
        self.alpha = float(alpha) if alpha is not None else 2.0 * rank
        self.A = Tensor(np.zeros((out_dim, rank)), requires_grad=True)
        self.B = Tensor(rng.normal(0.0, 0.02, size=(rank, in_dim)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        y = x @ self.base.weight.transpose(1, 0)
        if self.base.bias is not None:
            y = y + self.base.bias
        low = (x @ self.B.transpose(1, 0)) @ self.A.transpose(1, 0)
        return y + low.scale(self.alpha / self.rank)

    def parameters(self):
        return [self.A, self.B]


class Conv3dLayer:
    """Strided 3D cross-correlation over (N, C, T, H, W) inputs."""

    def __init__(self, in_channels, out_channels, kernel, stride, padding, rng):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        fan_in = in_channels * int(np.prod(self.kernel))
        self.weight = Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(out_channels, in_channels) + self.kernel),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def output_extents(self, extents):
        out = []
        for n, k, s, p in zip(extents, self.kernel, self.stride, self.padding):
            m = (n + 2 * p - k) // s + 1
            if m < 1:
                raise ValueError(
                    f"conv3d produces non-positive extent from input {extents}, "
                    f"kernel {self.kernel}, stride {self.stride}, padding {self.padding}"
                )
            out.append(m)
        return tuple(out)

    def __call__(self, x: Tensor) -> Tensor:
        return conv3d_forward(self, x)

    def parameters(self):
        return [self.weight, self.bias]


def conv3d_forward(layer: Conv3dLayer, x: Tensor) -> Tensor:
    if x.ndim != 5:
        raise ValueError(f"conv3d expects (N, C, T, H, W), got shape {x.shape}")
    if x.shape[1] != layer.in_channels:
        raise ValueError(f"conv3d channel mismatch: input {x.shape[1]}, layer {layer.in_channels}")
    out_ext = layer.output_extents(x.shape[2:])
    kt, kh, kw = layer.kernel
    st, sh, sw = layer.stride
    pt, ph, pw = layer.padding
    w, b = layer.weight, layer.bias

    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kt, kh, kw), axis=(2, 3, 4))
    win = win[:, :, ::st, ::sh, ::sw]  # (N, C, T', H', W', kt, kh, kw)
    n = x.shape[0]
    cols = np.ascontiguousarray(np.moveaxis(win, 1, 4)).reshape(
        n, *out_ext, layer.in_channels * kt * kh * kw
    )
    wmat = w.data.reshape(layer.out_channels, -1)
    out = cols @ wmat.T + b.data
    out = np.ascontiguousarray(np.moveaxis(out, -1, 1))  # (N, O, T', H', W')

    def vjp(g):
        gtok = np.moveaxis(g, 1, -1)  # (N, T', H', W', O)
        gw = np.tensordot(gtok, cols, axes=([0, 1, 2, 3], [0, 1, 2, 3])).reshape(w.shape)
        gb = gtok.sum(axis=(0, 1, 2, 3))
        # scatter into the padded input, one kernel offset at a time
        gcols = (gtok @ wmat).reshape(n, *out_ext, layer.in_channels, kt, kh, kw)
        gcols = np.moveaxis(gcols, 4, 1)  # (N, C, T', H', W', kt, kh, kw)
        gxp = np.zeros_like(xp)
        tt, hh, ww = out_ext
        for i in range(kt):
            for j in range(kh):
                for k in range(kw):
                    gxp[:, :, i : i + st * tt : st, j : j + sh * hh : sh, k : k + sw * ww : sw] += (
                        gcols[..., i, j, k]
                    )
        gx = gxp[:, :, pt : pt + x.shape[2], ph : ph + x.shape[3], pw : pw + x.shape[4]]
        return (np.ascontiguousarray(gx), gw, gb)

    return Tensor._make(out, (x, w, b), vjp)


def softmax(x: Tensor, axis: int = -1, *, out: np.ndarray | None = None) -> Tensor:
    """Softmax along ``axis``.

    ``out`` is an array of ``x``'s shape and dtype that a call recording no
    tape writes its result into; it may be ``x.data`` itself, which saves a
    buffer when the caller owns the logits.
    """
    if _tracks((x,)):
        if out is not None:
            raise ValueError("softmax out= needs a call that records no tape")
        shifted = x - x.max(axis=axis, keepdims=True).detach()
        e = shifted.exp()
        return e / e.sum(axis=axis, keepdims=True)
    e = np.subtract(x.data, x.data.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return Tensor._make(e, (x,), None)


def layernorm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError("layernorm eps must be positive")
    if _tracks((x, gain, shift)):
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = xc.square().mean(axis=-1, keepdims=True)
        return xc / (var + eps).sqrt() * gain + shift
    y = x.data - x.data.mean(axis=-1, keepdims=True)
    # eps enters as a default-dtype array, as Tensor._coerce makes it on the taped path
    std = (y * y).mean(axis=-1, keepdims=True) + np.asarray(eps, dtype=default_dtype())
    np.sqrt(std, out=std)
    y = _into_first(np.divide, y, std)
    y = _into_first(np.multiply, y, gain.data)
    y = _into_first(np.add, y, shift.data)
    return Tensor._make(y, (x, gain, shift), None)


def _into_first(ufunc, a, b):
    """ufunc(a, b), written over ``a`` when that keeps the result dtype numpy would pick."""
    return ufunc(a, b, out=a if np.result_type(a, b) == a.dtype else None)


class AttentionLayer:
    """Multi-head scaled dot-product attention with output projection."""

    def __init__(self, model_dim, head_count, rng):
        if model_dim % head_count != 0:
            raise ValueError(f"model_dim {model_dim} not divisible by {head_count} heads")
        self.model_dim = model_dim
        self.head_count = head_count
        self.head_dim = model_dim // head_count
        self.wq = Linear(model_dim, model_dim, rng)
        self.wk = Linear(model_dim, model_dim, rng)
        self.wv = Linear(model_dim, model_dim, rng)
        self.wo = Linear(model_dim, model_dim, rng)

    def _split(self, x: Tensor):
        n, l, _ = x.shape
        return x.reshape(n, l, self.head_count, self.head_dim).transpose(0, 2, 1, 3)

    def __call__(self, q_tokens: Tensor, kv_tokens: Tensor | None = None) -> Tensor:
        kv_tokens = q_tokens if kv_tokens is None else kv_tokens
        if q_tokens.shape[-1] != self.model_dim or kv_tokens.shape[-1] != self.model_dim:
            raise ValueError(
                f"attention dim mismatch: tokens {q_tokens.shape[-1]}/{kv_tokens.shape[-1]}, "
                f"model_dim {self.model_dim}"
            )
        if q_tokens.shape[-2] == 0 or kv_tokens.shape[-2] == 0:
            raise ValueError("attention requires non-empty token sets")
        q = self._split(self.wq(q_tokens))
        k = self._split(self.wk(kv_tokens))
        v = self._split(self.wv(kv_tokens))
        if _tracks((q, k)):
            scores = (q @ k.transpose(0, 1, 3, 2)).scale(1.0 / np.sqrt(self.head_dim))
            attn = softmax(scores, axis=-1)
        else:
            # one (N, heads, Lq, Lk) buffer: scaled by a Python float as .scale does,
            # then overwritten by its softmax
            data = q.data @ np.ascontiguousarray(k.data.transpose(0, 1, 3, 2))
            data *= float(1.0 / np.sqrt(self.head_dim))
            attn = softmax(Tensor._make(data, (q, k), None), axis=-1, out=data)
        out = attn @ v  # (N, heads, Lq, hd)
        n, _, lq, _ = out.shape
        out = out.transpose(0, 2, 1, 3).reshape(n, lq, self.model_dim)
        return self.wo(out)

    def parameters(self):
        return self.wq.parameters() + self.wk.parameters() + self.wv.parameters() + self.wo.parameters()


class Embedding:
    """Learned lookup table of shape (vocab, dim)."""

    def __init__(self, vocab, dim, rng, scale=0.02):
        self.table = Tensor(rng.normal(0.0, scale, size=(vocab, dim)), requires_grad=True)

    def __call__(self, idx) -> Tensor:
        return self.table.index_select(np.asarray(idx, dtype=np.int64))

    def parameters(self):
        return [self.table]


def sinusoidal_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Classic sin/cos embedding of scalar timesteps; returns (N, dim)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t[:, None] * freqs[None, :] * 1000.0
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class Adam:
    """Standard Adam with in-place updates on parameter data."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * (g * g)
            mhat = self.m[i] / (1 - self.b1**t)
            vhat = self.v[i] / (1 - self.b2**t)
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(p.data.dtype)

    def state_arrays(self):
        """Flat name->array mapping for checkpointing."""
        out = {"adam.step": np.asarray([self.step_count], dtype=np.float64)}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out[f"adam.m.{i}"] = m
            out[f"adam.v.{i}"] = v
        return out

    def load_state_arrays(self, arrays):
        self.step_count = int(arrays["adam.step"][0])
        self.m = [arrays[f"adam.m.{i}"].copy() for i in range(len(self.params))]
        self.v = [arrays[f"adam.v.{i}"].copy() for i in range(len(self.params))]
