"""Neural building blocks over the autodiff tensor core.

Linear maps (with optional low-rank adapters), strided 3D convolution,
multi-head attention, rotary positions, layer normalization, learned
embeddings, and the Adam optimizer used by every training loop.

The linear map, the MLP, softmax, layernorm, rotation, attention and conv3d
are fused kernels: each runs one array computation and records at most one
tape node, whose backward is an analytic vector-Jacobian product.  A linear
map with its adapter is one node too, and it and the MLP's two maps share
one affine kernel, ``_affine`` and ``_affine_vjp``.  Taped and
no-tape calls (under ``no_grad``, or when nothing requires a gradient)
share that computation, so their outputs are bitwise equal; a no-tape
call only skips the node.  The attention node also turns q and k by
their rotary angles, splits the heads, joins the memory and merges the
heads, and needs no call to ``softmax``; its backward turns the
probabilities into the scores' gradient in place.  Conv3d's input
gradient is one ordered gather per sample.

A node keeps no array that its backward can rebuild bitwise from its
parents: attention keeps only each score row's max and Σe and recomputes
the exponentials, the MLP keeps only its pre-activation and rebuilds the
SiLU output from it, and conv3d gathers its im2col columns again.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _sigmoid, _unbroadcast, default_dtype

__all__ = [
    "Linear",
    "linear",
    "mlp",
    "Conv3dLayer",
    "AttentionLayer",
    "attention",
    "rotate",
    "Embedding",
    "layernorm",
    "softmax",
    "sinusoidal_embedding",
    "Adam",
]


def _param(values) -> Tensor:
    """A trainable leaf in the default dtype: float64 draws are rounded, not redrawn."""
    return Tensor(np.asarray(values, dtype=default_dtype()), requires_grad=True)


class Linear:
    """y = x @ W.T + b with W of shape (out, in), plus a low-rank residual once ``adapt`` adds one."""

    def __init__(self, in_dim, out_dim, rng):
        self.weight = _param(rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(out_dim, in_dim)))
        self.bias = _param(np.zeros(out_dim))
        self.lora = ()  # the adapter's (A, B) once adapted

    def adapt(self, rank: int, rng) -> None:
        """Freeze W and b and add the trainable residual (alpha/r)·A·B·x with alpha = 2r (LoRA).

        A is (out, r) zero-initialized, so the map is unchanged until a step
        trains it; B is (r, in) with small Gaussian init.
        """
        if rank <= 0:
            raise ValueError(f"LoRA rank must be positive, got {rank}")
        if self.lora:
            raise ValueError("LoRA already enabled")
        out_dim, in_dim = self.weight.shape
        self.weight.requires_grad = self.bias.requires_grad = False
        self.lora = (_param(np.zeros((out_dim, rank))), _param(rng.normal(0.0, 0.02, size=(rank, in_dim))))

    def terms(self) -> tuple:
        """``linear``'s tensors after x: (W, b), then the adapter's (A, B) once adapted."""
        return (self.weight, self.bias, *self.lora)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias, *self.lora)

    def named_parameters(self, prefix):
        """W and b, then an adapter's A and B beside them, so W and b keep their names when adapted."""
        return dict(zip((f"{prefix}.{key}" for key in ("w", "b", "lora.A", "lora.B")), self.terms()))


def linear(x: Tensor, w: Tensor, b: Tensor, *lora) -> Tensor:
    """x @ w.T + b over the last axis of ``x``, plus 2·A(B·x) for a LoRA pair ``lora`` = (A, B); one tape node.

    Each product is one 2-D GEMM over all leading rows; backward forms each
    weight gradient as one GEMM and the bias gradient as one sum, and builds
    a gradient only for an operand that required one at forward time.
    """
    terms = (w, b, *lora)
    if x.shape[-1] != w.shape[1]:
        raise ValueError(f"linear: input has {x.shape[-1]} features, weight expects {w.shape[1]}")
    x2 = x.data.reshape(-1, x.shape[-1])
    y, low = _affine(terms, x2)
    needs = [t.requires_grad for t in (x, *terms)]

    def vjp(g):
        gxs, grads = _affine_vjp(terms, x2, low, g.reshape(-1, g.shape[-1]), needs, x.shape)
        return gxs + grads

    # x once per term that reads it, the adapter's first, so backward adds x's gradients in the
    # order that composing the base and adapter nodes did: (prev + adapter term) + base term
    parents = (x,) * (len(terms) // 2) + terms
    return Tensor._make(y.reshape(x.shape[:-1] + y.shape[-1:]), parents, vjp)


def mlp(x: Tensor, fc1: Linear, fc2: Linear) -> Tensor:
    """fc2(silu(fc1(x))) over the last axis of ``x`` as one tape node; either map plain or adapted.

    The forward runs the two ``linear`` nodes' array operations and the
    SiLU's in their order, so the output and every gradient are bitwise
    theirs.  The node keeps fc1's pre-activation a and each adapter's
    (rows, r) product Bx, and no (rows, hidden) array beside a: backward
    rebuilds silu(a) = a·σ(a) with the forward's own expression, as
    ``Tensor.silu`` rebuilds σ(a), and recomputes no GEMM.
    """
    t1, t2 = fc1.terms(), fc2.terms()
    if x.shape[-1] != t1[0].shape[1]:
        raise ValueError(f"mlp: input has {x.shape[-1]} features, fc1 expects {t1[0].shape[1]}")
    x2 = x.data.reshape(-1, x.shape[-1])
    a, low1 = _affine(t1, x2)
    y, low2 = _affine(t2, a * _sigmoid(a))
    need1 = [t.requires_grad for t in (x, *t1)]
    need2 = [any(need1)] + [t.requires_grad for t in t2]  # silu(a) requires a gradient when fc1's output does
    parents = (x,) * (len(t1) // 2) + t1 + t2  # x once per term that reads it, as in ``linear``

    def vjp(g):
        sig = _sigmoid(a)
        gss, grads2 = _affine_vjp(t2, a * sig, low2, g.reshape(-1, g.shape[-1]), need2, a.shape)
        if gss[0] is None:
            return (None,) * (len(parents) - len(grads2)) + grads2
        gs = sum(gss[1:], gss[0])  # the adapter's term plus the base's
        gxs, grads1 = _affine_vjp(t1, x2, low1, gs * (sig * (1.0 + a * (1.0 - sig))), need1, x.shape)
        return gxs + grads1 + grads2

    return Tensor._make(y.reshape(x.shape[:-1] + y.shape[-1:]), parents, vjp)


def _affine(terms, x2):
    """A map's output on 2-D ``x2`` for its ``terms`` (W, b[, A, B]), and the adapter's product
    x2·Bᵀ (None for a plain map)."""
    y = _into_first(np.add, x2 @ terms[0].data.T, terms[1].data)
    if len(terms) == 2:
        return y, None
    low = x2 @ terms[3].data.T
    return _into_first(np.add, y, (low @ terms[2].data.T) * 2.0), low


def _affine_vjp(terms, x2, low, g2, needs, shape):
    """From the 2-D gradient ``g2`` of ``_affine``'s output: the gradients of ``x2`` in the input's
    ``shape``, one per term that reads it (the adapter's, then the base's), and then one gradient per
    tensor of ``terms``.  ``needs`` flags x2 and each tensor; a gradient is None where its flag is False."""
    gx = (g2 @ terms[0].data).reshape(shape) if needs[0] else None
    grads = (g2.T @ x2 if needs[1] else None, g2.sum(axis=0) if needs[2] else None)
    if len(terms) == 2:
        return (gx,), grads
    gl = g2 * 2.0
    glow = gl @ terms[2].data if needs[0] or needs[4] else None
    gx_low = (glow @ terms[3].data).reshape(shape) if needs[0] else None
    return (gx_low, gx), grads + (gl.T @ low if needs[3] else None, glow.T @ x2 if needs[4] else None)


class Conv3dLayer:
    """Strided 3D cross-correlation over (N, C, T, H, W) inputs."""

    def __init__(self, in_channels, out_channels, kernel, stride, padding, rng):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        fan_in = in_channels * int(np.prod(self.kernel))
        self.weight = _param(
            rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(out_channels, in_channels) + self.kernel)
        )
        self.bias = _param(np.zeros(out_channels))
        self._plans = {}  # input (T, H, W) -> (output extents, padded extents, gather index)
        self._grad_plans = {}  # input (T, H, W) -> the input gradient's gather index

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

    def _plan(self, extents):
        """Output extents, padded extents and the im2col gather index for one input geometry.

        The index has shape (M, C·K), M = T'·H'·W' output positions and
        K = kt·kh·kw kernel taps; entry [m, c·K + tap] is the flat position in
        the padded (C, Tp, Hp, Wp) volume that tap reads for channel c at m,
        so the columns come out in ``weight.reshape(O, -1)``'s order.
        """
        plan = self._plans.get(extents)
        if plan is None:
            out_ext = self.output_extents(extents)
            padded = tuple(n + 2 * p for n, p in zip(extents, self.padding))
            starts = _flat_offsets(padded, [np.arange(m) * s for m, s in zip(out_ext, self.stride)])
            taps = _flat_offsets(padded, [np.arange(k) for k in self.kernel])
            chans = np.arange(self.in_channels) * int(np.prod(padded))
            idx = starts[:, None, None] + chans[None, :, None] + taps[None, None, :]
            plan = self._plans[extents] = (out_ext, padded, idx.reshape(len(starts), -1))
        return plan

    def _grad_plan(self, extents):
        """The input gradient's gather index for one input geometry, of shape (S, C·T·H·W).

        Column p lists, in kernel-tap order, the flat positions in one
        sample's (M, C·K) column gradient that read input position p (see
        ``_plan``), behind one leading −1 and padded with −1s to the S rows
        that the most-read position needs; −1 picks the zero the caller puts
        after the column gradients.  Summed over its first axis, a column adds
        up its taps in the order of a per-tap scatter into a zero buffer.
        """
        plan = self._grad_plans.get(extents)
        if plan is None:
            _, padded, idx = self._plan(extents)
            c, (t, h, w), (pt, ph, pw) = self.in_channels, extents, self.padding
            inside = np.full((c,) + padded, -1)  # padded position -> input position, or -1 in the padding
            inside[:, pt : pt + t, ph : ph + h, pw : pw + w] = np.arange(c * t * h * w).reshape(c, t, h, w)
            m, ck = idx.shape
            tap_major = (2, 0, 1)  # the (M, C, K) columns listed tap by tap
            src = np.arange(m * ck).reshape(m, c, -1).transpose(tap_major).ravel()
            dst = inside.ravel()[idx.reshape(m, c, -1).transpose(tap_major).ravel()]
            order = np.argsort(dst, kind="stable")[np.count_nonzero(dst < 0) :]
            src, dst = src[order], dst[order]
            counts = np.bincount(dst, minlength=c * t * h * w)
            rank = np.arange(len(dst)) - (np.cumsum(counts) - counts)[dst]
            plan = np.full((1 + counts.max(), c * t * h * w), -1)
            plan[1 + rank, dst] = src
            self._grad_plans[extents] = plan
        return plan

    def __call__(self, x: Tensor) -> Tensor:
        return conv3d_forward(self, x)


def _flat_offsets(extents, coords):
    """Row-major flat offsets in a volume of ``extents`` for the grid of per-axis ``coords``."""
    _, h, w = extents
    t_, h_, w_ = coords
    return ((t_[:, None, None] * h + h_[None, :, None]) * w + w_[None, None, :]).ravel()


def conv3d_forward(layer: Conv3dLayer, x: Tensor) -> Tensor:
    """Strided 3D cross-correlation as one gather and one GEMM (im2col).

    The layer caches, per input extents, a gather index into the flattened
    zero-padded input (see ``Conv3dLayer._plan``).  The forward pass writes
    the input into a zero buffer, gathers the (N·M, C·K) column matrix in one
    ``np.take`` and multiplies it by ``weight.reshape(O, -1).T`` in a single
    GEMM.  The node keeps no column matrix: backward gathers the same columns
    again from ``x`` and forms the weight gradient as one GEMM over the N·M
    rows, and the bias gradient as one sum.  The input gradient is built only when
    ``x`` required a gradient at forward time (a data chunk never does): the
    column gradient's GEMM writes in front of one zero, and each sample's
    input gradient is one ``np.take`` through the cached gather plan
    (``Conv3dLayer._grad_plan``) and one sum over its tap axis.  That adds
    every input position's taps in (i, j, k) order from zero, as scattering
    the columns back one kernel tap at a time would.

    Numerics: the GEMM shapes decide BLAS's blocking, so forward outputs and
    weight gradients can differ from a differently shaped product at the
    dtype's rounding level; input gradients do not depend on that blocking.
    """
    if x.ndim != 5:
        raise ValueError(f"conv3d expects (N, C, T, H, W), got shape {x.shape}")
    if x.shape[1] != layer.in_channels:
        raise ValueError(f"conv3d channel mismatch: input {x.shape[1]}, layer {layer.in_channels}")
    n, _, t, h, wd = x.shape
    out_ext, _, idx = layer._plan((t, h, wd))
    w, b = layer.weight, layer.bias
    o = layer.out_channels
    m = idx.shape[0]

    xp, cols = _columns(layer, x.data)  # xp lives as long as cols: the free order sets how glibc reuses the heap
    wmat = w.data.reshape(o, -1)
    out = cols @ wmat.T
    out += b.data
    out = np.ascontiguousarray(out.reshape(n, m, o).transpose(0, 2, 1)).reshape((n, o) + out_ext)
    input_grad = x.requires_grad

    def vjp(g):
        gmat = g.reshape(n, o, m).transpose(0, 2, 1).reshape(n * m, o)
        gw = (gmat.T @ _columns(layer, x.data)[1]).reshape(w.shape)
        gb = g.sum(axis=(0, 2, 3, 4))
        if not input_grad:
            return (None, gw, gb)
        per_sample = m * wmat.shape[1]
        gcols = np.empty(n * per_sample + 1, dtype=np.result_type(gmat, wmat))
        gcols[-1] = 0.0  # what a −1 in the plan reads
        np.matmul(gmat, wmat, out=gcols[:-1].reshape(n * m, -1))
        plan = layer._grad_plan((t, h, wd))
        gx = np.empty((n, plan.shape[1]), dtype=x.dtype)
        for i in range(n):
            np.take(gcols[i * per_sample :], plan).sum(axis=0, out=gx[i])
        return (gx.reshape(x.shape), gw, gb)

    return Tensor._make(out, (x, w, b), vjp)


def _columns(layer: Conv3dLayer, x: np.ndarray):
    """(N, C, T, H, W) ``x`` zero-padded, and its (N·M, C·K) im2col matrix gathered by ``layer._plan``."""
    n, c, t, h, wd = x.shape
    _, padded, idx = layer._plan((t, h, wd))
    pt, ph, pw = layer.padding
    xp = np.zeros((n, c) + padded, dtype=x.dtype)
    xp[:, :, pt : pt + t, ph : ph + h, pw : pw + wd] = x
    return xp, np.take(xp.reshape(n, -1), idx, axis=1).reshape(n * idx.shape[0], -1)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``: one tape node whose backward is y·(g − Σ g·y)."""
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return Tensor._make(y, (x,), lambda g: (_softmax_vjp(g, y, axis),))


def _softmax_vjp(g, y, axis):
    gy = g * y
    gy -= y * gy.sum(axis=axis, keepdims=True)
    return gy


def layernorm(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine; one tape node.

    Backward keeps only the normalized input ``xhat`` and the per-row std.
    """
    xhat, std = _normalized(x.data)
    y = _into_first(np.add, xhat * gain.data, shift.data)
    needs = (x.requires_grad, gain.requires_grad, shift.requires_grad)

    def vjp(g):
        gx = _normalized_vjp(g, xhat, std, gain.data) if needs[0] else None
        ggain = _unbroadcast(g * xhat, gain.shape) if needs[1] else None
        gshift = _unbroadcast(g, shift.shape) if needs[2] else None
        return (gx, ggain, gshift)

    return Tensor._make(y, (x, gain, shift), vjp)


def _normalized(x: np.ndarray):
    """(xhat, std): ``x`` at zero mean and unit variance over its last axis, and the per-row std."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    # eps 1e-5 enters as a default-dtype array, as an operand of a composed op would
    std = (xhat * xhat).mean(axis=-1, keepdims=True) + np.asarray(1e-5, dtype=default_dtype())
    np.sqrt(std, out=std)
    return _into_first(np.divide, xhat, std), std


def _normalized_vjp(g, xhat, std, gain):
    """The input gradient of xhat·gain + shift from the gradient ``g`` of its output."""
    gxhat = g * gain
    gx = gxhat - gxhat.mean(axis=-1, keepdims=True)
    gx -= xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
    gx /= std
    return gx


def _into_first(ufunc, a, b):
    """ufunc(a, b), written over ``a`` when that keeps the result dtype numpy would pick."""
    return ufunc(a, b, out=a if np.result_type(a, b) == a.dtype else None)


def _heads(x: np.ndarray, heads: int, axes=(0, 2, 1, 3)) -> np.ndarray:
    """A view of (N, L, D) ``x`` as (N, L, heads, D/heads) with its axes in ``axes``'s order."""
    n, l, dim = x.shape
    return x.reshape(n, l, heads, dim // heads).transpose(axes)


def _joined(parts, heads: int, axes=(0, 2, 1, 3)) -> np.ndarray:
    """The (N, L, D) arrays ``parts`` joined along L and split into heads, as one C-ordered array."""
    x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    return np.ascontiguousarray(_heads(x, heads, axes))


def _merged(gh: np.ndarray, parts) -> list:
    """The (N, L, D) gradient of each of ``parts`` from the (N, heads, ΣL, d) gradient of their join."""
    n, heads, _, d = gh.shape
    bounds = np.cumsum([t.shape[1] for t in parts])[:-1]
    return [x.transpose(0, 2, 1, 3).reshape(n, -1, heads * d) for x in np.split(gh, bounds, axis=2)]


def _turned(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """(N, L, heads·d) ``x`` turned by the last L rows of the (·, d) ``cos`` and ``sin``.

    y = x·cos + swap(x)·sin, where swap exchanges the halves of each head's
    d features; the result is a new array.
    """
    n, l, dim = x.shape
    d = cos.shape[-1]
    x = x.reshape(n, l, dim // d, d)
    swapped = np.concatenate([x[..., d // 2 :], x[..., : d // 2]], axis=-1)
    swapped *= sin[-l:, None]
    swapped += x * cos[-l:, None]
    return swapped.reshape(n, l, dim)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, memory=None, rope=None) -> Tensor:
    """Multi-head softmax(q·kᵀ/√d)·v over (N, L, D) projections as one tape node.

    ``memory`` is an optional (K, V) pair of (N, Lm, D) keys and values put
    in front of ``k`` and ``v``: rows that are read but never queried, whose
    keys arrive already turned (``AttentionLayer.keys_values``).  ``rope`` is an
    optional (cos, sin) pair of (Lk, d) arrays for the rows of ``k``, whose
    last Lq rows are the queries (see ``rotate``); the node turns q and k by
    it on the way into its head-split copies.  The node splits D into
    ``heads`` heads of d features, scales q by 1/√d and overwrites the
    (N, heads, Lq, Lk) scores s with e = exp(s − max s); the output is
    (e·v) / Σe with the heads merged, so the division touches the (Lq, d)
    output rather than the scores.  It keeps only each row's max s and Σe.
    Backward rebuilds the turned, head-split operands from its parents
    ``(q, k, v[, K, V])``, recomputes e from them with the forward's own
    expression, so bitwise, and turns e into the probabilities and then, in
    place, into the scores' gradient; the q and key operands of that rebuild
    serve the gradients of k and q, which it turns back.
    """
    keys, values = ((k,), (v,)) if memory is None else ((memory[0], k), (memory[1], v))
    scale = float(1.0 / np.sqrt(q.shape[-1] // heads))

    def turned(x: Tensor) -> np.ndarray:
        return x.data if rope is None else _turned(x.data, *rope)

    def keys_data():
        return [t.data for t in keys[:-1]] + [turned(k)]

    e = (_joined([turned(q)], heads) * scale) @ _joined(keys_data(), heads, (0, 2, 3, 1))
    top = e.max(axis=-1, keepdims=True)
    e -= top
    np.exp(e, out=e)
    denom = e.sum(axis=-1, keepdims=True)
    out = e @ _joined([t.data for t in values], heads)
    out /= denom

    def vjp(g):
        qh, kd = _joined([turned(q)], heads), keys_data()
        p = (qh * scale) @ _joined(kd, heads, (0, 2, 3, 1))  # the forward's e, rebuilt bitwise
        p -= top
        np.exp(p, out=p)
        p /= denom
        gh = _heads(g, heads)
        gv = _merged(np.swapaxes(p, -1, -2) @ gh, values)
        gs = gh @ np.swapaxes(_joined([t.data for t in values], heads), -1, -2)  # the gradient of p
        gs *= p  # and from here the gradient of the scores: p·(gp − Σ gp·p)
        p *= gs.sum(axis=-1, keepdims=True)
        gs -= p
        gs *= scale
        gq = _merged(gs @ _joined(kd, heads), (q,))[0]
        gk = _merged(np.swapaxes(gs, -1, -2) @ qh, keys)
        if rope is not None:
            cos, sin = rope
            gq, gk[-1] = _turned(gq, cos, -sin), _turned(gk[-1], cos, -sin)
        return (gq, gk[-1], gv[-1], *gk[:-1], *gv[:-1])

    return Tensor._make(_merged(out, (q,))[0], (q, k, v, *(memory or ())), vjp)


class AttentionLayer:
    """Multi-head attention: ``wq``/``wk``/``wv``, one ``attention`` node that also turns q and k, then ``wo``."""

    def __init__(self, model_dim, head_count, rng):
        if model_dim % head_count != 0:
            raise ValueError(f"model_dim {model_dim} not divisible by {head_count} heads")
        self.model_dim = model_dim
        self.head_count = head_count
        self.wq = Linear(model_dim, model_dim, rng)
        self.wk = Linear(model_dim, model_dim, rng)
        self.wv = Linear(model_dim, model_dim, rng)
        self.wo = Linear(model_dim, model_dim, rng)

    def keys_values(self, tokens: Tensor, rope=None):
        """Keys and values of ``tokens`` (N, L, model_dim), heads not split; a ``rope`` pair turns the keys."""
        k = self.wk(tokens)
        return (k if rope is None else rotate(k, *rope)), self.wv(tokens)

    def __call__(self, q_tokens: Tensor, kv_tokens: Tensor | None = None, memory=None, rope=None) -> Tensor:
        """Attention of ``q_tokens`` over ``kv_tokens`` (default: ``q_tokens`` itself).

        ``memory`` is an optional (K, V) pair from ``keys_values``, put in front
        of the keys and values of ``kv_tokens``: rows read but never queried.
        An optional ``rotate`` pair ``rope`` turns ``kv_tokens``' rows, whose
        last are the queries, inside the ``attention`` node.
        """
        kv_tokens = q_tokens if kv_tokens is None else kv_tokens
        if q_tokens.shape[-1] != self.model_dim or kv_tokens.shape[-1] != self.model_dim:
            raise ValueError(
                f"attention dim mismatch: tokens {q_tokens.shape[-1]}/{kv_tokens.shape[-1]}, "
                f"model_dim {self.model_dim}"
            )
        if q_tokens.shape[-2] == 0 or kv_tokens.shape[-2] == 0:
            raise ValueError("attention requires non-empty token sets")
        q, k, v = self.wq(q_tokens), self.wk(kv_tokens), self.wv(kv_tokens)
        return self.wo(attention(q, k, v, self.head_count, memory, rope))

    def named_parameters(self, prefix):
        out = {}
        for key in ("wq", "wk", "wv", "wo"):
            out.update(getattr(self, key).named_parameters(f"{prefix}.{key}"))
        return out


def rotate(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary positions: turn each head's feature pairs (i, i + d/2) of (N, L, heads·d) ``x``; one tape node.

    ``cos`` and ``sin`` are (L, d), the same in every head: cos θ twice, and
    −sin θ then sin θ, so y = x·cos + swap(x)·sin, where swap exchanges the
    halves of each head.  The backward is the same turn by −θ.
    """
    return Tensor._make(_turned(x.data, cos, sin), (x,), lambda g: (_turned(g, cos, -sin),))


class Embedding:
    """Learned lookup table of shape (vocab, dim)."""

    def __init__(self, vocab, dim, rng):
        self.table = _param(rng.normal(0.0, 0.02, size=(vocab, dim)))

    def __call__(self, idx) -> Tensor:
        """The rows of the integer codes ``idx``; a code outside [0, vocab) or of a non-integer
        dtype raises ``ValueError``, not wraps or truncates."""
        idx, vocab = np.asarray(idx), self.table.shape[0]
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"codes must be integers, got dtype {idx.dtype}")
        bad = idx[(idx < 0) | (idx >= vocab)]
        if bad.size:
            raise ValueError(f"code {bad[0]} is outside the vocabulary of {vocab} codes [0, {vocab})")
        return self.table[idx]

    def named_parameters(self, prefix):
        return {f"{prefix}.table": self.table}


def sinusoidal_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Classic sin/cos embedding of scalar timesteps; returns (N, dim) in the default dtype.

    Angles are computed in float64 and rounded once at the end.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t[:, None] * freqs[None, :] * 1000.0
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(default_dtype())


class Adam:
    """Standard Adam with in-place updates on parameter data.

    ``params`` is a name -> parameter mapping, or a sequence of parameters
    named by their position; checkpointed moments are keyed by those names.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8  # the textbook betas and epsilon

    def __init__(self, params, lr=1e-3):
        items = params.items() if isinstance(params, dict) else enumerate(params)
        named = [(str(name), p) for name, p in items if p.requires_grad]
        self.names = [name for name, _ in named]
        self.params = [p for _, p in named]
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One update of every parameter with a gradient, moments and data in place."""
        self.step_count += 1
        t = self.step_count
        for m, v, p in zip(self.m, self.v, self.params):
            g = p.grad
            if g is None:
                continue
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            g2 = g * g
            g2 *= 1 - self.b2
            v += g2
            denom = np.sqrt(v / (1 - self.b2**t))
            denom += self.eps
            update = m / (1 - self.b1**t)
            update *= self.lr
            update /= denom
            p.data -= update.astype(p.data.dtype, copy=False)

    def state_arrays(self):
        """Flat name->array mapping for checkpointing: ``adam.m.<name>``, ``adam.v.<name>``.

        The moments are copies: a later ``step`` updates the optimizer's own in place.
        """
        out = {"adam.step": np.asarray([self.step_count], dtype=np.float64)}
        for name, m, v in zip(self.names, self.m, self.v):
            out[f"adam.m.{name}"] = m.copy()
            out[f"adam.v.{name}"] = v.copy()
        return out

    def load_state_arrays(self, arrays):
        """Restore the moments by parameter name, cast to each parameter's dtype.

        Raises ``ValueError`` unless each of the ``adam.m`` and ``adam.v``
        tables names exactly this optimizer's parameters, each moment with its
        parameter's shape.
        """
        for prefix in ("adam.m.", "adam.v."):
            saved = {k[len(prefix):] for k in arrays if k.startswith(prefix)}
            missing = [name for name in self.names if name not in saved]
            extra = sorted(saved - set(self.names))
            if missing or extra:
                raise ValueError(f"optimizer state lacks {missing[:3]} and has unknown {extra[:3]} in {prefix}*")
            for name, p in zip(self.names, self.params):
                shape = arrays[prefix + name].shape
                if shape != p.data.shape:
                    raise ValueError(
                        f"optimizer state {name} has shape {shape} in {prefix}*, its parameter {p.data.shape}"
                    )
        self.step_count = int(arrays["adam.step"][0])
        self.m = [arrays[f"adam.m.{n}"].astype(p.data.dtype) for n, p in zip(self.names, self.params)]
        self.v = [arrays[f"adam.v.{n}"].astype(p.data.dtype) for n, p in zip(self.names, self.params)]
