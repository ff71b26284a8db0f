"""Diffusion transformer: tokenization, zero-init heads, adapters, variants."""

from types import SimpleNamespace

import numpy as np
import pytest

from memctx import data, diffusion, nn, seeding, training
from memctx.compressor import CompressedContext, CompressionRate, Provenance
from memctx.dit import DiTModel, _adaln, _gated
from memctx.tensor import Tensor, _unbroadcast, backward, concat, default_dtype, no_grad, using_dtype

from test_tensor import check_grads, tape_nodes


def _model(seed=0, **kw):
    return DiTModel(seeding.stream(seed, 0xD17), **kw)


def _clip(seed, n=1, t=2, h=8, w=8, c=4):
    return np.random.default_rng(seed).normal(size=(n, t, h, w, c)).astype(np.float32)


# -- tokenization -----------------------------------------------------------------


def test_patchify_matches_manual_reshape():
    g = _model()
    x = _clip(0)
    n, t, h, w, c = x.shape
    pt, ph, pw = g.patch
    manual = (
        x.reshape(n, t // pt, pt, h // ph, ph, w // pw, pw, c)
        .transpose(0, 1, 3, 5, 2, 4, 6, 7)
        .reshape(n, (t // pt) * (h // ph) * (w // pw), pt * ph * pw * c)
    )
    with no_grad():
        tokens = g.patchify(x).numpy()
        expected = g.patch_proj(Tensor(manual)).numpy()
    assert np.allclose(tokens, expected, atol=1e-6)


def test_unpatchify_inverts_patch_layout():
    g = _model()
    x = _clip(1)
    n, t, h, w, c = x.shape
    pt, ph, pw = g.patch
    pre = (
        x.reshape(n, t // pt, pt, h // ph, ph, w // pw, pw, c)
        .transpose(0, 1, 3, 5, 2, 4, 6, 7)
        .reshape(n, -1, pt * ph * pw * c)
    )
    with no_grad():
        back = g._unpatchify(Tensor(pre), x.shape).numpy()
    assert np.allclose(back, x, atol=1e-7)


def test_grid_validation():
    g = _model()
    with pytest.raises(ValueError, match="channels"):
        g.patchify(_clip(0, c=3))
    with pytest.raises(ValueError, match="H"):
        g.patchify(_clip(0, h=7))


# -- forward basics ---------------------------------------------------------------


def test_velocity_zero_at_init():
    """The output head starts at zero, making the initial field exactly zero."""
    enc, g = training.build_models(0)
    hist = np.random.default_rng(2).normal(size=(24, 8, 8, 4)).astype(np.float32)
    with no_grad():
        memory = g.read_memory(enc.compress(hist), (8, 8))
        v = g.predict_velocity(_clip(3), 0.5, 1, memory, g.row_rope((1, 2, 8, 8, 4), [4, 9])).numpy()
    assert np.all(v == 0.0)


def test_forward_deterministic_and_shaped():
    enc, g = training.build_models(0)
    g.out_proj.weight.data[:] = np.random.default_rng(3).normal(0, 0.05, g.out_proj.weight.shape)
    hist = np.random.default_rng(4).normal(size=(24, 8, 8, 4)).astype(np.float32)
    x = _clip(5, n=2)
    with no_grad():
        memory = g.read_memory(enc.compress(np.stack([hist] * 2)), (8, 8))
        rope = g.row_rope(x.shape, [4, 9])
        a = g.predict_velocity(x, [0.4, 0.9], [1, 2], memory, rope).numpy()
        b = g.predict_velocity(x, [0.4, 0.9], [1, 2], memory, rope).numpy()
    assert a.shape == x.shape
    assert np.array_equal(a, b)


def test_no_grad_forward_equals_taped_forward_bitwise():
    """The fused no-tape kernels reproduce the taped forward exactly."""
    enc, g = training.build_models(0)
    rng = np.random.default_rng(23)
    # unlock the zero-initialized velocity head and modulation so the output is not trivially zero
    g.out_proj.weight.data[:] = rng.normal(0, 0.05, g.out_proj.weight.shape)
    for block in g.blocks:
        block.mod.weight.data[:] = rng.normal(0, 0.05, block.mod.weight.shape)
    hist = rng.normal(size=(24, 8, 8, 4)).astype(np.float32)
    x = _clip(24)
    with no_grad():
        ctx = enc.compress(hist)
    # a window on frames 2 and 3, just before the targets at 4 and 9
    args = (g.read_memory(ctx, (8, 8)), g.row_rope(x.shape, [4, 9], 2), hist[None, -2:])
    taped = g.predict_velocity(x, 0.8, 1, *args)
    with no_grad():
        fused = g.predict_velocity(x, 0.8, 1, *args)
    assert taped.requires_grad and not fused.requires_grad
    assert np.any(fused.numpy() != 0.0)
    assert np.array_equal(fused.numpy(), taped.numpy())


class _JointLastBlock:
    """The last block run on every token, then sliced: the reference for a query-limited block."""

    def __init__(self, block):
        self.block = block
        self.ln1, self.attn = block.ln1, block.attn  # what the memory read uses

    def __call__(self, x, temb, memory, rope, n_query=None):
        out = self.block(x, temb, memory, rope)
        return out if n_query is None else out[:, -n_query:]


@pytest.mark.parametrize("dtype,tol", [("float64", 1e-12), ("float32", 1e-5)])
def test_target_only_last_block_matches_the_joint_forward(dtype, tol):
    """Querying only the target rows in the last block changes velocities and every
    parameter's gradient by rounding only; batch 2 with a context and a window."""
    with using_dtype(dtype):
        enc, g = training.build_models(0)
        rng = np.random.default_rng(24)
        g.out_proj.weight.data[:] = rng.normal(0, 0.05, g.out_proj.weight.shape)
        for block in g.blocks:
            block.mod.weight.data[:] = rng.normal(0, 0.05, block.mod.weight.shape)
        named = training.named_params(enc, g)
        hist = rng.normal(size=(24, 8, 8, 4))
        x = _clip(25, n=2)
        probe = Tensor(rng.normal(size=x.shape))

        def forward_and_grads():
            for p in named.values():
                p.grad = None
            memory = g.read_memory(enc.compress(np.stack([hist] * 2)), (8, 8))
            rope = g.row_rope(x.shape, [4, 9], 2)
            v = g.predict_velocity(x, [0.4, 0.9], [1, 2], memory, rope, np.stack([hist[-2:]] * 2))
            backward((v * probe).sum())
            return v.numpy(), {name: p.grad for name, p in named.items()}

        v, grads = forward_and_grads()
        g.blocks[-1] = _JointLastBlock(g.blocks[-1])
        v_joint, grads_joint = forward_and_grads()
    assert v.dtype == np.dtype(dtype) and np.abs(v).max() > 0.1
    np.testing.assert_allclose(v, v_joint, rtol=tol, atol=tol)
    assert all(grads_joint[name] is not None for name in named)
    for name in named:
        np.testing.assert_allclose(grads[name], grads_joint[name], rtol=tol, atol=tol, err_msg=name)


def test_forward_validation():
    g = _model()
    with pytest.raises(ValueError, match="timestep"):
        g.predict_velocity(_clip(0), 0.0, 0, None, g.row_rope((1, 2, 8, 8, 4), [0, 1]))
    with pytest.raises(ValueError, match="frame index"):
        g.row_rope((1, 2, 8, 8, 4), [1, 2, 3])
    with pytest.raises(ValueError, match="4 heads of a multiple of 8 features"):
        _model(inner_dim=48)  # heads of 12 features cannot split their pairs in half and quarters


def test_context_changes_output_after_head_unlock():
    enc, g = training.build_models(0)
    g.out_proj.weight.data[:] = np.random.default_rng(6).normal(0, 0.05, g.out_proj.weight.shape)
    h1 = np.random.default_rng(7).normal(size=(24, 8, 8, 4)).astype(np.float32)
    h2 = np.random.default_rng(8).normal(size=(24, 8, 8, 4)).astype(np.float32)
    x = _clip(9)
    rope = g.row_rope(x.shape, [0, 1])
    with no_grad():
        v1 = g.predict_velocity(x, 0.5, 0, g.read_memory(enc.compress(h1), (8, 8)), rope).numpy()
        v2 = g.predict_velocity(x, 0.5, 0, g.read_memory(enc.compress(h2), (8, 8)), rope).numpy()
    assert not np.array_equal(v1, v2)


# -- adaLN modulation --------------------------------------------------------------


def _modulate(h, mod, scale_index, shift_index=None):
    """h·(mod[:, :, scale_index] + 1) + mod[:, :, shift_index], shift optional, as one tape node:
    the block's modulation before layernorm and the residual add were fused into it."""
    scale = mod.data[:, :, scale_index]
    s1 = scale + np.asarray(1.0, dtype=default_dtype())
    y = h.data * s1
    if shift_index is not None:
        y = y + mod.data[:, :, shift_index]

    def vjp(g):
        gmod = np.zeros(mod.shape, dtype=g.dtype)
        gmod[:, :, scale_index] = _unbroadcast(g * h.data, scale.shape)
        if shift_index is not None:
            gmod[:, :, shift_index] = _unbroadcast(g, scale.shape)
        return (g * s1, gmod)

    return Tensor._make(y, (h, mod), vjp)


def test_modulate_gradients_with_and_without_shift():
    """``_adaln`` (scale and shift) and ``_gated`` (scale only) against float64 central differences."""
    rng = np.random.default_rng(31)
    x, h, mod = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 1, 6, 4))
    gain, shift = rng.normal(size=4), rng.normal(size=4)
    w = Tensor(rng.normal(size=(2, 3, 4)))

    def adaln_loss(x, gain, shift, mod):
        return (_adaln(x, SimpleNamespace(gain=gain, shift=shift), mod, 1, 0) * w).sum().square()

    check_grads(adaln_loss, x, gain, shift, mod)
    check_grads(lambda x, h, mod: (_gated(x, h, mod, 2) * w).sum().square(), x, h, mod)


def test_modulate_records_one_node_and_matches_the_composed_expression():
    """``_adaln`` is layernorm then ``_modulate`` with a shift, ``_gated`` is ``x +`` ``_modulate``
    without one: each records one node and gives the composed path's output and every
    gradient, ``mod``'s included, bitwise in float32 and float64."""
    rng = np.random.default_rng(32)
    arrays = [rng.normal(size=s) for s in ((2, 3, 8), (8,), (8,), (2, 1, 6, 8), (2, 3, 8))]
    probe = rng.normal(size=(2, 3, 8))
    cases = {  # name -> (fused, composed, the parents of the fused node)
        "adaln": (
            lambda x, gain, shift, mod, h: _adaln(x, SimpleNamespace(gain=gain, shift=shift), mod, 4, 3),
            lambda x, gain, shift, mod, h: _modulate(nn.layernorm(x, gain, shift), mod, 4, 3),
            (0, 1, 2, 3),
        ),
        "gated": (
            lambda x, gain, shift, mod, h: _gated(x, h, mod, 5),
            lambda x, gain, shift, mod, h: x + _modulate(h, mod, 5),
            (0, 4, 3),
        ),
    }
    for dtype in ("float32", "float64"):
        with using_dtype(dtype):
            for name, (fused, composed, parents) in cases.items():
                results = []
                for fn in (fused, composed):
                    leaves = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
                    out = fn(*leaves)
                    if fn is fused:
                        assert tape_nodes(out) == 1 and out._parents == tuple(leaves[i] for i in parents), name
                    backward((out * Tensor(probe.astype(dtype))).sum())
                    results.append([out.numpy()] + [leaves[i].grad for i in parents])
                for got, want in zip(*results):
                    assert got.dtype == want.dtype == np.dtype(dtype), (name, dtype)
                    assert np.array_equal(got, want), (name, dtype)


class _ComposedBlock:
    """A block's stages as separate nodes: layernorm, ``_modulate``, both rotary turns,
    attention without angles and the residual add; the reference for the fused block."""

    def __init__(self, block):
        self.block = block
        self.ln1, self.attn = block.ln1, block.attn  # what the memory read uses

    def __call__(self, x, temb, memory, rope, n_query=None):
        b, attn = self.block, self.block.attn
        mod = b.mod(temb.silu()).reshape(temb.shape[0], 1, 6, x.shape[-1])
        h = _modulate(b.ln1(x), mod, 1, 0)
        q = h
        if n_query is not None:
            x, q = x[:, -n_query:], h[:, -n_query:]
        q = nn.rotate(attn.wq(q), *(r[-q.shape[1]:] for r in rope))
        k, v = attn.keys_values(h, rope)
        x = x + _modulate(attn.wo(nn.attention(q, k, v, attn.head_count, memory)), mod, 2)
        return x + _modulate(b.fc2(b.fc1(_modulate(b.ln2(x), mod, 4, 3)).silu()), mod, 5)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fused_block_stages_equal_the_composed_block_bitwise(dtype):
    """A retrieval loss through blocks of fused stages gives the loss and every parameter's
    gradient of blocks built from the composed stages, bitwise; batch 2 with a window."""
    with using_dtype(dtype):
        enc, g = _unlocked()
        named = training.named_params(enc, g)
        hist = np.random.default_rng(33).normal(size=(2, 24, 8, 8, 4))
        omega = data.sample_omega(24, (2, 1))

        def loss_and_grads():
            for p in named.values():
                p.grad = None
            loss = diffusion.finetune_loss(g, enc, hist[:, :16], hist[:, 16:], [0, 3], seed=4,
                                           window_latents=hist[:, 12:16])
            loss = loss + diffusion.retrieval_loss(g, enc, hist, omega, [1, 2], seed=5)
            backward(loss)
            return loss.item(), {name: p.grad for name, p in named.items()}

        fused = loss_and_grads()
        g.blocks = [_ComposedBlock(b) for b in g.blocks]
        composed = loss_and_grads()
    assert fused[0] == composed[0]
    for name in named:
        assert fused[1][name].dtype == np.dtype(dtype)
        assert np.array_equal(fused[1][name], composed[1][name]), name


# -- step-0 adapter identities ---------------------------------------------------------


def test_lora_is_exact_identity_at_enable():
    """Wrapping every linear with adapters must not change the function."""
    enc, g = training.build_models(1)
    g.out_proj.weight.data[:] = np.random.default_rng(10).normal(0, 0.05, g.out_proj.weight.shape)
    hist = np.random.default_rng(11).normal(size=(24, 8, 8, 4)).astype(np.float32)
    x = _clip(12)
    with no_grad():
        ctx = enc.compress(hist)
        before = g.predict_velocity(x, 0.7, 3, g.read_memory(ctx, (8, 8)), g.row_rope(x.shape, [2, 5])).numpy()
        g.enable_lora(rank=4, rng=seeding.stream(2, 0xAB))
        after = g.predict_velocity(x, 0.7, 3, g.read_memory(ctx, (8, 8)), g.row_rope(x.shape, [2, 5])).numpy()
    assert np.array_equal(before, after)
    with pytest.raises(ValueError, match="already"):
        g.enable_lora(rank=4, rng=seeding.stream(3, 0xAB))


# -- enlarged-patchifier encoder ------------------------------------------------------


def test_large_patchifier_token_budget_matches_rate():
    """Rate-sized blocks times one linear map, one token per block, in provenance order."""
    enc, _ = training.build_models(3, rate=(4, 4, 2), variant="large_patchifier")
    hist = np.random.default_rng(17).normal(size=(24, 8, 8, 4)).astype(np.float32)
    with no_grad():
        ctx = enc.compress(hist)
    kt, kh, kw = 2, 4, 4  # (r_t, r_h, r_w)
    blocks = (
        hist.reshape(24 // kt, kt, 8 // kh, kh, 8 // kw, kw, 4)
        .transpose(0, 2, 4, 1, 3, 5, 6)
        .reshape(-1, kt * kh * kw * 4)
    )
    oracle = blocks @ enc.patch_proj.weight.numpy().T + enc.patch_proj.bias.numpy()
    assert ctx.tokens.shape == (1, 24 * 8 * 8 // CompressionRate(4, 4, 2).volume, 64)
    assert np.allclose(ctx.tokens.numpy()[0], oracle, atol=1e-6)
    assert enc.parameters() == [enc.patch_proj.weight, enc.patch_proj.bias]


# -- rotary positions -------------------------------------------------------------------


@pytest.mark.parametrize("delta", [100, 4000])
def test_rotary_scores_depend_only_on_the_frame_offset(delta):
    """Target queries score the memory keys and the target keys alike when target frames and
    provenance t0 shift by ``delta``, to 1e-6 of the largest score.  Angles are float64 until
    the cast: with float32 angles the scores move by ~1e-5 of it at delta 4000 (a float32 ulp
    at 4,000 rad is 2.4e-4 rad).  The angles are one (L, head_dim) pair for every head.  The
    condition row is not turned, so the velocity itself still depends on the absolute frame
    through its scores with the condition row."""
    enc, g = training.build_models(0)
    hist = np.random.default_rng(47).normal(size=(24, 8, 8, 4)).astype(np.float32)
    with no_grad():
        ctx = enc.compress(hist)
    rng = np.random.default_rng(48)
    q, k = (Tensor(rng.normal(size=(1, 8 * 16, g.inner_dim)).astype(np.float32)) for _ in range(2))

    def heads(t):
        return t.numpy().reshape(1, -1, 4, 16).transpose(0, 2, 1, 3)

    def scores(d):
        records = ctx.provenance.records.copy()
        records[:, 1:3] += d
        shifted = CompressedContext(ctx.tokens, Provenance(records), ctx.span_frames + d)
        rope = g._rope(g._positions((1, 8, 8, 8, 4), list(range(16 + d, 24 + d))))
        assert all(r.shape == (8 * 16, 16) for r in rope)
        with no_grad():
            keys = [concat([mk, nn.rotate(k, *rope)], axis=1) for mk, _ in g.read_memory(shifted, (8, 8))]
            q_turned = heads(nn.rotate(q, *rope))
        return np.stack([q_turned @ heads(key).transpose(0, 1, 3, 2) for key in keys])

    base = scores(0)
    np.testing.assert_allclose(scores(delta), base, rtol=0, atol=1e-6 * np.abs(base).max())
    cos, sin = g._rope(np.zeros((3, 1), np.int64))  # the condition row's position does not turn
    assert np.all(cos == 1) and np.all(sin == 0)


def test_row_angles_place_the_window_on_the_frames_before_the_first_target():
    """``row_rope``'s rows are the unturned condition row, then a window of w latents at
    frames first - w … first - 1, then the targets at their own frames."""
    g = _model()
    shape = (1, 2, 8, 8, 4)
    cond = np.zeros((3, 1), np.int64)
    window = g._positions((3, 8, 8, 4), [7, 8, 9])
    expected = g._rope(np.concatenate([cond, window, g._positions(shape, [10, 14])], axis=1))
    for got, want in zip(g.row_rope(shape, [10, 14], 3), expected):
        assert np.array_equal(got, want)
    no_window = g._rope(np.concatenate([cond, g._positions(shape, [10, 14])], axis=1))
    for got, want in zip(g.row_rope(shape, [10, 14]), no_window):
        assert np.array_equal(got, want)


# -- read-only memory ------------------------------------------------------------------


def _unlocked(seed=0, **kw):
    """Models whose velocity head and modulation are off zero, so outputs and gradients are not trivial."""
    enc, g = training.build_models(seed, **kw)
    rng = np.random.default_rng(40 + seed)
    g.out_proj.weight.data[:] = rng.normal(0, 0.05, g.out_proj.weight.shape)
    for block in g.blocks:
        block.mod.weight.data[:] = rng.normal(0, 0.05, block.mod.weight.shape)
    return enc, g


def _attention_calls(monkeypatch):
    """Record (query rows, key/value rows, memory K and V) of every AttentionLayer call."""
    calls = []
    original = nn.AttentionLayer.__call__

    def recording(self, q_tokens, kv_tokens=None, memory=None, rope=None):
        kv = q_tokens if kv_tokens is None else kv_tokens
        calls.append((q_tokens.shape[1], kv.shape[1], memory))
        return original(self, q_tokens, kv_tokens, memory, rope)

    monkeypatch.setattr(nn.AttentionLayer, "__call__", recording)
    return calls


def test_sample_with_the_hoisted_memory_equals_the_plain_euler_loop():
    """Building the memory once per clip gives the clip an Euler loop that builds it every step gives, bitwise."""
    enc, g = _unlocked()
    hist = np.random.default_rng(41).normal(size=(24, 8, 8, 4)).astype(np.float32)
    frames = list(range(24, 32))
    with no_grad():
        ctx = enc.compress(hist)
        clip = diffusion.sample(g, ctx, 3, (8, 8, 8, 4), seed=7, steps=4, frame_indices=frames,
                                window_latents=hist[-2:])
        x = seeding.stream(7, 0x5A3B).standard_normal((8, 8, 8, 4)).astype(np.float32)
        for i in range(4):
            memory, rope = g.read_memory(ctx, (8, 8)), g.row_rope((8, 8, 8, 4), frames, 2)
            x = x - 0.25 * g.predict_velocity(x[None], 1.0 - i * 0.25, 3, memory, rope, hist[None, -2:]).numpy()[0]
    assert np.abs(clip).max() > 0
    assert np.array_equal(clip, x)


def test_sample_with_angles_hoisted_out_of_the_euler_loop_equals_the_per_step_loop(monkeypatch):
    """``sample`` builds the rows' angles once per clip; a loop that builds them at every step
    (with the same hoisted memory) gives the same clip, bitwise."""
    enc, g = _unlocked()
    hist = np.random.default_rng(49).normal(size=(24, 8, 8, 4)).astype(np.float32)
    frames = list(range(24, 32))
    builds = []
    original = DiTModel._rope

    def counting(self, positions):
        builds.append(positions.shape[1])
        return original(self, positions)

    monkeypatch.setattr(DiTModel, "_rope", counting)
    with no_grad():
        ctx = enc.compress(hist)
        clip = diffusion.sample(g, ctx, 3, (8, 8, 8, 4), seed=8, steps=4, frame_indices=frames,
                                window_latents=hist[-2:])
        assert builds == [ctx.length, 1 + 2 * 16 + 8 * 16]  # the memory's angles, then the rows'
        memory = g.read_memory(ctx, (8, 8))
        x = seeding.stream(8, 0x5A3B).standard_normal((8, 8, 8, 4)).astype(np.float32)
        for i in range(4):
            rope = g.row_rope((8, 8, 8, 4), frames, 2)
            x = x - 0.25 * g.predict_velocity(x[None], 1.0 - i * 0.25, 3, memory, rope, hist[None, -2:]).numpy()[0]
    assert len(builds) == 2 + 1 + 4
    assert np.abs(clip).max() > 0
    assert np.array_equal(clip, x)


def test_read_memory_runs_once_per_clip_and_does_not_depend_on_t(monkeypatch):
    enc, g = _unlocked()
    hist = np.random.default_rng(42).normal(size=(16, 8, 8, 4)).astype(np.float32)
    reads = []
    original = DiTModel.read_memory

    def counting(self, ctx, latent_hw):
        reads.append(ctx.length)
        return original(self, ctx, latent_hw)

    with no_grad():
        ctx = enc.compress(hist)
    monkeypatch.setattr(DiTModel, "read_memory", counting)
    calls = _attention_calls(monkeypatch)
    with no_grad():
        diffusion.sample(g, ctx, 0, (8, 8, 8, 4), seed=3, steps=8, frame_indices=list(range(16, 24)))
    assert reads == [ctx.length]
    assert len(calls) == 8 * len(g.blocks)
    # every Euler step reads the same key/value tensors
    for step in range(1, 8):
        for b in range(len(g.blocks)):
            assert calls[step * len(g.blocks) + b][2] is calls[b][2]
    # a memory built again for a call at another t is bitwise the same
    del calls[:]
    rope = g.row_rope((1, 8, 8, 8, 4), range(16, 24))
    with no_grad():
        for t in (0.9, 0.2):
            g.predict_velocity(_clip(43, t=8), t, 0, g.read_memory(ctx, (8, 8)), rope)
    for b in range(len(g.blocks)):
        for i in (0, 1):
            assert np.array_equal(calls[b][2][i].numpy(), calls[len(g.blocks) + b][2][i].numpy())


@pytest.mark.parametrize("window", [0, 2])
def test_no_block_queries_a_context_row(monkeypatch, window):
    """Blocks query the condition, window and target rows (the last block the target only);
    the context enters every block as memory keys and values alone."""
    enc, g = _unlocked()
    calls = _attention_calls(monkeypatch)
    hist = np.random.default_rng(44).normal(size=(2, 24, 8, 8, 4)).astype(np.float32)
    omega = data.sample_omega(24, (0, 1))
    ctx = enc.compress(hist)
    target = len(omega.indices) * 16  # 2x2 patches of an 8x8 frame
    rows = 1 + window * 16 + target
    x = np.zeros((2, len(omega.indices), 8, 8, 4), np.float32)
    rope = g.row_rope(x.shape, omega.indices, window)
    g.predict_velocity(x, [0.5, 0.7], [0, 1], g.read_memory(ctx, (8, 8)), rope, hist[:, -window:] if window else None)
    dit_calls = calls[-len(g.blocks):]
    assert [q for q, _, _ in dit_calls] == [rows] * (len(g.blocks) - 1) + [target]
    assert all(kv == rows for _, kv, _ in dit_calls)
    for _, _, (k, v) in dit_calls:
        assert k.shape == v.shape == (2, ctx.length, g.inner_dim)


def test_memory_gradients_reach_the_encoder_and_ln1():
    """Float64 central differences on the retrieval loss: the only route from the encoder
    to the loss is the memory keys and values, and ln1 feeds both rows and memory."""
    with using_dtype("float64"):
        enc, g = _unlocked(model_dim=16, n_blocks=2, n_heads=2)
        hist = np.random.default_rng(45).normal(size=(2, 16, 8, 8, 4))
        omega = data.sample_omega(16, (3, 1))

        def loss():
            return diffusion.retrieval_loss(g, enc, hist, omega, [0, 1], seed=5)

        backward(loss())
        probes = {
            "enc.lr_proj.w": enc.lr_proj.weight,
            "enc.conv0.w": enc.convs[0].weight,
            "enc.pos": enc.pos,
            "blocks.0.ln1.gain": g.blocks[0].ln1.gain,
            "blocks.1.ln1.shift": g.blocks[1].ln1.shift,
            "blocks.0.attn.wk.w": g.blocks[0].attn.wk.weight,
            "blocks.1.attn.wv.b": g.blocks[1].attn.wv.bias,
        }
        rng = np.random.default_rng(46)
        with no_grad():
            for name, p in probes.items():
                assert np.abs(p.grad).max() > 0, name
                flat, gflat = p.data.reshape(-1), p.grad.reshape(-1)
                for i in rng.choice(flat.size, size=3, replace=False):
                    orig = flat[i]
                    flat[i] = orig + 1e-5
                    hi = loss().item()
                    flat[i] = orig - 1e-5
                    lo = loss().item()
                    flat[i] = orig
                    numeric = (hi - lo) / 2e-5
                    assert abs(gflat[i] - numeric) <= 1e-5 * max(abs(gflat[i]), abs(numeric), 1e-8), (name, i)
