"""Diffusion transformer: tokenization, zero-init heads, adapters, variants."""

import numpy as np
import pytest

from memctx import seeding, training
from memctx.compressor import CompressionRate
from memctx.dit import DiTModel, large_patchifier_variant
from memctx.tensor import Tensor, no_grad


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
        ctx = enc.compress(hist)
        v = g.predict_velocity(_clip(3), 0.5, c=1, ctx=ctx, frame_indices=[4, 9]).numpy()
    assert np.all(v == 0.0)


def test_forward_deterministic_and_shaped():
    enc, g = training.build_models(0)
    g.out_proj.weight.data[:] = np.random.default_rng(3).normal(0, 0.05, g.out_proj.weight.shape)
    hist = np.random.default_rng(4).normal(size=(24, 8, 8, 4)).astype(np.float32)
    x = _clip(5, n=2)
    with no_grad():
        ctx = enc.compress(hist)
        a = g.predict_velocity(x, [0.4, 0.9], c=[1, 2], ctx=ctx, frame_indices=[4, 9]).numpy()
        b = g.predict_velocity(x, [0.4, 0.9], c=[1, 2], ctx=ctx, frame_indices=[4, 9]).numpy()
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
    kw = dict(ctx=ctx, frame_indices=[4, 9], window_latents=hist[-2:], window_frame_indices=[22, 23])
    taped = g.predict_velocity(x, 0.8, 1, **kw)
    with no_grad():
        fused = g.predict_velocity(x, 0.8, 1, **kw)
    assert taped.requires_grad and not fused.requires_grad
    assert np.any(fused.numpy() != 0.0)
    assert np.array_equal(fused.numpy(), taped.numpy())


def test_forward_validation():
    g = _model()
    with pytest.raises(ValueError, match="timestep"):
        g.predict_velocity(_clip(0), 0.0, c=0)
    with pytest.raises(ValueError, match="frame index"):
        g.predict_velocity(_clip(0), 0.5, c=0, frame_indices=[1, 2, 3])
    with pytest.raises(ValueError, match="cross-attention"):
        g.predict_velocity(_clip(0), 0.5, c=0, encoder_penultimate=Tensor(np.zeros((1, 4, 64))))


def test_context_changes_output_after_head_unlock():
    enc, g = training.build_models(0)
    g.out_proj.weight.data[:] = np.random.default_rng(6).normal(0, 0.05, g.out_proj.weight.shape)
    h1 = np.random.default_rng(7).normal(size=(24, 8, 8, 4)).astype(np.float32)
    h2 = np.random.default_rng(8).normal(size=(24, 8, 8, 4)).astype(np.float32)
    x = _clip(9)
    with no_grad():
        v1 = g.predict_velocity(x, 0.5, 0, ctx=enc.compress(h1), frame_indices=[0, 1]).numpy()
        v2 = g.predict_velocity(x, 0.5, 0, ctx=enc.compress(h2), frame_indices=[0, 1]).numpy()
    assert not np.array_equal(v1, v2)


# -- step-0 adapter identities ---------------------------------------------------------


def test_lora_is_exact_identity_at_enable():
    """Wrapping every linear with adapters must not change the function."""
    enc, g = training.build_models(1)
    g.out_proj.weight.data[:] = np.random.default_rng(10).normal(0, 0.05, g.out_proj.weight.shape)
    hist = np.random.default_rng(11).normal(size=(24, 8, 8, 4)).astype(np.float32)
    x = _clip(12)
    with no_grad():
        ctx = enc.compress(hist)
        before = g.predict_velocity(x, 0.7, 3, ctx=ctx, frame_indices=[2, 5]).numpy()
        g.enable_lora(rank=4, rng=seeding.stream(2, 0xAB))
        after = g.predict_velocity(x, 0.7, 3, ctx=ctx, frame_indices=[2, 5]).numpy()
    assert np.array_equal(before, after)
    with pytest.raises(ValueError, match="already"):
        g.enable_lora(rank=4, rng=seeding.stream(3, 0xAB))


def test_cross_attention_is_exact_noop_at_init():
    """The zero-initialized cross-attention enhancement adds exactly nothing."""
    enc, g = training.build_models(2, cross_attn=True)
    g.out_proj.weight.data[:] = np.random.default_rng(13).normal(0, 0.05, g.out_proj.weight.shape)
    hist = np.random.default_rng(14).normal(size=(24, 8, 8, 4)).astype(np.float32)
    x = _clip(15)
    kv = Tensor(np.random.default_rng(16).normal(size=(1, 6, 64)).astype(np.float32))
    with no_grad():
        ctx = enc.compress(hist)
        plain = g.predict_velocity(x, 0.6, 1, ctx=ctx, frame_indices=[3, 8]).numpy()
        enhanced = g.predict_velocity(
            x, 0.6, 1, ctx=ctx, frame_indices=[3, 8], encoder_penultimate=kv
        ).numpy()
    assert np.array_equal(plain, enhanced)


# -- enlarged-patchifier variant -------------------------------------------------------


def test_large_patchifier_token_budget_matches_rate():
    _, g = training.build_models(3, arch="large_patchifier", rate=(4, 4, 2))
    kernel, proj = g.hist_patch
    assert int(np.prod(kernel)) == CompressionRate(4, 4, 2).volume
    hist = np.random.default_rng(17).normal(size=(24, 8, 8, 4)).astype(np.float32)
    from memctx.dit import _kernel_patchify

    with no_grad():
        tokens = _kernel_patchify(hist, kernel, proj)
    assert tokens.shape[1] == (24 // kernel[0]) * (8 // kernel[1]) * (8 // kernel[2])


def test_large_patchifier_volume_mismatch_rejected():
    g = _model()
    with pytest.raises(ValueError, match="reduces by"):
        large_patchifier_variant(g, (2, 2, 2), CompressionRate(4, 4, 2), seeding.stream(0, 1))


def test_large_patchifier_forward_runs():
    _, g = training.build_models(4, arch="large_patchifier", rate=(4, 4, 2))
    hist = np.random.default_rng(18).normal(size=(1, 24, 8, 8, 4)).astype(np.float32)
    with no_grad():
        v = g.predict_velocity(_clip(19), 0.5, 0, frame_indices=[2, 7], raw_history=hist)
    assert v.shape == (1, 2, 8, 8, 4)


# -- multi-encoder context positioning -----------------------------------------------


def test_ctx_positions_accept_combined_contexts():
    from memctx.compressor import EncoderModel, combine_contexts

    hist = np.random.default_rng(20).normal(size=(24, 8, 8, 4)).astype(np.float32)
    enc_a = EncoderModel(CompressionRate(4, 4, 2), seeding.stream(0, 0xE6C))
    enc_b = EncoderModel(CompressionRate(2, 2, 2), seeding.stream(1, 0xE6C), encoder_id=1)
    g = _model()
    g.out_proj.weight.data[:] = np.random.default_rng(21).normal(0, 0.05, g.out_proj.weight.shape)
    with no_grad():
        ctx = combine_contexts([enc_a.compress(hist), enc_b.compress(hist)])
        v = g.predict_velocity(_clip(22), 0.5, 0, ctx=ctx, frame_indices=[1, 6])
    assert v.shape == (1, 2, 8, 8, 4)
