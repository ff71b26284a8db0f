"""Compression encoder: rates, variants, provenance, and streaming equality."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memctx import seeding
from memctx.compressor import VARIANTS, CompressedContext, CompressionRate, EncoderModel, Provenance
from memctx.tensor import Tensor, no_grad


def _history(seed, t=24, h=8, w=8, c=4, batch=None):
    rng = np.random.default_rng(seed)
    shape = (t, h, w, c) if batch is None else (batch, t, h, w, c)
    return rng.normal(size=shape).astype(np.float32)


def _encoder(rate, variant="dual", seed=0, **kw):
    return EncoderModel(CompressionRate(*rate), seeding.stream(seed, 0xE6C), variant=variant, **kw)


# -- rate type ------------------------------------------------------------------


def test_rate_validation():
    with pytest.raises(ValueError):
        CompressionRate(0, 1, 1)
    with pytest.raises(ValueError, match="power of two"):
        CompressionRate(3, 2, 1)
    with pytest.raises(ValueError, match="power of two"):
        CompressionRate(2, 6, 1)


def test_rate_volume_and_str():
    r = CompressionRate(4, 4, 2)
    assert r.volume == 32
    assert str(r) == "4x4x2"
    assert CompressionRate(1, 1, 3).volume == 3  # odd temporal rates allowed


# -- geometry and token counts -----------------------------------------------------


@pytest.mark.parametrize("rate", [(1, 1, 1), (2, 2, 1), (2, 2, 2), (4, 4, 2)])
def test_token_count_matches_emitted(rate):
    enc = _encoder(rate)
    hist = _history(1)
    with no_grad():
        ctx = enc.compress(hist)
    expected = (24 // rate[2]) * (8 // rate[0]) * (8 // rate[1])
    assert ctx.length == expected
    assert len(ctx.provenance) == ctx.length
    assert ctx.provenance.records.shape == (ctx.length, 5)
    assert ctx.span_frames == 24


def test_geometry_errors():
    enc = _encoder((4, 4, 2))
    with pytest.raises(ValueError, match="T"):
        enc.compress(_history(0, t=20))  # not divisible by chunk length 8
    with pytest.raises(ValueError, match="H"):
        enc.compress(_history(0, h=6))
    with pytest.raises(ValueError, match="channels"):
        enc.compress(_history(0, c=3))
    with pytest.raises(ValueError, match="chunk length"):
        EncoderModel(CompressionRate(1, 1, 3), seeding.stream(0, 1), chunk_len=8)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "rate, chunk_len, axis",
    [((1, 1, 1), 5, "T=24"), ((1, 1, 1), 48, "T=24"), ((16, 2, 1), 8, "H=8"), ((2, 16, 1), 8, "W=8")],
)
def test_an_encoder_refuses_a_geometry_that_does_not_tile_the_desk_grid(variant, rate, chunk_len, axis):
    """Its position table is sized for desk-grid chunks; it refuses before drawing any kernel or table."""
    with pytest.raises(ValueError, match=f"history axis {axis} not divisible"):
        _encoder(rate, variant=variant, chunk_len=chunk_len)


def test_batched_matches_single():
    enc = _encoder((4, 4, 2))
    hist = _history(2)
    with no_grad():
        single = enc.compress(hist).tokens.numpy()
        stacked = enc.compress(np.stack([hist, hist])).tokens.numpy()
    assert np.allclose(stacked[0], single[0], atol=1e-6)
    assert np.allclose(stacked[1], single[0], atol=1e-6)


# -- variants -------------------------------------------------------------------


def test_dual_is_sum_of_branches():
    """The dual tokens decompose exactly into the two branch outputs."""
    enc = _encoder((4, 4, 2), variant="dual")
    hist = _history(3)
    with no_grad():
        dual = enc.compress(hist).tokens.numpy()
        enc.variant = "only_lr"
        lr = enc.compress(hist).tokens.numpy()
        enc.variant = "without_lr"
        hr = enc.compress(hist).tokens.numpy()
    assert np.allclose(dual, lr + hr, atol=1e-5)


def test_variant_validation():
    with pytest.raises(ValueError, match="variant"):
        _encoder((2, 2, 1), variant="both")


# -- provenance -----------------------------------------------------------------


def test_provenance_partitions_history():
    enc = _encoder((4, 4, 2))
    with no_grad():
        ctx = enc.compress(_history(4))
    records = ctx.provenance.records
    assert records.dtype == np.int64 and records.shape == (48, 5)
    assert not records.flags.writeable
    covered = set()
    for chunk, t0, t1, h0, w0 in records.tolist():
        assert t1 - t0 == 2
        assert h0 in (0, 4) and w0 in (0, 4)  # latent rows and columns of 4x4 blocks
        assert chunk == t0 // 8
        covered.update(range(t0, t1))
    assert covered == set(range(24))
    # every (band, block) cell appears exactly once
    cells = {(t0, h0, w0) for _, t0, _, h0, w0 in records.tolist()}
    assert len(cells) == len(records)


# -- streaming ------------------------------------------------------------------


def test_streaming_equals_batch():
    """Chunkwise appends reproduce whole-history compression exactly."""
    enc = _encoder((4, 4, 2))
    hist = _history(5)
    with no_grad():
        batch_ctx = enc.compress(hist)
        stream_ctx = None
        for ci in range(3):
            stream_ctx = enc.compress_streaming(stream_ctx, hist[ci * 8 : (ci + 1) * 8])
    assert stream_ctx.span_frames == batch_ctx.span_frames
    assert stream_ctx.provenance == batch_ctx.provenance
    np.testing.assert_array_equal(stream_ctx.tokens.numpy(), batch_ctx.tokens.numpy())


def test_streaming_validation():
    enc = _encoder((2, 2, 2))
    with pytest.raises(ValueError, match="frames"):
        enc.compress_streaming(None, _history(0, t=4))
    with no_grad():
        ctx = enc.compress_streaming(None, _history(0, t=8))
    bad = CompressedContext(ctx.tokens, ctx.provenance, span_frames=5)
    with pytest.raises(ValueError, match="chunk-aligned"):
        enc.compress_streaming(bad, _history(0, t=8))


def _snapshot(ctx):
    return ctx.tokens.numpy().copy(), Provenance(ctx.provenance.records.copy()), ctx.length


def _loop_provenance(enc, n_chunks, h=8, w=8):
    """Per-token oracle for the provenance records of ``n_chunks`` chunks."""
    r = enc.rate
    rows = [
        (ci, ci * enc.chunk_len + ti * r.r_t, ci * enc.chunk_len + (ti + 1) * r.r_t, hi * r.r_h, wi * r.r_w)
        for ci in range(n_chunks)
        for ti in range(enc.chunk_len // r.r_t)
        for hi in range(h // r.r_h)
        for wi in range(w // r.r_w)
    ]
    return Provenance(np.array(rows, np.int64))


def _assert_streams_like_batch(enc, ctx, history):
    with no_grad():
        batch = enc.compress(history)
    assert ctx.provenance == batch.provenance == _loop_provenance(enc, history.shape[1] // enc.chunk_len)
    assert ctx.span_frames == batch.span_frames
    np.testing.assert_array_equal(ctx.tokens.numpy(), batch.tokens.numpy())


@given(
    variant=st.sampled_from(VARIANTS),
    rate=st.tuples(*[st.sampled_from((1, 2, 4, 8))] * 3),
    n_chunks=st.integers(1, 12),
    branch=st.integers(0, 11),
    batch=st.sampled_from((1, 2)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_streamed_contexts_equal_batch_and_never_change(variant, rate, n_chunks, branch, batch, seed):
    """Every context a stream returns equals batch compression of its history, and
    stays bitwise unchanged through later appends: onto it, onto older or newer
    contexts, twice onto the same prior, and onto a context with replaced tokens."""
    enc = _encoder(rate, variant=variant, seed=seed % 7)
    history = _history(seed, t=8 * n_chunks, batch=batch)
    x, y = _history(seed + 1, t=8, batch=batch), _history(seed + 2, t=8, batch=batch)
    chunks = [history[:, k * 8 : (k + 1) * 8] for k in range(n_chunks)]
    branch %= n_chunks
    returned = []
    with no_grad():
        ctx = None
        for chunk in chunks:
            ctx = enc.compress_streaming(ctx, chunk)
            returned.append((ctx, _snapshot(ctx)))
        prior = returned[branch][0]
        from_x = enc.compress_streaming(prior, x)
        from_y = enc.compress_streaming(prior, y)
        replaced = dataclasses.replace(ctx, tokens=Tensor(ctx.tokens.numpy() + 1.0))
        from_replaced = enc.compress_streaming(replaced, x)
        assigned = copy.copy(ctx)  # unlike replace, a copy keeps every field
        assigned.tokens = replaced.tokens
        from_assigned = enc.compress_streaming(assigned, x)
        returned += [(c, _snapshot(c)) for c in (from_x, from_y, from_replaced)]
        onward = enc.compress_streaming(ctx, y)

    for c, (tokens, provenance, length) in returned:
        np.testing.assert_array_equal(c.tokens.numpy(), tokens)
        assert c.provenance == provenance and c.length == length
    head = history[:, : 8 * (branch + 1)]
    _assert_streams_like_batch(enc, ctx, history)
    _assert_streams_like_batch(enc, from_x, np.concatenate([head, x], axis=1))
    _assert_streams_like_batch(enc, from_y, np.concatenate([head, y], axis=1))
    _assert_streams_like_batch(enc, onward, np.concatenate([history, y], axis=1))
    # the replaced tokens, not the buffer's, then chunk x's tokens (chunk-local, so as in from_x)
    np.testing.assert_array_equal(from_replaced.tokens.numpy()[:, : ctx.length], replaced.tokens.numpy())
    x_tokens = from_x.tokens.numpy()[:, prior.length :]
    np.testing.assert_array_equal(from_replaced.tokens.numpy()[:, ctx.length :], x_tokens)
    assert from_replaced.provenance == onward.provenance
    np.testing.assert_array_equal(from_assigned.tokens.numpy(), from_replaced.tokens.numpy())


def test_appending_to_the_newest_context_writes_only_the_chunk():
    """An append onto the newest context shares its buffer; the buffer doubles, so a
    512-chunk stream allocates at most ceil(log2 512) + 1 times."""
    enc = _encoder((4, 4, 2), variant="only_lr")
    chunk = _history(4, t=8)
    with no_grad():
        contexts = [enc.compress_streaming(None, chunk)]
        for _ in range(511):
            contexts.append(enc.compress_streaming(contexts[-1], chunk))
    shared = [np.shares_memory(a.tokens.numpy(), b.tokens.numpy()) for a, b in zip(contexts, contexts[1:])]
    allocations = 1 + shared.count(False)
    assert allocations <= math.ceil(math.log2(512)) + 1
    assert shared[-1]  # the last append wrote into the buffer the prior views
    assert contexts[-1].length == 512 * 16


def test_streamed_tokens_never_require_grad():
    enc = _encoder((4, 4, 2))
    ctx = enc.compress_streaming(None, _history(8, t=8))
    assert not ctx.tokens.requires_grad
    trained = enc.compress(_history(9, t=8))
    assert trained.tokens.requires_grad
    assert not enc.compress_streaming(trained, _history(10, t=8)).tokens.requires_grad


# -- differentiability ----------------------------------------------------------------


def test_tokens_carry_gradients():
    enc = _encoder((4, 4, 2))
    ctx = enc.compress(_history(7))
    assert ctx.tokens.requires_grad
    from memctx.tensor import backward

    backward(ctx.tokens.square().mean())
    grads = [p.grad for p in enc.parameters()]
    assert any(g is not None and np.abs(g).sum() > 0 for g in grads)


@pytest.mark.parametrize("variant", ["dual", "without_lr"])
def test_chunk_position_table_is_built_for_the_desk_grid(variant):
    """The table is a parameter from construction, one row per token of a desk-grid
    chunk; a chunk on another grid is refused, not given a table nothing trains."""
    enc = _encoder((4, 4, 2), variant=variant)
    assert enc.named_parameters()["enc.pos"].shape == (16, 64)
    with pytest.raises(ValueError, match="chunk of 64 tokens does not match the 16-token position table"):
        enc.compress(_history(3, h=16, w=16))
    with pytest.raises(ValueError, match="chunk of 64 tokens"):
        enc.compress_streaming(None, _history(3, t=8, h=16, w=16))


@pytest.mark.parametrize("variant", ["dual", "without_lr"])
def test_a_full_rate_chunk_of_the_whole_history_gets_its_table(variant):
    """A 24-frame chunk at rate 1x1x1 holds 1,536 tokens; its position table is drawn
    past the 65,536-float pool and the encoder compresses a 24-frame history with it."""
    enc = _encoder((1, 1, 1), variant=variant, chunk_len=24)
    assert enc.named_parameters()["enc.pos"].shape == (1536, 64)
    with no_grad():
        ctx = enc.compress(_history(5))
    assert ctx.tokens.shape == (1, 1536, 64) and np.isfinite(ctx.tokens.numpy()).all()


@pytest.mark.parametrize("variant", ["dual", "only_lr", "without_lr", "large_patchifier"])
def test_every_named_parameter_receives_a_gradient(variant):
    """Checkpoints and Adam list only what the variant reads: one retrieval
    backward reaches every named parameter, encoder and DiT alike."""
    from memctx import data, diffusion, training
    from memctx.tensor import backward

    enc, g = training.build_models(0, variant=variant, model_dim=16, n_blocks=1, n_heads=2)
    named = training.named_params(enc, g)
    history = _history(8, batch=2)
    omega = data.sample_omega(history.shape[1], (0, 1))
    backward(diffusion.retrieval_loss(g, enc, history, omega, [0, 1], seed=2))
    assert [name for name, p in named.items() if p.grad is None] == []
