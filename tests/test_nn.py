"""Neural layers: looped-oracle forwards and finite-difference gradients."""

import contextlib

import numpy as np
import pytest

from memctx import nn
from memctx.tensor import Tensor, backward, no_grad, set_debug_checks, using_dtype

from test_tensor import check_grad

RNG = np.random.default_rng(1)

# value tests run each forward twice: recording a tape, then on the fused no-tape path
GRAD_MODES = (contextlib.nullcontext, no_grad)


def make_rng():
    return np.random.default_rng(42)


# -- linear / LoRA -----------------------------------------------------------


def test_linear_forward_matches_manual():
    lin = nn.Linear(3, 2, make_rng())
    x = RNG.standard_normal((5, 3)).astype(np.float32)
    expect = x @ lin.weight.numpy().T + lin.bias.numpy()
    np.testing.assert_allclose(lin(Tensor(x)).numpy(), expect, rtol=1e-5)


def test_linear_gradients():
    lin = nn.Linear(3, 2, make_rng())
    x = RNG.standard_normal((4, 3))
    check_grad(lambda t: lin(t).square().mean(), x)


def test_lora_wrap_is_identity_at_step_zero():
    base = nn.Linear(6, 6, make_rng())
    x = Tensor(RNG.standard_normal((3, 6)).astype(np.float32))
    before = base(x).numpy()
    wrapped = nn.LoraLinear(base, rank=2, rng=make_rng())
    after = wrapped(x).numpy()
    np.testing.assert_array_equal(before, after)  # A = 0 makes the residual vanish


def test_lora_b_initialized_nonzero_and_a_zero():
    wrapped = nn.LoraLinear(nn.Linear(6, 6, make_rng()), rank=3, rng=make_rng())
    assert np.all(wrapped.A.numpy() == 0.0)
    assert np.any(wrapped.B.numpy() != 0.0)


def test_lora_rank_must_be_positive():
    with pytest.raises(ValueError):
        nn.LoraLinear(nn.Linear(4, 4, make_rng()), rank=0, rng=make_rng())


def test_lora_adapters_receive_gradients_base_stays_frozen():
    wrapped = nn.LoraLinear(nn.Linear(4, 4, make_rng()), rank=2, rng=make_rng())
    x = Tensor(RNG.standard_normal((3, 4)).astype(np.float32))
    backward(wrapped(x).square().mean())
    assert wrapped.A.grad is not None and wrapped.B.grad is not None
    assert not wrapped.base.weight.requires_grad


# -- conv3d -------------------------------------------------------------------


def conv3d_oracle(x, w, b, stride, padding):
    """Six-nested-loop strided 3D cross-correlation (N, C, T, H, W)."""
    n, c_in, t, h, wd = x.shape
    c_out, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    ot = (t + 2 * pt - kt) // st + 1
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, ot, oh, ow))
    for ni in range(n):
        for co in range(c_out):
            for ti in range(ot):
                for hi in range(oh):
                    for wi in range(ow):
                        patch = xp[
                            ni,
                            :,
                            ti * st : ti * st + kt,
                            hi * sh : hi * sh + kh,
                            wi * sw : wi * sw + kw,
                        ]
                        out[ni, co, ti, hi, wi] = np.sum(patch * w[co]) + b[co]
    return out


@pytest.mark.parametrize(
    "stride,padding,kernel",
    [((1, 1, 1), (0, 0, 0), (2, 2, 2)), ((2, 2, 2), (1, 1, 1), (3, 3, 3)), ((1, 2, 2), (0, 1, 1), (1, 3, 3))],
)
def test_conv3d_forward_matches_loop_oracle(stride, padding, kernel):
    layer = nn.Conv3dLayer(2, 3, kernel, stride, padding, make_rng())
    x = RNG.standard_normal((2, 2, 4, 6, 6)).astype(np.float32)
    out = layer(Tensor(x)).numpy()
    expect = conv3d_oracle(x, layer.weight.numpy(), layer.bias.numpy(), stride, padding)
    np.testing.assert_allclose(out, expect, rtol=1e-4, atol=1e-5)


def test_conv3d_gradients_input_and_weights():
    layer = nn.Conv3dLayer(1, 2, (2, 2, 2), (2, 2, 2), (0, 0, 0), make_rng())
    x = RNG.standard_normal((1, 1, 4, 4, 4))
    with using_dtype("float64"):
        layer64 = nn.Conv3dLayer(1, 2, (2, 2, 2), (2, 2, 2), (0, 0, 0), make_rng())
    check_grad(lambda t: layer64(t).square().mean(), x)

    # weight gradient via finite differences
    layer64.weight.grad = None
    layer64.bias.grad = None
    with using_dtype("float64"):
        xt = Tensor(x)
        loss = layer64(xt).square().mean()
        backward(loss)
        analytic = layer64.weight.grad.copy()
        w = layer64.weight.data
        eps = 1e-6
        for idx in [(0, 0, 0, 0, 0), (1, 0, 1, 1, 1), (0, 0, 1, 0, 1)]:
            orig = w[idx]
            w[idx] = orig + eps
            hi = layer64(Tensor(x)).square().mean().item()
            w[idx] = orig - eps
            lo = layer64(Tensor(x)).square().mean().item()
            w[idx] = orig
            fd = (hi - lo) / (2 * eps)
            assert abs(fd - analytic[idx]) / max(abs(fd), 1e-8) < 1e-5


def test_conv3d_rejects_wrong_rank_and_channels():
    layer = nn.Conv3dLayer(2, 3, (2, 2, 2), (1, 1, 1), (0, 0, 0), make_rng())
    with pytest.raises(ValueError):
        layer(Tensor(np.ones((2, 2, 4, 4))))
    with pytest.raises(ValueError):
        layer(Tensor(np.ones((1, 3, 4, 4, 4))))


# -- softmax / layernorm -------------------------------------------------------


def test_softmax_rows_sum_to_one_and_shift_invariant():
    x = RNG.standard_normal((4, 7)).astype(np.float32)
    for mode in GRAD_MODES:
        with mode():
            s = nn.softmax(Tensor(x, requires_grad=True)).numpy()
            np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), rtol=1e-6)
            s_shift = nn.softmax(Tensor(x + 100.0, requires_grad=True)).numpy()
            np.testing.assert_allclose(s, s_shift, atol=1e-6)


def test_softmax_extreme_logits_stay_finite():
    x = np.array([[1e4, -1e4, 0.0]], dtype=np.float32)
    for mode in GRAD_MODES:
        with mode():
            s = nn.softmax(Tensor(x, requires_grad=True)).numpy()
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s[0, 0], 1.0, atol=1e-6)


def test_softmax_gradient():
    x = RNG.standard_normal((3, 5))
    check_grad(lambda t: (nn.softmax(t) * nn.softmax(t)).mean(), x)


def test_layernorm_normalizes_last_axis():
    x = RNG.standard_normal((6, 16)).astype(np.float32) * 5 + 3
    g = Tensor(np.ones(16), requires_grad=True)
    s = Tensor(np.zeros(16), requires_grad=True)
    for mode in GRAD_MODES:
        with mode():
            y = nn.layernorm(Tensor(x), g, s).numpy()
        np.testing.assert_allclose(y.mean(axis=-1), np.zeros(6), atol=1e-5)
        np.testing.assert_allclose(y.std(axis=-1), np.ones(6), atol=1e-2)


def test_layernorm_gradient():
    x = RNG.standard_normal((2, 8))
    g = Tensor(np.full(8, 1.3, dtype=np.float64))
    s = Tensor(np.full(8, 0.2, dtype=np.float64))
    # probe with a fixed random weighting: mean(layernorm(x)²) alone is nearly
    # scale-invariant, which degenerates the finite-difference signal
    w = Tensor(np.asarray(RNG.standard_normal((2, 8))))
    check_grad(lambda t: (nn.layernorm(t, g, s) * w).sum().square(), x)


def test_layernorm_eps_must_be_positive():
    with pytest.raises(ValueError):
        nn.layernorm(Tensor(np.ones((2, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=0.0)


@pytest.mark.parametrize(
    "x_dtype,param_dtype,eps_dtype",
    [
        ("float64", "float64", "float32"),
        ("float32", "float64", "float32"),
        ("float32", "float32", "float32"),
        ("float32", "float32", "float64"),
    ],
)
def test_fused_softmax_and_layernorm_equal_taped_bitwise(x_dtype, param_dtype, eps_dtype):
    x = (RNG.standard_normal((2, 5, 16)) * 3 + 1).astype(x_dtype)
    g = Tensor(RNG.standard_normal(16).astype(param_dtype), requires_grad=True)
    s = Tensor(RNG.standard_normal(16).astype(param_dtype), requires_grad=True)
    # eps_dtype is the default dtype, which sets the dtype eps is added in
    with using_dtype(eps_dtype):
        outs = []
        for mode in GRAD_MODES:
            with mode():
                xt = Tensor(x, requires_grad=True)
                outs.append((nn.softmax(xt, axis=1), nn.layernorm(xt, g, s)))
    (sm_tape, ln_tape), (sm_fused, ln_fused) = outs
    assert sm_tape.requires_grad and ln_tape.requires_grad
    assert not sm_fused.requires_grad and not ln_fused.requires_grad
    for tape, fused in ((sm_tape, sm_fused), (ln_tape, ln_fused)):
        assert fused.dtype == tape.dtype
        assert np.array_equal(fused.numpy(), tape.numpy())


def test_softmax_out_overwrites_logits_only_without_tape():
    x = RNG.standard_normal((3, 7))
    expected = nn.softmax(Tensor(x)).numpy()
    logits = x.copy()
    out = nn.softmax(Tensor(logits), out=logits)
    assert out.numpy() is logits
    assert np.array_equal(logits, expected)
    with pytest.raises(ValueError, match="no tape"):
        nn.softmax(Tensor(x, requires_grad=True), out=x.copy())


def test_debug_checks_fire_on_fused_softmax_and_layernorm():
    x = Tensor(np.array([[np.inf, 1.0, 2.0, 3.0]]))  # built before the checks are on
    g, s = Tensor(np.ones(4)), Tensor(np.zeros(4))
    set_debug_checks(True)
    try:
        with no_grad(), np.errstate(invalid="ignore"):  # inf - inf is the point
            with pytest.raises(FloatingPointError):
                nn.softmax(x)
            with pytest.raises(FloatingPointError):
                nn.layernorm(x, g, s)
    finally:
        set_debug_checks(False)


# -- attention -----------------------------------------------------------------


def attention_oracle(x, kv, layer):
    """Dense numpy multi-head attention with the layer's own weights."""
    wq, wk, wv, wo = (m.weight.numpy() for m in (layer.wq, layer.wk, layer.wv, layer.wo))
    bq, bk, bv, bo = (m.bias.numpy() for m in (layer.wq, layer.wk, layer.wv, layer.wo))
    d = layer.model_dim
    hn = layer.head_count
    hd = d // hn
    q = x @ wq.T + bq
    k = kv @ wk.T + bk
    v = kv @ wv.T + bv

    def split(a):
        return a.reshape(a.shape[0], a.shape[1], hn, hd).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    logits = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(hd)
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = weights / weights.sum(axis=-1, keepdims=True)
    out = weights @ vh
    out = out.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[1], d)
    return out @ wo.T + bo


def test_attention_forward_matches_dense_oracle():
    layer = nn.AttentionLayer(8, 2, make_rng())
    x = RNG.standard_normal((2, 5, 8)).astype(np.float32)
    for mode in GRAD_MODES:
        with mode():
            out = layer(Tensor(x)).numpy()
        np.testing.assert_allclose(out, attention_oracle(x, x, layer), rtol=1e-4, atol=1e-5)


def test_cross_attention_matches_dense_oracle():
    layer = nn.AttentionLayer(8, 4, make_rng())
    q = RNG.standard_normal((1, 3, 8)).astype(np.float32)
    kv = RNG.standard_normal((1, 6, 8)).astype(np.float32)
    for mode in GRAD_MODES:
        with mode():
            out = layer(Tensor(q), Tensor(kv)).numpy()
        np.testing.assert_allclose(out, attention_oracle(q, kv, layer), rtol=1e-4, atol=1e-5)


def test_attention_gradient():
    with using_dtype("float64"):
        layer = nn.AttentionLayer(4, 2, make_rng())
    x = RNG.standard_normal((1, 3, 4))
    check_grad(lambda t: layer(t).square().mean(), x)


def test_attention_rejects_dim_mismatch_and_empty():
    layer = nn.AttentionLayer(8, 2, make_rng())
    with pytest.raises(ValueError):
        layer(Tensor(np.ones((1, 3, 4))))
    with pytest.raises(ValueError):
        layer(Tensor(np.ones((1, 0, 8))))


def test_attention_head_count_must_divide_dim():
    with pytest.raises(ValueError):
        nn.AttentionLayer(8, 3, make_rng())


# -- embeddings / time ----------------------------------------------------------


def test_embedding_lookup_and_gradient_scatter():
    emb = nn.Embedding(10, 4, make_rng())
    idx = np.array([1, 1, 7])
    out = emb(idx)
    np.testing.assert_array_equal(out.numpy(), emb.table.numpy()[idx])
    backward(out.square().mean())
    rows_with_grad = np.where(np.abs(emb.table.grad).sum(axis=1) > 0)[0]
    np.testing.assert_array_equal(rows_with_grad, [1, 7])


def test_sinusoidal_embedding_shape_and_range():
    e = nn.sinusoidal_embedding(np.array([0.1, 0.9]), 16)
    assert e.shape == (2, 16)
    assert np.all(np.abs(e) <= 1.0 + 1e-9)
    assert not np.allclose(e[0], e[1])


# -- optimizer -------------------------------------------------------------------


def test_adam_first_step_magnitude_is_lr():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = nn.Adam([p], lr=0.1)
    p.grad = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    opt.step()
    # bias-corrected Adam moves ~lr in the sign direction on step 1
    np.testing.assert_allclose(p.data, [-0.1, 0.1, -0.1], atol=1e-6)


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = nn.Adam([p], lr=0.2)
    for _ in range(200):
        opt.zero_grad()
        backward((p * p).sum())
        opt.step()
    assert np.all(np.abs(p.data) < 1e-2)


def test_adam_state_round_trip_resumes_identically():
    def run(steps, carry_state_at=None):
        rng = np.random.default_rng(3)
        p = Tensor(np.ones(4), requires_grad=True)
        opt = nn.Adam([p], lr=0.05)
        saved = None
        for i in range(steps):
            opt.zero_grad()
            noise = Tensor(rng.standard_normal(4).astype(np.float32))
            backward(((p - noise) * (p - noise)).sum())
            opt.step()
            if carry_state_at == i:
                saved = ({k: v.copy() for k, v in opt.state_arrays().items()}, p.data.copy())
        return p.data.copy(), saved

    full, saved = run(10, carry_state_at=4)
    state, pdata = saved
    # rebuild from the mid-run snapshot and replay the remaining steps
    rng = np.random.default_rng(3)
    for _ in range(5):
        rng.standard_normal(4)
    p = Tensor(pdata, requires_grad=True)
    opt = nn.Adam([p], lr=0.05)
    opt.load_state_arrays(state)
    for _ in range(5):
        opt.zero_grad()
        noise = Tensor(rng.standard_normal(4).astype(np.float32))
        backward(((p - noise) * (p - noise)).sum())
        opt.step()
    np.testing.assert_array_equal(p.data, full)
