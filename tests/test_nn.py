"""Neural layers: looped-oracle forwards and finite-difference gradients."""

import contextlib
import warnings
import weakref
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from memctx import nn, seeding, training
from memctx.dit import _adaln, _gated
from memctx.tensor import Tensor, backward, concat, no_grad, using_dtype

from test_tensor import check_grad, check_grads, finite_diff, held_arrays, matmul, tape_bytes, tape_nodes

RNG = None  # bound per test by _rng_per_test


@pytest.fixture(autouse=True)
def _rng_per_test(request):
    """Seed RNG from the test's name, so its data does not depend on which tests ran before."""
    global RNG
    RNG = np.random.default_rng(zlib.crc32(request.node.name.encode()))

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
    # the kernel itself: input, weight and bias on 2-D and 3-D inputs, without and with an adapter
    rng = np.random.default_rng(11)
    w, b = rng.standard_normal((2, 3)), rng.standard_normal(2)
    a, b_ = rng.standard_normal((2, 2)), rng.standard_normal((2, 3))
    for x_shape in ((4, 3), (2, 5, 3)):
        x = rng.standard_normal(x_shape)
        probe = Tensor(rng.standard_normal(x_shape[:-1] + (2,)))
        check_grads(lambda x, w, b: (nn.linear(x, w, b) * probe).square().sum(), x, w, b)
        check_grads(lambda *t: (nn.linear(*t) * probe).square().sum(), x, w, b, a, b_)


def test_linear_builds_no_gradient_for_an_input_that_needs_none():
    rng = np.random.default_rng(12)
    w = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    g = rng.standard_normal((2, 4, 2))
    x = rng.standard_normal((2, 4, 3))
    gx, gw, gb = nn.linear(Tensor(x), w, b)._vjp(g)
    assert gx is None
    _, gw_all, gb_all = nn.linear(Tensor(x, requires_grad=True), w, b)._vjp(g)
    np.testing.assert_array_equal(gw, gw_all)
    np.testing.assert_array_equal(gb, gb_all)
    gx, gw, gb = nn.linear(Tensor(x, requires_grad=True), Tensor(w.data), Tensor(b.data))._vjp(g)
    assert gx is not None and gw is None and gb is None


def _turn(theta):
    """``rotate``'s (cos, sin), each (L, d), for an (L, d/2) array of angles; every head turns alike."""
    cos, sin = np.cos(theta), np.sin(theta)
    return np.concatenate([cos, cos], axis=-1), np.concatenate([-sin, sin], axis=-1)


def _conv3d_of(w, b):
    """A strided, padded 3x3x3 ``Conv3dLayer`` whose weight and bias are ``w`` and ``b``."""
    layer = nn.Conv3dLayer(w.shape[1], w.shape[0], w.shape[2:], (1, 2, 2), (1, 1, 1), make_rng())
    layer.weight, layer.bias = w, b
    return layer


def _linear_of(w, b, *adapter):
    """A ``Linear`` whose weight and bias are ``w`` and ``b``, adapted with the adapter (A, B) if one is given."""
    m = nn.Linear(w.shape[1], w.shape[0], make_rng())
    if adapter:
        m.adapt(adapter[0].shape[1], make_rng())
    m.weight, m.bias, m.lora = w, b, adapter
    return m


def _unbiased(x, w):
    """x @ w.T as one tape node: the no-bias linear map the composed LoRA path was built from."""
    x2 = x.data.reshape(-1, w.shape[1])
    needs = (x.requires_grad, w.requires_grad)

    def vjp(g):
        g2 = g.reshape(-1, w.shape[0])
        return ((g2 @ w.data).reshape(x.shape) if needs[0] else None, g2.T @ x2 if needs[1] else None)

    return Tensor._make((x2 @ w.data.T).reshape(x.shape[:-1] + w.shape[:1]), (x, w), vjp)


def _composed(m, x):
    """``m(x)`` for a plain or adapted ``Linear`` through separate nodes: the map's own, and for an
    adapter B, A, the 2× and the add; the bitwise reference for the one-node map."""
    y = nn.linear(x, m.weight, m.bias)
    return y + _unbiased(_unbiased(x, m.lora[1]), m.lora[0]).scale(2.0) if m.lora else y


# name -> (op, argument shapes) for the fused kernels of this module, and the DiT block's
FUSED_OPS = {
    "conv3d": (lambda x, w, b: nn.conv3d_forward(_conv3d_of(w, b), x), [(2, 3, 4, 6, 6), (5, 3, 3, 3, 3), (5,)]),
    "linear": (nn.linear, [(2, 5, 3), (4, 3), (4,)]),
    "linear_lora": (nn.linear, [(2, 5, 3), (4, 3), (4,), (4, 2), (2, 3)]),
    "mlp": (
        lambda x, w1, b1, w2, b2: nn.mlp(x, _linear_of(w1, b1), _linear_of(w2, b2)),
        [(2, 3, 4), (8, 4), (8,), (4, 8), (4,)],
    ),
    "mlp_lora": (
        lambda x, w1, b1, a1, b_1, w2, b2, a2, b_2: nn.mlp(x, _linear_of(w1, b1, a1, b_1), _linear_of(w2, b2, a2, b_2)),
        [(2, 3, 4), (8, 4), (8,), (8, 2), (2, 4), (4, 8), (4,), (4, 2), (2, 8)],
    ),
    "softmax": (lambda x: nn.softmax(x, axis=0), [(3, 4)]),
    "layernorm": (nn.layernorm, [(2, 3, 8), (8,), (8,)]),
    "attention": (
        lambda q, k, v, mk, mv: nn.attention(q, k, v, 2, memory=(mk, mv)),
        [(1, 3, 8), (1, 5, 8), (1, 5, 8), (1, 4, 8), (1, 4, 8)],
    ),
    "attention_without_memory": (lambda q, k, v: nn.attention(q, k, v, 2), [(1, 3, 8), (1, 5, 8), (1, 5, 8)]),
    "rotate": (lambda x: nn.rotate(x, *_turn(np.arange(12.0).reshape(3, 4))), [(2, 3, 16)]),
    "attention_turning_q_and_k": (
        lambda q, k, v, mk, mv: nn.attention(q, k, v, 2, memory=(mk, mv), rope=_turn(np.arange(10.0).reshape(5, 2))),
        [(1, 3, 8), (1, 5, 8), (1, 5, 8), (1, 4, 8), (1, 4, 8)],
    ),
    "adaln": (
        lambda x, gain, shift, mod: _adaln(x, SimpleNamespace(gain=gain, shift=shift), mod, 1, 0),
        [(2, 3, 8), (8,), (8,), (2, 1, 6, 8)],
    ),
    "gated": (lambda x, h, mod: _gated(x, h, mod, 2), [(2, 3, 8), (2, 3, 8), (2, 1, 6, 8)]),
}

ADAPTED_OPS = {"linear_lora", "mlp_lora"}  # the entries whose first map is adapted, so it reads x twice


@pytest.mark.parametrize("name", sorted(FUSED_OPS))
def test_each_fused_op_records_exactly_one_tape_node(name):
    op, shapes = FUSED_OPS[name]
    rng = np.random.default_rng(13)
    leaves = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    out = op(*leaves)
    assert tape_nodes(out) == 1
    # an adapted map lists its input once per term that reads it, the adapter's first
    assert out._parents == (leaves[0],) * (2 if name in ADAPTED_OPS else 1) + tuple(leaves[1:])
    with no_grad():
        assert tape_nodes(op(*leaves)) == 0


def test_lora_wrap_is_identity_at_step_zero():
    base = nn.Linear(6, 6, make_rng())
    x = Tensor(RNG.standard_normal((3, 6)).astype(np.float32))
    before = base(x).numpy()
    base.adapt(rank=2, rng=make_rng())
    after = base(x).numpy()
    np.testing.assert_array_equal(before, after)  # A = 0 makes the residual vanish


def test_lora_b_initialized_nonzero_and_a_zero():
    wrapped = nn.Linear(6, 6, make_rng())
    wrapped.adapt(rank=3, rng=make_rng())
    a, b = wrapped.lora
    assert np.all(a.numpy() == 0.0)
    assert np.any(b.numpy() != 0.0)


def test_lora_rank_must_be_positive():
    with pytest.raises(ValueError):
        nn.Linear(4, 4, make_rng()).adapt(rank=0, rng=make_rng())


def test_lora_adapters_receive_gradients_base_stays_frozen():
    wrapped = nn.Linear(4, 4, make_rng())
    wrapped.adapt(rank=2, rng=make_rng())
    x = Tensor(RNG.standard_normal((3, 4)).astype(np.float32))
    backward(wrapped(x).square().mean())
    assert all(t.grad is not None for t in wrapped.lora)
    assert not wrapped.weight.requires_grad and wrapped.weight.grad is None


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_one_input_read_by_three_adapted_maps_equals_the_composed_maps_bitwise(dtype):
    """Three adapted maps of one input, as wq, wk and wv read one h, each one node, against the
    composed path's five nodes per map: the outputs, taped and under no_grad, and the gradients of
    the input and of every adapter, bitwise (the input's gradient sums its six terms in the
    composed path's order)."""
    with using_dtype(dtype):
        rng = make_rng()
        maps = [nn.Linear(8, 8, rng) for _ in range(3)]
        for m in maps:
            m.bias.data[:] = rng.standard_normal(m.bias.shape)
            m.adapt(2, rng)
            m.lora[0].data[:] = rng.standard_normal(m.lora[0].shape)
    params = _trainable(*maps)
    x = RNG.standard_normal((2, 5, 8)).astype(dtype)
    probes = [Tensor(RNG.standard_normal((2, 5, 8)).astype(dtype)) for _ in maps]
    results = []
    for apply in (lambda m, t: m(t), _composed):
        with no_grad():
            free = [apply(m, Tensor(x)).numpy() for m in maps]
        for p in params:
            p.grad = None
        h = Tensor(x, requires_grad=True)
        outs = [apply(m, h) for m in maps]
        loss = (outs[0] * probes[0]).sum() + (outs[1] * probes[1]).sum() + (outs[2] * probes[2]).sum()
        backward(loss)
        results.append([*free, *(o.numpy() for o in outs), h.grad, *(p.grad for p in params)])
    assert len(results[0]) == 3 + 3 + 1 + 6
    for got, want in zip(*results):
        assert got.dtype == want.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)


def _mlp_maps(dtype, rank, dim=8, hidden=32):
    """fc1 (dim → hidden) and fc2 (hidden → dim) in ``dtype`` with nonzero biases; at ``rank`` > 0
    adapted with nonzero A, so every adapter gradient is live."""
    with using_dtype(dtype):
        rng = make_rng()
        maps = [nn.Linear(dim, hidden, rng), nn.Linear(hidden, dim, rng)]
        for m in maps:
            m.bias.data[:] = rng.standard_normal(m.bias.shape)
        if rank:
            for m in maps:
                m.adapt(rank, rng)
            for m in maps:
                m.lora[0].data[:] = rng.standard_normal(m.lora[0].shape)
    return maps


def _trainable(*maps):
    return [p for m in maps for p in m.named_parameters("m").values() if p.requires_grad]


@pytest.mark.parametrize("rank", [0, 2])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_mlp_equals_the_composed_maps_bitwise(dtype, rank):
    """nn.mlp against fc2(fc1(x).silu()): the output, taped and under no_grad, and the gradients of
    x and of each map's trainable parameters, with x requiring a gradient and as a constant."""
    fc1, fc2 = _mlp_maps(dtype, rank)
    params = _trainable(fc1, fc2)
    x = RNG.standard_normal((2, 5, 8)).astype(dtype)
    g = Tensor(RNG.standard_normal((2, 5, 8)).astype(dtype))
    for input_grad in (True, False):
        results = []
        for op in (lambda t: nn.mlp(t, fc1, fc2), lambda t: _composed(fc2, _composed(fc1, t).silu())):
            with no_grad():
                free = op(Tensor(x)).numpy()
            xt = Tensor(x, requires_grad=input_grad)
            for p in params:
                p.grad = None
            out = op(xt)
            backward((out * g).sum())
            results.append([free, out.numpy(), *(p.grad for p in params)] + ([xt.grad] if input_grad else []))
        for got, want in zip(*results):
            assert got.dtype == want.dtype == np.dtype(dtype)
            assert np.array_equal(got, want)
        assert np.array_equal(results[0][0], results[0][1])


@pytest.mark.parametrize("rank", [0, 2])
def test_mlp_gradients_match_central_differences(rank):
    """float64 central differences for the input and each map's trainable parameters."""
    fc1, fc2 = _mlp_maps("float64", rank, dim=3, hidden=6)
    with using_dtype("float64"):
        x = Tensor(RNG.standard_normal((2, 2, 3)), requires_grad=True)
        probe = Tensor(RNG.standard_normal((2, 2, 3)))

        def loss():
            return (nn.mlp(x, fc1, fc2) * probe).square().sum()

        backward(loss())
        for i, t in enumerate([x, *_trainable(fc1, fc2)]):
            numeric = finite_diff(lambda _: loss().item(), t.data)  # perturbs t.data in place
            denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(numeric)), 1e-8)
            rel = np.abs(t.grad - numeric) / denom
            assert rel.max() < 1e-5, f"tensor {i}: max rel err {rel.max():.3e}"


def test_mlp_rejects_an_input_of_the_wrong_width():
    fc1, fc2 = _mlp_maps("float32", 0)
    with pytest.raises(ValueError, match="mlp: input has 7 features, fc1 expects 8"):
        nn.mlp(Tensor(np.zeros((2, 7), np.float32)), fc1, fc2)


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


# (in, out, stride) of the encoder's four layers at rate 4x4x2; kernel 3, padding 1
ENCODER_CONVS = [(4, 8, (2, 1, 1)), (8, 16, (1, 2, 2)), (16, 32, (1, 2, 2)), (32, 64, (1, 1, 1))]


def test_conv3d_encoder_geometries_match_loop_oracle():
    """The encoder's stack on an (N=2) desk chunk, each layer against the oracle."""
    x = RNG.standard_normal((2, 4, 8, 8, 8)).astype(np.float32)
    for c_in, c_out, stride in ENCODER_CONVS:
        layer = nn.Conv3dLayer(c_in, c_out, (3, 3, 3), stride, (1, 1, 1), make_rng())
        out = layer(Tensor(x)).numpy()
        expect = conv3d_oracle(x, layer.weight.numpy(), layer.bias.numpy(), stride, (1, 1, 1))
        np.testing.assert_allclose(out, expect, rtol=1e-4, atol=1e-5)
        x = out


def test_conv3d_strided_padded_gradients_match_finite_differences():
    """Input, weight and bias gradients of a strided, padded layer, in float64."""
    x = RNG.standard_normal((2, 2, 4, 5, 5))
    with using_dtype("float64"):
        layer = nn.Conv3dLayer(2, 3, (3, 3, 3), (2, 1, 2), (1, 0, 1), make_rng())
        layer.bias.data[:] = RNG.standard_normal(3)
    check_grad(lambda t: layer(t).square().mean(), x)

    layer.weight.grad = layer.bias.grad = None  # check_grad's backward filled them
    with using_dtype("float64"):
        backward(layer(Tensor(x)).square().mean())
        for param in (layer.weight, layer.bias):
            def loss(arr, param=param):
                saved = param.data
                param.data = arr
                try:
                    return layer(Tensor(x)).square().mean().item()
                finally:
                    param.data = saved
            numeric = finite_diff(loss, param.data.copy())
            np.testing.assert_allclose(param.grad, numeric, rtol=1e-5, atol=1e-9)


def _scattered_input_grad(layer, x, g):
    """conv3d's input gradient as one scatter per kernel tap, in (i, j, k) order: the reference."""
    n, c, t, h, wd = x.shape
    _, padded, idx = layer._plan((t, h, wd))
    o, m = layer.out_channels, idx.shape[0]
    gmat = g.reshape(n, o, m).transpose(0, 2, 1).reshape(n * m, o)
    gcols = (gmat @ layer.weight.data.reshape(o, -1)).reshape(n, m, -1)
    n_taps = gcols.shape[-1] // c
    volume = c * int(np.prod(padded))
    rows = np.arange(n)[:, None, None] * volume
    gxp = np.zeros(n * volume, dtype=x.dtype)
    for tap in range(n_taps):
        gxp[(rows + idx[:, tap::n_taps]).ravel()] += gcols[:, :, tap::n_taps].ravel()
    pt, ph, pw = layer.padding
    return gxp.reshape((n, c) + padded)[:, :, pt : pt + t, ph : ph + h, pw : pw + wd]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("rate", [(4, 4, 2), (2, 2, 1), (8, 8, 4)])
def test_conv3d_input_gradient_gather_equals_the_per_tap_scatter_bitwise(rate, dtype):
    """Every conv of the encoder at ``rate``, on a desk chunk at batch 1 and 4."""
    with using_dtype(dtype):
        enc, _ = training.build_models(0, rate=rate)
        for batch in (1, 4):
            x = RNG.standard_normal((batch, 4, 8, 8, 8)).astype(dtype)
            for layer in enc.convs:
                y = layer(Tensor(x, requires_grad=True))
                g = RNG.standard_normal(y.shape).astype(dtype)
                gx = y._vjp(g)[0]
                assert gx.dtype == np.dtype(dtype) and gx.shape == x.shape
                assert np.array_equal(gx, _scattered_input_grad(layer, x, g))
                x = y.data


def test_conv3d_one_layer_serves_two_input_geometries():
    layer = nn.Conv3dLayer(4, 8, (3, 3, 3), (1, 2, 2), (1, 1, 1), make_rng())
    for hw in (8, 16, 8):
        x = RNG.standard_normal((1, 4, 4, hw, hw)).astype(np.float32)
        out = layer(Tensor(x)).numpy()
        assert out.shape == (1, 8, 4, hw // 2, hw // 2)
        expect = conv3d_oracle(x, layer.weight.numpy(), layer.bias.numpy(), (1, 2, 2), (1, 1, 1))
        np.testing.assert_allclose(out, expect, rtol=1e-4, atol=1e-5)
    assert sorted(layer._plans) == [(4, 8, 8), (4, 16, 16)]


def test_conv3d_skips_the_input_gradient_of_a_constant_input():
    """A data input gets no input gradient; the parameter gradients are unchanged."""
    layer = nn.Conv3dLayer(4, 8, (3, 3, 3), (2, 1, 1), (1, 1, 1), make_rng())
    x = RNG.standard_normal((2, 4, 8, 8, 8)).astype(np.float32)
    g = RNG.standard_normal((2, 8, 4, 8, 8)).astype(np.float32)
    grads = {}
    for needs_grad in (True, False):
        y = layer(Tensor(x, requires_grad=needs_grad))
        gx, gw, gb = y._vjp(g)
        assert (gx is None) != needs_grad
        grads[needs_grad] = (gw, gb)
    for with_x, without_x in zip(grads[True], grads[False]):
        np.testing.assert_array_equal(with_x, without_x)


def test_conv3d_rejects_wrong_rank_and_channels():
    layer = nn.Conv3dLayer(2, 3, (2, 2, 2), (1, 1, 1), (0, 0, 0), make_rng())
    with pytest.raises(ValueError):
        layer(Tensor(np.ones((2, 2, 4, 4))))
    with pytest.raises(ValueError):
        layer(Tensor(np.ones((1, 3, 4, 4, 4))))


def _conv3d_keeping_the_columns(layer, x):
    """conv3d whose VJP keeps the forward's (N·M, C·K) column matrix: the reference for the regather.

    Its input gradient is the per-tap scatter, which the gather equals bitwise.
    """
    n, c, t, h, wd = x.shape
    _, _, idx = layer._plan((t, h, wd))
    w, b, o, m = layer.weight, layer.bias, layer.out_channels, idx.shape[0]
    xp = np.pad(x.data, [(0, 0), (0, 0)] + [(p, p) for p in layer.padding])
    cols = np.take(xp.reshape(n, -1), idx, axis=1).reshape(n * m, -1)
    out = cols @ w.data.reshape(o, -1).T
    out += b.data
    out = np.ascontiguousarray(out.reshape(n, m, o).transpose(0, 2, 1)).reshape((n, o) + layer.output_extents((t, h, wd)))

    def vjp(g):
        gmat = g.reshape(n, o, m).transpose(0, 2, 1).reshape(n * m, o)
        return (_scattered_input_grad(layer, x.data, g), (gmat.T @ cols).reshape(w.shape), g.sum(axis=(0, 2, 3, 4)))

    return Tensor._make(out, (x, w, b), vjp)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_conv3d_regathered_columns_give_the_kept_columns_gradients_bitwise(dtype):
    """Every conv of the default encoder on a batch of 4 desk chunks: output and every gradient."""
    with using_dtype(dtype):
        enc, _ = training.build_models(0)
        x = RNG.standard_normal((4, 4, 8, 8, 8)).astype(dtype)
        for layer in enc.convs:
            g = None
            results = []
            for fn in (nn.conv3d_forward, _conv3d_keeping_the_columns):
                layer.weight.grad = layer.bias.grad = None
                xt = Tensor(x, requires_grad=True)
                out = fn(layer, xt)
                g = RNG.standard_normal(out.shape).astype(dtype) if g is None else g
                backward((out * Tensor(g)).sum())
                results.append((out.numpy(), xt.grad, layer.weight.grad, layer.bias.grad))
            for got, want in zip(*results):
                assert got.dtype == want.dtype == np.dtype(dtype)
                assert np.array_equal(got, want)
            x = results[0][0]


def default_step_loss(loop, seed=0, batch=4, lora_rank=0):
    """The loss of ``loop``'s first step on default models and scenes, its tape not yet walked back;
    at ``lora_rank`` > 0 the DiT's maps are adapted first, from the CLI's stream."""
    enc, g = training.build_models(seed)
    if lora_rank:
        g.enable_lora(lora_rank, seeding.stream(seed, 0x10BA))
    losses = []
    walk_back, training.backward = training.backward, losses.append
    try:
        loop(enc, g, training.make_dataset(seed, 8), steps=1, seed=seed, batch=batch)
    finally:
        training.backward = walk_back
    return losses[0]


@pytest.mark.parametrize("loop", [training.pretrain_retrieval, training.finetune_next_clip])
def test_attention_silu_and_conv3d_nodes_keep_nothing_they_can_rebuild(loop):
    """Beside views of its parents' data, no attention VJP of a default step holds an (N, heads,
    Lq, Lk) score-shaped array, no silu VJP a sigmoid, no conv3d VJP an (N·M, C·K) column matrix,
    and no mlp VJP a (rows, hidden) array but fc1's pre-activation: no sigmoid and no SiLU output."""
    seen, stack, kinds = set(), [default_step_loss(loop)], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node._vjp is None:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        kind = node._vjp.__qualname__.split(".<locals>")[0]
        held = [a for a in held_arrays(node._vjp) if not any(np.shares_memory(a, p.data) for p in node._parents)]
        if kind == "attention":
            q, k = node._parents[:2]
            scores = (q.shape[1], k.shape[1] + sum(t.shape[1] for t in node._parents[3:4]))  # (q, k, v[, K, V])
            assert not [a for a in held if a.ndim == 4 and a.shape[0] == q.shape[0] and a.shape[2:] == scores]
        elif kind == "Tensor.silu":
            assert not [a for a in held if a.shape == node.shape]
        elif kind == "conv3d_forward":
            x, w = node._parents[:2]
            columns = (x.shape[0] * int(np.prod(node.shape[2:])), w.data[0].size)
            assert not [a for a in held if a.shape == columns]
        elif kind == "mlp":
            with no_grad():
                pre = nn.linear(*node._parents[:3]).data
            hidden = [a for a in held if a.size == pre.size]
            assert len(hidden) == 1 and np.array_equal(hidden[0].reshape(pre.shape), pre)
        else:
            continue
        kinds.add(kind)
    assert kinds == {"attention", "Tensor.silu", "conv3d_forward", "mlp"}


@pytest.mark.parametrize(
    "loop, lora_rank, mb",
    [(training.pretrain_retrieval, 0, 7.3), (training.finetune_next_clip, 0, 11.6), (training.finetune_next_clip, 2, 11.8)],
    ids=["pretrain", "finetune", "finetune_lora"],
)
def test_a_default_step_keeps_its_tape_under_its_bytes(loop, lora_rank, mb):
    """The first default step's graph, node outputs and VJP-held arrays (7.17, 11.49 and, with
    rank-2 adapters on every DiT map, 11.65 MB today)."""
    assert tape_bytes(default_step_loss(loop, lora_rank=lora_rank)) <= mb * 2**20


def test_adapted_maps_add_no_tape_node():
    """A rank-2 LoRA finetune step records as many nodes as a plain one: an adapted map is one node."""
    plain, adapted = (default_step_loss(training.finetune_next_clip, lora_rank=r) for r in (0, 2))
    assert tape_nodes(adapted) == tape_nodes(plain)


@pytest.mark.parametrize("loop", [training.pretrain_retrieval, training.finetune_next_clip])
def test_no_consumed_graph_outlives_its_step(loop, monkeypatch):
    """When a step's ``batch_loss`` starts, the data of every node the previous step recorded is gone."""
    refs, alive = [], []
    train = training._train

    def watched_train(enc, g, batch_loss, *args):
        def watched(step):
            alive.append(sum(r() is not None for r in refs))
            loss = batch_loss(step)
            seen, stack = set(), [loss]
            refs.clear()
            while stack:
                node = stack.pop()
                if id(node) not in seen and node._vjp is not None:
                    seen.add(id(node))
                    refs.append(weakref.ref(node.data))
                    stack.extend(node._parents)
            return loss

        return train(enc, g, watched, *args)

    monkeypatch.setattr(training, "_train", watched_train)
    enc, g = training.build_models(0)
    loop(enc, g, training.make_dataset(0, 2), steps=3, seed=0, batch=2)
    assert len(refs) > 100 and alive == [0, 0, 0]


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
    for axis in (-1, 0):
        check_grad(lambda t: (nn.softmax(t, axis=axis) * nn.softmax(t, axis=axis)).mean(), x)


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
    # gain and shift too, on a 3-D input
    rng = np.random.default_rng(14)
    x, gain, shift = rng.standard_normal((2, 3, 8)), rng.standard_normal(8), rng.standard_normal(8)
    w = Tensor(rng.standard_normal((2, 3, 8)))
    check_grads(lambda x, g, s: (nn.layernorm(x, g, s) * w).sum().square(), x, gain, shift)


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


def _split_heads(x, heads):
    """(N, L, D) -> (N, heads, L, D/heads) as taped reshape and transpose."""
    n, l, d = x.shape
    return x.reshape(n, l, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    n, heads, l, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n, l, heads * d)


def _head_core(q, k, v):
    """The fused per-head core over (N, heads, L, d) tensors, as it ran before heads were split inside."""
    scale = float(1.0 / np.sqrt(q.shape[-1]))
    e = (q.data * scale) @ np.ascontiguousarray(k.data.transpose(0, 1, 3, 2))
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    denom = e.sum(axis=-1, keepdims=True)
    out = e @ v.data
    out /= denom

    def vjp(g):
        p = e
        p /= denom
        gv = np.swapaxes(p, -1, -2) @ g
        gs = nn._softmax_vjp(g @ np.swapaxes(v.data, -1, -2), p, -1)
        gs *= scale
        return (gs @ k.data, np.swapaxes(gs, -1, -2) @ q.data, gv)

    return Tensor._make(out, (q, k, v), vjp)


def _split_path_attention(q, k, v, heads, memory=None):
    """Head split, memory concat, per-head core and head merge as separate tape nodes: the reference."""
    qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
    if memory is not None:
        kh = concat([_split_heads(memory[0], heads), kh], axis=2)
        vh = concat([_split_heads(memory[1], heads), vh], axis=2)
    return _merge_heads(_head_core(qh, kh, vh))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_attention_equals_the_split_path_bitwise(dtype):
    """One node gives the output and every gradient, the memory pair's included, of the composed path."""
    rng = np.random.default_rng(14)
    arrays = [rng.standard_normal((2, lq, 16)) for lq in (4, 7, 7, 5, 5)]
    w = rng.standard_normal((2, 4, 16))
    with using_dtype(dtype):
        for memory in (True, False):
            results = []
            for fn in (nn.attention, _split_path_attention):
                leaves = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays[: 5 if memory else 3]]
                out = fn(*leaves[:3], 2, memory=tuple(leaves[3:]) if memory else None)
                backward((out * Tensor(w.astype(dtype))).sum())
                results.append([out.numpy()] + [t.grad for t in leaves])
            for got, want in zip(*results):
                assert got.dtype == want.dtype == np.dtype(dtype)
                assert np.array_equal(got, want)


def _turning_path_attention(q, k, v, heads, memory=None, rope=None):
    """q and k turned by ``rotate`` nodes of their own before the attention node: the reference."""
    cos, sin = rope
    q = nn.rotate(q, cos[-q.shape[1]:], sin[-q.shape[1]:])
    return nn.attention(q, nn.rotate(k, cos, sin), v, heads, memory)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_attention_turning_q_and_k_equals_the_rotate_path_bitwise(dtype):
    """Turning inside the node gives the output and every gradient, the memory pair's included,
    of separate ``rotate`` nodes; the queries are the last rows of the keys, as in a
    query-limited block."""
    rng = np.random.default_rng(19)
    arrays = [rng.standard_normal((2, lq, 16)) for lq in (4, 7, 7, 5, 5)]
    w = rng.standard_normal((2, 4, 16))
    theta = rng.uniform(-50, 50, size=(7, 4))
    with using_dtype(dtype):
        rope = tuple(r.astype(dtype) for r in _turn(theta))
        for memory in (True, False):
            results = []
            for fn in (nn.attention, _turning_path_attention):
                leaves = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays[: 5 if memory else 3]]
                out = fn(*leaves[:3], 2, memory=tuple(leaves[3:]) if memory else None, rope=rope)
                backward((out * Tensor(w.astype(dtype))).sum())
                results.append([out.numpy()] + [t.grad for t in leaves])
            for got, want in zip(*results):
                assert got.dtype == want.dtype == np.dtype(dtype)
                assert np.array_equal(got, want)


def test_attention_core_gradients_with_more_keys_than_queries():
    rng = np.random.default_rng(15)
    q, k, v = (rng.standard_normal((2, lq, 6)) for lq in (3, 5, 5))
    w = Tensor(rng.standard_normal((2, 3, 6)))
    check_grads(lambda q, k, v: (nn.attention(q, k, v, 2) * w).sum().square(), q, k, v)


@pytest.mark.parametrize("heads", [1, 3])
def test_attention_gradients_through_the_memory_pair(heads):
    rng = np.random.default_rng(18)
    q, k, v, mk, mv = (rng.standard_normal((2, l, 6)) for l in (3, 2, 2, 4, 4))
    w = Tensor(rng.standard_normal((2, 3, 6)))
    check_grads(
        lambda q, k, v, mk, mv: (nn.attention(q, k, v, heads, memory=(mk, mv)) * w).sum().square(), q, k, v, mk, mv
    )


def _composed_attention(q, k, v, heads):
    """softmax(q·kᵀ/√d)·v per head from separate taped ops: the reference for the fused core."""
    qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
    scores = matmul(qh, kh.transpose(0, 1, 3, 2)).scale(float(1.0 / np.sqrt(qh.shape[-1])))
    return _merge_heads(matmul(nn.softmax(scores), vh))


@pytest.mark.parametrize("dtype,tol", [("float64", 1e-12), ("float32", 1e-5)])
def test_attention_core_at_inexact_scale_matches_composed_softmax(dtype, tol):
    """At head dim 8, 1/√8 is inexact, so scaling q differs from scaling the scores by rounding only."""
    rng = np.random.default_rng(16)
    arrays = [rng.standard_normal((2, lq, 16)) for lq in (4, 7, 7)]
    w = rng.standard_normal((2, 4, 16))
    results = []
    with using_dtype(dtype):
        for fn in (nn.attention, _composed_attention):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*leaves, 2)
            backward((out * Tensor(w)).sum())
            results.append([out.numpy()] + [t.grad for t in leaves])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


@pytest.mark.parametrize("dtype,tol", [("float64", 1e-9), ("float32", 1e-3)])
def test_attention_core_stays_finite_at_logits_near_1e3(dtype, tol):
    rng = np.random.default_rng(17)

    def heads(a):
        return a.reshape(1, -1, 2, 4).transpose(0, 2, 1, 3)

    q = rng.standard_normal((1, 5, 8))
    k = rng.standard_normal((1, 6, 8))
    q *= 2e3 / np.abs(heads(q) @ heads(k).transpose(0, 1, 3, 2)).max()  # logits q·kᵀ/2 reach ±1e3
    v = rng.standard_normal((1, 6, 8))
    with using_dtype(dtype), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = nn.attention(*leaves, 2)
        backward(out.square().sum())
    assert all(np.all(np.isfinite(a)) for a in [out.numpy()] + [t.grad for t in leaves])
    logits = heads(q) @ heads(k).transpose(0, 1, 3, 2) / 2.0
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    want = ((p / p.sum(axis=-1, keepdims=True)) @ heads(v)).transpose(0, 2, 1, 3).reshape(1, 5, 8)
    np.testing.assert_allclose(out.numpy(), want, atol=tol)


def test_attention_rejects_dim_mismatch_and_empty():
    layer = nn.AttentionLayer(8, 2, make_rng())
    with pytest.raises(ValueError):
        layer(Tensor(np.ones((1, 3, 4))))
    with pytest.raises(ValueError):
        layer(Tensor(np.ones((1, 0, 8))))


def test_attention_head_count_must_divide_dim():
    with pytest.raises(ValueError):
        nn.AttentionLayer(8, 3, make_rng())


def test_rotate_turns_each_heads_pair_i_with_i_plus_half_and_back():
    """Looped oracle over two heads of 8 features: pair (i, i + 4) of each head turns by its row's
    angle i; turning by +θ and then by −θ gives the input back."""
    theta = RNG.uniform(-7, 7, size=(3, 4))
    x = RNG.standard_normal((2, 3, 16))
    want = x.copy()
    for row in range(3):
        for head in range(2):
            for i in range(4):
                a, b = head * 8 + i, head * 8 + i + 4
                c, s = np.cos(theta[row, i]), np.sin(theta[row, i])
                want[:, row, a] = x[:, row, a] * c - x[:, row, b] * s
                want[:, row, b] = x[:, row, b] * c + x[:, row, a] * s
    turned = nn.rotate(Tensor(x), *_turn(theta))
    np.testing.assert_allclose(turned.numpy(), want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(nn.rotate(turned, *_turn(-theta)).numpy(), x, rtol=1e-12, atol=1e-12)


def test_rotate_gradient():
    theta = RNG.uniform(-7, 7, size=(3, 4))
    w = Tensor(RNG.standard_normal((2, 3, 16)))
    check_grad(lambda x: (nn.rotate(x, *_turn(theta)) * w).sum().square(), RNG.standard_normal((2, 3, 16)))


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


def _adam_oracle(params, grads_per_step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The out-of-place update, one rebinding expression per moment."""
    data = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        for i, g in enumerate(grads):
            if g is None:
                continue
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * (g * g)
            mhat = m[i] / (1 - b1**t)
            vhat = v[i] / (1 - b2**t)
            data[i] -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(data[i].dtype)
    return data, m, v


def test_adam_in_place_steps_equal_the_out_of_place_formula_bitwise():
    rng = np.random.default_rng(8)
    shapes = [(3, 4), (5,), (2, 2, 3)]
    start = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    grads_per_step = [
        [None if (step + i) % 3 == 0 else rng.standard_normal(s).astype(np.float32) for i, s in enumerate(shapes)]
        for step in range(5)
    ]
    params = [Tensor(a.copy(), requires_grad=True) for a in start]
    opt = nn.Adam(params, lr=0.03)
    for grads in grads_per_step:
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
    data, m, v = _adam_oracle(start, grads_per_step, lr=0.03)
    for i, p in enumerate(params):
        assert p.data.dtype == np.float32
        np.testing.assert_array_equal(p.data, data[i])
        np.testing.assert_array_equal(opt.m[i], m[i])
        np.testing.assert_array_equal(opt.v[i], v[i])


def test_adam_state_arrays_are_not_rewritten_by_later_steps():
    p = Tensor(np.ones(4, np.float32), requires_grad=True)
    opt = nn.Adam({"p": p}, lr=0.1)
    p.grad = np.full(4, 0.5, np.float32)
    opt.step()
    state = opt.state_arrays()
    snapshot = {k: a.copy() for k, a in state.items()}
    p.grad = np.full(4, -2.0, np.float32)
    opt.step()
    for k, a in state.items():
        np.testing.assert_array_equal(a, snapshot[k], err_msg=k)


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


def test_adam_state_load_casts_moments_and_checks_shapes():
    p = Tensor(np.ones(3, np.float32), requires_grad=True)
    opt = nn.Adam([p])
    state = {"adam.step": np.array([2.0]), "adam.m.0": np.full(3, 0.5), "adam.v.0": np.full(3, 0.25)}
    opt.load_state_arrays(state)
    assert opt.step_count == 2
    assert opt.m[0].dtype == opt.v[0].dtype == np.float32
    np.testing.assert_array_equal(opt.v[0], np.full(3, 0.25, np.float32))
    state["adam.m.0"] = np.zeros(4)
    with pytest.raises(ValueError, match="optimizer state 0 has shape"):
        opt.load_state_arrays(state)
    state["adam.m.0"], state["adam.v.0"] = np.zeros(3), np.zeros(4)
    with pytest.raises(ValueError, match=r"optimizer state 0 has shape \(4,\) in adam\.v\.\*"):
        opt.load_state_arrays(state)


def test_adam_state_follows_parameter_names_not_positions():
    """Moments restore by name, so a resume that lists same-shaped parameters
    in another order continues exactly like the uninterrupted run."""

    def steps(params, opt, count):
        for _ in range(count):
            opt.zero_grad()
            backward((params["a"] * params["a"]).sum() + (params["b"] * 3.0).sum())
            opt.step()

    params = {"a": Tensor(np.ones(3), requires_grad=True), "b": Tensor(np.full(3, -2.0), requires_grad=True)}
    opt = nn.Adam(params, lr=0.1)
    steps(params, opt, 3)
    state = {k: v.copy() for k, v in opt.state_arrays().items()}
    assert sorted(state) == ["adam.m.a", "adam.m.b", "adam.step", "adam.v.a", "adam.v.b"]
    resumed = {name: Tensor(params[name].data.copy(), requires_grad=True) for name in ("b", "a")}
    steps(params, opt, 2)

    opt = nn.Adam(resumed, lr=0.1)
    opt.load_state_arrays(state)
    steps(resumed, opt, 2)
    for name in params:
        np.testing.assert_array_equal(resumed[name].data, params[name].data)


def test_adam_state_must_name_exactly_its_parameters():
    opt = nn.Adam({"a": Tensor(np.ones(2), requires_grad=True)})
    state = opt.state_arrays()
    missing = {k: v for k, v in state.items() if k != "adam.m.a"}
    extra = {**state, "adam.m.c": np.zeros(2)}
    missing_v = {k: v for k, v in state.items() if k != "adam.v.a"}
    extra_v = {**state, "adam.v.c": np.zeros(2)}
    for bad in (missing, extra, missing_v, extra_v):
        with pytest.raises(ValueError, match="optimizer state lacks"):
            opt.load_state_arrays(bad)
