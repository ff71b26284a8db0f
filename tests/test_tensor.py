"""Autodiff engine: oracles are finite differences and explicit numpy loops."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memctx.tensor import (
    Tensor,
    _unbroadcast,
    as_default_dtype,
    backward,
    concat,
    default_dtype,
    no_grad,
    using_dtype,
)

RNG = None  # bound per test by _rng_per_test


@pytest.fixture(autouse=True)
def _rng_per_test(request):
    """Seed RNG from the test's name, so its data does not depend on which tests ran before."""
    global RNG
    RNG = np.random.default_rng(zlib.crc32(request.node.name.encode()))


def finite_diff(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar-valued fn at x (float64)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(make_loss, x, tol=1e-5):
    """Compare reverse-mode grad against central differences in 64-bit."""
    with using_dtype("float64"):
        t = Tensor(x.astype(np.float64), requires_grad=True)
        loss = make_loss(t)
        backward(loss)
        analytic = t.grad.copy()
        numeric = finite_diff(lambda arr: make_loss(Tensor(arr)).item(), x.astype(np.float64))
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < tol, f"max rel err {rel.max():.3e}"


def check_grads(make_loss, *arrays, tol=1e-5):
    """``check_grad`` for a loss of several arrays: each argument's gradient, in 64-bit."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    with using_dtype("float64"):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        backward(make_loss(*leaves))
        for i, leaf in enumerate(leaves):
            def loss_of(arr, i=i):
                return make_loss(*(Tensor(arr if j == i else a) for j, a in enumerate(arrays))).item()

            numeric = finite_diff(loss_of, arrays[i].copy())
            denom = np.maximum(np.maximum(np.abs(leaf.grad), np.abs(numeric)), 1e-8)
            rel = np.abs(leaf.grad - numeric) / denom
            assert rel.max() < tol, f"argument {i}: max rel err {rel.max():.3e}"


def tape_nodes(out):
    """Recorded (non-leaf) nodes reachable from ``out``."""
    seen, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return sum(node._vjp is not None for node in seen.values())


def held_arrays(vjp):
    """The ndarrays a VJP closure holds: its cells, through tuples, lists and nested closures.

    Tensors are not opened: their data is a node output or a leaf.
    """
    out, stack, seen = [], [vjp], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            out.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and not isinstance(obj, Tensor):
            stack.extend(cell.cell_contents for cell in getattr(obj, "__closure__", None) or ())
    return out


def tape_bytes(out):
    """Bytes the graph reachable from ``out`` keeps alive until its backward.

    The data of every tensor on it (recorded nodes and leaves) plus the
    ndarrays its VJP closures hold, each underlying buffer counted once.
    """
    seen, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    arrays = [node.data for node in seen.values()]
    arrays += [a for node in seen.values() if node._vjp is not None for a in held_arrays(node._vjp)]
    buffers = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        buffers[id(a)] = a.nbytes
    return sum(buffers.values())


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b over the last two axes, leading axes broadcast, as one tape node.

    No program path needs a taped matmul (``nn.linear`` and ``nn.attention``
    multiply inside their own nodes); composed reference paths build on this one.
    """
    data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return Tensor._make(data, (a, b), vjp)


UNARY_CASES = {
    "square": lambda t: t.square().mean(),
    "silu": lambda t: t.silu().square().mean(),
    "scale": lambda t: t.scale(3.5).square().mean(),
    "reshape": lambda t: t.reshape(6, 2).square().mean(),
    "transpose": lambda t: t.transpose(1, 0).square().mean(),
    "sum_axis": lambda t: t.sum(axis=0).square().mean(),
    "mean_keepdims": lambda t: (t - t.mean(axis=1, keepdims=True)).square().mean(),
    "getitem": lambda t: t[1:3].square().mean(),
}


@pytest.mark.parametrize("name", sorted(UNARY_CASES))
def test_unary_op_gradients_match_finite_differences(name):
    x = RNG.standard_normal((3, 4))
    check_grad(UNARY_CASES[name], x)


BINARY_CASES = {
    "add": lambda a, b: (a + b).square().mean(),
    "sub": lambda a, b: (a - b).square().mean(),
    "mul": lambda a, b: (a * b).mean(),
}


@pytest.mark.parametrize("name", sorted(BINARY_CASES))
@pytest.mark.parametrize("b_shape", [(3, 4), (1, 4), (4,), ()])
def test_binary_op_gradients_with_broadcasting(name, b_shape):
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal(b_shape)
    fn = BINARY_CASES[name]
    check_grad(lambda t: fn(t, Tensor(b)), a)
    check_grad(lambda t: fn(Tensor(a), t), b if b.ndim else b.reshape(()))


def test_matmul_forward_matches_triple_loop():
    a = RNG.standard_normal((4, 5))
    b = RNG.standard_normal((5, 3))
    out = matmul(Tensor(a), Tensor(b)).numpy()
    expect = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                expect[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(out, expect, rtol=1e-6)


def test_matmul_gradients():
    a = RNG.standard_normal((4, 5))
    b = RNG.standard_normal((5, 3))
    check_grad(lambda t: matmul(t, Tensor(b)).square().mean(), a)
    check_grad(lambda t: matmul(Tensor(a), t).square().mean(), b)


def test_batched_matmul_gradients():
    a = RNG.standard_normal((2, 3, 4))
    b = RNG.standard_normal((2, 4, 5))
    check_grad(lambda t: matmul(t, Tensor(b)).square().mean(), a)
    check_grad(lambda t: matmul(Tensor(a), t).square().mean(), b)


def test_broadcast_add_forward_matches_explicit_loop():
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal((4,))
    out = (Tensor(a) + Tensor(b)).numpy()
    expect = np.empty((3, 4))
    for i in range(3):
        for j in range(4):
            expect[i, j] = a[i, j] + b[j]
    np.testing.assert_allclose(out, expect, rtol=1e-7)


def test_getitem_gradient_scatters_with_duplicate_indices():
    x = RNG.standard_normal((5, 2))
    idx = np.array([1, 1, 3])
    check_grad(lambda t: t[idx].square().mean(), x)


@pytest.mark.parametrize(
    "key,shape",
    [
        (key, (5, 3, 4))
        for key in (
            np.s_[1:3],
            np.s_[::-2],
            np.s_[4:0:-1, 1],
            2,
            np.int64(-1),
            np.s_[..., 0],
            np.s_[:, None, 1:],
            np.s_[:, :, -2],
            np.array([1, 1, 3]),
            np.s_[[0, 0, 4], 1:],
        )
    ]
    + [(np.array([3, 0, 3, 3], np.int64), (6, 4))],  # nn.Embedding's lookup: repeated rows of a 2-D table
    ids=[
        "slice", "neg_step", "neg_step_int", "int", "np_int",
        "ellipsis", "newaxis", "last_axis", "array", "mixed", "embedding_rows",
    ],
)
def test_getitem_gradient_equals_add_at_scatter(key, shape):
    """Basic indices write the gradient, advanced ones accumulate it; both match np.add.at."""
    x = np.random.default_rng(41).standard_normal(shape)
    t = Tensor(x, requires_grad=True)
    w = np.random.default_rng(42).standard_normal(x[key].shape)
    backward((t[key] * Tensor(w)).sum())
    expect = np.zeros_like(x)
    np.add.at(expect, key, w)
    assert np.array_equal(t.grad, expect)


def test_concat_gradients():
    a = RNG.standard_normal((2, 3))
    b = RNG.standard_normal((4, 3))
    check_grad(lambda t: concat([t, Tensor(b)], axis=0).square().mean(), a)
    check_grad(lambda t: concat([Tensor(a), t], axis=0).square().mean(), b)


def test_composite_expression_gradient():
    x = RNG.standard_normal((4, 4))

    def f(t):
        y = (matmul(t, t.transpose(1, 0)) + 1.0).silu()
        return (y * y.silu()).mean()

    check_grad(f, x)


def _silu_keeping_the_sigmoid(t):
    """x·σ(x) whose VJP keeps the forward's σ(x): the reference for the recomputing node."""
    sig = 1.0 / (1.0 + np.exp(-t.data))
    return Tensor._make(t.data * sig, (t,), lambda g: (g * (sig * (1.0 + t.data * (1.0 - sig))),))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_silu_recomputed_sigmoid_equals_the_kept_one_bitwise(dtype):
    x = (RNG.standard_normal((4, 7)) * 6.0).astype(dtype)
    g = RNG.standard_normal((4, 7)).astype(dtype)
    results = []
    for fn in (Tensor.silu, _silu_keeping_the_sigmoid):
        t = Tensor(x, requires_grad=True)
        out = fn(t)
        backward((out * Tensor(g)).sum())
        results.append((out.numpy(), t.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)
    assert held_arrays(Tensor(x, requires_grad=True).silu()._vjp) == []


def test_tape_bytes_counts_each_buffer_once_and_what_closures_hold():
    x = Tensor(np.ones((4, 8)), requires_grad=True)  # 256 bytes
    y = x.reshape(8, 4)  # a view of x's buffer: nothing new
    kept = np.ones(16)  # 128 bytes that only the closure holds
    z = Tensor._make(y.data * 2.0, (y,), lambda g: (g * kept[0],))  # 256 bytes
    assert held_arrays(z._vjp) == [kept]
    assert tape_bytes(z) == 256 + 256 + 128
    assert tape_bytes(z.sum()) == 256 + 256 + 128 + 8


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        backward(t + t)


def test_tape_is_consumed_by_backward():
    t = Tensor(np.ones(3), requires_grad=True)
    loss = (t * t).sum()
    backward(loss)
    with pytest.raises(RuntimeError):
        backward(loss)


def test_gradient_accumulates_across_separate_backward_calls():
    t = Tensor(np.ones(3), requires_grad=True)
    backward((t * 2.0).sum())
    backward((t * 3.0).sum())
    np.testing.assert_allclose(t.grad, np.full(3, 5.0))


def test_no_grad_suppresses_graph():
    t = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (t * t).sum()
    assert not y.requires_grad
    with pytest.raises(ValueError):
        backward(y)


def test_default_dtype_switch_round_trip():
    assert default_dtype() == np.float32
    with using_dtype("float64"):
        assert Tensor(np.ones(2, dtype=np.int64)).dtype == np.float64
    assert Tensor(np.ones(2, dtype=np.int64)).dtype == np.float32


def test_as_default_dtype_casts_and_routes_gradients_back():
    x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    y = as_default_dtype(x)
    assert y.dtype == np.float32
    backward((y * y).sum())
    assert x.grad.dtype == np.float64
    np.testing.assert_array_equal(x.grad, [3.0, -4.0])
    with using_dtype("float64"):
        assert as_default_dtype(x) is x
        assert as_default_dtype(np.ones(2, np.float32)).dtype == np.float64


def test_float32_gradients_stay_float32():
    x = Tensor(RNG.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
    backward(x[:, 1:].sum() + x.square().mean() + x.mean(axis=0).sum())
    assert x.grad.dtype == np.float32


def test_invalid_dtype_rejected():
    with pytest.raises(ValueError):
        using_dtype("float16").__enter__()


def test_reduce_invalid_axis_raises():
    a = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        a.sum(axis=5)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_sum_then_mean_consistency_property(rows, cols, seed):
    x = np.random.default_rng(seed).standard_normal((rows, cols))
    t = Tensor(x)
    np.testing.assert_allclose(
        t.mean().item(), t.sum().item() / (rows * cols), rtol=1e-5
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_linear_op_gradient_is_exact_property(seed):
    # For loss = sum(w * x), the gradient w.r.t. x is w exactly.
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((3, 3))
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    backward((x * Tensor(w)).sum())
    np.testing.assert_allclose(x.grad, w, rtol=1e-6)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), axis=st.integers(0, 1))
def test_transpose_involution_property(seed, axis):
    x = np.random.default_rng(seed).standard_normal((3, 5))
    t = Tensor(x)
    np.testing.assert_array_equal(t.transpose(1, 0).transpose(1, 0).numpy(), x)
