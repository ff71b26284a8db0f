"""Reverse-mode autodiff on row-major numpy arrays.

Every differentiable value is a :class:`Tensor`.  Operations record
vector-Jacobian callbacks on a global tape id counter; ``backward`` walks
the reachable subgraph once, in reverse creation order, and accumulates
gradients into ``requires_grad`` leaves.
"""

from __future__ import annotations

import contextlib
import itertools
import threading

import numpy as np

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "backward",
    "elementwise",
    "reduce",
    "concat",
    "set_default_dtype",
    "default_dtype",
    "using_dtype",
    "set_debug_checks",
    "no_grad",
]

_state = threading.local()


def _st():
    if not hasattr(_state, "dtype"):
        _state.dtype = np.float32
        _state.debug = False
        _state.grad_enabled = True
        _state.counter = itertools.count()
    return _state


def set_default_dtype(name: str) -> None:
    """Select 'float32' (default) or 'float64' (gradient-check headroom)."""
    if name not in ("float32", "float64"):
        raise ValueError(f"unsupported dtype {name!r}")
    _st().dtype = np.dtype(name).type


def default_dtype():
    return np.dtype(_st().dtype)


@contextlib.contextmanager
def using_dtype(name: str):
    prev = default_dtype().name
    set_default_dtype(name)
    try:
        yield
    finally:
        set_default_dtype(prev)


def set_debug_checks(enabled: bool) -> None:
    """When on, every op validates inputs/outputs for NaN/Inf."""
    _st().debug = bool(enabled)


@contextlib.contextmanager
def no_grad():
    st = _st()
    prev = st.grad_enabled
    st.grad_enabled = False
    try:
        yield
    finally:
        st.grad_enabled = prev


def _tracks(parents) -> bool:
    """Whether an op over ``parents`` records a tape node."""
    return _st().grad_enabled and any(p.requires_grad for p in parents)


def _check_finite(arr, what):
    if _st().debug and not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {what}")


class Tensor:
    """n-d array with optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_st().dtype)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None
        self._id = next(_st().counter)
        _check_finite(self.data, "tensor constructor input")

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data, parents, vjp):
        """Internal: wrap an op result, recording adjoints if needed."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._id = next(_st().counter)
        track = _tracks(parents)
        out.requires_grad = track
        if track:
            out._parents = tuple(parents)
            out._vjp = vjp
        else:
            out._parents = ()
            out._vjp = None
        _check_finite(data, "op output")
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self):
        return self.data

    def item(self):
        return self.data.item()

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=default_dtype()))

    def _binary(self, other, fwd, vjp_builder, name):
        other = Tensor._coerce(other)
        try:
            data = fwd(self.data, other.data)
        except ValueError:
            raise ValueError(
                f"{name}: shapes {self.shape} and {other.shape} are not broadcast-compatible"
            ) from None
        return Tensor._make(data, (self, other), vjp_builder(self, other, data))

    def __add__(self, other):
        return self._binary(
            other,
            np.add,
            lambda a, b, out: lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
            "add",
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(
            other,
            np.subtract,
            lambda a, b, out: lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
            "sub",
        )

    def __rsub__(self, other):
        return Tensor._coerce(other) - self

    def __mul__(self, other):
        return self._binary(
            other,
            np.multiply,
            lambda a, b, out: lambda g: (
                _unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape),
            ),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(
            other,
            np.divide,
            lambda a, b, out: lambda g: (
                _unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
            ),
            "div",
        )

    def __rtruediv__(self, other):
        return Tensor._coerce(other) / self

    def __neg__(self):
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def scale(self, s: float) -> "Tensor":
        s = float(s)
        return Tensor._make(self.data * s, (self,), lambda g: (g * s,))

    def square(self) -> "Tensor":
        return Tensor._make(self.data * self.data, (self,), lambda g: (2.0 * self.data * g,))

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)
        return Tensor._make(out, (self,), lambda g: (g * 0.5 / out,))

    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return Tensor._make(out, (self,), lambda g: (g * out,))

    def sigmoid(self) -> "Tensor":
        out = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._make(out, (self,), lambda g: (g * out * (1.0 - out),))

    def silu(self) -> "Tensor":
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out = self.data * sig
        return Tensor._make(out, (self,), lambda g: (g * (sig * (1.0 + self.data * (1.0 - sig))),))

    # -- shape manipulation --------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.shape
        data = self.data.reshape(shape)
        return Tensor._make(data, (self,), lambda g: (g.reshape(orig),))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        return Tensor._make(
            np.ascontiguousarray(self.data.transpose(axes)),
            (self,),
            lambda g: (g.transpose(inv),),
        )

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]
        shape = self.shape

        def vjp(g):
            full = np.zeros(shape, dtype=g.dtype)
            np.add.at(full, key, g)
            return (full,)

        return Tensor._make(np.ascontiguousarray(data), (self,), vjp)

    def index_select(self, idx) -> "Tensor":
        """Row lookup along axis 0 (embedding-table gather)."""
        idx = np.asarray(idx)
        data = self.data[idx]
        shape = self.shape

        def vjp(g):
            full = np.zeros(shape, dtype=g.dtype)
            np.add.at(full, idx, g)
            return (full,)

        return Tensor._make(data, (self,), vjp)

    def pad(self, pad_width) -> "Tensor":
        pw = tuple((int(a), int(b)) for a, b in pad_width)
        data = np.pad(self.data, pw)
        sl = tuple(slice(a, a + n) for (a, _), n in zip(pw, self.shape))
        return Tensor._make(data, (self,), lambda g: (g[sl],))

    # -- contraction & reduction ----------------------------------------------

    def matmul(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
            raise ValueError(
                f"matmul: inner dims disagree for shapes {a.shape} and {b.shape}"
            )
        data = np.matmul(a, b)

        def vjp(g):
            ga = np.matmul(g, np.swapaxes(b, -1, -2)) if b.ndim > 1 else np.multiply.outer(g, b)
            gb = np.matmul(np.swapaxes(a, -1, -2), g)
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        return Tensor._make(data, (self, other), vjp)

    __matmul__ = matmul

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        axis = _norm_axes(axis, self.ndim)
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(np.asarray(data), (self,), vjp)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        axis = _norm_axes(axis, self.ndim)
        data = self.data.mean(axis=axis, keepdims=keepdims)
        shape = self.shape
        n = self.size if axis is None else int(np.prod([shape[a] for a in axis]))

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy() / n,)

        return Tensor._make(np.asarray(data), (self,), vjp)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        axis = _norm_axes(axis, self.ndim)
        data = self.data.max(axis=axis, keepdims=keepdims)
        src = self.data

        def vjp(g):
            expanded = data if keepdims or axis is None else np.expand_dims(data, axis)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            mask = (src == expanded)
            # ties split gradient evenly; a strict-max input routes to one slot
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return (mask * (g / counts),)

        return Tensor._make(np.asarray(data), (self,), vjp)

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        backward(self)


def _norm_axes(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    axis = tuple(a % ndim if -ndim <= a < ndim else _axis_err(a, ndim) for a in axis)
    return axis


def _axis_err(a, ndim):
    raise ValueError(f"axis {a} out of range for {ndim}-d tensor")


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad leaf reachable from ``loss``.

    The tape is consumed: a second backward through the same recorded
    nodes raises.
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad (no tape recorded)")

    # Reverse creation order is a valid topological order of the tape.
    seen = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._id in seen:
            continue
        seen[node._id] = node
        stack.extend(node._parents)

    grads = {loss._id: np.ones_like(loss.data)}
    for node in sorted(seen.values(), key=lambda n: n._id, reverse=True):
        g = grads.pop(node._id, None)
        if g is None:
            continue
        if node._vjp is None:
            if node._parents:
                raise RuntimeError("backward called on a consumed tape")
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None:
                continue
            if parent._id in grads:
                grads[parent._id] = grads[parent._id] + pg
            else:
                grads[parent._id] = pg
        node._vjp = None  # consume


# -- spec-facing dispatchers ---------------------------------------------------


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=default_dtype()), requires_grad=requires_grad)


def elementwise(op_kind: str, a: Tensor, b=None) -> Tensor:
    """Named elementwise dispatch: add, sub, mul, scale, silu, square."""
    a = Tensor._coerce(a)
    if _st().debug:
        _check_finite(a.data, f"elementwise {op_kind} input a")
        if isinstance(b, Tensor):
            _check_finite(b.data, f"elementwise {op_kind} input b")
    if op_kind == "add":
        return a + b
    if op_kind == "sub":
        return a - b
    if op_kind == "mul":
        return a * b
    if op_kind == "scale":
        return a.scale(b)
    if op_kind == "silu":
        return a.silu()
    if op_kind == "square":
        return a.square()
    raise ValueError(f"unknown elementwise op {op_kind!r}")


def reduce(op_kind: str, a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    """Named reduction dispatch: sum, mean, max.  Empty axes = identity copy."""
    a = Tensor._coerce(a)
    if axes is not None and not isinstance(axes, int) and len(tuple(axes)) == 0:
        return a.reshape(a.shape)
    if op_kind == "sum":
        return a.sum(axis=axes, keepdims=keepdims)
    if op_kind == "mean":
        return a.mean(axis=axes, keepdims=keepdims)
    if op_kind == "max":
        return a.max(axis=axes, keepdims=keepdims)
    raise ValueError(f"unknown reduction {op_kind!r}")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return Tensor._make(data, tuple(tensors), vjp)
