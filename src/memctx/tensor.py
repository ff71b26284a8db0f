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
    "as_default_dtype",
    "backward",
    "concat",
    "set_default_dtype",
    "default_dtype",
    "using_dtype",
    "no_grad",
]

_state = threading.local()


def _st():
    if not hasattr(_state, "dtype"):
        _state.dtype = np.float32
        _state.grad_enabled = True
        _state.counter = itertools.count()
    return _state


def set_default_dtype(name: str) -> None:
    """Select the dtype models are built and run in: 'float32' (default) or 'float64'.

    Parameters and sin/cos codes are created in it, and model entry
    points (``DiTModel.predict_velocity``, ``EncoderModel.compress`` and
    ``compress_streaming``, ``diffusion.sample``) cast their float inputs to
    it with :func:`as_default_dtype`, so every activation follows.  Set it
    before building a model: existing parameters keep their dtype.
    ``Tensor(x)`` keeps a float array's dtype.
    Use float64 (``using_dtype("float64")``) for gradient-check headroom.
    """
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


@contextlib.contextmanager
def no_grad():
    st = _st()
    prev = st.grad_enabled
    st.grad_enabled = False
    try:
        yield
    finally:
        st.grad_enabled = prev


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

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data, parents, vjp):
        """Internal: wrap an op result, recording adjoints if needed."""
        st = _st()
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._id = next(st.counter)
        track = st.grad_enabled and any(p.requires_grad for p in parents)
        out.requires_grad = track
        if track:
            out._parents = tuple(parents)
            out._vjp = vjp
        else:
            out._parents = ()
            out._vjp = None
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

    def astype(self, dtype) -> "Tensor":
        """Differentiable cast; the tensor itself when it already has ``dtype``."""
        if self.dtype == dtype:
            return self
        src = self.dtype
        return Tensor._make(self.data.astype(dtype), (self,), lambda g: (g.astype(src),))

    def scale(self, s: float) -> "Tensor":
        s = float(s)
        return Tensor._make(self.data * s, (self,), lambda g: (g * s,))

    def square(self) -> "Tensor":
        return Tensor._make(self.data * self.data, (self,), lambda g: (2.0 * self.data * g,))

    def silu(self) -> "Tensor":
        """x·σ(x).  The node keeps only its input: backward recomputes σ(x) as the forward did."""
        sig = _sigmoid(self.data)
        out = self.data * sig

        def vjp(g):
            sig = _sigmoid(self.data)
            return (g * (sig * (1.0 + self.data * (1.0 - sig))),)

        return Tensor._make(out, (self,), vjp)

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
        # a basic index never selects a position twice, so its gradient is a plain write
        parts = key if isinstance(key, tuple) else (key,)
        basic = all(
            isinstance(k, (slice, type(Ellipsis), type(None), int, np.integer)) and not isinstance(k, bool)
            for k in parts
        )

        def vjp(g):
            full = np.zeros(shape, dtype=g.dtype)
            if basic:
                full[key] = g
            else:
                np.add.at(full, key, g)
            return (full,)

        return Tensor._make(np.ascontiguousarray(data), (self,), vjp)

    # -- reduction ------------------------------------------------------------------

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


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


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


# -- free functions ------------------------------------------------------------


def as_default_dtype(x) -> Tensor:
    """``x`` as a Tensor in the default dtype: arrays are converted, Tensors cast differentiably.

    Model entry points pass their float inputs through this.
    """
    return Tensor._coerce(x).astype(default_dtype())


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return Tensor._make(data, tuple(tensors), vjp)
