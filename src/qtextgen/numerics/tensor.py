"""Dense float64 tensors with a taped reverse-mode gradient engine.

Values are numpy arrays in row-major order.  Every differentiable operation
appends one node to the active :class:`ComputationRecord`; creation order is
already a topological order, so the backward pass is a single reverse sweep.
Gradients are accumulated into *leaf* tensors only (parameters, inputs);
intermediates stay grad-free.  Tensors are value-immutable once created
inside a record, so ``reshape`` and ``transpose`` return views.

There is deliberately no general broadcasting machinery beyond numpy's rules
for elementwise ops; matmul takes two matrices or two equally batched stacks.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "ComputationRecord",
    "record_op",
    "active_record",
    "matmul",
    "transpose",
    "concat",
    "broadcast_rows",
    "decay_scan",
    "interleave_columns",
    "embedding_lookup",
    "relu",
    "gelu",
    "sigmoid",
    "cos",
    "sin",
    "exp",
    "log",
    "masked_softmax_rows",
    "layer_norm",
    "cross_entropy",
]

_GELU_C = math.sqrt(2.0 / math.pi)


class Tensor:
    """Immutable-in-value float64 array participating in gradient recording.

    ``node_id`` is the index of the op that produced this tensor in the
    active record, or None for leaves and tensors built outside a record.
    Parameters are the one thing written in place, by ``Adam.step`` and
    ``load_state_arrays``, and only after the step's backward pass.
    """

    __slots__ = ("data", "grad", "node_id")

    def __init__(self, data, copy=True):
        if copy:
            arr = np.array(data, dtype=np.float64, order="C")
        else:
            arr = np.asarray(data, dtype=np.float64)
            if not arr.flags["C_CONTIGUOUS"]:  # 0-d arrays are contiguous; keep their shape
                arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self.node_id = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def backward(self):
        rec = active_record()
        if rec is None:
            raise RuntimeError("backward() requires an active ComputationRecord")
        rec.backward(self)

    # -- operators ---------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __pow__(self, p):
        return power(self, p)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class _Node:
    __slots__ = ("inputs", "out", "backward_fn")

    def __init__(self, inputs, out, backward_fn):
        self.inputs = inputs
        self.out = out
        self.backward_fn = backward_fn


class ComputationRecord:
    """Append-only log of primitive ops, confined to one training step.

    Use as a context manager; nesting is not allowed.  ``backward`` seeds the
    loss cotangent with ones and sweeps the log in reverse, so each node is
    visited exactly once.  Repeated backward calls without zeroing grads
    accumulate, which is why optimizers require an explicit zero-grad.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def add(self, node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def __len__(self):
        return len(self.nodes)

    def __enter__(self):
        if _ACTIVE:
            raise RuntimeError("ComputationRecord does not support nesting")
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.pop()
        return False

    def backward(self, loss: Tensor):
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        cot: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        holders: dict[int, Tensor] = {id(loss): loss}
        for node in reversed(self.nodes):
            g = cot.pop(id(node.out), None)
            holders.pop(id(node.out), None)
            if g is None:
                continue
            grads = node.backward_fn(g)
            for t, gt in zip(node.inputs, grads):
                if gt is None:
                    continue
                key = id(t)
                if key in cot:
                    cot[key] = cot[key] + gt
                else:
                    cot[key] = gt
                    holders[key] = t
        # whatever is left never appeared as an op output here: leaves
        for key, g in cot.items():
            t = holders[key]
            t.grad = g if t.grad is None else t.grad + g


_ACTIVE: list[ComputationRecord] = []


def active_record():
    return _ACTIVE[-1] if _ACTIVE else None


def record_op(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    """Attach ``out`` to the active record.  No-op when recording is off."""
    rec = active_record()
    if rec is not None:
        out.node_id = rec.add(_Node(inputs, out, backward_fn))
    return out


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data + b.data, copy=False)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record_op(out, (a, b), bw)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data - b.data, copy=False)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return record_op(out, (a, b), bw)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data * b.data, copy=False)

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return record_op(out, (a, b), bw)


def div(a, b):
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data / b.data, copy=False)

    def bw(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return record_op(out, (a, b), bw)


def neg(a):
    a = _lift(a)
    out = Tensor(-a.data, copy=False)
    return record_op(out, (a,), lambda g: (-g,))


def power(a, p):
    a = _lift(a)
    p = float(p)
    out = Tensor(a.data ** p, copy=False)

    def bw(g):
        return (g * p * a.data ** (p - 1.0),)

    return record_op(out, (a,), bw)


def exp(a):
    a = _lift(a)
    out = Tensor(np.exp(a.data), copy=False)
    return record_op(out, (a,), lambda g: (g * out.data,))


def log(a):
    a = _lift(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log requires strictly positive inputs")
    out = Tensor(np.log(a.data), copy=False)
    return record_op(out, (a,), lambda g: (g / a.data,))


def relu(a):
    a = _lift(a)
    out = Tensor(np.maximum(a.data, 0.0), copy=False)
    return record_op(out, (a,), lambda g: (g * (a.data > 0.0),))


def sigmoid(a):
    a = _lift(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(s, copy=False)
    return record_op(out, (a,), lambda g: (g * s * (1.0 - s),))


def cos(a):
    a = _lift(a)
    out = Tensor(np.cos(a.data), copy=False)
    return record_op(out, (a,), lambda g: (g * -np.sin(a.data),))


def sin(a):
    a = _lift(a)
    out = Tensor(np.sin(a.data), copy=False)
    return record_op(out, (a,), lambda g: (g * np.cos(a.data),))


def gelu(a):
    """tanh-approximation GELU; the fixed formula keeps outputs reproducible."""
    a = _lift(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x ** 3)
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t), copy=False)

    def bw(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner),)

    return record_op(out, (a,), bw)


# ---------------------------------------------------------------------------
# shape / gather ops
# ---------------------------------------------------------------------------

def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.ndim != b.ndim or a.ndim not in (2, 3) or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul requires two 2-D or two equally batched 3-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, copy=False)

    def bw(g):
        return g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g

    return record_op(out, (a, b), bw)


def transpose(a, axes=(1, 0)):
    a = _lift(a)
    if sorted(axes) != list(range(a.ndim)):
        raise ValueError(f"transpose axes {axes} do not permute the axes of shape {a.shape}")
    out = Tensor(a.data.transpose(axes), copy=False)
    return record_op(out, (a,), lambda g: (g.transpose(np.argsort(axes)),))


def reshape(a, shape):
    a = _lift(a)
    out = Tensor(a.data.reshape(shape), copy=False)
    return record_op(out, (a,), lambda g: (g.reshape(a.shape),))


def take(a, idx):
    """Numpy indexing with scatter-add backward; repeated indices accumulate."""
    a = _lift(a)
    out = Tensor(a.data[idx], copy=True)

    def bw(g):
        z = np.zeros_like(a.data)
        np.add.at(z, idx, g)
        return (z,)

    return record_op(out, (a,), bw)


def concat(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), copy=False)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return record_op(out, tuple(tensors), bw)


def broadcast_rows(a, n: int):
    """Repeat a tensor ``n`` times along a new leading axis: (n,) + a.shape."""
    a = _lift(a)
    out = Tensor(np.broadcast_to(a.data, (n,) + a.shape), copy=True)
    return record_op(out, (a,), lambda g: (g.sum(axis=0),))


def decay_scan(v, lam, starts=None, carry=None):
    """Decayed running sum down the (T, d) rows of v: out[t] = lam * out[t-1] + v[t].

    The sum restarts (out[t-1] taken as 0) at row 0 and at every row flagged
    in the optional (T,) boolean ``starts``: the first rows of a pack's
    segments.  ``carry``, an optional constant (d,) array, is out[-1] for a
    row 0 that does not restart: the sum carried over from earlier rows run
    before.  Backward is the reverse sweep a[t] = g[t] + lam * a[t+1], with
    a[t+1] taken as 0 where row t+1 restarts: dv = a, dlam = sum over the
    rows t that carry of a[t] * out[t-1].
    """
    v, lam = _lift(v), _lift(lam)
    if v.ndim != 2 or lam.shape != (v.shape[1],):
        raise ValueError(f"decay_scan expects (T, d) values and (d,) decays, got {v.shape} and {lam.shape}")
    restart = np.arange(v.shape[0]) == 0 if starts is None else np.asarray(starts, dtype=bool)
    if restart.shape != (v.shape[0],):
        raise ValueError(f"decay_scan starts must have shape ({v.shape[0]},), got {restart.shape}")
    data, acc = np.empty_like(v.data), 0.0 if carry is None else np.asarray(carry, dtype=np.float64)
    for t in range(v.shape[0]):
        if restart[t]:
            acc = 0.0
        data[t] = acc = lam.data * acc + v.data[t]

    def bw(g):
        a, acc = np.empty_like(g), 0.0
        for t in reversed(range(g.shape[0])):
            a[t] = acc = g[t] + lam.data * acc
            if restart[t]:
                acc = 0.0
        dlam = np.where(restart[1:, None], 0.0, a[1:] * data[:-1]).sum(axis=0)
        return a, dlam if carry is None or restart[0] else dlam + a[0] * carry

    return record_op(Tensor(data, copy=False), (v, lam), bw)


def interleave_columns(a, b):
    """Zip two (n, k) matrices into (n, 2k): a fills even, b odd columns."""
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"interleave_columns expects equal 2-D shapes, got {a.shape} and {b.shape}")
    n, k = a.shape
    data = np.empty((n, 2 * k))
    data[:, 0::2] = a.data
    data[:, 1::2] = b.data
    out = Tensor(data, copy=False)

    def bw(g):
        return np.ascontiguousarray(g[:, 0::2]), np.ascontiguousarray(g[:, 1::2])

    return record_op(out, (a, b), bw)


def embedding_lookup(table, ids):
    """Gather rows ``table[ids]``; backward scatter-adds into the table."""
    table = _lift(table)
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1:
        raise ValueError("embedding_lookup expects a flat id list")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[ids], copy=False)

    def bw(g):
        z = np.zeros_like(table.data)
        np.add.at(z, ids, g)
        return (z,)

    return record_op(out, (table,), bw)


def reduce_sum(a, axis=None, keepdims=False):
    a = _lift(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), copy=False)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return record_op(out, (a,), bw)


def reduce_mean(a, axis=None, keepdims=False):
    a = _lift(a)
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims), copy=False)
    count = a.data.size if axis is None else a.shape[axis]

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return record_op(out, (a,), bw)


# ---------------------------------------------------------------------------
# fused neural-net ops
# ---------------------------------------------------------------------------

def masked_softmax_rows(s, causal):
    """Softmax along the last axis of 2-D scores or of an (n, ., .) stack of them.

    ``causal`` is the keep-mask: True keeps the lower triangle of each square
    score matrix, False keeps every entry, and a boolean array of the scores'
    last two dimensions keeps its True entries (a pack's block-diagonal
    causal mask, shared by every matrix of a stack).  Masked entries, and
    entries that are -inf, are exactly zero in the output; rows are
    stabilized by subtracting the row max over unmasked entries.  A row
    holding NaN or +inf raises FloatingPointError naming that row.
    """
    s = _lift(s)
    if s.ndim not in (2, 3):
        raise ValueError(f"masked_softmax_rows expects 2-D or 3-D scores, got shape {s.shape}")
    scores = s.data
    if causal is True:
        if scores.shape[-2] != scores.shape[-1]:
            raise ValueError(f"causal mask requires square scores, got {s.shape}")
        causal = np.tri(scores.shape[-1], dtype=bool)
    if causal is not False:
        keep = np.asarray(causal, dtype=bool)
        if keep.shape != scores.shape[-2:]:
            raise ValueError(f"keep-mask of shape {keep.shape} does not fit scores of shape {s.shape}")
        scores = np.where(keep, scores, -np.inf)
    m = np.max(scores, axis=-1, keepdims=True)
    bad = np.argwhere(np.isnan(m) | (m == np.inf))
    if bad.size:
        *matrix, row, _ = bad[0]
        raise FloatingPointError(f"non-finite softmax score (NaN or +inf) in row {row}"
                                 + (f" of matrix {matrix[0]}" if matrix else ""))
    if np.isneginf(m).any():
        raise ValueError("softmax row with every entry masked")
    e = np.exp(scores - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, copy=False)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return record_op(out, (s,), bw)


def layer_norm(x, gain, shift, eps=1e-5):
    """Per-row standardization followed by a featurewise affine map."""
    x, gain, shift = _lift(x), _lift(gain), _lift(shift)
    if x.ndim != 2:
        raise ValueError(f"layer_norm expects a 2-D input, got shape {x.shape}")
    n, d = x.shape
    if d < 2:
        raise ValueError("layer_norm requires at least 2 features per row")
    if gain.shape != (d,) or shift.shape != (d,):
        raise ValueError(f"gain/shift must have shape ({d},), got {gain.shape} and {shift.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = Tensor(y * gain.data + shift.data, copy=False)

    def bw(g):
        dgain = (g * y).sum(axis=0)
        dshift = g.sum(axis=0)
        dy = g * gain.data
        dx = inv * (dy - dy.mean(axis=1, keepdims=True) - y * (dy * y).mean(axis=1, keepdims=True))
        return dx, dgain, dshift

    return record_op(out, (x, gain, shift), bw)


def cross_entropy(logits, targets):
    """Mean negative log-likelihood over all rows, log-sum-exp stabilized.

    ``targets`` are token ids, one per row of ``logits``.
    """
    logits = _lift(logits)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
    n, v = logits.shape
    if n == 0:
        raise ValueError("cross_entropy needs at least one row")
    targets = np.asarray(targets, dtype=np.intp)
    if targets.shape != (n,):
        raise ValueError(f"targets must have length {n}, got {targets.shape}")
    if targets.min() < 0 or targets.max() >= v:
        raise IndexError(f"target id out of range for vocabulary of size {v}")
    m = logits.data.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits.data - m).sum(axis=1, keepdims=True))
    nll = lse[:, 0] - logits.data[np.arange(n), targets]
    out = Tensor(np.asarray(nll.sum() / n), copy=False)

    def bw(g):
        p = np.exp(logits.data - lse)
        p[np.arange(n), targets] -= 1.0
        p *= (1.0 / n) * float(g)
        return (p,)

    return record_op(out, (logits,), bw)
