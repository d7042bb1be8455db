"""Dense tensors with reverse-mode automatic differentiation.

Everything the network does is built from the primitives in this file: a
``Tensor`` wrapping a numpy array, a define-by-run ``GradTape`` that records
one backward closure per operation, and the AdamW optimizer.  The tape is
rebuilt on every forward pass; there is no retained graph.

Besides the elementwise, reduction and shaping primitives, the layers of the
network are fused ops, each one tape entry with an analytic backward:
``linear``, ``layer_norm``, ``instance_norm``, train-mode ``batchnorm``,
``swish``, ``glu`` and multi-head scaled-dot-product ``attention``.  A
backward closure computes only the gradients of inputs that require one.

Broadcasting is deliberately restricted to the two forms the model actually
uses (scalar-vs-tensor and row-vector-vs-matrix).  Anything else raises
``ShapeError`` instead of silently doing the numpy thing.

Any operation that produces a non-finite value raises ``NumericError``
immediately; NaN never propagates.
"""

from __future__ import annotations

import numpy as np

from . import Error, cpus

__all__ = [
    "Tensor",
    "GradTape",
    "TensorError",
    "ShapeError",
    "NumericError",
    "GradError",
    "OptimizerError",
    "AdamW",
    "accumulate_grad",
    "matmul",
    "linear",
    "transpose",
    "relu",
    "exp",
    "log",
    "abs_",
    "sqrt",
    "sigmoid",
    "swish",
    "glu",
    "softmax",
    "attention",
    "cross_entropy",
    "sum_",
    "mean",
    "layer_norm",
    "instance_norm",
    "batchnorm",
    "concat_rows",
    "concat_cols",
    "rows",
    "cols",
    "conv1d",
    "depthwise_conv1d",
    "clip_global_norm",
]


class TensorError(Error):
    pass


class ShapeError(TensorError):
    pass


class NumericError(TensorError):
    pass


class GradError(TensorError):
    """Tape misuse: non-scalar loss, double backward, empty tape."""


class OptimizerError(TensorError):
    pass


def _check_finite(arr, op_name):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op_name} produced non-finite values")


class Tensor:
    """A dense array that optionally participates in gradient recording.

    ``data`` is float32 by default; test oracles may construct float64
    tensors, and ops preserve the input dtype.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=np.float32):
        arr = np.asarray(data, dtype=dtype)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor constructed from non-finite data")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None

    @classmethod
    def _wrap(cls, arr, requires_grad=False):
        out = cls.__new__(cls)
        out.data = arr
        out.requires_grad = requires_grad
        out.grad = None
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic operators; python scalars are wrapped as constants
    def __add__(self, other):
        return _elementwise("add", self, _as_tensor(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return _elementwise("sub", self, _as_tensor(other, self))

    def __rsub__(self, other):
        return _elementwise("sub", _as_tensor(other, self), self)

    def __mul__(self, other):
        return _elementwise("mul", self, _as_tensor(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _elementwise("div", self, _as_tensor(other, self))

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor._wrap(np.asarray(x, dtype=like.data.dtype))


class GradTape:
    """Records operations in execution order (topological by construction).

    Use as a context manager around the forward pass; call ``backward`` once.
    A tape is single-use: a second backward without a fresh tape is an error.
    """

    _active = None

    def __init__(self):
        self._ops = []  # (output, inputs, backward_fn)
        self._consumed = False

    def __enter__(self):
        if GradTape._active is not None:
            raise GradError("nested gradient tapes are not supported")
        GradTape._active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        GradTape._active = None
        return False

    def record(self, output, inputs, backward_fn):
        self._ops.append((output, inputs, backward_fn))

    def backward(self, loss, accumulate=True):
        """Reverse-mode pass from a scalar loss.

        Returns ``(leaf, gradient)`` for every leaf on the tape that requires
        a gradient, in the order the tape first met it; a leaf the loss does
        not reach gets zeros.  Each gradient is also summed into its leaf's
        ``.grad``, unless ``accumulate`` is False.
        """
        if loss.data.size != 1:
            raise GradError(f"backward requires a scalar loss, got shape {loss.shape}")
        if not self._ops:
            raise GradError("backward on an empty tape")
        if self._consumed:
            raise GradError("tape already consumed; rebuild the forward pass")
        self._consumed = True

        grads = {id(loss): np.ones_like(loss.data)}
        produced = {id(out) for out, _, _ in self._ops}
        for out, inputs, backward_fn in reversed(self._ops):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for t, ig in zip(inputs, backward_fn(g)):
                if ig is None or not t.requires_grad:
                    continue
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + ig
                else:
                    grads[key] = ig

        leaves = {}
        for _, inputs, _ in self._ops:
            for t in inputs:
                if t.requires_grad and id(t) not in produced:
                    leaves[id(t)] = t
        # keep backrefs from leaking between steps
        self._ops = []
        out = []
        for key, t in leaves.items():
            g = grads.get(key)
            out.append((t, np.zeros_like(t.data) if g is None else g))
        if accumulate:
            for t, g in out:
                accumulate_grad(t, g)
        return out


def accumulate_grad(t, g):
    """Sum ``g`` into ``t.grad``: the one way leaf gradients are accumulated."""
    t.grad = g if t.grad is None else t.grad + g


def _make(result, op_name, inputs, backward_fn):
    _check_finite(result, op_name)
    tape = GradTape._active
    rg = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(result, requires_grad=rg)
    if rg:
        tape.record(out, inputs, backward_fn)
    return out


# ---------------------------------------------------------------------------
# broadcasting rules

def _broadcast_ok(sa, sb):
    if sa == sb:
        return True
    for x, y in ((sa, sb), (sb, sa)):
        if _size(x) == 1:  # scalar vs anything
            return True
        # row vector vs matrix
        if len(y) == 2 and (x == (y[1],) or x == (1, y[1])):
            return True
    return False


def _size(shape):
    n = 1
    for d in shape:
        n *= d
    return n


def _reduce_to(g, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    out = g
    while out.ndim > len(shape):
        out = out.sum(axis=0)
    for i, d in enumerate(shape):
        if d == 1 and out.shape[i] != 1:
            out = out.sum(axis=i, keepdims=True)
    return out.reshape(shape)


def _elementwise(op, a, b):
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(
            f"{op}: shapes {a.shape} and {b.shape} are not broadcast-compatible "
            "(only scalar and row-vector broadcasting supported)"
        )
    if op == "add":
        res = a.data + b.data

        def bw(g):
            return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    elif op == "sub":
        res = a.data - b.data

        def bw(g):
            return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    elif op == "mul":
        res = a.data * b.data

        def bw(g):
            return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    elif op == "div":
        if np.any(b.data == 0):
            raise NumericError("div: zero divisor")
        res = a.data / b.data

        def bw(g):
            ga = _reduce_to(g / b.data, a.shape)
            gb = _reduce_to(-g * a.data / (b.data * b.data), b.shape)
            return ga, gb

    else:  # pragma: no cover
        raise ValueError(op)
    return _make(res, op, (a, b), bw)


# ---------------------------------------------------------------------------
# unary ops

def relu(x):
    res = np.maximum(x.data, 0)

    def bw(g):
        return ((x.data > 0) * g,)

    return _make(res, "relu", (x,), bw)


def exp(x):
    with np.errstate(over="ignore"):
        res = np.exp(x.data)

    def bw(g):
        return (g * res,)

    return _make(res, "exp", (x,), bw)


def log(x):
    if np.any(x.data <= 0):
        raise NumericError("log: domain violation (non-positive input)")
    res = np.log(x.data)

    def bw(g):
        return (g / x.data,)

    return _make(res, "log", (x,), bw)


def abs_(x):
    res = np.abs(x.data)

    def bw(g):
        # subgradient 0 at exactly 0
        return (g * np.sign(x.data),)

    return _make(res, "abs", (x,), bw)


def sqrt(x):
    if np.any(x.data < 0):
        raise NumericError("sqrt: domain violation (negative input)")
    res = np.sqrt(x.data)

    def bw(g):
        return (g / (2.0 * np.maximum(res, np.finfo(res.dtype).tiny)),)

    return _make(res, "sqrt", (x,), bw)


def _logistic(a):
    return 1.0 / (1.0 + np.exp(-a))


def sigmoid(x):
    res = _logistic(x.data)

    def bw(g):
        return (g * res * (1.0 - res),)

    return _make(res, "sigmoid", (x,), bw)


def swish(x):
    """``x * sigmoid(x)``."""
    s = _logistic(x.data)
    res = x.data * s

    def bw(g):
        # d/dx = s * (1 + x * (1 - s))
        gx = 1.0 - s
        gx *= x.data
        gx += 1.0
        gx *= s
        gx *= g
        return (gx,)

    return _make(res, "swish", (x,), bw)


def glu(x):
    """Gated linear unit: the left half of the columns times the sigmoid of
    the right half; an odd last column is ignored."""
    half = x.shape[1] // 2
    a = x.data[:, :half]
    s = _logistic(x.data[:, half:2 * half])
    res = a * s

    def bw(g):
        gx = np.zeros_like(x.data)
        np.multiply(g, s, out=gx[:, :half])
        gb = gx[:, half:2 * half]
        np.multiply(g, a, out=gb)
        gb *= s
        gb *= 1.0 - s
        return (gx,)

    return _make(res, "glu", (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra

# A share of a split product does at least this many multiply-adds.  A
# smaller one gains nothing from a thread, and BLAS may compute it with other
# kernels than the whole product, whose sums can differ in the last bit.
MIN_SHARE_MACS = 1 << 23


def _matmul_rows(a, b):
    """``a @ b`` for 2-D arrays, the rows of ``a`` split across the active
    ``cpus.Shares`` unless a tape is recording.  Each row of the product is
    computed alone, so the split gives the same bits.

    An overflow is not warned of: the op's ``_check_finite`` reports it.
    """
    if GradTape._active is not None or (shares := cpus.active()).count == 1:
        with np.errstate(over="ignore"):
            return a @ b
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))

    def share(lo, hi):
        with np.errstate(over="ignore"):
            np.matmul(a[lo:hi], b, out=out[lo:hi])

    # each row of ``a`` costs ``b.size`` multiply-adds
    shares.rows(a.shape[0], share, -(-MIN_SHARE_MACS // max(1, b.size)))
    return out


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    res = _matmul_rows(a.data, b.data)

    def bw(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _make(res, "matmul", (a, b), bw)


def linear(x, w, b):
    """``x @ w + b``: ``x`` is T x d_in, ``w`` d_in x d_out, ``b`` 1 x d_out.

    Without a tape the rows of ``x`` are split across the active shares.
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != (1, w.shape[1])):
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {w.shape} + {b.shape}")
    res = _matmul_rows(x.data, w.data)
    res += b.data

    def bw(g):
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g if w.requires_grad else None,
                _reduce_to(g, b.shape) if b.requires_grad else None)

    return _make(res, "linear", (x, w, b), bw)


def transpose(x):
    if x.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D, got {x.shape}")
    res = x.data.T.copy()

    def bw(g):
        return (g.T,)

    return _make(res, "transpose", (x,), bw)


# ---------------------------------------------------------------------------
# reductions

def sum_(x, axis=None, keepdims=False):
    res = x.data.sum(axis=axis, keepdims=keepdims)
    res = np.asarray(res)

    def bw(g):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g.reshape(()), x.shape).astype(x.data.dtype, copy=True),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _make(res, "sum", (x,), bw)


def mean(x, axis=None, keepdims=False):
    n = x.data.size if axis is None else x.shape[axis]
    return sum_(x, axis=axis, keepdims=keepdims) * (1.0 / n)


# ---------------------------------------------------------------------------
# normalization

def _normalize(op_name, x, axis, eps, gamma=None, beta=None):
    """``(x - mean) / sqrt(var + eps)`` with the biased statistics of each
    row (axis 1) or column (axis 0) of a 2-D ``x``, then ``gamma * . + beta``
    with 1 x C ``gamma`` and ``beta`` when given.

    Returns the output and the mean and variance arrays, shaped for
    broadcasting against ``x``.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"{op_name}: expected 2-D, got {x.shape}")
    scale = 1.0 / x.shape[axis]
    mu = x.data.sum(axis=axis, keepdims=True) * scale
    xhat = x.data - mu
    var = (xhat * xhat).sum(axis=axis, keepdims=True) * scale
    std = np.sqrt(var + eps)
    xhat /= std
    if gamma is None:
        res, inputs = xhat, (x,)
    else:
        if gamma.shape != (1, x.shape[1]) or beta.shape != gamma.shape:
            raise ShapeError(f"{op_name}: affine {gamma.shape}/{beta.shape} "
                             f"does not fit {x.shape}")
        res, inputs = gamma.data * xhat + beta.data, (x, gamma, beta)

    def bw(g):
        grads = [None] * len(inputs)
        dy = g
        if gamma is not None:
            if gamma.requires_grad:
                grads[1] = (g * xhat).sum(axis=0, keepdims=True)
            if beta.requires_grad:
                grads[2] = g.sum(axis=0, keepdims=True)
            dy = g * gamma.data
        if x.requires_grad:
            # (dy - mean(dy) - xhat * mean(dy * xhat)) / std
            proj = (dy * xhat).sum(axis=axis, keepdims=True) * scale
            gx = xhat * proj
            np.subtract(dy, gx, out=gx)
            gx -= dy.sum(axis=axis, keepdims=True) * scale
            gx /= std
            grads[0] = gx
        return tuple(grads)

    return _make(res, op_name, inputs, bw), mu, var


def layer_norm(x, gamma, beta, eps):
    """Normalize each row of a T x C ``x`` over its channels, then apply the
    1 x C affine ``gamma``, ``beta`` (Ba et al. 2016)."""
    return _normalize("layer_norm", x, 1, eps, gamma, beta)[0]


def instance_norm(x, eps):
    """Normalize each channel of a T x C ``x`` over time; no affine."""
    return _normalize("instance_norm", x, 0, eps)[0]


def batchnorm(x, gamma, beta, eps):
    """Train-mode batch norm over the time axis of a T x C ``x``.

    Returns ``(output, mean, var)``; the 1 x C batch statistics feed the
    caller's running averages.
    """
    return _normalize("batchnorm", x, 0, eps, gamma, beta)


# ---------------------------------------------------------------------------
# softmax / losses

def softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    res = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * res).sum(axis=axis, keepdims=True)
        return (res * (g - dot),)

    return _make(res, "softmax", (x,), bw)


def _split_heads(a, n_heads):
    t, d = a.shape
    return a.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(a):
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def attention(q, k, v, n_heads, scale):
    """Multi-head scaled dot-product attention ``softmax(q k^T * scale) v``.

    ``q`` is Tq x d, ``k`` Tk x d and ``v`` Tk x dv; head h attends with
    column block h of each (width d / n_heads and dv / n_heads), and the
    head outputs sit side by side in the Tq x dv result.  Returns
    ``(output, weights)``, where ``weights`` is the n_heads x Tq x Tk array
    of attention rows.  The backward pass reuses that array as scratch, so a
    caller that keeps the weights must copy them before ``backward``.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError(f"attention: expected 2-D q, k, v, got {q.shape}, "
                         f"{k.shape}, {v.shape}")
    if k.shape[1] != q.shape[1] or v.shape[0] != k.shape[0]:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} "
                         "do not fit")
    if q.shape[1] % n_heads or v.shape[1] % n_heads:
        raise ShapeError(f"attention: widths {q.shape[1]} and {v.shape[1]} "
                         f"not divisible by {n_heads} heads")
    qh = _split_heads(q.data, n_heads)
    kh = _split_heads(k.data, n_heads)
    vh = _split_heads(v.data, n_heads)
    p = np.matmul(qh, kh.transpose(0, 2, 1))
    p *= scale
    p -= p.max(axis=2, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=2, keepdims=True)
    oh = np.matmul(p, vh)
    res = _merge_heads(oh)

    def bw(g):
        gh = _split_heads(g, n_heads)
        gq = gk = gv = None
        if v.requires_grad:
            gv = _merge_heads(np.matmul(p.transpose(0, 2, 1), gh))
        if q.requires_grad or k.requires_grad:
            # softmax backward: p * (dp - <dp, p>), where the row dot
            # <dp, p> = <g, p v> = <g, out>; p becomes the score gradient
            dp = np.matmul(gh, vh.transpose(0, 2, 1))
            dp -= (gh * oh).sum(axis=2, keepdims=True)
            np.multiply(p, dp, out=p)
            if q.requires_grad:
                gq = _merge_heads(np.matmul(p, kh)) * scale
            if k.requires_grad:
                gk = _merge_heads(np.matmul(p.transpose(0, 2, 1), qh)) * scale
        return gq, gk, gv

    return _make(res, "attention", (q, k, v), bw), p


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy over rows; ``labels`` is an int array."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: expected 2-D logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (logits.shape[0],):
        raise ShapeError("cross_entropy: one label per logit row required")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    n = logits.shape[0]
    res = np.asarray(-logp[np.arange(n), labels].mean(), dtype=logits.data.dtype)

    def bw(g):
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        return (np.asarray(g).reshape(()) * p / n,)

    return _make(res, "cross_entropy", (logits,), bw)


# ---------------------------------------------------------------------------
# shaping

def concat_rows(tensors):
    return _concat(tensors, axis=0)


def concat_cols(tensors):
    return _concat(tensors, axis=1)


def _concat(tensors, axis):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    res = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(
            g[offsets[i]:offsets[i + 1]] if axis == 0 else g[:, offsets[i]:offsets[i + 1]]
            for i in range(len(tensors))
        )

    return _make(res, "concat", tuple(tensors), bw)


def rows(x, start, stop):
    res = x.data[start:stop].copy()

    def bw(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        return (full,)

    return _make(res, "rows", (x,), bw)


def cols(x, start, stop):
    res = x.data[:, start:stop].copy()

    def bw(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        return (full,)

    return _make(res, "cols", (x,), bw)


# ---------------------------------------------------------------------------
# convolutions along the time axis

def conv1d(x, w, b):
    """Same-padded 1-D convolution over time.

    ``x`` is T x C_in, ``w`` is C_out x C_in x k, ``b`` is (C_out,).  Without
    a tape the rows of the im2col product are split across the active shares.
    """
    t_len, c_in = x.shape
    c_out, c_in_w, k = w.shape
    if c_in_w != c_in:
        raise ShapeError(f"conv1d: input has {c_in} channels, weight expects {c_in_w}")
    pad = k // 2
    xp = np.zeros((t_len + 2 * pad, c_in), dtype=x.data.dtype)
    xp[pad:pad + t_len] = x.data
    # im2col: (T, C_in * k) @ (C_in * k, C_out)
    col = np.stack([xp[j:j + t_len] for j in range(k)], axis=2).reshape(t_len, c_in * k)
    wm = w.data.transpose(1, 2, 0).reshape(c_in * k, c_out)
    res = _matmul_rows(col, wm)
    res += b.data

    def bw(g):
        gx = gw = gb = None
        if w.requires_grad:
            gw_m = col.T @ g  # (C_in*k, C_out)
            gw = gw_m.reshape(c_in, k, c_out).transpose(2, 0, 1)
        if b.requires_grad:
            gb = g.sum(axis=0)
        if x.requires_grad:
            gcol = (g @ wm.T).reshape(t_len, c_in, k)
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[j:j + t_len] += gcol[:, :, j]
            gx = gxp[pad:pad + t_len]
        return gx, gw, gb

    return _make(res, "conv1d", (x, w, b), bw)


def depthwise_conv1d(x, w, b=None):
    """Per-channel same-padded convolution; ``w`` is C x k, ``b`` is (C,) or
    None for no bias."""
    t_len, c = x.shape
    c_w, k = w.shape
    if c_w != c:
        raise ShapeError(f"depthwise_conv1d: {c} channels vs weight {c_w}")
    pad = k // 2
    xp = np.zeros((t_len + 2 * pad, c), dtype=x.data.dtype)
    xp[pad:pad + t_len] = x.data
    res = np.zeros((t_len, c), dtype=x.data.dtype)
    for j in range(k):
        res += xp[j:j + t_len] * w.data[:, j]
    inputs = (x, w)
    if b is not None:
        res = res + b.data
        inputs = (x, w, b)

    def bw(g):
        gx = gw = None
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[j:j + t_len] += g * w.data[:, j]
            gx = gxp[pad:pad + t_len]
        if w.requires_grad:
            gw = np.zeros_like(w.data)
            for j in range(k):
                gw[:, j] = (g * xp[j:j + t_len]).sum(axis=0)
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=0) if b.requires_grad else None

    return _make(res, "depthwise_conv1d", inputs, bw)


# ---------------------------------------------------------------------------
# optimizer

# AdamW's moment decays and denominator guard: training and both eval fits
# use these
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamW:
    """AdamW with decoupled weight decay applied before the adaptive step."""

    def __init__(self, params, lr=5e-5, weight_decay=0.01):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise OptimizerError(f"non-finite gradient for parameter '{name}'")
            if self.weight_decay != 0.0:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def clip_global_norm(params, max_norm):
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    total = 0.0
    tensors = list(params.values()) if isinstance(params, dict) else list(params)
    for p in tensors:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = total ** 0.5
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in tensors:
            if p.grad is not None:
                p.grad *= scale
    return norm
