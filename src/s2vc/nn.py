"""Functional network layers over the autodiff tensor primitives.

Parameters live in a flat ``{name: Tensor}`` dict owned by the model;
the functions here just consume slices of that dict.  Running batch-norm
statistics are plain float32 Tensors kept in a separate buffer dict and are
never recorded on the tape.

The ``init_*`` helpers create a layer's tensors.  Given ``rng`` None (or
``shape_only=True`` for the layers that draw nothing), they make a shape-only
skeleton: float32 storage that is neither drawn, written nor scanned, for a
checkpoint load to replace with its own arrays.
"""

from __future__ import annotations

import numpy as np

from . import cpus
from . import tensor as T
from .tensor import Tensor

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
IN_EPS = 1e-5
LN_EPS = 1e-5


def _unset(shape, requires_grad):
    return Tensor._wrap(np.empty(shape, dtype=np.float32), requires_grad)


def _uniform(rng, scale, shape):
    if rng is None:
        return _unset(shape, True)
    return Tensor(rng.uniform(-scale, scale, shape), requires_grad=True)


def _filled(value, shape, shape_only, requires_grad=True):
    if shape_only:
        return _unset(shape, requires_grad)
    return Tensor(np.full(shape, value), requires_grad=requires_grad)


def init_linear(params, name, d_in, d_out, rng, bias=True):
    scale = float(np.sqrt(6.0 / (d_in + d_out)))
    params[f"{name}.w"] = _uniform(rng, scale, (d_in, d_out))
    if bias:
        params[f"{name}.b"] = _filled(0.0, (1, d_out), rng is None)


def linear(params, name, x):
    b = params.get(f"{name}.b")
    if b is None:
        return T.matmul(x, params[f"{name}.w"])
    return T.linear(x, params[f"{name}.w"], b)


def init_batchnorm(params, buffers, name, dim, shape_only=False):
    params[f"{name}.gamma"] = _filled(1.0, (1, dim), shape_only)
    params[f"{name}.beta"] = _filled(0.0, (1, dim), shape_only)
    buffers[f"{name}.running_mean"] = _filled(0.0, (1, dim), shape_only, False)
    buffers[f"{name}.running_var"] = _filled(1.0, (1, dim), shape_only, False)


def update_running_stats(buffers, name, mu, var):
    """Fold one batch's statistics into a batch norm's running averages."""
    rm = buffers[f"{name}.running_mean"]
    rv = buffers[f"{name}.running_var"]
    rm.data[...] = (1 - BN_MOMENTUM) * rm.data + BN_MOMENTUM * mu
    rv.data[...] = (1 - BN_MOMENTUM) * rv.data + BN_MOMENTUM * var


def batchnorm(params, buffers, name, x, train, bn_stats=None):
    """Batch norm over the time axis of a T x C activation.

    Train mode normalizes with the batch statistics and folds them into the
    running averages, or, given a ``bn_stats`` list, appends
    ``(name, mu, var)`` to it for the caller to fold later with
    ``update_running_stats``.  Eval mode normalizes with the running averages.
    """
    gamma = params[f"{name}.gamma"]
    beta = params[f"{name}.beta"]
    if train:
        y, mu, var = T.batchnorm(x, gamma, beta, BN_EPS)
        if bn_stats is None:
            update_running_stats(buffers, name, mu, var)
        else:
            bn_stats.append((name, mu, var))
        return y
    rm = buffers[f"{name}.running_mean"]
    rv = buffers[f"{name}.running_var"]
    return gamma * ((x - rm) / np.sqrt(rv.data + BN_EPS)) + beta


def instance_norm(x, eps=IN_EPS):
    """Per-channel normalization over time, no learned affine."""
    return T.instance_norm(x, eps)


def init_layernorm(params, name, dim, shape_only=False):
    params[f"{name}.gamma"] = _filled(1.0, (1, dim), shape_only)
    params[f"{name}.beta"] = _filled(0.0, (1, dim), shape_only)


def layer_norm(params, name, x):
    return T.layer_norm(x, params[f"{name}.gamma"], params[f"{name}.beta"], LN_EPS)


def init_conv1d(params, name, c_in, c_out, kernel, rng):
    scale = float(np.sqrt(6.0 / (c_in * kernel + c_out)))
    params[f"{name}.w"] = _uniform(rng, scale, (c_out, c_in, kernel))
    params[f"{name}.b"] = _filled(0.0, c_out, rng is None)


def conv1d(params, name, x):
    return T.conv1d(x, params[f"{name}.w"], params[f"{name}.b"])


swish = T.swish
glu = T.glu


def init_mhsa(params, name, d_model, rng):
    # a key bias shifts each softmax row by a constant, so there is none
    for proj in ("q", "k", "v", "o"):
        init_linear(params, f"{name}.{proj}", d_model, d_model, rng, bias=proj != "k")


def multi_head_self_attention(params, name, x, n_heads):
    q = linear(params, f"{name}.q", x)
    k = linear(params, f"{name}.k", x)
    v = linear(params, f"{name}.v", x)
    scale = 1.0 / float(np.sqrt(x.shape[1] // n_heads))
    heads, _ = T.attention(q, k, v, n_heads, scale)
    return linear(params, f"{name}.o", heads)


def init_conformer_block(params, buffers, name, cfg, rng):
    d = cfg.d_model
    shape_only = rng is None
    init_layernorm(params, f"{name}.ff1.ln", d, shape_only)
    init_linear(params, f"{name}.ff1.in", d, cfg.conformer_ff_dim, rng)
    init_linear(params, f"{name}.ff1.out", cfg.conformer_ff_dim, d, rng)
    init_layernorm(params, f"{name}.attn.ln", d, shape_only)
    init_mhsa(params, f"{name}.attn", d, rng)
    init_layernorm(params, f"{name}.conv.ln", d, shape_only)
    init_linear(params, f"{name}.conv.pw1", d, 2 * d, rng)
    scale = float(np.sqrt(3.0 / cfg.conformer_conv_kernel))
    # no bias in front of batch norm, which subtracts it
    params[f"{name}.conv.dw.w"] = _uniform(rng, scale, (d, cfg.conformer_conv_kernel))
    init_batchnorm(params, buffers, f"{name}.conv.bn", d, shape_only)
    init_linear(params, f"{name}.conv.pw2", d, d, rng)
    init_layernorm(params, f"{name}.ff2.ln", d, shape_only)
    init_linear(params, f"{name}.ff2.in", d, cfg.conformer_ff_dim, rng)
    init_linear(params, f"{name}.ff2.out", cfg.conformer_ff_dim, d, rng)
    init_layernorm(params, f"{name}.final.ln", d, shape_only)


def _ff_rows(params, name, x):
    h = swish(linear(params, f"{name}.in", layer_norm(params, f"{name}.ln", x)))
    return linear(params, f"{name}.out", h)


def _ff(params, name, x):
    """The feed-forward module: layer norm, linear, swish, linear.

    Every row is computed alone, so without a tape the rows are split across
    the active shares, each share running the whole module with its own
    matmuls unsplit.
    """
    if T.GradTape._active is not None or (shares := cpus.active()).count == 1:
        return _ff_rows(params, name, x)
    parts = shares.rows(
        x.shape[0],
        lambda lo, hi: _ff_rows(params, name, Tensor._wrap(x.data[lo:hi])).data,
        T.min_share_rows(*params[f"{name}.in.w"].shape))
    return Tensor._wrap(parts[0] if len(parts) == 1 else np.concatenate(parts))


def conformer_block(params, buffers, name, x, cfg, train=False, bn_stats=None):
    """Pre-norm conformer: half-step FF, MHSA, conv module, half-step FF, LN."""
    x = x + 0.5 * _ff(params, f"{name}.ff1", x)
    attn_in = layer_norm(params, f"{name}.attn.ln", x)
    x = x + multi_head_self_attention(params, f"{name}.attn", attn_in,
                                      cfg.conformer_heads)
    c = layer_norm(params, f"{name}.conv.ln", x)
    c = glu(linear(params, f"{name}.conv.pw1", c))
    c = T.depthwise_conv1d(c, params[f"{name}.conv.dw.w"])
    c = swish(batchnorm(params, buffers, f"{name}.conv.bn", c, train, bn_stats))
    x = x + linear(params, f"{name}.conv.pw2", c)
    x = x + 0.5 * _ff(params, f"{name}.ff2", x)
    return layer_norm(params, f"{name}.final.ln", x)


def init_sap(params, name, d_model, rng):
    scale = float(np.sqrt(3.0 / d_model))
    params[f"{name}.w"] = _uniform(rng, scale, (d_model, 1))


def self_attention_pool(params, name, h):
    """Learned weighted temporal average; returns a 1 x d row."""
    scores = T.matmul(h, params[f"{name}.w"])  # T x 1
    alpha = T.softmax(T.transpose(scores), axis=1)  # 1 x T
    return T.matmul(alpha, h)
