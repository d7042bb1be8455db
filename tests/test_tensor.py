import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from s2vc import tensor as T
from s2vc.tensor import (
    AdamW,
    GradError,
    GradTape,
    NumericError,
    OptimizerError,
    ShapeError,
    Tensor,
    clip_global_norm,
)

from conftest import gradcheck


class TestMatmul:
    def test_identity(self):
        x = Tensor(np.arange(8.0).reshape(2, 4))
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(T.matmul(eye, x).data, x.data)

    def test_hand_evaluated(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        gradcheck(lambda ts: T.sum_(T.matmul(ts[0], ts[1])), [a, b])


class TestElementwise:
    def test_relu(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_abs_backward_sign_oracle(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        with GradTape() as tape:
            tape.backward(T.sum_(T.abs_(x)))
        np.testing.assert_array_equal(x.grad, np.sign(x.data))

    def test_non_broadcastable_shapes_error(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            # column vector broadcasting is deliberately unsupported
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((2, 1)))

    def test_row_broadcast_grad_sums(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.zeros((1, 2)), requires_grad=True)
        with GradTape() as tape:
            tape.backward(T.sum_(x + b))
        np.testing.assert_array_equal(b.grad, [[3.0, 3.0]])

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "relu", "exp",
                                    "log", "abs", "sqrt", "sigmoid"])
    def test_gradcheck_random_inputs(self, op, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0  # positive-safe for div
        pos = np.abs(a) + 0.5
        rtol = 1e-3 if op in ("exp", "log", "sqrt") else 1e-4
        fns = {
            "add": lambda ts: T.sum_(ts[0] + ts[1]),
            "sub": lambda ts: T.sum_(ts[0] - ts[1]),
            "mul": lambda ts: T.sum_(ts[0] * ts[1]),
            "div": lambda ts: T.sum_(ts[0] / ts[1]),
            "relu": lambda ts: T.sum_(T.relu(ts[0])),
            "exp": lambda ts: T.sum_(T.exp(ts[0])),
            "log": lambda ts: T.sum_(T.log(ts[0])),
            "abs": lambda ts: T.sum_(T.abs_(ts[0])),
            "sqrt": lambda ts: T.sum_(T.sqrt(ts[0])),
            "sigmoid": lambda ts: T.sum_(T.sigmoid(ts[0])),
        }
        if op in ("log", "sqrt"):
            gradcheck(fns[op], [pos], rtol=rtol)
        elif op in ("add", "sub", "mul", "div"):
            gradcheck(fns[op], [a, b], rtol=rtol)
        elif op == "relu":
            # keep away from the kink at 0
            gradcheck(fns[op], [a + 0.01 * np.sign(a)], rtol=rtol)
        else:
            gradcheck(fns[op], [a], rtol=rtol)

    def test_nan_raises_immediately(self):
        with pytest.raises(NumericError):
            T.exp(Tensor([1000.0]))
        with pytest.raises(NumericError):
            T.log(Tensor([-1.0]))


class TestSoftmax:
    def test_uniform_on_constant(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)

    def test_jacobian_vs_finite_differences(self, rng):
        x = rng.normal(size=(2, 5))
        v = rng.normal(size=(2, 5))
        gradcheck(lambda ts: T.sum_(T.softmax(ts[0], axis=1) * Tensor(v, dtype=np.float64)),
                  [x])

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float32, (3, 6),
                  elements=st.floats(-50, 50, width=32)))
    def test_rows_are_distributions(self, x):
        out = T.softmax(Tensor(x), axis=1).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with GradTape() as tape:
            tape.backward(T.sum_(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_linear_regression_gradcheck(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=(1, 2))
        y = rng.normal(size=(3, 2))

        def f(ts):
            xt, wt, bt = ts
            r = T.matmul(xt, wt) + bt - Tensor(y, dtype=np.float64)
            return T.sum_(r * r)

        gradcheck(f, [x, w, b])

    def test_non_scalar_loss_errors(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            y = x * 2.0
            with pytest.raises(GradError):
                tape.backward(y)

    def test_double_backward_errors(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            loss = T.sum_(x * 2.0)
            tape.backward(loss)
            with pytest.raises(GradError):
                tape.backward(loss)

    def test_off_path_leaf_gets_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            _unused = y * 5.0
            tape.backward(T.sum_(x))
        np.testing.assert_array_equal(y.grad, np.zeros(3))

    def test_forward_deterministic(self):
        x = np.random.default_rng(7).normal(size=(8, 8)).astype(np.float32)
        a = T.softmax(T.matmul(Tensor(x), Tensor(x.T)), axis=1).data
        b = T.softmax(T.matmul(Tensor(x), Tensor(x.T)), axis=1).data
        assert a.tobytes() == b.tobytes()


def _adamw_scalar_oracle(theta, grads, lr, beta1, beta2, eps, wd):
    """Independent pure-python AdamW evaluation."""
    m = v = 0.0
    t = 0
    for g in grads:
        t += 1
        theta *= 1.0 - lr * wd
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta -= lr * m_hat / (v_hat ** 0.5 + eps)
    return theta


class TestAdamW:
    def test_zero_gradient_no_change(self):
        p = Tensor(np.ones(4), requires_grad=True)
        opt = AdamW({"p": p}, lr=1e-3, weight_decay=0.0)
        p.grad = np.zeros(4, dtype=np.float32)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude(self):
        p = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True,
                   dtype=np.float64)
        opt = AdamW({"p": p}, lr=5e-5, weight_decay=0.0)
        p.grad = np.ones(1)
        opt.step()
        # bias-corrected m/sqrt(v) is 1 on the first step
        np.testing.assert_allclose(p.data, [-5e-5], rtol=1e-6)

    def test_two_steps_match_scalar_oracle(self):
        p = Tensor(np.array([0.5]), requires_grad=True, dtype=np.float64)
        opt = AdamW({"p": p}, lr=5e-5, weight_decay=0.01)
        for g in (0.3, -0.7):
            p.grad = np.array([g])
            opt.step()
        expected = _adamw_scalar_oracle(0.5, [0.3, -0.7], 5e-5, 0.9, 0.999,
                                        1e-8, 0.01)
        np.testing.assert_allclose(p.data, [expected], atol=1e-10)

    def test_degenerates_to_sign_sgd(self):
        # on the first step the bias-corrected m / sqrt(v) is sign(g)
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True, dtype=np.float64)
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.0)
        p.grad = np.array([0.5, -3.0])
        before = p.data.copy()
        opt.step()
        np.testing.assert_allclose(p.data, before - 0.01 * np.sign(p.grad),
                                   rtol=1e-6)

    def test_non_finite_grad_names_parameter(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW({"weights": p})
        p.grad = np.array([np.nan, 1.0], dtype=np.float32)
        with pytest.raises(OptimizerError, match="weights"):
            opt.step()


class TestClipGlobalNorm:
    def test_clip_applies_above_threshold(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 2.0, dtype=np.float32)
        pre = clip_global_norm({"p": p}, 1.0)
        assert pre == pytest.approx(4.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, abs=1e-6)

    def test_no_clip_below_threshold(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 0.1, dtype=np.float32)
        clip_global_norm({"p": p}, 1.0)
        np.testing.assert_array_equal(p.grad, np.full(4, 0.1, dtype=np.float32))


class TestShaping:
    def test_concat_and_slice_gradcheck(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))

        def f(ts):
            cat = T.concat_cols([ts[0], ts[1]])
            return T.sum_(T.cols(cat, 1, 5) * T.cols(cat, 0, 4))

        gradcheck(f, [a, b])

    def test_conv1d_vs_sliding_window_oracle(self, rng):
        x = rng.normal(size=(7, 1)).astype(np.float32)
        w = rng.normal(size=(1, 1, 3)).astype(np.float32)
        out = T.conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(1))).data
        padded = np.concatenate([[[0.0]], x, [[0.0]]])
        expected = np.array([
            sum(padded[t + j, 0] * w[0, 0, j] for j in range(3))
            for t in range(7)
        ]).reshape(7, 1)
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_conv1d_gradcheck(self, rng):
        x = rng.normal(size=(5, 2))
        w = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=3)
        gradcheck(lambda ts: T.sum_(T.conv1d(ts[0], ts[1], ts[2])), [x, w, b])

    def test_depthwise_conv_gradcheck(self, rng):
        x = rng.normal(size=(6, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        gradcheck(lambda ts: T.sum_(T.depthwise_conv1d(ts[0], ts[1], ts[2])),
                  [x, w, b])

    def test_depthwise_conv_without_bias(self, rng):
        x = rng.normal(size=(6, 3))
        w = rng.normal(size=(3, 5))
        gradcheck(lambda ts: T.sum_(T.abs_(T.depthwise_conv1d(ts[0], ts[1]))), [x, w])
        zero = Tensor(np.zeros(3))
        np.testing.assert_array_equal(T.depthwise_conv1d(Tensor(x), Tensor(w)).data,
                                      T.depthwise_conv1d(Tensor(x), Tensor(w), zero).data)

    def test_cross_entropy_gradcheck(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        gradcheck(lambda ts: T.cross_entropy(ts[0], labels), [logits])


# ---------------------------------------------------------------------------
# fused ops against the composite chains they replaced

def _composite_linear(x, w, b):
    return T.matmul(x, w) + b


def _composite_layer_norm(x, gamma, beta, eps):
    # per-row stats == per-column stats of the transpose
    xt = T.transpose(x)
    mu = T.mean(xt, axis=0, keepdims=True)
    centered = xt - mu
    var = T.mean(centered * centered, axis=0, keepdims=True)
    y = T.transpose(centered / T.sqrt(var + eps))
    return gamma * y + beta


def _composite_instance_norm(x, eps):
    mu = T.mean(x, axis=0, keepdims=True)
    centered = x - mu
    var = T.mean(centered * centered, axis=0, keepdims=True)
    return centered / T.sqrt(var + eps)


def _composite_batchnorm(x, gamma, beta, eps):
    return gamma * _composite_instance_norm(x, eps) + beta


def _composite_swish(x):
    return x * T.sigmoid(x)


def _composite_glu(x):
    half = x.shape[1] // 2
    return T.cols(x, 0, half) * T.sigmoid(T.cols(x, half, 2 * half))


def _composite_attention(q, k, v, n_heads, scale):
    dh, dvh = q.shape[1] // n_heads, v.shape[1] // n_heads
    heads, weights = [], []
    for h in range(n_heads):
        qh = T.cols(q, h * dh, (h + 1) * dh)
        kh = T.cols(k, h * dh, (h + 1) * dh)
        vh = T.cols(v, h * dvh, (h + 1) * dvh)
        attn = T.softmax(T.matmul(qh, T.transpose(kh)) * scale, axis=1)
        weights.append(attn.data)
        heads.append(T.matmul(attn, vh))
    return T.concat_cols(heads), np.stack(weights)


EPS = 1e-5

# name -> (fused op, composite oracle, input shapes); each maps a list of
# tensors to one output tensor
FUSED = {
    "linear": (lambda ts: T.linear(*ts), lambda ts: _composite_linear(*ts),
               [(5, 3), (3, 4), (1, 4)]),
    "layer_norm": (lambda ts: T.layer_norm(*ts, EPS),
                   lambda ts: _composite_layer_norm(*ts, EPS),
                   [(5, 6), (1, 6), (1, 6)]),
    "instance_norm": (lambda ts: T.instance_norm(ts[0], EPS),
                      lambda ts: _composite_instance_norm(ts[0], EPS), [(7, 3)]),
    "batchnorm": (lambda ts: T.batchnorm(*ts, EPS)[0],
                  lambda ts: _composite_batchnorm(*ts, EPS),
                  [(7, 3), (1, 3), (1, 3)]),
    "swish": (lambda ts: T.swish(ts[0]), lambda ts: _composite_swish(ts[0]),
              [(4, 5)]),
    # an odd width: the last column is ignored
    "glu": (lambda ts: T.glu(ts[0]), lambda ts: _composite_glu(ts[0]), [(4, 7)]),
    "attention_1head": (lambda ts: T.attention(*ts, 1, 0.5)[0],
                        lambda ts: _composite_attention(*ts, 1, 0.5)[0],
                        [(3, 4), (5, 4), (5, 6)]),
    "attention_2heads": (lambda ts: T.attention(*ts, 2, 0.7)[0],
                         lambda ts: _composite_attention(*ts, 2, 0.7)[0],
                         [(3, 4), (5, 4), (5, 6)]),
}


def _inputs(name, rng):
    return [rng.normal(size=shape) for shape in FUSED[name][2]]


def _weighted_sum(out):
    # a random upstream gradient exercises every output element differently
    upstream = np.random.default_rng(1).normal(size=out.shape)
    return T.sum_(out * Tensor(upstream, dtype=np.float64))


def _forward_and_grads(fn, arrays):
    ts = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    with GradTape() as tape:
        out = fn(ts)
        tape.backward(_weighted_sum(out))
    return out.data, [t.grad for t in ts]


class TestFusedOps:
    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_gradcheck(self, name, rng):
        fused = FUSED[name][0]
        gradcheck(lambda ts: _weighted_sum(fused(ts)), _inputs(name, rng))

    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_matches_composite_oracle(self, name, rng):
        fused, composite, _ = FUSED[name]
        arrays = _inputs(name, rng)
        out, grads = _forward_and_grads(fused, arrays)
        ref_out, ref_grads = _forward_and_grads(composite, arrays)
        np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_float32_stays_float32(self, name, rng):
        ts = [Tensor(a) for a in _inputs(name, rng)]
        assert FUSED[name][0](ts).data.dtype == np.float32

    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_non_finite_input_raises(self, name, rng):
        ts = [Tensor(a, requires_grad=True) for a in _inputs(name, rng)]
        ts[0].data[0, 0] = np.nan  # Tensor() itself refuses non-finite data
        with GradTape():
            with pytest.raises(NumericError, match=name.split("_")[0]):
                FUSED[name][0](ts)

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_attention_weights_are_the_oracle_rows(self, n_heads, rng):
        q, k, v = (Tensor(a) for a in _inputs("attention_1head", rng))
        _, weights = T.attention(q, k, v, n_heads, 0.5)
        _, ref = _composite_attention(q, k, v, n_heads, 0.5)
        assert weights.shape == (n_heads, 3, 5)
        np.testing.assert_allclose(weights.sum(axis=2), 1.0, atol=1e-6)
        np.testing.assert_allclose(weights, ref, atol=1e-6)

    def test_attention_heads_indivisible(self):
        x = Tensor(np.zeros((3, 6)))
        with pytest.raises(ShapeError, match="not divisible by 4 heads"):
            T.attention(x, x, x, 4, 1.0)

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError, match="linear"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))),
                     Tensor(np.zeros((1, 3))))

    def test_batchnorm_returns_batch_statistics(self, rng):
        x = rng.normal(size=(9, 4)) * 2.0 + 1.0
        ts = [Tensor(a) for a in (x, np.ones((1, 4)), np.zeros((1, 4)))]
        out, mu, var = T.batchnorm(*ts, EPS)
        np.testing.assert_allclose(mu, x.mean(axis=0, keepdims=True), rtol=1e-5)
        np.testing.assert_allclose(var, x.var(axis=0, keepdims=True), rtol=1e-5)
        np.testing.assert_allclose(out.data, (x - x.mean(0)) / np.sqrt(x.var(0) + EPS),
                                   atol=1e-5)


def _closure_grads(op, arrays, needs):
    """Run ``op`` once under a tape and call its backward closure directly,
    so a gradient left uncomputed shows as None."""
    ts = [Tensor(a, requires_grad=n, dtype=np.float64) for a, n in zip(arrays, needs)]
    tape = GradTape()
    with tape:
        out = op(ts)
    (_, _, backward_fn), = tape._ops
    return backward_fn(np.random.default_rng(2).normal(size=out.shape))


# ops whose backward skips the gradients of constant inputs
SKIPPING = {
    "matmul": (lambda ts: T.matmul(*ts), [(3, 4), (4, 2)]),
    "conv1d": (lambda ts: T.conv1d(*ts), [(6, 2), (3, 2, 3), (3,)]),
    "depthwise_conv1d": (lambda ts: T.depthwise_conv1d(*ts), [(6, 3), (3, 5), (3,)]),
    "depthwise_conv1d_no_bias": (lambda ts: T.depthwise_conv1d(*ts), [(6, 3), (3, 5)]),
    **{name: (fused, shapes) for name, (fused, _, shapes) in FUSED.items()},
}


class TestConstantInputsGetNoGradient:
    @pytest.mark.parametrize("name", sorted(SKIPPING))
    def test_needed_gradients_unchanged(self, name, rng):
        op, shapes = SKIPPING[name]
        arrays = [rng.normal(size=s) for s in shapes]
        full = _closure_grads(op, arrays, [True] * len(arrays))
        for needs in itertools.product([False, True], repeat=len(arrays)):
            if not any(needs):
                continue
            grads = _closure_grads(op, arrays, needs)
            for need, g, ref in zip(needs, grads, full):
                if need:
                    np.testing.assert_array_equal(g, ref)
                else:
                    assert g is None
