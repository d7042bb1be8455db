import dataclasses
import itertools

import numpy as np
import pytest

from s2vc import cpus, dsp
from s2vc import model as model_mod
from s2vc import nn
from s2vc import tensor as T
from s2vc.features import FeatureSequence, resolve_kind
from s2vc.model import (
    AttentionTrace,
    CheckpointError,
    ModelConfig,
    ModelError,
    S2VCModel,
    load_checkpoint,
    read_checkpoint_meta,
    read_trace,
    save_checkpoint,
    write_trace,
)
from s2vc.tensor import GradTape, Tensor
from s2vc.training import ABLATION_ROWS, reconstruction_loss

from conftest import gradcheck, malform_container, open_half_written
from toycorpus import tiny_model_config


def mel_seq(rng, t, utt="u", spk="s"):
    return FeatureSequence(resolve_kind("mel"),
                           rng.normal(size=(t, 80)).astype(np.float32),
                           100.0, utt, spk)


@pytest.fixture
def tiny_model():
    return S2VCModel(tiny_model_config(), seed=3)


class TestEncoders:
    def test_source_shape(self, tiny_model, rng):
        for t in (1, 5, 20):
            h = tiny_model.source_encode(mel_seq(rng, t))
            assert h.shape == (t, 64)

    def test_inference_batchnorm_is_per_frame(self, tiny_model, rng):
        frames = rng.normal(size=(6, 80)).astype(np.float32)
        seq_a = FeatureSequence(resolve_kind("mel"), frames, 100.0)
        shuffled = frames[[3, 1, 0, 5, 4, 2]]
        seq_b = FeatureSequence(resolve_kind("mel"), shuffled, 100.0)
        ha = tiny_model.source_encode(seq_a, train=False).data
        hb = tiny_model.source_encode(seq_b, train=False).data
        np.testing.assert_allclose(ha[3], hb[0], atol=1e-6)

    def test_source_stack_gradcheck(self, rng):
        # toy-size stack: linear -> batch-style norm -> relu twice
        w1 = rng.normal(size=(4, 8)) * 0.5
        w2 = rng.normal(size=(8, 8)) * 0.5
        x = rng.normal(size=(3, 4))

        def f(ts):
            xt, a, b = ts
            h = T.relu(nn.instance_norm(T.matmul(xt, a)))
            return T.sum_(T.abs_(T.matmul(h, b)))

        gradcheck(f, [x, w1, w2], rtol=1e-3)

    def test_target_shape_and_single_frame(self, tiny_model, rng):
        for t in (1, 7):
            h = tiny_model.target_encode(mel_seq(rng, t))
            assert h.shape == (t, 64)

    def test_kind_mismatch(self, tiny_model, rng):
        seq = FeatureSequence(resolve_kind("cpc"),
                              rng.normal(size=(4, 256)).astype(np.float32),
                              100.0)
        with pytest.raises(ModelError, match="kind"):
            tiny_model.source_encode(seq)


class TestSelfAttentionPool:
    def _pool(self, h, seed=0):
        params = {}
        nn.init_sap(params, "sap", h.shape[1], np.random.default_rng(seed))
        return nn.self_attention_pool(params, "sap", Tensor(h)).data[0]

    def test_single_frame_identity(self, rng):
        h = rng.normal(size=(1, 16)).astype(np.float32)
        np.testing.assert_allclose(self._pool(h), h[0], atol=1e-6)

    def test_identical_frames(self, rng):
        frame = rng.normal(size=16).astype(np.float32)
        h = np.tile(frame, (5, 1))
        np.testing.assert_allclose(self._pool(h), frame, atol=1e-6)

    def test_permutation_invariance(self, rng):
        h = rng.normal(size=(5, 16)).astype(np.float32)
        base = self._pool(h)
        for perm in itertools.permutations(range(5)):
            np.testing.assert_allclose(self._pool(h[list(perm)]), base,
                                       atol=1e-6)


class TestBatchnorm:
    def test_train_mode_updates_running_stats(self, rng):
        params, buffers = {}, {}
        nn.init_batchnorm(params, buffers, "bn", 4)
        buffers["bn.running_mean"].data[...] = 0.5
        buffers["bn.running_var"].data[...] = 2.0
        x = (rng.normal(size=(10, 4)) * 3.0 + 1.0).astype(np.float32)
        out = nn.batchnorm(params, buffers, "bn", Tensor(x), train=True).data
        np.testing.assert_allclose(out, (x - x.mean(0)) / np.sqrt(x.var(0) + nn.BN_EPS),
                                   atol=1e-5)
        rm = buffers["bn.running_mean"].data.copy()
        rv = buffers["bn.running_var"].data.copy()
        m = nn.BN_MOMENTUM
        np.testing.assert_allclose(rm, (1 - m) * 0.5 + m * x.mean(0, keepdims=True),
                                   rtol=1e-5)
        np.testing.assert_allclose(rv, (1 - m) * 2.0 + m * x.var(0, keepdims=True),
                                   rtol=1e-5)
        # eval mode normalizes with the running stats and leaves them alone
        out = nn.batchnorm(params, buffers, "bn", Tensor(x), train=False).data
        np.testing.assert_allclose(out, (x - rm) / np.sqrt(rv + nn.BN_EPS), atol=1e-5)
        np.testing.assert_array_equal(buffers["bn.running_mean"].data, rm)
        np.testing.assert_array_equal(buffers["bn.running_var"].data, rv)


class TestInstanceNorm:
    def test_constant_channel_zeros(self):
        x = Tensor(np.full((4, 3), 2.5, dtype=np.float32))
        np.testing.assert_allclose(nn.instance_norm(x).data, 0.0, atol=1e-6)

    def test_two_point_channel(self):
        x = Tensor(np.array([[1.0], [3.0]], dtype=np.float32))
        out = nn.instance_norm(x).data
        np.testing.assert_allclose(out, [[-1.0], [1.0]], rtol=1e-4)

    def test_statistics(self, rng):
        x = Tensor(rng.normal(size=(32, 8)).astype(np.float32) * 3.0 + 1.0)
        out = nn.instance_norm(x).data
        assert np.abs(out.mean(axis=0)).max() < 1e-5
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-3


def naive_attention(q, k, scale):
    """Double-loop softmax(q k^T * scale) oracle."""
    tq, tk = q.shape[0], k.shape[0]
    scores = np.zeros((tq, tk))
    for i in range(tq):
        for j in range(tk):
            scores[i, j] = float(np.dot(q[i].astype(np.float64),
                                        k[j].astype(np.float64))) * scale
    out = np.zeros_like(scores)
    for i in range(tq):
        row = scores[i] - scores[i].max()
        e = np.exp(row)
        out[i] = e / e.sum()
    return out


class TestCrossAttention:
    def test_single_target_frame_gets_full_weight(self, rng):
        model = S2VCModel(tiny_model_config(), seed=1)
        src_h = Tensor(rng.normal(size=(6, 64)).astype(np.float32))
        tgt_h = Tensor(rng.normal(size=(1, 64)).astype(np.float32))
        _, trace = model.cross_attention(src_h, tgt_h)
        np.testing.assert_allclose(trace.attn_weights, 1.0, atol=1e-6)

    def test_bottleneck_widths(self, rng):
        model = S2VCModel(tiny_model_config(d_model=512, conformer_ff_dim=64),
                          seed=1)
        src_h = Tensor(rng.normal(size=(3, 512)).astype(np.float32))
        tgt_h = Tensor(rng.normal(size=(4, 512)).astype(np.float32))
        _, trace = model.cross_attention(src_h, tgt_h)
        assert trace.q.shape == (3, 4)
        assert trace.k.shape == (4, 4)
        assert trace.v.shape == (4, 512)

    def test_matches_naive_oracle(self, rng):
        model = S2VCModel(tiny_model_config(), seed=2)
        src_h = Tensor(rng.normal(size=(3, 64)).astype(np.float32))
        tgt_h = Tensor(rng.normal(size=(4, 64)).astype(np.float32))
        _, trace = model.cross_attention(src_h, tgt_h)
        scale = 1.0 / np.sqrt(model.config.attn_dim)
        expected = naive_attention(trace.q, trace.k, scale)
        np.testing.assert_allclose(trace.attn_weights, expected, atol=1e-5)

    def test_rows_are_distributions_random_configs(self, rng):
        for _ in range(20):
            ts = int(rng.integers(2, 9))
            tt = int(rng.integers(2, 9))
            model = S2VCModel(tiny_model_config(), seed=int(rng.integers(100)))
            src_h = Tensor(rng.normal(size=(ts, 64)).astype(np.float32))
            tgt_h = Tensor(rng.normal(size=(tt, 64)).astype(np.float32))
            _, trace = model.cross_attention(src_h, tgt_h)
            assert np.all(trace.attn_weights >= 0)
            np.testing.assert_allclose(trace.attn_weights.sum(axis=1), 1.0,
                                       atol=1e-5)

    def test_disabled_returns_input(self, rng):
        model = S2VCModel(tiny_model_config(use_cross_attention=False), seed=1)
        src_h = Tensor(rng.normal(size=(5, 64)).astype(np.float32))
        tgt_h = Tensor(rng.normal(size=(4, 64)).astype(np.float32))
        out, trace = model.cross_attention(src_h, tgt_h)
        np.testing.assert_array_equal(out.data, src_h.data)
        assert trace.attn_weights.shape == (5, 0)

    def test_empty_target_errors(self, rng):
        model = S2VCModel(tiny_model_config(), seed=1)
        src_h = Tensor(rng.normal(size=(5, 64)).astype(np.float32))
        tgt_h = Tensor(np.zeros((0, 64), dtype=np.float32))
        with pytest.raises(ModelError):
            model.cross_attention(src_h, tgt_h)


class TestDecoder:
    def test_output_shape(self, tiny_model, rng):
        h = Tensor(rng.normal(size=(9, 64)).astype(np.float32))
        assert tiny_model.decode(h).shape == (9, 80)

    def test_zero_output_projection(self, tiny_model, rng):
        tiny_model.params["dec.out.w"].data[...] = 0.0
        tiny_model.params["dec.out.b"].data[...] = 0.0
        h = Tensor(rng.normal(size=(4, 64)).astype(np.float32))
        np.testing.assert_array_equal(tiny_model.decode(h).data, 0.0)

    def test_conformer_block_gradcheck(self, rng):
        cfg = tiny_model_config(d_model=8, conformer_ff_dim=16,
                                conformer_conv_kernel=3, mel_dim=4)
        params, buffers = {}, {}
        nn.init_conformer_block(params, buffers, "blk",
                                cfg, np.random.default_rng(0))
        x = rng.normal(size=(2, 8)) * 0.5
        names = ["blk.ff1.in.w", "blk.attn.q.w", "blk.conv.dw.w"]

        def f(ts):
            p = dict(params)
            p64 = {k: Tensor(v.data.astype(np.float64), dtype=np.float64)
                   for k, v in p.items()}
            b64 = {k: Tensor(v.data.astype(np.float64), dtype=np.float64)
                   for k, v in buffers.items()}
            for name, t in zip(names, ts[1:]):
                p64[name] = t
            out = nn.conformer_block(p64, b64, "blk", ts[0], cfg, train=False)
            return T.sum_(T.abs_(out))

        inputs = [x] + [params[n].data.astype(np.float64) for n in names]
        gradcheck(f, inputs, rtol=1e-3)


class CountingTape(GradTape):
    def __init__(self):
        super().__init__()
        self.n_ops = 0

    def record(self, output, inputs, backward_fn):
        self.n_ops += 1
        super().record(output, inputs, backward_fn)


class TestForward:
    def test_train_forward_tape_op_count(self, tiny_model, rng):
        # each layer is one fused op: the composite layers recorded 493 ops
        # here, the fused ones 117
        with CountingTape() as tape:
            tiny_model.forward(mel_seq(rng, 30), [mel_seq(rng, 20)], train=True)
        assert tape.n_ops <= 130

    def test_train_mode_shapes(self, tiny_model, rng):
        src = mel_seq(rng, 12, spk="s1")
        mel, trace = tiny_model.forward(src, [src], train=True)
        assert mel.shape == (12, 80)
        assert trace.pooled_target is not None

    def test_no_sap_no_pooled(self, rng):
        model = S2VCModel(tiny_model_config(use_sap=False), seed=1)
        src = mel_seq(rng, 6, spk="s1")
        tgt = mel_seq(rng, 8, utt="t", spk="s1")
        _, trace = model.forward(src, [tgt])
        assert trace.pooled_target is None

    def test_sap_embedding_invariant_to_utterance_order(self, tiny_model, rng):
        src = mel_seq(rng, 6, spk="s1")
        tgts = [mel_seq(rng, int(rng.integers(4, 9)), utt=f"t{i}", spk="s2")
                for i in range(5)]
        _, base = tiny_model.forward(src, tgts)
        order = [4, 2, 0, 3, 1]
        _, perm = tiny_model.forward(src, [tgts[i] for i in order])
        np.testing.assert_allclose(perm.pooled_target, base.pooled_target,
                                   atol=1e-6)

    def test_duplicate_target_halves_weights(self, tiny_model, rng):
        src = mel_seq(rng, 5, spk="s1")
        tgt = mel_seq(rng, 7, utt="t", spk="s2")
        mel_single, tr1 = tiny_model.forward(src, [tgt])
        mel_double, tr2 = tiny_model.forward(src, [tgt, tgt])
        tt = tgt.num_frames
        np.testing.assert_allclose(tr2.attn_weights[:, :tt] +
                                   tr2.attn_weights[:, tt:],
                                   tr1.attn_weights, atol=1e-5)
        np.testing.assert_allclose(mel_double.data, mel_single.data, atol=1e-5)

    def test_ablation_flags_only_remove_their_params(self):
        base = S2VCModel(tiny_model_config(), seed=0)
        no_sap = S2VCModel(tiny_model_config(use_sap=False), seed=0)
        diff = set(base.params) - set(no_sap.params)
        assert diff == {"sap.w"}
        for k in no_sap.params:
            assert no_sap.params[k].shape == base.params[k].shape

    def test_infer_deterministic(self, tiny_model, rng):
        src = mel_seq(rng, 6, spk="s1")
        tgt = mel_seq(rng, 9, utt="t", spk="s2")
        a, _ = tiny_model.forward(src, [tgt])
        b, _ = tiny_model.forward(src, [tgt])
        assert a.data.tobytes() == b.data.tobytes()

    def test_mixed_target_speakers_rejected(self, tiny_model, rng):
        tgts = [mel_seq(rng, 5, utt="t1", spk="s2"), mel_seq(rng, 5, utt="t2", spk="s3")]
        with pytest.raises(ModelError, match="mix speakers"):
            tiny_model.forward(mel_seq(rng, 4, spk="s1"), tgts)

    def test_targets_must_be_a_nonempty_list(self, tiny_model, rng):
        src = mel_seq(rng, 4, spk="s1")
        for tgts in ([], mel_seq(rng, 5)):
            with pytest.raises(ModelError, match="non-empty list"):
                tiny_model.forward(src, tgts)

    def test_target_kind_mismatch_rejected(self, tiny_model, rng):
        tgt = FeatureSequence(resolve_kind("cpc"),
                              rng.normal(size=(5, 256)).astype(np.float32), 100.0)
        with pytest.raises(ModelError, match="target feature kind mismatch"):
            tiny_model.forward(mel_seq(rng, 4), [tgt])

    def test_target_width_checked_against_the_config(self, rng):
        model = S2VCModel(tiny_model_config(target_feature_kind="ppg", target_dim=40),
                          seed=0)

        def ppg(dim):
            return FeatureSequence(resolve_kind("ppg", dim=dim),
                                   rng.normal(size=(6, dim)).astype(np.float32), 100.0)

        mel, _ = model.forward(mel_seq(rng, 4), [ppg(40)])
        assert mel.shape == (4, 80)
        with pytest.raises(ModelError, match="target feature dim mismatch.* 40, got 72"):
            model.forward(mel_seq(rng, 4), [ppg(72)])

    def test_instance_norm_invariant_on_qk(self, rng):
        model = S2VCModel(tiny_model_config(use_bottleneck=False), seed=5)
        src = mel_seq(rng, 10, spk="s1")
        tgt = mel_seq(rng, 12, utt="t", spk="s2")
        _, trace = model.forward(src, [tgt])
        assert np.abs(trace.q.mean(axis=0)).max() < 1e-4
        assert np.abs(trace.k.mean(axis=0)).max() < 1e-4


def n_values(model):
    return sum(p.size for p in model.params.values())


class TestArchitecture:
    """The model's shape follows from the four ablation flags and the sizes."""

    def test_config_fields(self):
        names = {f.name for f in dataclasses.fields(ModelConfig)}
        assert len(names) == 13
        assert not names & set(model_mod.RETIRED_CONFIG_KEYS)

    def test_parameter_counts(self):
        tiny = S2VCModel(tiny_model_config(), seed=0)
        assert (len(tiny.params), n_values(tiny)) == (124, 293_076)
        assert n_values(S2VCModel(ModelConfig(), seed=0)) == 16_888_916

    def test_flags_select_the_attention_block(self):
        base = S2VCModel(tiny_model_config(), seed=0)
        no_attn = S2VCModel(tiny_model_config(use_cross_attention=False), seed=0)
        assert len(no_attn.params) == 117
        assert set(base.params) - set(no_attn.params) == {
            "attn.0.wq.w", "attn.0.wk.w", "attn.0.wv.w", "attn.0.wv.b",
            "attn.0.bq.w", "attn.0.bq.b", "attn.0.bk.w"}
        # without instance norm nothing cancels the query bias
        no_in = S2VCModel(tiny_model_config(use_instance_norm=False), seed=0)
        assert set(no_in.params) - set(base.params) == {"attn.0.wq.b"}

    @pytest.mark.parametrize("overrides", [o for _, _, o in ABLATION_ROWS],
                             ids=[name for _, name, _ in ABLATION_ROWS])
    def test_every_parameter_gets_a_gradient(self, overrides, rng):
        # float64, so that a gradient that is zero in exact arithmetic comes
        # out near 1e-17 and stands apart from rounding noise
        model = S2VCModel(tiny_model_config(**overrides), seed=0)
        for k, p in model.params.items():
            data = p.data
            if k.endswith((".b", ".beta")):
                data = rng.normal(scale=0.1, size=data.shape)
            model.params[k] = Tensor(data, requires_grad=True, dtype=np.float64)
        model.buffers = {k: Tensor(b.data, dtype=np.float64)
                         for k, b in model.buffers.items()}
        utt = mel_seq(rng, 12, spk="s1")
        with GradTape() as tape:
            pred, _ = model.forward(utt, [utt], train=True)
            loss = reconstruction_loss(pred, Tensor(utt.frames, dtype=np.float64))
            tape.backward(loss)
        max_grad = {k: float(np.abs(p.grad).max()) for k, p in model.params.items()}
        assert {k: g for k, g in max_grad.items() if not g > 1e-8} == {}


def legacy_checkpoint(path, model, rng):
    """Write ``model`` in the layout of checkpoints made before the retired
    config keys and zero-gradient biases were removed, every retired bias
    nonzero.  Each bias in front of batch norm is also added to the running
    mean after it, so the file describes the same eval-mode function."""
    cfg = model.config
    arrays = {k: v.copy() for k, v in model.state_arrays().items()}
    pre_norm = [(f"src.{i}.b", f"src.{i}.bn", (1, cfg.d_model))
                for i in range(model_mod.N_SOURCE_LAYERS)]
    pre_norm += [(f"dec.{i}.conv.dw.b", f"dec.{i}.conv.bn", (cfg.d_model,))
                 for i in range(model_mod.N_DECODER_CONFORMER)]
    for bias, bn, shape in pre_norm:
        b = rng.normal(scale=0.5, size=shape).astype(np.float32)
        arrays[f"param.{bias}"] = b
        arrays[f"buffer.{bn}.running_mean"] += b.reshape(1, -1)
    cancelled = [("attn.0.wq.b", cfg.d_model), ("attn.0.wk.b", cfg.d_model),
                 ("attn.0.bk.b", cfg.attn_bottleneck_dim)]
    cancelled += [(f"dec.{i}.attn.k.b", cfg.d_model)
                  for i in range(model_mod.N_DECODER_CONFORMER)]
    for name, width in cancelled:
        arrays[f"param.{name}"] = rng.normal(scale=0.5, size=(1, width)).astype(np.float32)
    # a config written before the keys retired records each at its fixed value
    meta = {"model_config": {**dataclasses.asdict(cfg), "n_attention_blocks": 1,
                             "sap_strategy": "add", "dropout": 0.0,
                             "n_source_layers": 4, "n_target_conv": 3,
                             "conv_kernel": 5, "n_decoder_conformer": 3,
                             "conformer_heads": 2},
            "mel_config": dataclasses.asdict(dsp.MelConfig())}
    path.write_bytes(model_mod._pack_blob_file(model_mod.CHECKPOINT_MAGIC, meta, arrays))


class TestLegacyCheckpoint:
    @pytest.fixture
    def trained_looking_model(self, rng):
        # nonzero biases and running statistics, as after training
        model = S2VCModel(tiny_model_config(), seed=7)
        for k, p in model.params.items():
            if k.endswith((".b", ".beta")):
                p.data[...] = rng.normal(scale=0.1, size=p.shape)
        for k, b in model.buffers.items():
            if k.endswith("running_mean"):
                b.data[...] = rng.normal(scale=0.3, size=b.shape)
            else:
                b.data[...] = rng.uniform(0.5, 2.0, size=b.shape)
        return model

    def test_loads_with_the_same_function(self, trained_looking_model, rng,
                                          tmp_path):
        path = tmp_path / "legacy.s2vc"
        legacy_checkpoint(path, trained_looking_model, rng)
        loaded, _, _, _ = load_checkpoint(path)
        assert loaded.params.keys() == trained_looking_model.params.keys()
        assert loaded.config == trained_looking_model.config
        src = mel_seq(rng, 9, spk="s1")
        tgts = [mel_seq(rng, 7, utt=f"t{i}", spk="s2") for i in range(3)]
        expected, _ = trained_looking_model.forward(src, tgts)
        got, _ = loaded.forward(src, tgts)
        np.testing.assert_allclose(got.data, expected.data, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("key,value", [("n_attention_blocks", 2),
                                           ("sap_strategy", "concat_project"),
                                           ("dropout", 0.1),
                                           ("n_decoder_conformer", 4)])
    def test_other_retired_value_rejected(self, key, value, tiny_model, tmp_path):
        path = tmp_path / "legacy.s2vc"
        meta = {"model_config": {**dataclasses.asdict(tiny_model.config), key: value},
                "mel_config": dataclasses.asdict(dsp.MelConfig())}
        path.write_bytes(model_mod._pack_blob_file(
            model_mod.CHECKPOINT_MAGIC, meta, tiny_model.state_arrays()))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)


class TestCheckpoint:
    def test_roundtrip_identical_forward(self, tiny_model, rng, tmp_path):
        src = mel_seq(rng, 6, spk="s1")
        tgt = mel_seq(rng, 9, utt="t", spk="s2")
        before, _ = tiny_model.forward(src, [tgt])
        path = tmp_path / "model.s2vc"
        save_checkpoint(tiny_model, path)
        loaded, mel_cfg, _, _ = load_checkpoint(path)
        after, _ = loaded.forward(src, [tgt])
        assert before.data.tobytes() == after.data.tobytes()
        assert mel_cfg.n_mels == 80

    def test_corrupted_byte_fails_checksum(self, tiny_model, tmp_path):
        path = tmp_path / "model.s2vc"
        save_checkpoint(tiny_model, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)

    def test_byte_identical_saves(self, tiny_model, tmp_path):
        p1, p2 = tmp_path / "a.s2vc", tmp_path / "b.s2vc"
        save_checkpoint(tiny_model, p1)
        save_checkpoint(tiny_model, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestLoadPath:
    @pytest.fixture
    def loaded(self, tiny_model, tmp_path):
        path = tmp_path / "model.s2vc"
        save_checkpoint(tiny_model, path,
                        extra_arrays={"adam_m": np.ones((3, 2), np.float32)})
        return load_checkpoint(path, extra_arrays=True)

    def test_extra_arrays_copied_only_when_asked(self, loaded, tmp_path):
        assert loaded[3].keys() == {"adam_m"}
        assert load_checkpoint(tmp_path / "model.s2vc")[3] == {}

    def test_arrays_are_own_aligned_writable_float32(self, loaded):
        model, _, _, extra_arrays = loaded
        for name, arr in [*model.state_arrays().items(), *extra_arrays.items()]:
            assert arr.dtype == np.float32, name
            assert arr.flags.c_contiguous and arr.flags.aligned, name
            assert arr.flags.writeable and arr.flags.owndata, name

    def test_no_two_arrays_share_memory(self, loaded):
        model, _, _, extra_arrays = loaded
        arrays = [*model.state_arrays().values(), *extra_arrays.values()]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_draws_no_random_numbers(self, tiny_model, tmp_path, monkeypatch):
        path = tmp_path / "model.s2vc"
        save_checkpoint(tiny_model, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(model_mod.np.random, "default_rng", no_rng)
        loaded, _, _, _ = load_checkpoint(path)
        for k, p in tiny_model.params.items():
            assert loaded.params[k].data.tobytes() == p.data.tobytes()

    def test_unknown_params_ignored(self, tiny_model, tmp_path):
        path = tmp_path / "model.s2vc"
        tiny_model.params["retired.w"] = Tensor(np.ones((2, 2)), requires_grad=True)
        save_checkpoint(tiny_model, path)
        loaded, _, _, _ = load_checkpoint(path)
        del tiny_model.params["retired.w"]
        assert loaded.params.keys() == tiny_model.params.keys()

    def test_wrong_shape_buffer_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "model.s2vc"
        tiny_model.buffers["src.0.bn.running_mean"] = Tensor(np.full((1, 1), 0.5))
        save_checkpoint(tiny_model, path)
        with pytest.raises(CheckpointError, match="shape mismatch for buffer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("how,match", [("overrun", "past the payload"),
                                           ("trailing", "after the last array")])
    @pytest.mark.parametrize("kind", ["checkpoint", "trace"])
    def test_malformed_container_rejected(self, kind, how, match, tiny_model,
                                          rng, tmp_path):
        if kind == "checkpoint":
            path = tmp_path / "model.s2vc"
            save_checkpoint(tiny_model, path)
            read = load_checkpoint
        else:
            path = tmp_path / "trace.s2vt"
            _, trace = tiny_model.forward(mel_seq(rng, 4, spk="s1"),
                                          [mel_seq(rng, 6, utt="t", spk="s2")])
            write_trace(path, trace)
            read = read_trace
        malform_container(path, how)
        with pytest.raises(CheckpointError, match=match):
            read(path)

    @pytest.mark.parametrize("kind", ["checkpoint", "trace"])
    def test_metadata_not_an_object_rejected(self, kind, tmp_path):
        magic, read = {"checkpoint": (model_mod.CHECKPOINT_MAGIC, load_checkpoint),
                       "trace": (model_mod.TRACE_MAGIC, read_trace)}[kind]
        path = tmp_path / "blob"
        path.write_bytes(model_mod._pack_blob_file(magic, [], {}))
        with pytest.raises(CheckpointError, match="no JSON object"):
            read(path)

    def test_metadata_without_model_config_rejected(self, tmp_path):
        path = tmp_path / "model.s2vc"
        path.write_bytes(model_mod._pack_blob_file(model_mod.CHECKPOINT_MAGIC,
                                                   {"mel_config": {}}, {}))
        with pytest.raises(CheckpointError, match="malformed checkpoint metadata"):
            load_checkpoint(path)


class TestMetaRead:
    """``read_checkpoint_meta`` reads the header and metadata alone: no array
    and no CRC, with ``extra`` held to the types ``load_checkpoint`` checks."""

    @pytest.fixture
    def path(self, tiny_model, tmp_path):
        path = tmp_path / "model.s2vc"
        save_checkpoint(tiny_model, path, extra_meta={"step": 3},
                        extra_arrays={"opt.m.w": np.ones((3, 2), np.float32)})
        return path

    def test_same_metadata_as_the_full_read(self, path):
        meta, _ = model_mod._read_blob_file(path, model_mod.CHECKPOINT_MAGIC)
        assert read_checkpoint_meta(path) == meta
        assert meta["extra"] == {"step": 3}

    def test_reads_no_array_and_no_crc(self, path, monkeypatch):
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF    # inside the last array
        path.write_bytes(bytes(raw))
        monkeypatch.setattr(model_mod, "_parse_blob", pytest.fail)
        monkeypatch.setattr(model_mod.zlib, "crc32", pytest.fail)
        assert read_checkpoint_meta(path)["extra"] == {"step": 3}

    @pytest.mark.parametrize("cut,match", [(0, "bad magic"), (12, "past the payload")])
    def test_cut_header_rejected(self, cut, match, path):
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CheckpointError, match=match):
            read_checkpoint_meta(path)

    def test_trace_is_bad_magic(self, tmp_path):
        path = tmp_path / "trace.s2vt"
        path.write_bytes(model_mod._pack_blob_file(model_mod.TRACE_MAGIC, {}, {}))
        with pytest.raises(CheckpointError, match="bad magic"):
            read_checkpoint_meta(path)

    @pytest.mark.parametrize("extra,match", [
        (["step"], "extra is no JSON object"),
        ({"train_speakers": 5}, "train_speakers = 5"),
        ({"train_speakers": ["spkA", 2]}, "expected a list of strings"),
    ])
    @pytest.mark.parametrize("read", [read_checkpoint_meta, load_checkpoint],
                             ids=["meta", "load"])
    def test_mistyped_extra_rejected(self, read, extra, match, tiny_model, tmp_path):
        path = tmp_path / "model.s2vc"
        save_checkpoint(tiny_model, path, extra_meta=extra)
        with pytest.raises(CheckpointError, match=match):
            read(path)


@pytest.fixture(params=[0, 1], ids=["serial", "crc-thread"])
def shares(request):
    """Runs a test serially, then with one share thread for the CRC."""
    with cpus.Shares(request.param):
        yield


def mapped(path):
    """The lines of this process's memory map that map ``path``."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return [line for line in fh if line.rstrip().endswith(str(path))]


class TestMappedLoad:
    """The load maps the file and computes its CRC beside the parse: a
    corrupted file is reported as such whichever of the two ends first, and
    the map is closed with no array left referring to it."""

    @pytest.fixture
    def path(self, tiny_model, tmp_path):
        path = tmp_path / "model.s2vc"
        save_checkpoint(tiny_model, path)
        return path

    def test_flipped_array_byte_is_crc_mismatch(self, path, shares):
        raw = bytearray(path.read_bytes())
        raw[-100] ^= 0xFF   # inside the payload of the last array
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            load_checkpoint(path)

    def test_flipped_length_field_is_crc_mismatch(self, path, shares):
        raw = bytearray(path.read_bytes())
        raw[9] ^= 0xFF      # the top byte of the metadata length
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="past the payload"):
            model_mod._parse_blob(bytes(raw), path)
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            load_checkpoint(path)

    def test_overrun_with_valid_crc_is_reported(self, path, shares):
        malform_container(path, "overrun")
        with pytest.raises(CheckpointError, match="past the payload"):
            load_checkpoint(path)

    def test_empty_file_is_bad_magic(self, path, shares):
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault", [None, "crc", "overrun"])
    def test_map_closed_and_file_replaceable(self, fault, path, tiny_model, shares):
        if fault == "overrun":
            malform_container(path, fault)
        elif fault == "crc":
            raw = bytearray(path.read_bytes())
            raw[-100] ^= 0xFF
            path.write_bytes(bytes(raw))
        if fault:
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        else:
            loaded, _, _, _ = load_checkpoint(path)
            for name, arr in loaded.state_arrays().items():
                assert arr.base is None and arr.flags.owndata, name
        assert mapped(path) == []
        other = S2VCModel(tiny_model_config(), seed=4)
        path.write_bytes(model_mod._pack_blob_file(
            model_mod.CHECKPOINT_MAGIC,
            {"model_config": dataclasses.asdict(other.config),
             "mel_config": dataclasses.asdict(dsp.MelConfig())},
            other.state_arrays()))
        reloaded, _, _, _ = load_checkpoint(path)
        for k, p in other.params.items():
            assert reloaded.params[k].data.tobytes() == p.data.tobytes()


class TestInterruptedWrite:
    @pytest.mark.parametrize("kind", ["checkpoint", "trace"])
    def test_previous_file_survives(self, kind, tiny_model, rng, tmp_path,
                                    monkeypatch):
        if kind == "checkpoint":
            path = tmp_path / "model.s2vc"
            write, read = (lambda: save_checkpoint(tiny_model, path)), load_checkpoint
        else:
            path = tmp_path / "trace.s2vt"
            _, trace = tiny_model.forward(mel_seq(rng, 4, spk="s1"),
                                          [mel_seq(rng, 6, utt="t", spk="s2")])
            write, read = (lambda: write_trace(path, trace)), read_trace
        write()
        good = path.read_bytes()
        monkeypatch.setattr(dsp, "open", open_half_written, raising=False)
        with pytest.raises(OSError, match="No space"):
            write()
        monkeypatch.undo()
        assert path.read_bytes() == good
        read(path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestTrace:
    def test_roundtrip(self, tiny_model, rng, tmp_path):
        src = mel_seq(rng, 4, spk="s1")
        tgt = mel_seq(rng, 6, utt="t", spk="s2")
        _, trace = tiny_model.forward(src, [tgt])
        path = tmp_path / "trace.s2vt"
        write_trace(path, trace)
        loaded = read_trace(path)
        for attr in ("q", "k", "v", "attn_weights"):
            assert getattr(loaded, attr).tobytes() == getattr(trace, attr).tobytes()
        np.testing.assert_array_equal(loaded.pooled_target, trace.pooled_target)

    def test_roundtrip_without_pooled(self, rng, tmp_path):
        model = S2VCModel(tiny_model_config(use_sap=False), seed=1)
        src = mel_seq(rng, 4, spk="s1")
        tgt = mel_seq(rng, 6, utt="t", spk="s2")
        _, trace = model.forward(src, [tgt])
        path = tmp_path / "trace.s2vt"
        write_trace(path, trace)
        assert read_trace(path).pooled_target is None

    @pytest.mark.parametrize("has_pooled,missing", [(False, "q"),
                                                    (True, "pooled_target")])
    def test_missing_array_rejected(self, has_pooled, missing, tmp_path):
        names = ["q", "k", "v", "attn_weights", "pooled_target"]
        arrays = {n: np.zeros((2, 2), np.float32) for n in names if n != missing}
        path = tmp_path / "trace.s2vt"
        path.write_bytes(model_mod._pack_blob_file(
            model_mod.TRACE_MAGIC, {"has_pooled": has_pooled}, arrays))
        with pytest.raises(CheckpointError, match=f"no '{missing}' array"):
            read_trace(path)
