"""The voice-conversion network and its on-disk formats.

Source encoder (4 x linear + batch norm), target encoder (3 x conv1d),
self-attention-pooling conditioning, cross attention with instance
normalization and a low-dimensional bottleneck on the Q/K path, and a
conformer decoder projecting to log-mel frames.

Checkpoints and attention traces use small CRC-guarded binary containers
documented in docs/formats.md.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import Error, check_field_types, cpus, nn
from . import tensor as T
from .dsp import DspError, MelConfig, write_atomic
from .features import align_frame_rate, resolve_kind
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "S2VCModel",
    "AttentionTrace",
    "ModelError",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "write_trace",
    "read_trace",
]

CHECKPOINT_MAGIC = b"S2VC"
TRACE_MAGIC = b"S2VT"
FORMAT_VERSION = 1


class ModelError(Error):
    pass


class CheckpointError(ModelError):
    pass


# the fixed architecture's layer counts and target-encoder kernel size
N_SOURCE_LAYERS = 4
N_TARGET_CONV = 3
TARGET_CONV_KERNEL = 5
N_DECODER_CONFORMER = 3

# keys of older configs -> the only value the one fixed architecture matches:
# a single cross-attention block, the pooled target vector added to the
# source encoding, no dropout, and the fixed depths, kernel and head count
RETIRED_CONFIG_KEYS = {
    "n_attention_blocks": 1, "sap_strategy": "add", "dropout": 0.0,
    "n_source_layers": N_SOURCE_LAYERS, "n_target_conv": N_TARGET_CONV,
    "conv_kernel": TARGET_CONV_KERNEL, "n_decoder_conformer": N_DECODER_CONFORMER,
    "conformer_heads": nn.CONFORMER_HEADS,
}


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 512
    source_feature_kind: str = "cpc"
    target_feature_kind: str = "cpc"
    source_dim: int = 0   # 0 -> nominal dim of the kind
    target_dim: int = 0
    conformer_ff_dim: int = 1024
    conformer_conv_kernel: int = 15
    attn_bottleneck_dim: int = 4
    use_bottleneck: bool = True
    use_instance_norm: bool = True
    use_sap: bool = True
    use_cross_attention: bool = True
    mel_dim: int = 80

    def __post_init__(self):
        check_field_types(self, ModelError)
        for f in ("d_model", "conformer_ff_dim", "conformer_conv_kernel",
                  "attn_bottleneck_dim", "mel_dim"):
            if getattr(self, f) <= 0:
                raise ModelError(f"{f} must be positive")
        if self.attn_bottleneck_dim > self.d_model:
            raise ModelError("attn_bottleneck_dim must not exceed d_model")
        for f in ("source_dim", "target_dim"):
            if getattr(self, f) < 0:
                raise ModelError(f"{f} must be non-negative")
        if self.d_model % nn.CONFORMER_HEADS:
            raise ModelError(f"d_model = {self.d_model} (expected a multiple of "
                             f"the {nn.CONFORMER_HEADS} conformer heads)")

    @property
    def attn_dim(self):
        return self.attn_bottleneck_dim if self.use_bottleneck else self.d_model

    def resolved_source_dim(self):
        return self.source_dim or resolve_kind(self.source_feature_kind).nominal_dim

    def resolved_target_dim(self):
        return self.target_dim or resolve_kind(self.target_feature_kind).nominal_dim

    @classmethod
    def from_dict(cls, d):
        """The config an ``asdict`` result describes.

        A retired key is accepted with the one value the fixed architecture
        reproduces, and dropped; any other value, or a ``d`` that is no
        dict, is an error.
        """
        if not isinstance(d, dict):
            raise ModelError("model_config is no JSON object")
        d = dict(d)
        for key, fixed in RETIRED_CONFIG_KEYS.items():
            value = d.pop(key, fixed)
            if value != fixed:
                raise ModelError(f"retired config key {key} = {value!r}; the "
                                 f"model only has {key} = {fixed!r}")
        return cls(**d)


@dataclass
class AttentionTrace:
    """Per-conversion record of the attention internals."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn_weights: np.ndarray
    pooled_target: np.ndarray | None = None


class S2VCModel:
    """All learnable parameters plus architecture configuration."""

    def __init__(self, config, seed=0):
        self.config = config
        self.params = {}
        self.buffers = {}
        self._build(np.random.default_rng(seed))

    @classmethod
    def from_state_arrays(cls, config, arrays):
        """The model whose parameters and buffers are ``arrays`` themselves.

        The skeleton that names the expected tensors is shape-only: it draws
        no random numbers and writes no parameter memory.
        """
        model = cls.__new__(cls)
        model.config = config
        model.params = {}
        model.buffers = {}
        model._build(None)
        model.load_state_arrays(arrays)
        return model

    def _build(self, rng):
        """Create every tensor, drawn from ``rng``; shape-only if it is None."""
        cfg = self.config
        d = cfg.d_model
        src_dim = cfg.resolved_source_dim()
        tgt_dim = cfg.resolved_target_dim()

        # batch norm subtracts any bias the layer in front of it could add
        for i in range(N_SOURCE_LAYERS):
            d_in = src_dim if i == 0 else d
            nn.init_linear(self.params, f"src.{i}", d_in, d, rng, bias=False)
            nn.init_batchnorm(self.params, self.buffers, f"src.{i}.bn", d,
                              shape_only=rng is None)

        for i in range(N_TARGET_CONV):
            c_in = tgt_dim if i == 0 else d
            nn.init_conv1d(self.params, f"tgt.{i}", c_in, d, TARGET_CONV_KERNEL, rng)

        if cfg.use_sap:
            nn.init_sap(self.params, "sap", d, rng)

        if cfg.use_cross_attention:
            # a key bias shifts each softmax row by a constant, and instance
            # norm subtracts a query bias
            nn.init_linear(self.params, "attn.0.wq", d, d, rng,
                           bias=not cfg.use_instance_norm)
            nn.init_linear(self.params, "attn.0.wk", d, d, rng, bias=False)
            nn.init_linear(self.params, "attn.0.wv", d, d, rng)
            if cfg.use_bottleneck:
                nn.init_linear(self.params, "attn.0.bq", d, cfg.attn_bottleneck_dim, rng)
                nn.init_linear(self.params, "attn.0.bk", d, cfg.attn_bottleneck_dim, rng,
                               bias=False)

        for i in range(N_DECODER_CONFORMER):
            nn.init_conformer_block(self.params, self.buffers, f"dec.{i}", cfg, rng)
        nn.init_linear(self.params, "dec.out", d, cfg.mel_dim, rng)

    # -- encoders ----------------------------------------------------------

    def source_encode(self, src, train=False, bn_stats=None):
        cfg = self.config
        self._check_seq(src, cfg.source_feature_kind, cfg.resolved_source_dim(),
                        "source")
        h = Tensor(src.frames)
        for i in range(N_SOURCE_LAYERS):
            h = nn.linear(self.params, f"src.{i}", h)
            h = nn.batchnorm(self.params, self.buffers, f"src.{i}.bn", h, train,
                             bn_stats)
            if i < N_SOURCE_LAYERS - 1:
                h = T.relu(h)
        return h

    def target_encode(self, tgt):
        cfg = self.config
        self._check_seq(tgt, cfg.target_feature_kind, cfg.resolved_target_dim(),
                        "target")
        h = Tensor(tgt.frames)
        for i in range(N_TARGET_CONV):
            h = T.relu(nn.conv1d(self.params, f"tgt.{i}", h))
        return h

    def _check_seq(self, seq, kind, dim, role):
        if seq.kind.name != kind:
            raise ModelError(
                f"{role} feature kind mismatch: model expects {kind!r}, "
                f"got {seq.kind.name!r}"
            )
        if seq.dim != dim:
            raise ModelError(
                f"{role} feature dim mismatch: model expects {kind!r} of width "
                f"{dim}, got {seq.dim}"
            )

    # -- attention ---------------------------------------------------------

    def cross_attention(self, src_h, tgt_h):
        """The attention block; returns (output, AttentionTrace)."""
        cfg = self.config
        if not cfg.use_cross_attention:
            d = cfg.attn_dim
            empty = np.zeros((src_h.shape[0], 0), dtype=np.float32)
            trace = AttentionTrace(
                q=empty, k=np.zeros((0, d), dtype=np.float32),
                v=np.zeros((0, cfg.d_model), dtype=np.float32),
                attn_weights=np.zeros((src_h.shape[0], 0), dtype=np.float32),
            )
            return src_h, trace
        if tgt_h.shape[0] < 1:
            raise ModelError("cross attention needs at least one target frame")

        q = nn.linear(self.params, "attn.0.wq", src_h)
        k = nn.linear(self.params, "attn.0.wk", tgt_h)
        v = nn.linear(self.params, "attn.0.wv", tgt_h)
        if cfg.use_instance_norm and src_h.shape[0] > 1:
            q = nn.instance_norm(q)
        if cfg.use_instance_norm and tgt_h.shape[0] > 1:
            k = nn.instance_norm(k)
        if cfg.use_bottleneck:
            q = nn.linear(self.params, "attn.0.bq", q)
            k = nn.linear(self.params, "attn.0.bk", k)
        scale = 1.0 / float(np.sqrt(cfg.attn_dim))
        attended, weights = T.attention(q, k, v, 1, scale)
        out = attended + src_h
        trace = AttentionTrace(
            q=q.data.astype(np.float32, copy=True),
            k=k.data.astype(np.float32, copy=True),
            v=v.data.astype(np.float32, copy=True),
            attn_weights=weights[0].astype(np.float32, copy=True),
        )
        return out, trace

    # -- decoder -----------------------------------------------------------

    def decode(self, h, train=False, bn_stats=None):
        cfg = self.config
        for i in range(N_DECODER_CONFORMER):
            h = nn.conformer_block(self.params, self.buffers, f"dec.{i}", h, cfg,
                                   train=train, bn_stats=bn_stats)
        return nn.linear(self.params, "dec.out", h)

    # -- full forward ------------------------------------------------------

    def attend(self, src_h, tgt_encodings):
        """Condition the source encoding on the target encodings.

        ``tgt_encodings`` holds one ``target_encode`` result per target
        utterance; pooling and attention see them concatenated.  Returns
        (decoder input, AttentionTrace).
        """
        tgt_h = T.concat_rows(tgt_encodings)
        pooled = None
        if self.config.use_sap:
            pooled = nn.self_attention_pool(self.params, "sap", tgt_h)  # 1 x d
            src_h = src_h + pooled
        h, trace = self.cross_attention(src_h, tgt_h)
        if pooled is not None:
            trace.pooled_target = pooled.data.reshape(-1).astype(np.float32, copy=True)
        return h, trace

    def forward(self, src, tgts, train=False, bn_stats=None):
        """Run the conversion network.

        ``src`` is one FeatureSequence, ``tgts`` a non-empty list of
        sequences from the target speaker, each aligned to the frame rate of
        ``src``; returns (mel prediction Ts x mel_dim, AttentionTrace).
        In train mode a ``bn_stats`` list collects each batch norm's batch
        statistics instead of their update of the running averages (see
        ``nn.batchnorm``).  Without a tape, row-wise work is split across
        the active ``cpus.Shares``.
        """
        if not isinstance(tgts, list) or not tgts:
            raise ModelError("forward needs a non-empty list of target sequences")
        speakers = sorted({s.speaker_id for s in tgts})
        if len(speakers) > 1:
            raise ModelError(f"target utterances mix speakers {speakers}")
        src_h = self.source_encode(src, train=train, bn_stats=bn_stats)
        # encode per utterance so conv padding never leaks across utterance
        # boundaries
        tgt_encodings = [
            self.target_encode(align_frame_rate(s, src.fps)) for s in tgts]
        h, trace = self.attend(src_h, tgt_encodings)
        return self.decode(h, train=train, bn_stats=bn_stats), trace

    # -- parameter access --------------------------------------------------

    def state_arrays(self):
        out = {f"param.{k}": p.data for k, p in self.params.items()}
        out.update({f"buffer.{k}": b.data for k, b in self.buffers.items()})
        return out

    def load_state_arrays(self, arrays):
        """Take over the float32 ``param.*`` and ``buffer.*`` arrays, uncopied.

        Every parameter and buffer must be present with its exact shape;
        other arrays are ignored.  The arrays become the model's storage, so
        the caller must not keep using them.
        """
        for prefix, kind, tensors in (("param", "parameter", self.params),
                                      ("buffer", "buffer", self.buffers)):
            for k, t in tensors.items():
                arr = arrays.get(f"{prefix}.{k}")
                if arr is None:
                    raise CheckpointError(f"checkpoint missing {kind} {k!r}")
                if arr.shape != t.data.shape:
                    raise CheckpointError(
                        f"shape mismatch for {kind} {k!r}: {arr.shape} vs {t.data.shape}")
                t.data = arr


# ---------------------------------------------------------------------------
# CRC-guarded blob container shared by checkpoints and traces

def _pack_blob_file(magic, meta, arrays):
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = [magic, struct.pack("<HI", FORMAT_VERSION, len(meta_bytes)), meta_bytes,
            struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f4")
        nb = name.encode("utf-8")
        body.append(struct.pack("<H", len(nb)))
        body.append(nb)
        body.append(struct.pack("<B", arr.ndim))
        body.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        body.append(arr.tobytes())
    payload = b"".join(body)
    return payload + struct.pack("<I", zlib.crc32(payload))


def _parse_blob(buf, path):
    """The metadata and arrays of the payload ``buf[:-4]`` of a container.

    Fields are read at offsets into ``buf``; each array is copied once, into
    its own aligned, writable float32 array, so none refers to ``buf``.
    """
    end = len(buf) - 4
    pos = 4

    def take(n):
        """The offset of the next ``n`` bytes, which it moves past."""
        nonlocal pos
        if n > end - pos:
            raise CheckpointError(f"{path}: malformed container, a field runs "
                                  f"past the payload at byte {pos}")
        pos += n
        return pos - n

    version, meta_len = struct.unpack_from("<HI", buf, take(6))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    try:
        meta = json.loads(str(buf[take(meta_len):pos], "utf-8"))
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: container metadata is no JSON object")
        (count,) = struct.unpack_from("<I", buf, take(4))
        arrays = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", buf, take(2))
            name = str(buf[take(nlen):pos], "utf-8")
            (ndim,) = struct.unpack_from("<B", buf, take(1))
            shape = struct.unpack_from(f"<{ndim}I", buf, take(4 * ndim))
            size = math.prod(shape)
            arrays[name] = np.frombuffer(buf, "<f4", size, take(4 * size)) \
                .reshape(shape).astype(np.float32)
    except ValueError as e:  # bad UTF-8 or JSON
        raise CheckpointError(f"{path}: malformed container: {e}") from e
    if pos != end:
        raise CheckpointError(f"{path}: malformed container, {end - pos} "
                              "bytes after the last array")
    return meta, arrays


def _read_blob_file(path, magic):
    """The metadata and arrays of the container file at ``path``.

    The file is memory-mapped while it is read.  Its CRC is computed as one
    share of the active ``cpus.Shares`` and the parse as another; a CRC
    mismatch is reported even when the parse fails too, so a corrupted file
    is always named as such.  No returned array refers to the map, which is
    closed before this returns.
    """
    with open(path, "rb") as fh:
        # an empty file cannot be mapped, and a shorter one has no magic and CRC
        if os.fstat(fh.fileno()).st_size < 8:
            raise CheckpointError(f"{path}: bad magic")
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as buf:
            if buf[:4] != magic:
                raise CheckpointError(f"{path}: bad magic")
            (crc,) = struct.unpack_from("<I", buf, len(buf) - 4)

            def check_crc():
                with memoryview(buf) as whole, whole[:-4] as payload:
                    if zlib.crc32(payload) != crc:
                        raise CheckpointError(f"{path}: CRC mismatch, file corrupted")

            return cpus.active().run([check_crc, lambda: _parse_blob(buf, path)])[1]


def save_checkpoint(model, path, mel_config=None, extra_meta=None, extra_arrays=None):
    """Serialize parameters, batch-norm stats, and configs; CRC-trailed."""
    meta = {
        "model_config": asdict(model.config),
        "mel_config": asdict(mel_config or MelConfig()),
    }
    if extra_meta:
        meta["extra"] = extra_meta
    arrays = model.state_arrays()
    if extra_arrays:
        arrays.update({f"extra.{k}": v for k, v in extra_arrays.items()})
    write_atomic(path, _pack_blob_file(CHECKPOINT_MAGIC, meta, arrays))


def _fold_pre_norm_biases(arrays):
    """Fold the biases older checkpoints keep in front of batch norm into
    the running mean that follows each one.

    In eval mode batch norm of ``x + b`` with running mean ``rm`` is batch
    norm of ``x`` with ``rm - b``; in train mode the batch mean cancels ``b``.
    The other arrays older checkpoints carry, whose gradient is identically
    zero too, are left for the load to ignore.
    """
    pairs = [(f"src.{i}.b", f"src.{i}.bn") for i in range(N_SOURCE_LAYERS)]
    pairs += [(f"dec.{i}.conv.dw.b", f"dec.{i}.conv.bn")
              for i in range(N_DECODER_CONFORMER)]
    for bias, bn in pairs:
        b = arrays.pop(f"param.{bias}", None)
        rm = arrays.get(f"buffer.{bn}.running_mean")
        if b is None or rm is None:
            continue
        if b.size != rm.size:
            raise CheckpointError(f"shape mismatch for retired parameter {bias!r}: "
                                  f"{b.shape} vs running mean {rm.shape}")
        rm -= b.reshape(rm.shape)


def load_checkpoint(path):
    """Load a checkpoint; returns (model, mel_config, extra_meta, extra_arrays)."""
    meta, arrays = _read_blob_file(path, CHECKPOINT_MAGIC)
    try:
        config = ModelConfig.from_dict(meta["model_config"])
        mel_cfg = MelConfig(**meta["mel_config"])
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint metadata: {e!r}") from e
    except (ModelError, DspError) as e:
        raise CheckpointError(f"{path}: {e}") from e
    _fold_pre_norm_biases(arrays)
    model = S2VCModel.from_state_arrays(config, arrays)
    extra_arrays = {k[len("extra."):]: v for k, v in arrays.items()
                    if k.startswith("extra.")}
    return model, mel_cfg, meta.get("extra", {}), extra_arrays


def write_trace(path, trace):
    arrays = {
        "q": trace.q, "k": trace.k, "v": trace.v,
        "attn_weights": trace.attn_weights,
    }
    meta = {"has_pooled": trace.pooled_target is not None}
    if trace.pooled_target is not None:
        arrays["pooled_target"] = trace.pooled_target
    write_atomic(path, _pack_blob_file(TRACE_MAGIC, meta, arrays))


def read_trace(path):
    """The AttentionTrace a ``write_trace`` file holds; a trace without one
    of its arrays raises CheckpointError naming it."""
    meta, arrays = _read_blob_file(path, TRACE_MAGIC)
    names = ["q", "k", "v", "attn_weights"]
    if meta.get("has_pooled"):
        names.append("pooled_target")
    for name in names:
        if name not in arrays:
            raise CheckpointError(f"{path}: trace has no {name!r} array")
    return AttentionTrace(*(arrays[name] for name in names))
