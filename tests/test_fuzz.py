"""Mutation fuzzing of each reader of outside input: bytes edited from a
valid file raise only an ``s2vc.Error`` or an ``OSError``.

Edits land in the first 4 KB, where the headers, metadata and names are.
The two CRC-guarded containers get their CRC recomputed after the edit, so
the parse is reached; ``read_checkpoint_meta`` checks no CRC, so its input
needs none.  Each ``@example`` is a mutation that once escaped as another
exception.
"""

import contextlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import s2vc
from s2vc import dsp, model
from s2vc.cli import ConfigError, resolve_train_config
from s2vc.features import (FeatureSequence, Manifest, ManifestEntry,
                           load_feature_file, resolve_kind, write_feature_file)

from toycorpus import tiny_model_config

EDITS = st.lists(st.tuples(st.integers(0, 4095), st.integers(0, 255)),
                 min_size=1, max_size=4)
CUT = st.none() | st.integers(0, 4096)   # None keeps every byte


def fuzz(max_examples):
    return settings(max_examples=max_examples, deadline=1000, derandomize=True,
                    database=None)


def mutated(raw, edits, cut, crc=False):
    """``raw`` with ``edits`` ((offset, byte value) pairs, offsets taken
    modulo the length) applied, then cut to ``cut`` bytes; with ``crc`` the
    last four bytes are a CRC, recomputed over the mutated rest."""
    body = bytearray(raw[:-4] if crc else raw)
    for at, value in edits:
        body[at % len(body)] = value
    body = bytes(body[:cut])
    return body + struct.pack("<I", zlib.crc32(body)) if crc else body


# a mono PCM16 WAV with the canonical 44-byte header: the data chunk starts
# at byte 36, and its size field is bytes 40-43
_SAMPLES = np.array([0, 1000, -1000, 32767, -32768, 5, 6, 7], dtype="<i2").tobytes()
WAV = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(_SAMPLES), b"WAVE",
                  b"fmt ", 16, 1, 1, 16000, 32000, 2, 16,
                  b"data", len(_SAMPLES)) + _SAMPLES

# the bytes ``write_trace`` writes for a trace with a pooled target
TRACE = model._pack_blob_file(
    model.TRACE_MAGIC, {"has_pooled": True},
    {name: np.arange(6, dtype=np.float32).reshape(2, 3)
     for name in ("q", "k", "v", "attn_weights", "pooled_target")})
Q_NAME_AT = TRACE.index(b"\x01\x00q") + 2


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding a valid file of each other kind, written by the
    program; the fuzzed copies go into it too."""
    root = tmp_path_factory.mktemp("fuzz")
    frames = np.linspace(-3, 3, 4 * 80, dtype=np.float32).reshape(4, 80)
    write_feature_file(root / "u.s2vf", FeatureSequence(resolve_kind("mel"), frames,
                                                        100.0, "u", "spkA"))
    small = tiny_model_config(d_model=16, conformer_ff_dim=16, conformer_conv_kernel=3)
    model.save_checkpoint(model.S2VCModel(small, seed=0), root / "m.s2vc",
                          extra_meta={"step": 1, "train_speakers": ["spkA"]})
    Manifest([ManifestEntry(f"u{i}", f"spk{i % 2}", f"u{i}.wav",
                            {"mel": f"u{i}.mel.s2vf"}) for i in range(3)]
             ).save(root / "manifest.jsonl")
    (root / "c.cfg").write_text(
        "# a config file\n[train]\nlearning_rate = 0.001\nbatch_size = 1\n"
        "[model]\nd_model = 32\nsource_feature_kind = mel\nuse_sap = true\n",
        encoding="utf-8")
    return root


def read_mutated(root, valid, edits, cut, read, crc=False, allowed=()):
    """``read`` of ``valid`` (bytes, or the name of a file in ``root``)
    mutated, which may raise only an ``s2vc.Error``, an ``OSError`` or one
    of ``allowed``."""
    if isinstance(valid, str):
        valid = (root / valid).read_bytes()
    path = root / "fuzzed"
    path.write_bytes(mutated(valid, edits, cut, crc))
    with contextlib.suppress(s2vc.Error, OSError, *allowed):
        read(path)


@fuzz(300)
@given(edits=EDITS, cut=CUT)
@example(edits=[(40, 3)], cut=47)   # a data chunk of one and a half samples
def test_read_wav(root, edits, cut):
    read_mutated(root, WAV, edits, cut, dsp.read_wav)


@fuzz(200)
@given(edits=EDITS, cut=CUT)
def test_load_feature_file(root, edits, cut):
    read_mutated(root, "u.s2vf", edits, cut, load_feature_file)


@fuzz(60)
@given(edits=EDITS, cut=CUT)
def test_load_checkpoint(root, edits, cut):
    read_mutated(root, "m.s2vc", edits, cut, model.load_checkpoint, crc=True)


@fuzz(200)
@given(edits=EDITS, cut=CUT)
def test_read_checkpoint_meta(root, edits, cut):
    read_mutated(root, "m.s2vc", edits, cut, model.read_checkpoint_meta)


@fuzz(200)
@given(edits=EDITS, cut=CUT)
@example(edits=[(Q_NAME_AT, ord("r"))], cut=None)
def test_read_trace(root, edits, cut):
    read_mutated(root, TRACE, edits, cut, model.read_trace, crc=True)


@fuzz(200)
@given(edits=EDITS, cut=CUT)
def test_manifest_load(root, edits, cut):
    read_mutated(root, "manifest.jsonl", edits, cut, Manifest.load)


@fuzz(200)
@given(edits=EDITS, cut=CUT)
def test_config_file(root, edits, cut):
    """Through ``resolve_train_config``, which reads with ``load_config_file``
    and then checks each value."""
    read_mutated(root, "c.cfg", edits, cut, resolve_train_config,
                 allowed=(ConfigError,))
