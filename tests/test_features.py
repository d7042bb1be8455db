import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from s2vc import dsp
from s2vc.features import (
    FeatureError,
    FeatureFileError,
    FeatureSequence,
    Manifest,
    ManifestEntry,
    align_frame_rate,
    extract_mel,
    load_feature_file,
    resolve_kind,
    write_feature_file,
)


def make_seq(frames, kind="cpc", fps=100.0, utt="u", spk="s"):
    frames = np.asarray(frames, dtype=np.float32)
    k = resolve_kind(kind, dim=frames.shape[1], fps=fps)
    return FeatureSequence(k, frames, fps, utt, spk)


class TestExtractMel:
    def test_one_second_shape(self):
        buf = dsp.AudioBuffer(np.zeros(16000), 16000)
        seq = extract_mel(buf, utterance_id="u1", speaker_id="s1")
        assert (seq.num_frames, seq.dim) == (98, 80)
        assert seq.fps == 100.0

    def test_silence_constant_frames(self):
        seq = extract_mel(dsp.AudioBuffer(np.zeros(16000), 16000))
        assert np.allclose(seq.frames, seq.frames[0], atol=1e-6)

    def test_deterministic(self, rng):
        buf = dsp.AudioBuffer(rng.uniform(-0.5, 0.5, 16000), 16000)
        a = extract_mel(buf).frames
        b = extract_mel(buf).frames
        assert a.tobytes() == b.tobytes()

    def test_other_rate_equals_resampling_first(self, rng):
        buf = dsp.AudioBuffer(rng.uniform(-0.5, 0.5, 8000), 8000)
        want = extract_mel(dsp.resample(buf, 16000)).frames
        assert extract_mel(buf).frames.tobytes() == want.tobytes()


class TestFeatureFile:
    def test_roundtrip_bit_identical(self, tmp_path, rng):
        frames = rng.normal(size=(50, 256)).astype(np.float32)
        seq = make_seq(frames, kind="cpc")
        path = tmp_path / "u.s2vf"
        write_feature_file(path, seq)
        loaded = load_feature_file(path)
        assert loaded.frames.tobytes() == frames.tobytes()
        assert loaded.kind.name == "cpc"
        assert loaded.speaker_id == "s"

    def test_truncated_payload_errors(self, tmp_path, rng):
        seq = make_seq(rng.normal(size=(10, 256)).astype(np.float32))
        path = tmp_path / "u.s2vf"
        write_feature_file(path, seq)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FeatureFileError, match="length mismatch"):
            load_feature_file(path)

    def test_trailing_bytes_error(self, tmp_path, rng):
        seq = make_seq(rng.normal(size=(10, 256)).astype(np.float32))
        path = tmp_path / "u.s2vf"
        write_feature_file(path, seq)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FeatureFileError, match="length mismatch"):
            load_feature_file(path)

    def test_dimension_mismatch_for_known_kind(self, tmp_path, rng):
        # a file claiming cpc with D=512 contradicts the registry
        seq = make_seq(rng.normal(size=(5, 512)).astype(np.float32), kind="apc")
        path = tmp_path / "u.s2vf"
        write_feature_file(path, seq)
        raw = bytearray(path.read_bytes())
        pos = raw.find(b"apc")
        raw[pos:pos + 3] = b"cpc"
        path.write_bytes(bytes(raw))
        with pytest.raises(FeatureFileError, match="nominal dim"):
            load_feature_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "u.s2vf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FeatureFileError, match="magic"):
            load_feature_file(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        seq = make_seq(np.zeros((4, 256), dtype=np.float32))
        path = tmp_path / "u.s2vf"
        write_feature_file(path, seq)
        raw = bytearray(path.read_bytes())
        nan = np.array([np.nan], dtype="<f4").tobytes()
        raw[-4:] = nan
        path.write_bytes(bytes(raw))
        with pytest.raises(FeatureFileError, match="non-finite"):
            load_feature_file(path)

    @pytest.mark.parametrize("field,text", [("kind", b"cpc"), ("speaker", b"spk")])
    def test_non_utf8_string_rejected(self, field, text, tmp_path):
        seq = make_seq(np.zeros((4, 256), dtype=np.float32), spk="spk")
        path = tmp_path / "u.s2vf"
        write_feature_file(path, seq)
        raw = bytearray(path.read_bytes())
        pos = raw.find(text)
        raw[pos:pos + 3] = b"\xff\xfe\xfd"
        path.write_bytes(bytes(raw))
        with pytest.raises(FeatureFileError, match="not UTF-8"):
            load_feature_file(path)

    @pytest.mark.parametrize("fps", [0.0, -100.0, float("nan")])
    def test_invalid_frame_rate_rejected(self, fps, tmp_path):
        # a registry kind takes the rate from the header, not from the registry
        seq = make_seq(np.zeros((4, 256), dtype=np.float32))
        path = tmp_path / "u.s2vf"
        write_feature_file(path, seq)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 4 + struct.calcsize("<HBII"), fps)
        path.write_bytes(bytes(raw))
        with pytest.raises(FeatureFileError, match="frame rate"):
            load_feature_file(path)

    @settings(max_examples=25, deadline=None)
    @given(frames=arrays(np.float32,
                         st.tuples(st.integers(1, 8), st.integers(1, 16)),
                         elements=st.floats(-1e6, 1e6, width=32)))
    def test_serialization_bijection(self, frames, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ff")
        k = resolve_kind("ext", dim=frames.shape[1], fps=100.0)
        seq = FeatureSequence(k, frames, 100.0, "u", "s")
        path = tmp / "x.s2vf"
        write_feature_file(path, seq)
        assert load_feature_file(path).frames.tobytes() == seq.frames.tobytes()


class TestAlignFrameRate:
    def test_noop_when_equal(self, rng):
        seq = make_seq(rng.normal(size=(10, 256)).astype(np.float32))
        assert align_frame_rate(seq, 100.0) is seq

    def test_upsample_duplicates(self, rng):
        frames = rng.normal(size=(10, 8)).astype(np.float32)
        seq = make_seq(frames, kind="ext8", fps=50.0)
        out = align_frame_rate(seq, 100.0)
        assert out.num_frames == 20
        np.testing.assert_array_equal(out.frames, np.repeat(frames, 2, axis=0))

    def test_downsample_keeps_every_other(self, rng):
        frames = rng.normal(size=(20, 8)).astype(np.float32)
        seq = make_seq(frames, kind="ext8", fps=100.0)
        out = align_frame_rate(seq, 50.0)
        assert out.num_frames == 10
        np.testing.assert_array_equal(out.frames, frames[0::2])

    def test_down_up_preserves_even_frames(self, rng):
        frames = rng.normal(size=(16, 4)).astype(np.float32)
        seq = make_seq(frames, kind="ext4", fps=100.0)
        back = align_frame_rate(align_frame_rate(seq, 50.0), 100.0)
        np.testing.assert_array_equal(back.frames[0::2], frames[0::2])


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = [
            ManifestEntry("u1", "s1", wav="a.wav", features={"mel": "u1.s2vf"}),
            ManifestEntry("u2", "s2", features={"mel": "u2.s2vf", "cpc": "c.s2vf"}),
        ]
        path = tmp_path / "manifest.jsonl"
        Manifest(entries).save(path)
        loaded = Manifest.load(path)
        assert len(loaded) == 2
        assert loaded.entries[1].features["cpc"] == "c.s2vf"
        assert sorted(loaded.speakers()) == ["s1", "s2"]

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"utterance_id": "u1", "speaker_id": "s1"}\nnot json\n')
        with pytest.raises(FeatureError, match=":2"):
            Manifest.load(path)

    def test_entry_load_takes_ids_from_the_entry(self, tmp_path, rng):
        frames = rng.normal(size=(6, 256)).astype(np.float32)
        path = tmp_path / "file_stem.s2vf"
        write_feature_file(path, make_seq(frames, utt="x", spk="header_spk"))
        seq = ManifestEntry("u1", "s1", features={"cpc": str(path)}).load("cpc")
        assert (seq.utterance_id, seq.speaker_id) == ("u1", "s1")
        assert seq.kind.name == "cpc"
        assert seq.frames.tobytes() == frames.tobytes()

    def test_entry_load_missing_kind(self):
        entry = ManifestEntry("u1", "s1", features={"mel": "u1.s2vf"})
        with pytest.raises(FeatureError, match="'u1' has no 'cpc' features"):
            entry.load("cpc")

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"utterance_id": "u1", "speaker_id": "s1"}\n[1, 2]\n')
        with pytest.raises(FeatureError, match="manifest.jsonl:2: .*JSON object"):
            Manifest.load(path)

    @pytest.mark.parametrize("fields,message", [
        ('"speaker_id": ["s1"]', "speaker_id is no string: ['s1']"),
        ('"speaker_id": "s1", "utterance_id": 7', "utterance_id is no string: 7"),
        ('"speaker_id": "s1", "wav": null', "wav is no string: None"),
        ('"speaker_id": "s1", "features": ["mel"]', "features is no JSON object"),
        ('"speaker_id": "s1", "features": {"mel": 0}', "features.mel is no string: 0"),
    ], ids=["speaker-list", "utterance-int", "wav-null", "features-list",
            "path-int"])
    def test_wrongly_typed_field_rejected(self, tmp_path, fields, message):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"utterance_id": "u0", "speaker_id": "s0"}\n'
                        f'{{"utterance_id": "u1", {fields}}}\n')
        with pytest.raises(FeatureError) as info:
            Manifest.load(path)
        assert str(info.value) == f"{path}:2: bad manifest line: {message}"

    def test_non_utf8_line_rejected(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(b'{"utterance_id": "u1", "speaker_id": "s1"}\r\n'
                         b'{"utterance_id": "u2", "speaker_id": "s\xe9"}\n')
        with pytest.raises(FeatureError, match=r"manifest.jsonl:2: not UTF-8"):
            Manifest.load(path)
