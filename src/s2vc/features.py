"""Feature sequences: native mel extraction plus ingestion of externally
pre-computed representation matrices from the S2VF binary format.

The file format is the bridge to external feature exporters and is therefore
strict: bad magic, version drift, dimension drift, and trailing bytes are all
hard errors.  See docs/formats.md for the byte layout.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import Error, dsp

__all__ = [
    "FeatureKind",
    "FeatureSequence",
    "FeatureError",
    "FeatureFileError",
    "KIND_REGISTRY",
    "resolve_kind",
    "extract_mel",
    "write_feature_file",
    "load_feature_file",
    "align_frame_rate",
    "Manifest",
    "ManifestEntry",
    "read_lines",
]

MAGIC = b"S2VF"
FORMAT_VERSION = 1
DTYPE_F32 = 0


class FeatureError(Error):
    pass


class FeatureFileError(FeatureError):
    pass


@dataclass(frozen=True)
class FeatureKind:
    name: str
    nominal_dim: int

    def __post_init__(self):
        # nominal_dim 0 marks a dim-from-header registry entry (ppg)
        if self.nominal_dim < 0:
            raise FeatureError(f"invalid feature kind {self}")


# nominal dims are defaults; a sequence carries its own frame rate, and
# external kinds carry their dims in the file header
KIND_REGISTRY = {
    "mel": FeatureKind("mel", 80),
    "ppg": FeatureKind("ppg", 0),   # dim taken from the file header
    "apc": FeatureKind("apc", 512),
    "cpc": FeatureKind("cpc", 256),
    "w2v": FeatureKind("w2v", 768),
}


def resolve_kind(name, dim=None):
    """Look a kind up by name; unknown names become external kinds."""
    key = name.lower()
    if key in KIND_REGISTRY:
        base = KIND_REGISTRY[key]
        if base.nominal_dim == 0:  # dim-from-header kinds (ppg)
            if dim is None:
                raise FeatureError(f"kind {name!r} needs an explicit dimension")
            return FeatureKind(base.name, dim)
        if dim is not None and dim != base.nominal_dim:
            raise FeatureFileError(
                f"kind {name!r} has nominal dim {base.nominal_dim}, file claims {dim}"
            )
        return base
    if dim is None:
        raise FeatureError(f"external kind {name!r} needs an explicit dim")
    return FeatureKind(key, dim)


@dataclass
class FeatureSequence:
    kind: FeatureKind
    frames: np.ndarray  # T x D float32
    fps: float
    utterance_id: str = ""
    speaker_id: str = ""

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise FeatureError(f"frames must be T x D with T >= 1, got {self.frames.shape}")
        if self.frames.shape[1] != self.kind.nominal_dim:
            raise FeatureError(
                f"kind {self.kind.name!r} expects D={self.kind.nominal_dim}, "
                f"got {self.frames.shape[1]}"
            )
        if not np.all(np.isfinite(self.frames)):
            raise FeatureError("non-finite feature values")

    @property
    def num_frames(self):
        return self.frames.shape[0]

    @property
    def dim(self):
        return self.frames.shape[1]


def extract_mel(buf, utterance_id="", speaker_id=""):
    """Log-mel features of ``dsp.MelConfig()``, at 100 fps, wrapped as a
    FeatureSequence; audio at another rate is resampled to its rate first."""
    cfg = dsp.MelConfig()
    if buf.sample_rate != cfg.sample_rate:
        buf = dsp.resample(buf, cfg.sample_rate)
    spec = dsp.log_mel(buf, cfg)
    kind = resolve_kind("mel")
    fps = cfg.sample_rate / cfg.hop_length
    return FeatureSequence(kind, spec.frames, fps, utterance_id, speaker_id)


# ---------------------------------------------------------------------------
# S2VF binary format

def _pack_str(s):
    b = s.encode("utf-8")
    return struct.pack("<H", len(b)) + b


def _unpack_str(raw, pos):
    if pos + 2 > len(raw):
        raise FeatureFileError("truncated string field")
    (n,) = struct.unpack_from("<H", raw, pos)
    end = pos + 2 + n
    if end > len(raw):
        raise FeatureFileError("truncated string payload")
    try:
        return raw[pos + 2:end].decode("utf-8"), end
    except UnicodeDecodeError as e:
        raise FeatureFileError(f"string field at byte {pos} is not UTF-8: {e}") from e


def write_feature_file(path, seq):
    t, d = seq.frames.shape
    header = (
        MAGIC
        + struct.pack("<HBII f", FORMAT_VERSION, DTYPE_F32, t, d, seq.fps)
        + _pack_str(seq.kind.name)
        + _pack_str(seq.speaker_id)
    )
    payload = seq.frames.astype("<f4").tobytes()
    dsp.write_atomic(path, header + payload)


def load_feature_file(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise FeatureFileError(f"bad magic in {path}")
    if len(raw) < 4 + struct.calcsize("<HBII f"):
        raise FeatureFileError("truncated header")
    version, dtype, t, d, fps = struct.unpack_from("<HBII f", raw, 4)
    if version != FORMAT_VERSION:
        raise FeatureFileError(f"unsupported format version {version}")
    if dtype != DTYPE_F32:
        raise FeatureFileError(f"unsupported dtype code {dtype}")
    if not (math.isfinite(fps) and fps > 0):
        raise FeatureFileError(f"invalid frame rate {fps} in {path}")
    pos = 4 + struct.calcsize("<HBII f")
    kind_name, pos = _unpack_str(raw, pos)
    speaker_id, pos = _unpack_str(raw, pos)
    expected = 4 * t * d
    payload = raw[pos:]
    if len(payload) != expected:
        raise FeatureFileError(
            f"payload length mismatch: expected {expected} bytes, got {len(payload)}"
        )
    frames = np.frombuffer(payload, dtype="<f4").reshape(t, d)
    if not np.all(np.isfinite(frames)):
        raise FeatureFileError("non-finite values in feature payload")
    kind = resolve_kind(kind_name, dim=d)
    utterance_id = Path(path).stem
    return FeatureSequence(kind, frames, fps, utterance_id, speaker_id)


# ---------------------------------------------------------------------------
# frame-rate alignment

def align_frame_rate(seq, target_fps):
    """Nearest-neighbor repetition/decimation to ``target_fps``."""
    if target_fps <= 0:
        raise FeatureError(f"invalid target fps {target_fps}")
    if abs(seq.fps - target_fps) < 1e-9:
        return seq
    t = seq.num_frames
    new_t = max(1, int(round(t * target_fps / seq.fps)))
    # map each output frame back to the source frame covering its center
    idx = np.minimum((np.arange(new_t) * seq.fps / target_fps).astype(np.int64), t - 1)
    return FeatureSequence(seq.kind, seq.frames[idx], target_fps,
                           seq.utterance_id, seq.speaker_id)


# ---------------------------------------------------------------------------
# dataset manifest (JSON lines)

def read_lines(path, error):
    """``(line number, text)`` of each line of the text file ``path``, a
    manifest or config file; a line that is not UTF-8 raises ``error``
    naming the file and the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = []
    for line_no, line in enumerate(raw.splitlines(), 1):
        try:
            lines.append((line_no, line.decode("utf-8")))
        except UnicodeDecodeError as e:
            raise error(f"{path}:{line_no}: not UTF-8: {e}") from e
    return lines


@dataclass
class ManifestEntry:
    utterance_id: str
    speaker_id: str
    wav: str = ""
    features: dict = field(default_factory=dict)  # kind name -> file path

    def load(self, kind):
        """This utterance's ``kind`` features, carrying the manifest's
        utterance and speaker ids."""
        path = self.features.get(kind)
        if path is None:
            raise FeatureError(
                f"utterance {self.utterance_id!r} has no {kind!r} features")
        seq = load_feature_file(path)
        seq.utterance_id = self.utterance_id
        seq.speaker_id = self.speaker_id
        return seq


@dataclass
class Manifest:
    entries: list

    @classmethod
    def load(cls, path):
        """The manifest at ``path``.  A line that is not UTF-8, not a JSON
        object, or has an id, path or ``features`` value that is no string
        raises FeatureError naming the line."""
        entries = []
        for line_no, line in read_lines(path, FeatureError):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                if not isinstance(d, dict):
                    raise TypeError(f"expected a JSON object, got {type(d).__name__}")
                entry = ManifestEntry(d["utterance_id"], d["speaker_id"],
                                      d.get("wav", ""), d.get("features", {}))
                if not isinstance(entry.features, dict):
                    raise TypeError("features is no JSON object")
                fields = {"utterance_id": entry.utterance_id,
                          "speaker_id": entry.speaker_id, "wav": entry.wav,
                          **{f"features.{k}": v for k, v in entry.features.items()}}
                for name, value in fields.items():
                    if not isinstance(value, str):
                        raise TypeError(f"{name} is no string: {value!r:.40}")
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise FeatureError(f"{path}:{line_no}: bad manifest line: {e}") from e
            entries.append(entry)
        return cls(entries)

    def save(self, path):
        text = "".join(json.dumps(asdict(e), sort_keys=True) + "\n"
                       for e in self.entries)
        dsp.write_atomic(path, text.encode("utf-8"))

    def speakers(self):
        out = {}
        for e in self.entries:
            out.setdefault(e.speaker_id, []).append(e)
        return out

    def __len__(self):
        return len(self.entries)
