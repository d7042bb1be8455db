"""Reference computations made apart from the program.

Nothing here imports s2vc: the benchmark checks the program's outputs
against these, so they must not share its code.  Each follows the written
specification (docs/formats.md, docs/eval.md) rather than the program's
implementation.
"""

import json
import struct
import zlib

import numpy as np

SR = 16000
N_FFT = 512
WIN = 400
HOP = 160
N_MELS = 80
LOG_FLOOR = 1e-10


def frame_count(n_samples):
    """Frames of the no-centering 400/160 analysis (docs/formats.md)."""
    return 1 + (n_samples - WIN) // HOP


def _hann(n):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))


def htk_filterbank():
    """80 triangular filters on the HTK mel scale over 0-8000 Hz."""
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = to_hz(np.linspace(to_mel(0.0), to_mel(SR / 2), N_MELS + 2))
    bins = np.arange(N_FFT // 2 + 1) * SR / N_FFT
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    return np.clip(np.minimum((bins - lo) / (mid - lo), (hi - bins) / (hi - mid)),
                   0.0, None)


def log_mel(samples):
    """Natural-log mel energies of a 16 kHz signal, one row per 10 ms frame."""
    x = np.asarray(samples, dtype=np.float64)
    frames = np.lib.stride_tricks.sliding_window_view(x, WIN)[::HOP]
    frames = frames[:frame_count(len(x))] * _hann(WIN)
    mags = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1))
    return np.log(np.maximum(mags @ htk_filterbank().T, LOG_FLOOR))


def softmax_rows(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def sweep_eer(genuine, impostor):
    """Equal error rate by sweeping every observed score as the threshold.

    Accept means score >= threshold.  Between the last threshold where false
    acceptance still exceeds false rejection and the first where it does
    not, the crossing is interpolated linearly, as docs/eval.md specifies.
    Returns (threshold, eer).
    """
    gen = sorted(genuine)
    imp = sorted(impostor)
    cands = sorted(set(gen) | set(imp))
    cands.append(cands[-1] + 1.0)
    prev = None
    for t in cands:
        far = sum(s >= t for s in imp) / len(imp)
        frr = sum(s < t for s in gen) / len(gen)
        if far - frr <= 0:
            if prev is None or far == frr:
                return t, (far + frr) / 2.0
            t0, far0, frr0 = prev
            a = (far0 - frr0) / ((far0 - frr0) - (far - frr))
            return t0 + a * (t - t0), far0 + a * (far - far0)
        prev = (t, far, frr)
    raise ValueError("false acceptance never falls to false rejection")


def read_blob(path, magic):
    """Parse a CRC-trailed checkpoint or trace container (docs/formats.md).

    Raises ValueError on a bad magic or CRC.  Returns (meta, arrays).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != magic:
        raise ValueError(f"{path}: magic {raw[:4]!r}, expected {magic!r}")
    (crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) != crc:
        raise ValueError(f"{path}: CRC mismatch")
    _, meta_len = struct.unpack_from("<HI", raw, 4)
    pos = 10 + meta_len
    meta = json.loads(raw[10:pos])
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    arrays = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, pos)
        name = raw[pos + 2:pos + 2 + nlen].decode("utf-8")
        pos += 2 + nlen
        ndim = raw[pos]
        shape = struct.unpack_from(f"<{ndim}I", raw, pos + 1)
        pos += 1 + 4 * ndim
        size = int(np.prod(shape))
        arrays[name] = np.frombuffer(raw, dtype="<f4", count=size,
                                     offset=pos).reshape(shape)
        pos += 4 * size
    return meta, arrays


def read_wav_pcm16(path):
    """(sample_rate, samples in [-1, 1]) of a mono 16-bit PCM WAV."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(raw):
        cid, size = raw[pos:pos + 4], struct.unpack_from("<I", raw, pos + 4)[0]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", raw, pos + 8)
        elif cid == b"data":
            data = raw[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    if fmt is None or data is None or fmt[0] != 1 or fmt[1] != 1 or fmt[5] != 16:
        raise ValueError(f"{path}: not mono 16-bit PCM")
    return fmt[2], np.frombuffer(data, dtype="<i2") / 32768.0


def read_s2vf(path):
    """(kind, frames) of a feature file (docs/formats.md)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"S2VF":
        raise ValueError(f"{path}: bad magic")
    _, _, t, d, _ = struct.unpack_from("<HBIIf", raw, 4)
    pos = 4 + struct.calcsize("<HBIIf")
    (klen,) = struct.unpack_from("<H", raw, pos)
    kind = raw[pos + 2:pos + 2 + klen].decode("utf-8")
    pos += 2 + klen
    (slen,) = struct.unpack_from("<H", raw, pos)
    pos += 2 + slen
    if len(raw) - pos != 4 * t * d:
        raise ValueError(f"{path}: payload is not {t} x {d} float32")
    return kind, np.frombuffer(raw, dtype="<f4", offset=pos).reshape(t, d)
