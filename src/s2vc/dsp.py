"""Waveform I/O and spectral processing.

WAV reading/writing (PCM16 / IEEE float32), the atomic file write that
every output file goes through, polyphase sinc resampling, Hann-windowed
STFT, HTK-scale log-mel extraction, and Griffin-Lim phase recovery as the
waveform synthesis path.

Internals run in float64; public matrices come back as float32.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import Error, check_field_types, cpus

__all__ = [
    "AudioBuffer",
    "MelConfig",
    "Spectrogram",
    "DspError",
    "WavDecodeError",
    "read_wav",
    "write_wav",
    "write_atomic",
    "resample",
    "stft",
    "istft",
    "log_mel",
    "mel_filterbank",
    "griffin_lim",
]


class DspError(Error):
    pass


class WavDecodeError(DspError):
    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.offset = offset


@dataclass
class AudioBuffer:
    """Mono waveform in [-1, 1] plus its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DspError(f"AudioBuffer expects mono samples, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise DspError("AudioBuffer contains non-finite samples")
        if self.sample_rate <= 0:
            raise DspError(f"invalid sample rate {self.sample_rate}")

    @property
    def duration(self):
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class MelConfig:
    sample_rate: int = 16000
    n_fft: int = 512
    win_length: int = 400   # 25 ms
    hop_length: int = 160   # 10 ms -> 100 frames/second
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-10

    def __post_init__(self):
        check_field_types(self, DspError)
        for f in ("sample_rate", "n_fft", "win_length", "hop_length", "n_mels",
                  "log_floor"):
            if getattr(self, f) <= 0:
                raise DspError(f"{f} must be positive")
        if not 0 <= self.fmin < self.fmax:
            raise DspError("require 0 <= fmin < fmax")
        if not (self.hop_length <= self.win_length <= self.n_fft):
            raise DspError("require hop_length <= win_length <= n_fft")
        if self.fmax > self.sample_rate / 2:
            raise DspError("fmax above Nyquist")


@dataclass
class Spectrogram:
    frames: np.ndarray  # T x n_mels log-mel
    config: MelConfig


# ---------------------------------------------------------------------------
# files

def write_atomic(path, data):
    """Replace ``path`` with the bytes ``data`` through a temp file in the
    same directory, so an interrupted write leaves the previous file intact.

    Every output file of the package (WAVs, feature files, manifests,
    checkpoints, traces, reports) is written through here.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# WAV

def read_wav(path):
    """Decode a RIFF WAV file into a mono AudioBuffer.

    PCM 16-bit and IEEE float32 are supported; stereo is averaged to mono.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavDecodeError("not a RIFF/WAVE file", offset=0)

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise WavDecodeError("truncated chunk", offset=pos)
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise WavDecodeError("fmt chunk too small", offset=pos)
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data, data_at = body, pos
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or data is None:
        raise WavDecodeError("missing fmt or data chunk", offset=pos)
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1:
        raise WavDecodeError("zero channels")

    if (audio_format, bits) not in ((1, 16), (3, 32)):
        raise WavDecodeError(f"unsupported codec (format={audio_format}, bits={bits})")
    if len(data) % (bits // 8):
        raise WavDecodeError(f"data chunk of {len(data)} bytes is no whole number "
                             f"of {bits}-bit samples", offset=data_at)
    if audio_format == 1:
        arr = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    else:
        arr = np.frombuffer(data, dtype="<f4").astype(np.float64)
    if n_channels > 1:
        usable = (len(arr) // n_channels) * n_channels
        arr = arr[:usable].reshape(-1, n_channels).mean(axis=1)
    if np.any(np.abs(arr) > 1.0 + 1e-3):
        raise WavDecodeError("samples outside [-1, 1] beyond clip tolerance")
    return AudioBuffer(arr, sample_rate)


def write_wav(path, buf, fmt="pcm16"):
    """Write a mono WAV; ``fmt`` is 'pcm16' or 'float32'."""
    n = len(buf.samples)
    if fmt == "pcm16":
        payload = np.clip(np.round(buf.samples * 32767.0), -32768, 32767).astype("<i2").tobytes()
        audio_format, bits = 1, 16
    elif fmt == "float32":
        payload = buf.samples.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    else:
        raise DspError(f"unknown wav format {fmt!r}")
    byte_rate = buf.sample_rate * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, audio_format, 1, buf.sample_rate, byte_rate, bits // 8, bits,
        b"data", len(payload),
    )
    write_atomic(path, header + payload)
    return n


# ---------------------------------------------------------------------------
# resampling

def _kaiser_sinc(t, cutoff, beta=8.0, half_width=16.0):
    """Windowed-sinc kernel evaluated at (fractional) sample offsets ``t``."""
    x = t * cutoff
    core = cutoff * np.sinc(x)
    w = np.zeros_like(t)
    inside = np.abs(t) <= half_width
    r = t[inside] / half_width
    w[inside] = np.i0(beta * np.sqrt(np.maximum(0.0, 1.0 - r * r))) / np.i0(beta)
    return core * w


def _whole_rate(rate):
    """``rate`` as an int, for rates given as whole numbers of Hz."""
    if rate <= 0 or not float(rate).is_integer():
        raise DspError(f"invalid sample rate {rate}: expected a positive whole number of Hz")
    return int(rate)


def resample(buf, target_rate):
    """Polyphase windowed-sinc resampling (Kaiser window, beta=8).

    The kernel spans 16 zero crossings of the lower of the two Nyquist
    rates on each side, so it has ``int(2 * 16 / cutoff) + 1`` taps: 33 when
    upsampling and 97 at 48 kHz -> 16 kHz.  With the rate ratio reduced to
    ``p / q``, output ``k * p + r`` sees the same kernel offsets as output
    ``r``, shifted by ``k * q`` input samples.  So the kernel is evaluated
    once into a phase x tap table, with one row for each phase ``r`` that
    occurs (at most ``p``, at most the output length), and every output
    accumulates its taps in order.
    """
    target = _whole_rate(target_rate)
    source = _whole_rate(buf.sample_rate)
    if target == source:
        return AudioBuffer(buf.samples.copy(), target)

    ratio = target / source
    n_out = int(round(len(buf.samples) * ratio))
    if n_out == 0:
        return AudioBuffer(np.zeros(0), target)
    # cutoff relative to the input Nyquist; widen the kernel when downsampling
    cutoff = min(1.0, ratio)
    half_width = 16.0 / cutoff
    n_taps = int(2 * half_width) + 1

    g = math.gcd(target, source)
    p, q = target // g, source // g
    n_phases = min(p, n_out)
    n_blocks = -(-n_out // p)  # output k * p + r for k < n_blocks
    centers = np.arange(n_phases) / ratio
    left = np.ceil(centers - half_width).astype(np.int64)
    table = _kaiser_sinc((left[:, None] + np.arange(n_taps)) - centers[:, None],
                         cutoff, half_width=half_width)

    # Zero-pad by n_taps on the left, which covers ceil(-half_width), and on
    # the right up to the last tap of block n_blocks - 1 and a multiple of q.
    # Then comp[m, k] = x[k * q + m] holds the q polyphase components, and
    # the inputs of tap j for every block of phase r are one contiguous run
    # of comp, starting at padded index first[r] + j.
    first = left + n_taps
    length = max(q * (n_blocks + (first[-1] + n_taps) // q), n_taps + len(buf.samples))
    x = np.zeros(length + -length % q, dtype=np.float64)
    x[n_taps:n_taps + len(buf.samples)] = buf.samples
    comp = x.reshape(-1, q).T.copy()
    runs = np.lib.stride_tricks.sliding_window_view(comp, n_blocks, axis=1)
    out = np.zeros((n_phases, n_blocks), dtype=np.float64)
    term = np.empty_like(out)  # reused: a fresh temporary per tap costs page faults
    for j in range(n_taps):
        col = first + j
        np.multiply(runs[col % q, col // q], table[:, j, None], out=term)
        out += term
    return AudioBuffer(out.T.reshape(-1)[:n_out], target)


# ---------------------------------------------------------------------------
# STFT / mel

def _frame_count(n_samples, cfg):
    if n_samples < cfg.win_length:
        raise DspError(
            f"utterance of {n_samples} samples shorter than window {cfg.win_length}"
        )
    return 1 + (n_samples - cfg.win_length) // cfg.hop_length


def _spectra(samples, window, cfg, lo, hi, framed=None, out=None):
    """The rfft of the windowed frames ``lo`` to ``hi - 1`` of ``samples``,
    through the windowed frames ``framed`` into ``out`` when they are given."""
    hop = cfg.hop_length
    frames = sliding_window_view(samples, cfg.win_length)[lo * hop:hi * hop:hop]
    framed = np.multiply(frames, window, out=framed)
    return np.fft.rfft(framed, n=cfg.n_fft, axis=1, out=out)


def _overlap_add(frames, window, hop, out, products, lo=0):
    """Add the overlap-add of ``frames * window`` onto ``out``, whose rows
    are the hop-sized blocks from block ``lo`` on: chunk ``c`` of every
    frame lands on the block ``c`` hops after the frame's first.
    ``products`` is scratch of the shape of ``out``.

    Taking the chunks in descending order adds each sample's frames in
    ascending frame order, the order of a frame-by-frame loop, so the sums
    are bit-for-bit the same, whatever the block range.
    """
    t_len, win = frames.shape
    hi = lo + len(out)
    for c in reversed(range(-(-win // hop))):
        first, last = max(lo, c), min(hi, c + t_len)  # the blocks chunk c reaches
        if first < last:
            w_lo, w_hi = c * hop, min((c + 1) * hop, win)
            rows, cols = slice(first - lo, last - lo), slice(0, w_hi - w_lo)
            np.multiply(frames[first - c:last - c, w_lo:w_hi], window[w_lo:w_hi],
                        out=products[rows, cols])
            out[rows, cols] += products[rows, cols]


class _Synthesis:
    """The squared-window normalization of the overlap-add of ``t_len``
    frames, in whole hop-sized blocks."""

    def __init__(self, t_len, window, hop):
        self.window, self.hop = window, hop
        self.n_blocks = t_len + -(-len(window) // hop) - 1
        norm = np.zeros((self.n_blocks, hop))
        _overlap_add(np.broadcast_to(window, (t_len, len(window))), window, hop,
                     norm, np.empty_like(norm))
        self.silent = norm <= 1e-10
        self.divisor = np.maximum(norm, 1e-10)

    def blocks(self, frames, out, products, lo=0):
        """Write blocks ``lo`` to ``lo + len(out) - 1`` of the normalized
        overlap-add of ``frames`` into ``out``."""
        out.fill(0.0)
        _overlap_add(frames, self.window, self.hop, out, products, lo)
        out /= self.divisor[lo:lo + len(out)]
        out[self.silent[lo:lo + len(out)]] = 0.0


def stft(samples, cfg):
    """Hann-windowed STFT magnitudes-and-phases, center=false framing.

    Returns a complex T x (n_fft//2 + 1) matrix.
    """
    samples = np.asarray(samples, dtype=np.float64)
    t_len = _frame_count(len(samples), cfg)  # rejects a signal shorter than one window
    return _spectra(samples, np.hanning(cfg.win_length), cfg, 0, t_len)


def istft(spec, cfg, n_samples=None):
    """Weighted overlap-add inverse of ``stft`` (squared-window normalization)."""
    t_len, hop = spec.shape[0], cfg.hop_length
    synthesis = _Synthesis(t_len, np.hanning(cfg.win_length), hop)
    out = np.empty((synthesis.n_blocks, hop))
    frames = np.fft.irfft(spec, n=cfg.n_fft, axis=1)[:, :cfg.win_length]
    synthesis.blocks(frames, out, np.empty_like(out))
    out = out.reshape(-1)[:(t_len - 1) * hop + cfg.win_length]
    if n_samples is not None:
        out = out[:n_samples]
    return out


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg):
    """Triangular HTK-scale filterbank, shape n_mels x (n_fft//2 + 1)."""
    n_bins = cfg.n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * cfg.sample_rate / cfg.n_fft
    mel_pts = np.linspace(_hz_to_mel(cfg.fmin), _hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz_pts = _mel_to_hz(mel_pts)
    fb = np.zeros((cfg.n_mels, n_bins), dtype=np.float64)
    for m in range(cfg.n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        rising = (fft_freqs - lo) / max(ctr - lo, 1e-10)
        falling = (hi - fft_freqs) / max(hi - ctr, 1e-10)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def mel_center_freqs(cfg):
    mel_pts = np.linspace(_hz_to_mel(cfg.fmin), _hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    return _mel_to_hz(mel_pts)[1:-1]


def log_mel(buf, cfg):
    """Log-mel spectrogram: STFT magnitudes through the filterbank, natural log."""
    if buf.sample_rate != cfg.sample_rate:
        raise DspError(
            f"buffer rate {buf.sample_rate} != config rate {cfg.sample_rate}; resample first"
        )
    mags = np.abs(stft(buf.samples, cfg))
    mel = mags @ mel_filterbank(cfg).T
    frames = np.log(np.maximum(mel, cfg.log_floor)).astype(np.float32)
    return Spectrogram(frames=frames, config=cfg)


# ---------------------------------------------------------------------------
# Griffin-Lim

def mel_to_linear(log_mel_frames, cfg):
    """Invert the mel projection by pseudo-inverse with negative clipping."""
    fb = mel_filterbank(cfg)
    mel_mags = np.exp(np.asarray(log_mel_frames, dtype=np.float64))
    linear = mel_mags @ np.linalg.pinv(fb).T
    return np.maximum(linear, 0.0)


def griffin_lim(spec, cfg=None, n_iter=60):
    """Phase recovery from a log-mel spectrogram; returns peak-normalized audio.

    The per-iteration consistency residuals are attached to the returned
    buffer as ``buf.residuals`` for inspection.

    Each iteration is split across the active ``cpus.Shares`` twice: by
    frames for the framing, transforms and rephasing, then by output blocks
    for the overlap-add.  The residual is taken over all frames at once, so
    samples and residuals are the same bits for any number of shares.
    """
    cfg = cfg or spec.config
    if spec.frames.ndim != 2 or spec.frames.shape[1] != cfg.n_mels:
        raise DspError(f"griffin_lim expects T x {cfg.n_mels} log-mel frames, "
                       f"got shape {spec.frames.shape}")
    target = mel_to_linear(spec.frames, cfg)
    # a fixed phase seed: the audio is a function of the spectrogram alone
    phase = np.exp(2j * np.pi * np.random.default_rng(0).random(target.shape))
    t_len, win, hop = target.shape[0], cfg.win_length, cfg.hop_length
    window = np.hanning(win)
    synthesis = _Synthesis(t_len, window, hop)
    # Every array an iteration writes is allocated once: each share writes
    # its own rows, and fresh temporaries of this size cost page faults.
    framed = np.empty((t_len, win))
    spectra = np.empty(target.shape, dtype=np.complex128)
    mags = np.empty(target.shape)
    scratch = np.empty(target.shape)
    frames = np.empty((t_len, cfg.n_fft))
    blocks = np.empty((synthesis.n_blocks, hop))
    products = np.empty_like(blocks)
    signal = blocks.reshape(-1)[:(t_len - 1) * hop + win]

    def rephase(lo, hi):
        """Frames ``lo`` to ``hi - 1``: the STFT magnitudes of the signal into
        ``mags``, and the inverse rfft of the target under their phase into
        ``frames``."""
        full = _spectra(signal, window, cfg, lo, hi, framed[lo:hi], spectra[lo:hi])
        np.abs(full, out=mags[lo:hi])
        np.divide(full, np.maximum(mags[lo:hi], 1e-12, out=scratch[lo:hi]), out=full)
        np.multiply(target[lo:hi], full, out=full)
        np.fft.irfft(full, n=cfg.n_fft, axis=1, out=frames[lo:hi])

    def synthesize(lo, hi):
        synthesis.blocks(frames[:, :win], blocks[lo:hi], products[lo:hi], lo)

    residuals = []

    def residual():
        np.subtract(mags, target, out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        residuals.append(float(np.sqrt(scratch.sum())))

    shares = cpus.active()
    np.fft.irfft(target * phase, n=cfg.n_fft, axis=1, out=frames)
    shares.rows(synthesis.n_blocks, synthesize)
    synthesis_shares = [functools.partial(synthesize, lo, hi)
                        for lo, hi in shares.ranges(synthesis.n_blocks)]
    for _ in range(n_iter):
        shares.rows(t_len, rephase)
        # the residual runs on this thread, beside the synthesis
        shares.run([residual, *synthesis_shares])
    peak = np.abs(signal).max()
    # do not amplify near-silence (an all-floor spectrogram stays silent)
    if peak > 1e-3:
        signal = signal * (0.95 / peak)
    out = AudioBuffer(signal, cfg.sample_rate)
    out.residuals = residuals
    return out
