import sys
import threading

import numpy as np
import pytest

from s2vc import cpus, dsp
from s2vc.dsp import (
    AudioBuffer,
    DspError,
    MelConfig,
    WavDecodeError,
    griffin_lim,
    istft,
    log_mel,
    mel_center_freqs,
    mel_filterbank,
    read_wav,
    resample,
    stft,
    write_wav,
)
from s2vc.evaluate import render_report
from s2vc.features import Manifest, ManifestEntry, extract_mel, write_feature_file

from conftest import open_half_written


def _reference_resample(buf, target_rate):
    """The per-sample resampling loop that ``resample``'s tap table replaces:
    every output evaluates the Kaiser-sinc kernel at its own offsets."""
    if target_rate <= 0:
        raise DspError(f"invalid target rate {target_rate}")
    if target_rate == buf.sample_rate:
        return AudioBuffer(buf.samples.copy(), buf.sample_rate)

    ratio = target_rate / buf.sample_rate
    n_out = int(round(len(buf.samples) * ratio))
    cutoff = min(1.0, ratio)
    half_width = 16.0 / cutoff

    x = buf.samples
    out = np.zeros(n_out, dtype=np.float64)
    centers = np.arange(n_out) / ratio
    left = np.ceil(centers - half_width).astype(np.int64)
    n_taps = int(2 * half_width) + 1
    for j in range(n_taps):
        idx = left + j
        valid = (idx >= 0) & (idx < len(x))
        taps = dsp._kaiser_sinc(idx - centers, cutoff, half_width)
        out[valid] += taps[valid] * x[idx[valid]]
    return AudioBuffer(out, target_rate)


def _reference_stft(samples, cfg):
    """The frame-by-frame loop that ``stft``'s strided framing replaces."""
    samples = np.asarray(samples, dtype=np.float64)
    t_len = 1 + (len(samples) - cfg.win_length) // cfg.hop_length
    window = np.hanning(cfg.win_length)
    frames = np.zeros((t_len, cfg.n_fft), dtype=np.float64)
    for t in range(t_len):
        start = t * cfg.hop_length
        frames[t, :cfg.win_length] = samples[start:start + cfg.win_length] * window
    return np.fft.rfft(frames, n=cfg.n_fft, axis=1)


def _reference_istft(spec, cfg, n_samples=None):
    """The frame-by-frame overlap-add that ``istft``'s hop blocks replace."""
    t_len = spec.shape[0]
    window = np.hanning(cfg.win_length)
    total = (t_len - 1) * cfg.hop_length + cfg.win_length
    out = np.zeros(total, dtype=np.float64)
    norm = np.zeros(total, dtype=np.float64)
    frames = np.fft.irfft(spec, n=cfg.n_fft, axis=1)[:, :cfg.win_length]
    for t in range(t_len):
        start = t * cfg.hop_length
        out[start:start + cfg.win_length] += frames[t] * window
        norm[start:start + cfg.win_length] += window * window
    out = np.where(norm > 1e-10, out / np.maximum(norm, 1e-10), 0.0)
    if n_samples is not None:
        out = out[:n_samples]
    return out


def noise(rng, duration, sr):
    return AudioBuffer(rng.uniform(-0.9, 0.9, int(round(duration * sr))), sr)


def sine(freq, duration=1.0, sr=16000, amp=0.5):
    t = np.arange(int(duration * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


class TestWav:
    def test_silence_roundtrip(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(path, AudioBuffer(np.zeros(16000), 16000))
        buf = read_wav(path)
        assert buf.sample_rate == 16000
        assert len(buf.samples) == 16000
        np.testing.assert_array_equal(buf.samples, 0.0)

    def test_pcm16_scaling(self, tmp_path):
        # sample value 16384 decodes to 0.5 within one quantization step
        path = tmp_path / "half.wav"
        payload = np.array([16384], dtype="<i2")
        buf = AudioBuffer(payload.astype(np.float64) / 32768.0, 16000)
        write_wav(path, buf)
        out = read_wav(path)
        assert abs(out.samples[0] - 0.5) <= 1 / 32768

    def test_float32_roundtrip(self, tmp_path, rng):
        path = tmp_path / "f32.wav"
        samples = rng.uniform(-0.9, 0.9, 1000)
        payload = samples.astype("<f4").tobytes()
        import struct
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload),
                             b"WAVE", b"fmt ", 16, 3, 1, 16000, 64000, 4, 32,
                             b"data", len(payload))
        path.write_bytes(header + payload)
        out = read_wav(path)
        np.testing.assert_allclose(out.samples, samples, atol=1e-7)

    def test_stereo_averaged(self, tmp_path):
        path = tmp_path / "stereo.wav"
        left = np.full(100, 0.5)
        right = np.full(100, -0.5)
        inter = np.empty(200)
        inter[0::2] = left
        inter[1::2] = right
        payload = np.clip(np.round(inter * 32767), -32768, 32767).astype("<i2").tobytes()
        import struct
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload),
                             b"WAVE", b"fmt ", 16, 1, 2, 16000, 64000, 4, 16,
                             b"data", len(payload))
        path.write_bytes(header + payload)
        out = read_wav(path)
        assert len(out.samples) == 100
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-4)

    def test_truncated_file_errors(self, tmp_path):
        path = tmp_path / "ok.wav"
        write_wav(path, AudioBuffer(np.zeros(1000), 16000))
        raw = path.read_bytes()
        bad = tmp_path / "cut.wav"
        bad.write_bytes(raw[:len(raw) - 100])
        with pytest.raises(WavDecodeError):
            read_wav(bad)

    def test_partial_sample_errors_at_data_chunk(self, tmp_path):
        path = tmp_path / "odd.wav"
        write_wav(path, AudioBuffer(np.zeros(4), 16000))
        raw = bytearray(path.read_bytes()[:47])
        raw[40:44] = (3).to_bytes(4, "little")   # a data chunk of 1.5 samples
        path.write_bytes(bytes(raw))
        with pytest.raises(WavDecodeError, match=r"3 bytes .* \(at byte 36\)"):
            read_wav(path)

    def test_not_riff_errors(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(WavDecodeError):
            read_wav(bad)


class TestResample:
    def test_identity_rate(self):
        buf = sine(440)
        out = resample(buf, 16000)
        np.testing.assert_array_equal(out.samples, buf.samples)

    def test_sine_48k_to_16k(self):
        src = sine(1000, duration=0.5, sr=48000)
        out = resample(src, 16000)
        assert len(out.samples) == round(len(src.samples) * 16000 / 48000)
        t = np.arange(len(out.samples)) / 16000
        expected = 0.5 * np.sin(2 * np.pi * 1000 * t)
        trim = 200  # kernel half-width edge effects
        err = np.abs(out.samples[trim:-trim] - expected[trim:-trim])
        assert err.max() < 1e-3

    def test_dc_preserved(self):
        buf = AudioBuffer(np.full(4800, 0.25), 48000)
        out = resample(buf, 16000)
        trim = 200
        np.testing.assert_allclose(out.samples[trim:-trim], 0.25, atol=1e-4)

    def test_upsample_length(self):
        buf = sine(440, duration=0.25, sr=16000)
        out = resample(buf, 48000)
        assert len(out.samples) == 3 * len(buf.samples)

    # one reduced ratio p/q with p == 1 or q == 1: the tap table computes
    # the same products and sums them in the same order as the oracle
    @pytest.mark.parametrize("sr", [48000, 32000, 24000, 8000])
    def test_matches_reference_exactly(self, sr, rng):
        buf = noise(rng, 0.3, sr)
        out = resample(buf, 16000)
        assert out.sample_rate == 16000
        np.testing.assert_array_equal(out.samples,
                                      _reference_resample(buf, 16000).samples)

    # the oracle's float centers n / ratio drift off the exact rational
    # ones by about 1e-11 here; the table's integer block shifts do not
    @pytest.mark.parametrize("sr,target", [(44100, 16000), (22050, 16000),
                                           (16000, 48000)])
    def test_matches_reference_at_other_ratios(self, sr, target, rng):
        buf = noise(rng, 0.3, sr)
        out = resample(buf, target)
        np.testing.assert_allclose(out.samples,
                                   _reference_resample(buf, target).samples,
                                   rtol=0, atol=1e-9)

    def test_zero_samples(self):
        out = resample(AudioBuffer(np.zeros(0), 48000), 16000)
        assert out.samples.shape == (0,)
        assert out.sample_rate == 16000

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 47])
    def test_shorter_than_half_width(self, n, rng):
        # half_width is 48 input samples at 48 kHz -> 16 kHz
        buf = AudioBuffer(rng.uniform(-1, 1, n), 48000)
        np.testing.assert_array_equal(resample(buf, 16000).samples,
                                      _reference_resample(buf, 16000).samples)

    @pytest.mark.parametrize("sr,target", [(48000, 16000), (44100, 16000),
                                           (16000, 48000), (48000, 16001)])
    def test_output_length_is_rounded(self, sr, target, rng):
        for n in [0, 1, 2, 3, 4, 7, 100, 101, 441, 1000, 1001]:
            out = resample(AudioBuffer(rng.uniform(-1, 1, n), sr), target)
            assert len(out.samples) == round(n * target / sr)

    def test_table_bounded_by_output(self, rng, monkeypatch):
        # 48000 -> 16001 reduces to p/q = 16001/48000: 16001 phases, of which
        # a 0.1 s clip reaches only its 1600 outputs
        rows = []
        kernel = dsp._kaiser_sinc

        def recording_kernel(t, *args, **kwargs):
            rows.append(t.shape[0])
            return kernel(t, *args, **kwargs)

        buf = noise(rng, 0.1, 48000)
        monkeypatch.setattr(dsp, "_kaiser_sinc", recording_kernel)
        out = resample(buf, 16001)
        monkeypatch.undo()
        assert rows == [1600]
        np.testing.assert_allclose(out.samples,
                                   _reference_resample(buf, 16001).samples,
                                   rtol=0, atol=1e-9)

    def test_integral_float_rates(self, rng):
        buf = noise(rng, 0.1, 48000)
        expected = resample(buf, 16000).samples
        np.testing.assert_array_equal(resample(buf, 16000.0).samples, expected)
        as_float = AudioBuffer(buf.samples, 48000.0)
        np.testing.assert_array_equal(resample(as_float, 16000).samples, expected)

    @pytest.mark.parametrize("sr", [48000, 16000, 16000.0])
    def test_float_target_rate_writes_wav(self, sr, rng, tmp_path):
        # resample, the identity and the empty-output paths all return the
        # rate as a whole number, which the WAV header needs
        for n in (4800, 0):
            out = resample(AudioBuffer(rng.uniform(-0.5, 0.5, n), sr), 16000.0)
            assert out.sample_rate == 16000 and isinstance(out.sample_rate, int)
            write_wav(tmp_path / "out.wav", out)
            back = read_wav(tmp_path / "out.wav")
            assert back.sample_rate == 16000
            assert len(back.samples) == len(out.samples)

    @pytest.mark.parametrize("target", [16000.5, 0, -16000])
    def test_invalid_target_rate(self, target):
        with pytest.raises(DspError, match="invalid sample rate"):
            resample(AudioBuffer(np.zeros(480), 48000), target)

    def test_non_integral_source_rate(self):
        with pytest.raises(DspError, match="invalid sample rate"):
            resample(AudioBuffer(np.zeros(480), 44100.5), 16000)


class TestMelConfig:
    @pytest.mark.parametrize("field", ["sample_rate", "n_fft", "win_length",
                                       "hop_length", "n_mels", "log_floor"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_size_must_be_positive(self, field, value):
        kind = type(getattr(MelConfig(), field))
        with pytest.raises(DspError, match=f"{field} must be positive"):
            MelConfig(**{field: kind(value)})

    def test_zero_sizes_together_rejected(self):
        with pytest.raises(DspError, match="must be positive"):
            MelConfig(n_fft=0, win_length=0, hop_length=0)

    @pytest.mark.parametrize("fmin", [-5.0, 8000.0, 9000.0])
    def test_fmin_within_zero_and_fmax(self, fmin):
        with pytest.raises(DspError, match="0 <= fmin < fmax"):
            MelConfig(fmin=fmin)

    def test_edges_accepted(self):
        cfg = MelConfig(n_fft=1, win_length=1, hop_length=1, n_mels=1,
                        fmin=0.0, fmax=1.0, log_floor=1e-30)
        assert (cfg.hop_length, cfg.n_mels) == (1, 1)


class TestLogMel:
    def test_silence_hits_log_floor(self):
        cfg = MelConfig()
        spec = log_mel(AudioBuffer(np.zeros(16000), 16000), cfg)
        np.testing.assert_allclose(spec.frames, np.log(cfg.log_floor), atol=1e-5)

    def test_frame_count_formula(self):
        cfg = MelConfig()
        spec = log_mel(AudioBuffer(np.zeros(16000), 16000), cfg)
        assert spec.frames.shape == (1 + (16000 - 400) // 160, 80)
        assert spec.frames.shape[0] == 98

    def test_sine_peaks_at_nearest_mel_bin(self):
        cfg = MelConfig()
        spec = log_mel(sine(1000), cfg)
        centers = mel_center_freqs(cfg)
        expected_bin = int(np.argmin(np.abs(centers - 1000)))
        observed = int(np.bincount(np.argmax(spec.frames, axis=1)).argmax())
        assert abs(observed - expected_bin) <= 1

    def test_too_short_errors(self):
        with pytest.raises(DspError):
            log_mel(AudioBuffer(np.zeros(100), 16000), MelConfig())

    def test_rate_mismatch_errors(self):
        with pytest.raises(DspError):
            log_mel(AudioBuffer(np.zeros(8000), 8000), MelConfig())

    def test_deterministic(self):
        buf = sine(523)
        a = log_mel(buf, MelConfig()).frames
        b = log_mel(buf, MelConfig()).frames
        assert a.tobytes() == b.tobytes()


class TestFilterbank:
    def test_rows_nonnegative(self):
        fb = mel_filterbank(MelConfig())
        assert np.all(fb >= 0)

    def test_interior_bins_covered(self):
        cfg = MelConfig()
        fb = mel_filterbank(cfg)
        freqs = np.arange(fb.shape[1]) * cfg.sample_rate / cfg.n_fft
        interior = (freqs > cfg.fmin) & (freqs < cfg.fmax)
        assert np.all(fb.sum(axis=0)[interior] > 0)


class TestStftRoundTrip:
    def test_istft_reconstructs_interior(self, rng):
        cfg = MelConfig()
        x = rng.normal(size=16000)
        rec = istft(stft(x, cfg), cfg, n_samples=16000)
        lo, hi = cfg.win_length, len(rec) - cfg.win_length
        # istft output stops at the last complete frame
        hi = min(hi, (len(x) - cfg.win_length) // cfg.hop_length * cfg.hop_length)
        assert np.abs(rec[lo:hi] - x[lo:hi]).max() < 1e-5


class TestStftMatchesReference:
    # win not a multiple of hop, a multiple of it, and equal to it
    CONFIGS = {"default": MelConfig(),
               "win4hop": MelConfig(win_length=400, hop_length=100),
               "win1hop": MelConfig(n_fft=256, win_length=256, hop_length=256)}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("extra", [0, 1, 159, 160, 161, 1234, 16000])
    def test_bit_identical(self, name, extra, rng):
        cfg = self.CONFIGS[name]
        x = rng.uniform(-1, 1, cfg.win_length + extra)  # extra 0: one frame
        spec = stft(x, cfg)
        np.testing.assert_array_equal(spec, _reference_stft(x, cfg))
        for n in (None, len(x) - 7):
            np.testing.assert_array_equal(istft(spec, cfg, n),
                                          _reference_istft(spec, cfg, n))

    def test_griffin_lim_bit_identical(self, rng, monkeypatch):
        spec = log_mel(noise(rng, 0.3, 16000), MelConfig())
        fast = griffin_lim(spec, n_iter=5)
        monkeypatch.setattr(dsp, "stft", _reference_stft)
        monkeypatch.setattr(dsp, "istft", _reference_istft)
        slow = griffin_lim(spec, n_iter=5)
        np.testing.assert_array_equal(fast.samples, slow.samples)
        assert fast.residuals == slow.residuals


class TestGriffinLim:
    def test_440hz_peak_recovered(self):
        cfg = MelConfig()
        spec = log_mel(sine(440, duration=1.0), cfg)
        out = griffin_lim(spec, cfg, n_iter=60)
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spectrum) * 16000 / len(out.samples)
        bin_hz = 16000 / cfg.n_fft
        assert abs(peak_hz - 440) <= bin_hz

    def test_all_floor_is_near_silent(self):
        cfg = MelConfig()
        frames = np.full((50, 80), np.log(cfg.log_floor), dtype=np.float32)
        spec = dsp.Spectrogram(frames=frames, config=cfg)
        out = griffin_lim(spec, cfg, n_iter=10)
        assert np.sqrt(np.mean(out.samples ** 2)) < 1e-3

    def test_residual_decreases(self, rng):
        cfg = MelConfig()
        frames = rng.normal(size=(30, 80)).astype(np.float32)
        spec = dsp.Spectrogram(frames=frames, config=cfg)
        out = griffin_lim(spec, cfg, n_iter=30)
        res = np.array(out.residuals)
        assert np.all(np.diff(res) <= 1e-6 * np.maximum(res[:-1], 1.0))

    def test_rejects_linear_spec(self):
        # 257 = n_fft // 2 + 1 linear bins, not the 80 mel bands of the config
        cfg = MelConfig()
        spec = dsp.Spectrogram(frames=np.zeros((10, 257), dtype=np.float32),
                               config=cfg)
        with pytest.raises(DspError, match="80 log-mel"):
            griffin_lim(spec, cfg)


def _reference_griffin_lim(spec, cfg, n_iter, seed=0):
    """Griffin-Lim as alternating ``stft`` and ``istft`` of whole signals."""
    target = dsp.mel_to_linear(spec.frames, cfg)
    phase = np.exp(2j * np.pi * np.random.default_rng(seed).random(target.shape))
    n_samples = (target.shape[0] - 1) * cfg.hop_length + cfg.win_length
    signal = istft(target * phase, cfg, n_samples)
    residuals = []
    for _ in range(n_iter):
        full = stft(signal, cfg)
        mags = np.abs(full)
        residuals.append(float(np.sqrt(((mags - target) ** 2).sum())))
        signal = istft(target * (full / np.maximum(mags, 1e-12)), cfg, n_samples)
    peak = np.abs(signal).max()
    return (signal * (0.95 / peak) if peak > 1e-3 else signal), residuals


class TestGriffinLimShares:
    """Samples and residuals are the same bits whatever the share count."""

    @pytest.mark.parametrize("n_frames", [1, 2, 3, 37, 160])
    def test_every_share_count_matches_reference(self, n_frames, rng):
        cfg = MelConfig()
        frames = (rng.normal(size=(n_frames, 80)) - 3.0).astype(np.float32)
        spec = dsp.Spectrogram(frames=frames, config=cfg)
        want_samples, want_residuals = _reference_griffin_lim(spec, cfg, n_iter=6)
        for n_threads in range(4):   # 1 to 4 shares, some with fewer frames
            with cpus.Shares(n_threads):
                out = griffin_lim(spec, cfg, n_iter=6)
            np.testing.assert_array_equal(out.samples, want_samples)
            np.testing.assert_array_equal(out.residuals, want_residuals)

    def test_stress_four_shares_short_switch_interval(self, rng):
        """Four shares on fewer cores, switching threads every microsecond,
        within a bounded wait."""
        cfg = MelConfig()
        frames = (rng.normal(size=(120, 80)) - 3.0).astype(np.float32)
        spec = dsp.Spectrogram(frames=frames, config=cfg)
        want = griffin_lim(spec, cfg, n_iter=20)
        got = []

        def run():
            with cpus.Shares(3):
                got.append(griffin_lim(spec, cfg, n_iter=20))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        np.testing.assert_array_equal(got[0].samples, want.samples)
        np.testing.assert_array_equal(got[0].residuals, want.residuals)


def _write_wav(path):
    write_wav(path, AudioBuffer(np.linspace(-0.5, 0.5, 800), 16000))


def _write_features(path):
    write_feature_file(path, extract_mel(AudioBuffer(np.zeros(800), 16000),
                                         utterance_id="u1", speaker_id="s1"))


def _write_manifest(path):
    Manifest([ManifestEntry("u1", "s1", wav="u1.wav",
                            features={"mel": "u1.mel.s2vf"})]).save(path)


def _write_report(path):
    render_report([{"config": "a", "svar": 0.5}], path, path.with_suffix(".txt"))


class TestInterruptedWrite:
    """Every writer goes through ``write_atomic``: a write that fails partway
    leaves the previous file intact and no temp file behind."""

    @pytest.mark.parametrize("write,name", [
        (_write_wav, "a.wav"),
        (_write_features, "u1.mel.s2vf"),
        (_write_manifest, "manifest.jsonl"),
        (_write_report, "report.json"),
    ], ids=["wav", "features", "manifest", "report"])
    def test_previous_file_survives(self, write, name, tmp_path, monkeypatch):
        path = tmp_path / name
        write(path)
        good = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(dsp, "open", open_half_written, raising=False)
        with pytest.raises(OSError, match="No space"):
            write(path)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == good
