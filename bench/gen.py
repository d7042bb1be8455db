"""Seeded synthetic inputs for the benchmark workloads.

Every utterance is a sum of harmonics of a speaker's fundamental, shaped by
a speaker timbre bump and a content formant that moves every 250 ms.  The
signal is a closed-form function of time, so the same utterance can be
rendered at 48 kHz for ingestion and directly at 16 kHz as the reference
the ingested features are checked against.

The seed changes voices and content, never the number or the lengths of
the utterances, so every seed asks the program for the same amount of work.

Usage:  python3 bench/gen.py WORKLOAD --seed N --out DIR
"""

import argparse
import json
import struct
import sys
from pathlib import Path

import numpy as np

import oracle

N_HARMONICS = 30  # with f0 <= 200 Hz every harmonic stays below 6 kHz
SEGMENT_S = 0.25
N_SPEAKERS = 4
TINY_MODEL = {"d_model": 64, "source_feature_kind": "mel",
              "target_feature_kind": "mel", "conformer_ff_dim": 128,
              "conformer_conv_kernel": 7, "attn_bottleneck_dim": 4}
CHECKPOINT_EVERY = 2  # train-tiny writes a checkpoint every this many steps
CPC_DIM = 256
CPC_PROJECTION_SEED = 2104  # fixed: the stand-in exporter is the same for every seed

# utterance durations in seconds, per speaker; identical for every seed
DURATIONS = {
    # 1 to 2 s at 48 kHz, 12 s in all
    "ingest-48k": [1.07, 1.93],
    # 468 to 558 frames, either side of the 512-frame crop; kept close to it
    # so that the cost of a step hardly depends on which utterances it draws
    "train-tiny": [4.7, 5.0, 5.3, 5.6],
    # 1 to 2 s; eight per speaker so five-utterance target sets rarely repeat
    "eval-tiny": [1.0, 1.1, 1.3, 1.4, 1.6, 1.7, 1.9, 2.0],
    # one 3 s source and five 2 s targets per speaker
    "convert-paper": [3.0, 2.0, 2.0, 2.0, 2.0, 2.0],
}
WORKLOADS = tuple(DURATIONS)


def _voices(rng):
    return [{"f0": rng.uniform(110.0, 200.0), "bump": rng.uniform(500.0, 3500.0),
             "tilt": rng.uniform(-8e-4, -1e-4)} for _ in range(N_SPEAKERS)]


def _content(rng, duration):
    n_seg = int(np.ceil(duration / SEGMENT_S)) + 1
    return {"duration": duration, "centers": rng.uniform(300.0, 3000.0, n_seg),
            "phases": rng.uniform(0.0, 2.0 * np.pi, N_HARMONICS)}


def synth(voice, content, sample_rate):
    """Render one utterance (unnormalized) at ``sample_rate``."""
    n = int(round(content["duration"] * sample_rate))
    t = np.arange(n) / sample_rate
    freqs = voice["f0"] * np.arange(1, N_HARMONICS + 1)
    amps = (np.exp(-((freqs - voice["bump"]) / 900.0) ** 2)[None, :]
            + 0.8 * np.exp(-((freqs[None, :] - content["centers"][:, None]) / 400.0) ** 2))
    amps = amps * np.exp(voice["tilt"] * freqs) + 0.02
    # raised-cosine glide between segment amplitudes keeps the envelope smooth,
    # so rendering at either rate samples the same band-limited signal
    pos = t / SEGMENT_S
    k = np.floor(pos).astype(np.int64)
    w = 0.5 - 0.5 * np.cos(np.pi * (pos - k))
    # harmonic h's phasor is the previous one times the fundamental's
    # (and the phase step), which is far cheaper than a sine per harmonic
    step = np.exp(2j * np.pi * voice["f0"] * t)
    phase_steps = np.exp(1j * np.diff(content["phases"]))
    phasor = np.exp(1j * content["phases"][0]) * step
    out = np.zeros(n)
    for h in range(N_HARMONICS):
        if h:
            phasor *= step * phase_steps[h - 1]
        out += (amps[k, h] * (1.0 - w) + amps[k + 1, h] * w) * phasor.imag
    return out


def corpus(workload, seed):
    """[(utterance_id, speaker_id, voice, content)] of a workload and seed."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    voices = _voices(rng)
    utts = []
    for s, voice in enumerate(voices):
        for u, duration in enumerate(DURATIONS[workload]):
            utts.append((f"spk{s}_{u:03d}", f"spk{s}", voice, _content(rng, duration)))
    return utts


def peak_gain(samples):
    return 0.9 / np.abs(samples).max()


def write_wav_pcm16(path, samples, sample_rate):
    payload = np.round(np.asarray(samples) * 32767.0).astype("<i2").tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                         b"fmt ", 16, 1, 1, sample_rate, 2 * sample_rate, 2, 16,
                         b"data", len(payload))
    Path(path).write_bytes(header + payload)


def _cpc_projection():
    rng = np.random.default_rng(CPC_PROJECTION_SEED)
    return rng.standard_normal((oracle.N_MELS, CPC_DIM)) / np.sqrt(oracle.N_MELS)


def _write_features(out, utts, kinds):
    """Reference log-mel (and its cpc stand-in) per utterance, plus a manifest."""
    from s2vc import features

    proj = _cpc_projection() if "cpc" in kinds else None
    lines = []
    for utt, spk, voice, content in utts:
        audio = synth(voice, content, oracle.SR)
        mel = oracle.log_mel(audio * peak_gain(audio))
        mats = {"mel": mel}
        if proj is not None:
            z = (mel - mel.mean()) / mel.std()
            mats["cpc"] = np.tanh(z @ proj)
        paths = {}
        for kind in kinds:
            seq = features.FeatureSequence(features.resolve_kind(kind), mats[kind],
                                           100.0, utt, spk)
            paths[kind] = str(out / f"{utt}.{kind}.s2vf")
            features.write_feature_file(paths[kind], seq)
        lines.append(json.dumps({"utterance_id": utt, "speaker_id": spk,
                                 "wav": "", "features": paths}, sort_keys=True))
    (out / "manifest.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_checkpoint(path, model_overrides, seed):
    from s2vc.dsp import MelConfig
    from s2vc.model import ModelConfig, S2VCModel, save_checkpoint

    model = S2VCModel(ModelConfig(**model_overrides), seed=seed)
    save_checkpoint(model, path, mel_config=MelConfig())


def generate(workload, seed, out):
    """Write the inputs of one workload under ``out``; returns ``out``."""
    out = Path(out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    utts = corpus(workload, seed)
    if workload == "ingest-48k":
        wav_dir = out / "wav"
        wav_dir.mkdir(exist_ok=True)
        for utt, _, voice, content in utts:
            audio = synth(voice, content, 48000)
            write_wav_pcm16(wav_dir / f"{utt}.wav", audio * peak_gain(audio), 48000)
    elif workload == "train-tiny":
        _write_features(out, utts, ["mel"])
        cfg = ["[train]", "learning_rate = 0.001", "batch_size = 8",
               f"checkpoint_every = {CHECKPOINT_EVERY}", "[model]"]
        cfg += [f"{k} = {v}" for k, v in TINY_MODEL.items()]
        (out / "tiny.cfg").write_text("\n".join(cfg) + "\n", encoding="utf-8")
    elif workload == "eval-tiny":
        _write_features(out, utts, ["mel"])
        _write_checkpoint(out / "tiny.s2vc", TINY_MODEL, seed)
    elif workload == "convert-paper":
        _write_features(out, utts, ["cpc"])
        _write_checkpoint(out / "paper.s2vc", {}, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    print(generate(args.workload, args.seed, args.out))


if __name__ == "__main__":
    main()
