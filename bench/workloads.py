"""The four workloads: the s2vc command behind each timed process, the
workload operations it performs, and the checks its outputs must pass.

Checks compare against ``oracle`` (computed apart from the program) or
against properties the method must have; a failed check raises CheckError.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import gen
import oracle

N_SPEAKERS = gen.N_SPEAKERS
TRAIN_STEPS = 8          # optimizer steps per `s2vc train` process
EVAL_PAIRS = 30          # pairs per `s2vc eval` process
GL_ITERS = 60
N_TARGETS = 5
MEL_TOLERANCE = 0.1      # natural-log units, on bins within 80 dB of the peak
MEL_STRONG_RANGE = np.log(1e4)


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


class Workload:
    """One workload on generated inputs under ``inputs``."""

    name = ""
    units_per_process = 1   # workload operations one process performs

    def __init__(self, inputs, seed):
        self.inputs = Path(inputs)
        self.seed = seed

    def command(self, out, i):
        """s2vc arguments of the i-th process, writing its outputs to ``out``."""
        raise NotImplementedError

    def check(self, out, i):
        """Check the outputs of the i-th process."""
        raise NotImplementedError

    def check_run(self, outs):
        """Checks made once per run, after its processes."""


class Ingest(Workload):
    name = "ingest-48k"
    units_per_process = N_SPEAKERS * len(gen.DURATIONS["ingest-48k"])

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        self._reference = None

    def command(self, out, i):
        return ["feats", str(self.inputs / "wav"), str(out)]

    def reference(self):
        """Per utterance: (16 kHz sample count, log-mel of the utterance
        rendered directly at 16 kHz with the 48 kHz file's gain)."""
        if self._reference is None:
            self._reference = {}
            for utt, _, voice, content in gen.corpus(self.name, self.seed):
                gain = gen.peak_gain(gen.synth(voice, content, 48000))
                direct = gen.synth(voice, content, oracle.SR) * gain
                rate, samples = oracle.read_wav_pcm16(self.inputs / "wav" / f"{utt}.wav")
                _require(rate == 48000, f"{utt}: input written at {rate} Hz")
                n16 = int(round(len(samples) * oracle.SR / rate))
                self._reference[utt] = (n16, oracle.log_mel(direct[:n16]))
        return self._reference

    def check(self, out, i):
        lines = (out / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        entries = {e["utterance_id"]: e for e in map(json.loads, lines)}
        ref = self.reference()
        _require(sorted(entries) == sorted(ref),
                 f"manifest lists {len(entries)} utterances, expected {len(ref)}")
        for utt, (n16, want) in ref.items():
            kind, got = oracle.read_s2vf(entries[utt]["features"]["mel"])
            _require(kind == "mel", f"{utt}: kind {kind!r}")
            _require(got.shape == (oracle.frame_count(n16), oracle.N_MELS),
                     f"{utt}: {got.shape} frames for {n16} samples at 16 kHz")
            strong = want >= want.max() - MEL_STRONG_RANGE
            _require(strong.mean() > 0.5, f"{utt}: reference mostly below range")
            err = float(np.abs(got[strong] - want[strong]).max())
            _require(err <= MEL_TOLERANCE,
                     f"{utt}: log-mel differs from the 16 kHz reference by {err:.3f}")


class Train(Workload):
    name = "train-tiny"
    units_per_process = TRAIN_STEPS

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        self._losses = None

    def command(self, out, i):
        return ["train", "--config", str(self.inputs / "tiny.cfg"),
                "--manifest", str(self.inputs / "manifest.jsonl"),
                "--out-dir", str(out), "--max-steps", str(TRAIN_STEPS),
                "--seed", str(self.seed)]

    def check(self, out, i):
        log = [json.loads(line) for line in
               (out / "train_log.jsonl").read_text(encoding="utf-8").splitlines()]
        _require([line["step"] for line in log] == list(range(1, TRAIN_STEPS + 1)),
                 f"train log has steps {[line['step'] for line in log]}")
        losses = [line["loss"] for line in log]
        _require(all(np.isfinite(losses)), f"non-finite loss in {losses}")
        # one batch's loss varies by about 15% with the utterances it draws, so
        # the final loss alone can sit above the first; over 40 seeds the
        # lowest loss of the second half fell to 0.75 (sd 0.05, worst 0.83)
        low = min(losses[TRAIN_STEPS // 2:])
        _require(low < 0.95 * losses[0],
                 f"loss did not fall: first {losses[0]:.4f}, lowest of the second "
                 f"half {low:.4f}")
        if self._losses is None:
            self._losses = losses
        _require(losses == self._losses, "same seed and inputs gave another loss curve")
        names = [f"checkpoint_{s:06d}.s2vc"
                 for s in range(gen.CHECKPOINT_EVERY, TRAIN_STEPS + 1, gen.CHECKPOINT_EVERY)]
        for name in names + ["checkpoint_init.s2vc"]:
            _require((out / name).is_file(), f"missing {name}")
        try:
            meta, _ = oracle.read_blob(out / "checkpoint_final.s2vc", b"S2VC")
        except ValueError as e:
            raise CheckError(str(e)) from e
        extra = meta.get("extra", {})
        _require(extra.get("step") == TRAIN_STEPS
                 and extra.get("train_config", {}).get("max_steps") == TRAIN_STEPS,
                 "final checkpoint does not record the step count and max_steps")


class Convert(Workload):
    name = "convert-paper"

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        self._wav_digests = {}

    def _pair(self, i):
        src_spk, tgt_spk = i % N_SPEAKERS, (i + 1) % N_SPEAKERS
        src = self.inputs / f"spk{src_spk}_000.cpc.s2vf"
        tgts = [self.inputs / f"spk{tgt_spk}_{u:03d}.cpc.s2vf"
                for u in range(1, N_TARGETS + 1)]
        return src, tgts

    def command(self, out, i):
        src, tgts = self._pair(i)
        return ["convert", str(self.inputs / "paper.s2vc"), str(src),
                *map(str, tgts), "--out", str(out / "converted.wav"),
                "--dump-trace", str(out / "trace.s2vt"), "--gl-iters", str(GL_ITERS)]

    def check(self, out, i):
        src, tgts = self._pair(i)
        t_src = oracle.read_s2vf(src)[1].shape[0]
        t_tgt = sum(oracle.read_s2vf(t)[1].shape[0] for t in tgts)
        rate, audio = oracle.read_wav_pcm16(out / "converted.wav")
        _require(rate == oracle.SR, f"output at {rate} Hz")
        want = (t_src - 1) * oracle.HOP + oracle.WIN
        _require(len(audio) == want, f"{len(audio)} samples, expected {want}")
        _require(np.abs(audio).max() <= 0.95, f"peak {np.abs(audio).max():.4f} > 0.95")
        digest = hashlib.sha256((out / "converted.wav").read_bytes()).hexdigest()
        _require(self._wav_digests.setdefault(i % N_SPEAKERS, digest) == digest,
                 "the same conversion gave another waveform")
        try:
            _, arrays = oracle.read_blob(out / "trace.s2vt", b"S2VT")
        except ValueError as e:
            raise CheckError(str(e)) from e
        q, k, attn = arrays["q"], arrays["k"], arrays["attn_weights"]
        _require(q.shape == (t_src, 4) and k.shape == (t_tgt, 4),
                 f"q {q.shape} and k {k.shape}, expected ({t_src}, 4) and ({t_tgt}, 4)")
        _require(attn.shape == (t_src, t_tgt), f"attention {attn.shape}")
        _require(attn.min() >= 0.0, "negative attention weight")
        row_err = float(np.abs(attn.sum(axis=1, dtype=np.float64) - 1.0).max())
        _require(row_err <= 1e-5, f"attention rows sum to 1 +- {row_err:.2e}")
        recomputed = oracle.softmax_rows(q.astype(np.float64) @ k.T.astype(np.float64) / 2.0)
        err = float(np.abs(recomputed - attn).max())
        _require(err <= 1e-5, f"attention differs from softmax(q k^T / 2) by {err:.2e}")


class Eval(Workload):
    name = "eval-tiny"
    units_per_process = EVAL_PAIRS

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        self._report = None

    def command(self, out, i, n_pairs=EVAL_PAIRS):
        return ["eval", str(self.inputs / "tiny.s2vc"),
                str(self.inputs / "manifest.jsonl"), "--n-pairs", str(n_pairs),
                "--seed", str(self.seed), "--out-dir", str(out)]

    def check(self, out, i):
        text = (out / "report.json").read_text(encoding="utf-8")
        res = json.loads(text)["results"][0]
        _require(res["n_pairs"] == EVAL_PAIRS, f"n_pairs {res['n_pairs']}")
        for key in ("sv_accuracy", "eer"):
            _require(0.0 <= res[key] <= 1.0, f"{key} {res[key]} outside [0, 1]")
        if self._report is None:
            self._report = text
        _require(text == self._report, "same seed and inputs gave another report.json")

    def check_run(self, outs):
        """Recompute the EER from the genuine and impostor scores the program
        calibrates on.  They do not depend on the pairs, so one pair will do."""
        from s2vc import cli, evaluate

        scores = []
        original = evaluate.eer_threshold

        def capture(genuine, impostor):
            scores.append((list(genuine), list(impostor)))
            return original(genuine, impostor)

        evaluate.eer_threshold = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(self.command(outs[0].parent / "eer_check", 0, n_pairs=1),
                         prog_name="s2vc", standalone_mode=False)
        finally:
            evaluate.eer_threshold = original
        _require(len(scores) == 1, f"calibration ran {len(scores)} times")
        threshold, eer = oracle.sweep_eer(*scores[0])
        res = json.loads(self._report)["results"][0]
        _require(abs(res["eer"] - eer) < 1e-9 and abs(res["threshold"] - threshold) < 1e-9,
                 f"report eer {res['eer']} at {res['threshold']}, sweep gives "
                 f"{eer} at {threshold}")


WORKLOADS = {w.name: w for w in (Ingest, Train, Convert, Eval)}
