import json
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import s2vc
from s2vc import cpus, dsp, evaluate, model, tensor, training
from s2vc.cli import EXIT_USAGE, load_config_file, main, resolve_train_config
from s2vc.cli import ConfigError
from s2vc.dsp import MelConfig
from s2vc.features import (FeatureSequence, Manifest, ManifestEntry, extract_mel,
                           load_feature_file, resolve_kind, write_feature_file)
from s2vc.model import S2VCModel, load_checkpoint, read_trace, save_checkpoint
from conftest import convert_args, malform_container, open_half_written
from test_dsp import _reference_resample
from toycorpus import tiny_model_config


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def corpus_root(corpus_manifest):
    return Path(corpus_manifest).parent


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.s2vc"
    save_checkpoint(S2VCModel(tiny_model_config(), seed=0), path,
                    mel_config=MelConfig())
    return path


@pytest.fixture(scope="module")
def ppg_checkpoint(tmp_path_factory):
    """A tiny model whose targets are 40-dim ppg frames."""
    path = tmp_path_factory.mktemp("ppg_ckpt") / "model.s2vc"
    save_checkpoint(S2VCModel(tiny_model_config(target_feature_kind="ppg",
                                                target_dim=40), seed=0),
                    path, mel_config=MelConfig())
    return path


@pytest.fixture(scope="module")
def ppg72_manifest(corpus_manifest, tmp_path_factory):
    """The toy corpus with 72-dim ppg features next to its mel features."""
    root = tmp_path_factory.mktemp("ppg72")
    rng = np.random.default_rng(0)
    entries = []
    for e in Manifest.load(corpus_manifest).entries:
        mel = e.load("mel")
        ppg = FeatureSequence(resolve_kind("ppg", dim=72),
                              rng.random((mel.num_frames, 72)).astype(np.float32),
                              mel.fps, e.utterance_id, e.speaker_id)
        path = root / f"{e.utterance_id}.ppg.s2vf"
        write_feature_file(path, ppg)
        entries.append(ManifestEntry(e.utterance_id, e.speaker_id,
                                     features={**e.features, "ppg": str(path)}))
    Manifest(entries).save(root / "manifest.jsonl")
    return root / "manifest.jsonl"


def truncated_manifest(corpus_manifest, root):
    """The toy corpus with every mel feature file cut short by one frame."""
    entries = []
    for e in Manifest.load(corpus_manifest).entries:
        path = root / Path(e.features["mel"]).name
        path.write_bytes(Path(e.features["mel"]).read_bytes()[:-4 * 80])
        entries.append(ManifestEntry(e.utterance_id, e.speaker_id,
                                     features={"mel": str(path)}))
    Manifest(entries).save(root / "manifest.jsonl")
    return root / "manifest.jsonl"


def assert_one_error_line(res, message):
    """The command exited 1 with one ``error:`` line naming ``message``,
    not with an uncaught exception."""
    assert isinstance(res.exception, SystemExit) and res.exit_code == 1, res.exception
    errors = [l for l in res.stderr.splitlines() if not l.startswith("warning: ")]
    assert len(errors) == 1 and errors[0].startswith("error: "), res.stderr
    assert message in errors[0]


def write_tiny_config(path):
    path.write_text(
        "# desk-scale settings\n"
        "[train]\n"
        "learning_rate = 0.001\n"
        "batch_size = 1\n"
        "checkpoint_every = 0\n"
        "[model]\n"
        "d_model = 32\n"
        "source_feature_kind = mel\n"
        "target_feature_kind = mel\n"
        "conformer_ff_dim = 64\n"
        "conformer_conv_kernel = 7\n")
    return path


def test_import_leaves_model_modules_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, s2vc.cli; print(json.dumps(list(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "s2vc.cli" in loaded
    for heavy in ("s2vc.model", "s2vc.tensor", "s2vc.training", "s2vc.evaluate"):
        assert heavy not in loaded


class TestConfigFile:
    def test_sections_and_types(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[train]\nmax_steps = 5\nlearning_rate = 1e-3\n"
                       "[model]\nuse_sap = false\nsource_feature_kind = \"mel\"\n")
        values = load_config_file(cfg)
        assert values == {"train.max_steps": 5, "train.learning_rate": 1e-3,
                          "model.use_sap": False,
                          "model.source_feature_kind": "mel"}

    def test_bad_line_reports_position(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[train]\nmax_steps\n")
        with pytest.raises(ConfigError, match=":2"):
            load_config_file(cfg)

    def test_layering_flags_beat_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[train]\nmax_steps = 5\nseed = 9\n")
        out = resolve_train_config(cfg, {"train.max_steps": 77})
        assert out.max_steps == 77
        assert out.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[train]\nlearnig_rate = 1e-3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_train_config(cfg)


class TestFeats:
    def test_extracts_and_writes_manifest(self, runner, corpus_root, tmp_path):
        out = tmp_path / "feats"
        res = runner.invoke(main, ["feats", str(corpus_root / "wav"), str(out)])
        assert res.exit_code == 0, res.output
        man = Manifest.load(out / "manifest.jsonl")
        assert len(man) == 12
        assert sorted(man.speakers()) == ["spkA", "spkB"]
        seq = load_feature_file(man.entries[0].features["mel"])
        assert seq.kind.name == "mel"
        assert seq.dim == 80

    def test_idempotent(self, runner, corpus_root, tmp_path):
        out = tmp_path / "feats"
        runner.invoke(main, ["feats", str(corpus_root / "wav"), str(out)])
        first = (out / "manifest.jsonl").read_bytes()
        files = {p.name: p.read_bytes() for p in out.glob("*.s2vf")}
        runner.invoke(main, ["feats", str(corpus_root / "wav"), str(out)])
        assert (out / "manifest.jsonl").read_bytes() == first
        for p in out.glob("*.s2vf"):
            assert p.read_bytes() == files[p.name]

    def test_48k_matches_reference_resampler(self, runner, tmp_path):
        # VCTK ships at 48 kHz: the feature file must be byte for byte the
        # one the per-sample resampling loop gives
        wav_dir = tmp_path / "wav"
        wav_dir.mkdir()
        t = np.arange(48000) / 48000
        wave = 0.3 * np.sin(2 * np.pi * 220 * t) + 0.2 * np.sin(2 * np.pi * 3100 * t)
        wav = wav_dir / "spkA_u1.wav"
        dsp.write_wav(wav, dsp.AudioBuffer(wave, 48000))
        out = tmp_path / "feats"
        res = runner.invoke(main, ["feats", str(wav_dir), str(out)])
        assert res.exit_code == 0, res.output
        expected = tmp_path / "expected.mel.s2vf"
        write_feature_file(expected, extract_mel(
            _reference_resample(dsp.read_wav(wav), 16000),
            utterance_id="spkA_u1", speaker_id="spkA"))
        assert (out / "spkA_u1.mel.s2vf").read_bytes() == expected.read_bytes()

    def test_missing_dir_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["feats", str(tmp_path / "nope"),
                                   str(tmp_path / "out")])
        assert res.exit_code == 2

    def test_non_mel_kind_usage_error(self, runner, corpus_root, tmp_path):
        # feats extracts log-mel only; other kinds are exported externally
        res = runner.invoke(main, ["feats", str(corpus_root / "wav"),
                                   str(tmp_path / "out"), "--kind", "cpc"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: No such option")
        assert "--kind" in res.stderr

    def test_corrupt_wav_collected(self, runner, tmp_path):
        wav_dir = tmp_path / "wav"
        wav_dir.mkdir()
        dsp.write_wav(wav_dir / "spkA_good.wav",
                      dsp.AudioBuffer(np.zeros(16000), 16000))
        (wav_dir / "spkB_bad.wav").write_bytes(b"not a wav")
        res = runner.invoke(main, ["feats", str(wav_dir), str(tmp_path / "out")])
        assert res.exit_code == 1
        assert "spkB_bad" in res.stderr
        assert len(Manifest.load(tmp_path / "out" / "manifest.jsonl")) == 1


class TestTrain:
    @pytest.mark.usefixtures("one_worker")
    def test_worker_death_one_error_line(self, runner, corpus_manifest, tmp_path,
                                         monkeypatch):
        children = []
        real_fork = os.fork

        def recorded_fork():
            pid = real_fork()
            if pid:
                children.append(pid)
            return pid

        real_step = training.train_step

        def kill_worker(*args, **kwargs):
            (pid,) = children
            os.kill(pid, signal.SIGKILL)
            # wait for the death but leave the child for the trainer to reap
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(os, "fork", recorded_fork)
        monkeypatch.setattr(training, "train_step", kill_worker)
        cfg = write_tiny_config(tmp_path / "c.cfg")
        cfg.write_text(cfg.read_text().replace("batch_size = 1", "batch_size = 2"))
        res = runner.invoke(main, ["train", "--config", str(cfg), "--manifest",
                                   str(corpus_manifest), "--out-dir",
                                   str(tmp_path / "run"), "--max-steps", "2"])
        assert_one_error_line(res, "exited with status -9")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_show_config_resolves_layers(self, runner, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.cfg")
        res = runner.invoke(main, ["train", "--config", str(cfg),
                                   "--max-steps", "3", "--show-config"])
        assert res.exit_code == 0, res.output
        resolved = json.loads(res.output)
        assert resolved["max_steps"] == 3
        assert resolved["model"]["d_model"] == 32
        assert resolved["learning_rate"] == 0.001

    def test_seed_env_ignored(self, runner, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.cfg")
        res = runner.invoke(main, ["train", "--config", str(cfg), "--show-config"],
                            env={"S2VC_SEED": "42"})
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["seed"] == 0

    @pytest.mark.parametrize("args,seed", [([], 5), (["--seed", "7"], 7)],
                             ids=["file", "flag-beats-file"])
    def test_seed_from_config_file(self, runner, tmp_path, args, seed):
        cfg = write_tiny_config(tmp_path / "c.cfg")
        cfg.write_text(cfg.read_text().replace("[train]\n", "[train]\nseed = 5\n"))
        res = runner.invoke(main, ["train", "--config", str(cfg), "--show-config",
                                   *args])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["seed"] == seed

    def test_negative_config_seed_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[train]\nseed = -1\n")
        res = runner.invoke(main, ["train", "--config", str(cfg), "--show-config"])
        assert res.exit_code == 2, res.output
        assert res.stderr == ("error: invalid config value: train.seed must be "
                              "non-negative\n")

    def test_unknown_ablation_usage_error(self, runner, tmp_path):
        # an ablated row is chosen by the model section's use_* keys
        cfg = write_tiny_config(tmp_path / "c.cfg")
        res = runner.invoke(main, ["train", "--config", str(cfg),
                                   "--ablation", "no-bottleneck"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: No such option")
        assert "--ablation" in res.stderr

    @pytest.mark.parametrize("section,line,message", [
        ("model", "d_model = 0", "model.d_model must be positive"),
        ("train", "learning_rate = 0", "train.learning_rate must be positive"),
        ("train", "learning_rate = nan",
         "train.learning_rate = nan (expected a finite float)"),
        ("train", "learning_rate = inf",
         "train.learning_rate = inf (expected a finite float)"),
        ("train", "max_steps = -3", "train.max_steps must be non-negative"),
        ("train", "checkpoint_every = -5",
         "train.checkpoint_every must be non-negative"),
        ("model", "d_model = 63",
         "model.d_model = 63 (expected a multiple of the 2 conformer heads)"),
        ("model", "source_dim = -5", "model.source_dim must be non-negative"),
    ], ids=["model", "train", "nan", "inf", "max-steps", "checkpoint-every",
            "heads", "source-dim"])
    def test_invalid_config_value_usage_error(self, runner, corpus_manifest, tmp_path,
                                              section, line, message):
        """Rejected before training starts: exit 2, and no file written."""
        cfg = write_tiny_config(tmp_path / "c.cfg")
        cfg.write_text(cfg.read_text()
                       + f"[train]\nmax_steps = 1\n[{section}]\n{line}\n")
        out = tmp_path / "run"
        res = runner.invoke(main, ["train", "--config", str(cfg), "--manifest",
                                   str(corpus_manifest), "--out-dir", str(out)])
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: invalid config value: {message}\n"
        assert not out.exists()

    def test_mel_section_unknown_key(self, runner, tmp_path):
        """Features are extracted and inverted with the default MelConfig, so
        the config file has no mel section."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[mel]\nfmax = 4000.0\n")
        res = runner.invoke(main, ["train", "--config", str(cfg), "--show-config"])
        assert res.exit_code == 2, res.output
        assert res.stderr == "error: unknown config key: mel.fmax\n"

    @pytest.mark.parametrize("line,message", [
        ("[model]\nd_model = abc", "model.d_model = abc (expected int)"),
        ("[model]\nuse_sap = 3", "model.use_sap = 3 (expected bool)"),
        ("[model]\nd_model = true", "model.d_model = True (expected int)"),
        ("[model]\nd_model = 64.0", "model.d_model = 64.0 (expected int)"),
        ("[train]\nlearning_rate = fast", "train.learning_rate = fast (expected float)"),
        ("[train]\nmanifest = 12", "train.manifest = 12 (expected str)"),
    ], ids=["str-for-int", "int-for-bool", "bool-for-int", "float-for-int",
            "str-for-float", "int-for-str"])
    def test_wrongly_typed_value_usage_error(self, runner, tmp_path, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        res = runner.invoke(main, ["train", "--config", str(cfg), "--show-config"])
        assert res.exit_code == 2, res.output
        assert f"invalid config value: {message}" in res.stderr

    @pytest.mark.parametrize("line,key,value", [
        ("[train]\nlearning_rate = 1", "learning_rate", 1),
        ("[model]\nuse_sap = false", "use_sap", False),
        ("[model]\nsource_feature_kind = \"mel\"", "source_feature_kind", "mel"),
        ("[train]\nmanifest = \"12\"", "manifest", "12"),
    ], ids=["int-for-float", "bool", "quoted-str", "quoted-digits"])
    def test_well_typed_value_accepted(self, runner, tmp_path, line, key, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        res = runner.invoke(main, ["train", "--config", str(cfg), "--show-config"])
        assert res.exit_code == 0, res.output
        resolved = json.loads(res.output)
        assert resolved.get(key, resolved["model"].get(key)) == value

    @pytest.mark.parametrize("text,key", [
        ("[model]\nd_modle = 64\n", "model.d_modle"),
        ("[modle]\nd_model = 64\n", "modle.d_model"),
        ("d_model = 64\n", "d_model"),
    ], ids=["key", "section", "no-section"])
    def test_unknown_key_keeps_its_message(self, runner, tmp_path, text, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        res = runner.invoke(main, ["train", "--config", str(cfg), "--show-config"])
        assert res.exit_code == 2, res.output
        assert f"unknown config key: {key}" in res.stderr

    def test_missing_manifest_usage_error(self, runner, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.cfg")
        res = runner.invoke(main, ["train", "--config", str(cfg),
                                   "--manifest", str(tmp_path / "nope.jsonl")])
        assert res.exit_code == 2

    def test_short_run_writes_checkpoint(self, runner, corpus_manifest, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.cfg")
        out = tmp_path / "run"
        res = runner.invoke(main, ["train", "--config", str(cfg),
                                   "--manifest", str(corpus_manifest),
                                   "--out-dir", str(out), "--max-steps", "1"])
        assert res.exit_code == 0, res.output
        assert (out / "checkpoint_final.s2vc").exists()
        assert "step 1 loss" in res.output

    def test_truncated_feature_file_runtime_error(self, runner, corpus_manifest,
                                                  tmp_path):
        cfg = write_tiny_config(tmp_path / "c.cfg")
        man = truncated_manifest(corpus_manifest, tmp_path)
        res = runner.invoke(main, ["train", "--config", str(cfg),
                                   "--manifest", str(man),
                                   "--out-dir", str(tmp_path / "run"),
                                   "--max-steps", "1"])
        assert_one_error_line(res, "payload length mismatch")


class TestConvert:
    def test_writes_wav_and_trace(self, runner, corpus_manifest, tiny_checkpoint,
                                  tmp_path):
        man = Manifest.load(corpus_manifest)
        by_spk = man.speakers()
        src = by_spk["spkA"][0].features["mel"]
        tgts = [e.features["mel"] for e in by_spk["spkB"][:5]]
        out_wav = tmp_path / "out.wav"
        trace_path = tmp_path / "trace.s2vt"
        res = runner.invoke(main, ["convert", str(tiny_checkpoint), src, *tgts,
                                   "--out", str(out_wav), "--gl-iters", "3",
                                   "--dump-trace", str(trace_path)])
        assert res.exit_code == 0, res.output
        assert dsp.read_wav(out_wav).sample_rate == 16000
        trace = read_trace(trace_path)
        assert trace.q.shape[1] == 4
        assert trace.v.shape[1] == 64

    def test_training_checkpoint_converts_as_without_moments(
            self, runner, corpus_manifest, tmp_path):
        """The optimizer moments a training checkpoint carries change no
        output byte of ``convert``."""
        trained = training.run_training(resolve_train_config(
            write_tiny_config(tmp_path / "c.cfg"), {
                "train.manifest": str(corpus_manifest),
                "train.out_dir": str(tmp_path / "run"), "train.max_steps": 1}))
        mdl, mel_cfg, _, _ = load_checkpoint(trained)
        bare = tmp_path / "bare.s2vc"
        save_checkpoint(mdl, bare, mel_config=mel_cfg)
        assert bare.stat().st_size < trained.stat().st_size / 2
        outputs = []
        for checkpoint in (trained, bare):
            out = tmp_path / checkpoint.stem
            out.mkdir()
            res = runner.invoke(main, convert_args(corpus_manifest, checkpoint, out))
            assert res.exit_code == 0, res.output
            outputs.append([(out / name).read_bytes() for name in ("o.wav", "t.s2vt")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("width", ["tiny", "d512"])
    def test_output_bytes_independent_of_spare_cpus(
            self, width, runner, corpus_manifest, tiny_checkpoint,
            paper_width_checkpoint, tmp_path, monkeypatch):
        checkpoint = tiny_checkpoint if width == "tiny" else paper_width_checkpoint
        real_outcome = cpus._outcome
        share_threads = set()

        def outcome(task):
            share_threads.add(threading.current_thread().name)
            return real_outcome(task)

        monkeypatch.setattr(cpus, "_outcome", outcome)
        outputs = []
        for spare in (0, 1, 2):
            monkeypatch.setattr(cpus, "spare_cpus", lambda spare=spare: spare)
            out = tmp_path / str(spare)
            out.mkdir()
            res = runner.invoke(main, convert_args(corpus_manifest, checkpoint, out,
                                                   gl_iters=10))
            assert res.exit_code == 0, res.output
            outputs.append([(out / name).read_bytes() for name in ("o.wav", "t.s2vt")])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert len(share_threads) > 1   # not all of it ran on the caller

    def test_threads_stopped_after_success_and_share_failure(
            self, runner, corpus_manifest, tiny_checkpoint, tmp_path, monkeypatch):
        monkeypatch.setattr(cpus, "spare_cpus", lambda: 2)
        before = threading.active_count()
        res = runner.invoke(main, convert_args(corpus_manifest, tiny_checkpoint,
                                               tmp_path))
        assert res.exit_code == 0, res.output
        assert threading.active_count() == before
        real_spectra = dsp._spectra

        def fail_after_first_share(samples, window, cfg, lo, *args, **kwargs):
            if lo > 0:
                raise tensor.NumericError("rfft produced non-finite values")
            return real_spectra(samples, window, cfg, lo, *args, **kwargs)

        monkeypatch.setattr(dsp, "_spectra", fail_after_first_share)
        res = runner.invoke(main, convert_args(corpus_manifest, tiny_checkpoint,
                                               tmp_path))
        assert_one_error_line(res, "non-finite values")
        assert threading.active_count() == before

    def test_few_targets_warns(self, runner, corpus_manifest, tiny_checkpoint,
                               tmp_path):
        man = Manifest.load(corpus_manifest)
        by_spk = man.speakers()
        res = runner.invoke(main, ["convert", str(tiny_checkpoint),
                                   by_spk["spkA"][0].features["mel"],
                                   by_spk["spkB"][0].features["mel"],
                                   "--out", str(tmp_path / "o.wav"),
                                   "--gl-iters", "2"])
        assert res.exit_code == 0
        assert "warning" in res.stderr

    def test_no_targets_usage_error(self, runner, corpus_manifest,
                                    tiny_checkpoint, tmp_path):
        man = Manifest.load(corpus_manifest)
        res = runner.invoke(main, ["convert", str(tiny_checkpoint),
                                   man.entries[0].features["mel"],
                                   "--out", str(tmp_path / "o.wav")])
        assert res.exit_code == 2

    def test_kind_mismatch_runtime_error(self, runner, corpus_manifest, tmp_path):
        ckpt = tmp_path / "cpc_model.s2vc"
        save_checkpoint(S2VCModel(tiny_model_config(source_feature_kind="cpc",
                                                    source_dim=256), seed=0),
                        ckpt, mel_config=MelConfig())
        man = Manifest.load(corpus_manifest)
        by_spk = man.speakers()
        res = runner.invoke(main, ["convert", str(ckpt),
                                   by_spk["spkA"][0].features["mel"],
                                   *[e.features["mel"] for e in by_spk["spkB"][:5]],
                                   "--out", str(tmp_path / "o.wav")])
        assert res.exit_code == 1
        assert "kind mismatch" in res.stderr

    def test_malformed_checkpoint_runtime_error(self, runner, corpus_manifest,
                                                tiny_checkpoint, tmp_path):
        ckpt = tmp_path / "model.s2vc"
        ckpt.write_bytes(tiny_checkpoint.read_bytes())
        malform_container(ckpt, "overrun")
        man = Manifest.load(corpus_manifest)
        by_spk = man.speakers()
        res = runner.invoke(main, ["convert", str(ckpt),
                                   by_spk["spkA"][0].features["mel"],
                                   *[e.features["mel"] for e in by_spk["spkB"][:5]],
                                   "--out", str(tmp_path / "o.wav")])
        assert res.exit_code == 1
        assert "error:" in res.stderr and "past the payload" in res.stderr


    def test_target_width_mismatch_runtime_error(self, runner, ppg72_manifest,
                                                 ppg_checkpoint, tmp_path):
        by_spk = Manifest.load(ppg72_manifest).speakers()
        res = runner.invoke(main, ["convert", str(ppg_checkpoint),
                                   by_spk["spkA"][0].features["mel"],
                                   by_spk["spkB"][0].features["ppg"],
                                   "--out", str(tmp_path / "o.wav")])
        assert_one_error_line(res, "dim mismatch")
        assert not (tmp_path / "o.wav").exists()

    def test_mixed_target_speakers_runtime_error(self, runner, corpus_manifest,
                                                 tiny_checkpoint, tmp_path):
        by_spk = Manifest.load(corpus_manifest).speakers()
        tgts = ([e.features["mel"] for e in by_spk["spkB"][:3]]
                + [e.features["mel"] for e in by_spk["spkA"][1:3]])
        res = runner.invoke(main, ["convert", str(tiny_checkpoint),
                                   by_spk["spkA"][0].features["mel"], *tgts,
                                   "--out", str(tmp_path / "o.wav")])
        assert_one_error_line(res, "mix speakers")
        assert not (tmp_path / "o.wav").exists()


class TestEval:
    def test_report_schema(self, runner, corpus_manifest, tiny_checkpoint,
                           tmp_path):
        out = tmp_path / "eval"
        res = runner.invoke(main, ["eval", str(tiny_checkpoint),
                                   str(corpus_manifest), "--n-pairs", "4",
                                   "--seed", "0", "--out-dir", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        row = report["results"][0]
        for key in ("scenario", "n_pairs", "seed", "sv_accuracy", "eer",
                    "threshold", "recon_l1"):
            assert key in row
        assert row["n_pairs"] == 4
        assert 0.0 <= row["sv_accuracy"] <= 1.0
        assert report["model_config"]["d_model"] == 64
        assert (out / "report.txt").exists()

    def test_missing_manifest_usage_error(self, runner, tiny_checkpoint, tmp_path):
        res = runner.invoke(main, ["eval", str(tiny_checkpoint),
                                   str(tmp_path / "nope.jsonl")])
        assert res.exit_code == 2

    def test_u2u_without_training_speakers_runtime_error(
            self, runner, four_speaker_manifest, tiny_checkpoint, tmp_path):
        res = runner.invoke(main, ["eval", str(tiny_checkpoint),
                                   str(four_speaker_manifest), "--scenario", "u2u",
                                   "--n-pairs", "2", "--out-dir", str(tmp_path)])
        assert res.exit_code == 1
        assert "records none" in res.stderr

    def test_u2u_reads_training_speakers_from_checkpoint(
            self, runner, four_speaker_manifest, tmp_path):
        ckpt = tmp_path / "model.s2vc"
        save_checkpoint(S2VCModel(tiny_model_config(), seed=0), ckpt,
                        extra_meta={"train_speakers": ["spkA", "spkB", "spkC"]})
        res = runner.invoke(main, ["eval", str(ckpt), str(four_speaker_manifest),
                                   "--scenario", "u2u", "--n-pairs", "2",
                                   "--out-dir", str(tmp_path / "eval")])
        assert res.exit_code == 1
        assert "['spkD']" in res.stderr


    def test_target_width_mismatch_runtime_error(self, runner, ppg72_manifest,
                                                 ppg_checkpoint, tmp_path):
        res = runner.invoke(main, ["eval", str(ppg_checkpoint), str(ppg72_manifest),
                                   "--n-pairs", "2", "--out-dir", str(tmp_path)])
        assert_one_error_line(res, "dim mismatch")


class TestProbeCommand:
    def test_probe_json(self, runner, corpus_manifest, tiny_checkpoint, tmp_path):
        out_json = tmp_path / "probe.json"
        res = runner.invoke(main, ["probe", str(tiny_checkpoint),
                                   str(corpus_manifest), "--site", "Q",
                                   "--seed", "0", "--out", str(out_json)])
        assert res.exit_code == 0, res.output
        data = json.loads(out_json.read_text())
        assert data["site"] == "Q"
        assert 0.0 <= data["dev_accuracy"] <= 1.0

    def test_interrupted_write_keeps_previous_file(
            self, runner, corpus_manifest, tiny_checkpoint, tmp_path, monkeypatch):
        out_json = tmp_path / "probe.json"
        out_json.write_text('{"site": "K"}\n')
        monkeypatch.setattr(dsp, "open", open_half_written, raising=False)
        res = runner.invoke(main, ["probe", str(tiny_checkpoint),
                                   str(corpus_manifest), "--site", "Q",
                                   "--seed", "0", "--out", str(out_json)])
        monkeypatch.undo()
        assert_one_error_line(res, "No space left on device")
        assert out_json.read_text() == '{"site": "K"}\n'
        assert [p.name for p in tmp_path.iterdir()] == [out_json.name]


    def test_target_width_mismatch_runtime_error(self, runner, ppg72_manifest,
                                                 ppg_checkpoint, tmp_path):
        res = runner.invoke(main, ["probe", str(ppg_checkpoint), str(ppg72_manifest),
                                   "--site", "K", "--out", str(tmp_path / "p.json")])
        assert_one_error_line(res, "dim mismatch")
        assert not (tmp_path / "p.json").exists()


class TestAblate:
    def test_grid_and_skip(self, runner, corpus_manifest, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.cfg")
        out = tmp_path / "abl"
        args = ["ablate", "--config", str(cfg), "--manifest",
                str(corpus_manifest), "--out-dir", str(out),
                "--max-steps", "1", "--n-pairs", "2", "--seed", "0"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        report = json.loads((out / "ablation_report.json").read_text())
        rows = report["results"]
        assert [r["row"] for r in rows] == [f"({c})" for c in "abcdefg"]
        assert all("sv_accuracy" in r for r in rows)

        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert res.output.count("skipping") == 7

    def test_pairs_and_embedder_use_config_file_seed(
            self, runner, corpus_manifest, tmp_path, monkeypatch):
        cfg = write_tiny_config(tmp_path / "c.cfg")
        cfg.write_text(cfg.read_text().replace("[train]\n", "[train]\nseed = 5\n"))
        seeds = {}

        def record(name, fn):
            def wrapper(*args, seed, **kwargs):
                seeds[name] = seed
                return fn(*args, seed=seed, **kwargs)
            return wrapper

        monkeypatch.setattr(evaluate, "sample_pairs",
                            record("pairs", evaluate.sample_pairs))
        monkeypatch.setattr(evaluate, "train_speaker_embedder",
                            record("embedder", evaluate.train_speaker_embedder))
        suite = training.ablation_suite
        monkeypatch.setattr(training, "ablation_suite", lambda base: suite(base)[:1])
        res = runner.invoke(main, ["ablate", "--config", str(cfg), "--manifest",
                                   str(corpus_manifest), "--out-dir",
                                   str(tmp_path / "abl"), "--max-steps", "1",
                                   "--n-pairs", "2"])
        assert res.exit_code == 0, res.output
        assert seeds == {"pairs": 5, "embedder": 5}

    @pytest.mark.parametrize("rerun,n_rows", [
        (["--max-steps", "2", "--n-pairs", "4", "--seed", "9"], 7),
        (["--max-steps", "2", "--n-pairs", "3", "--seed", "0"], 1),
        (["--max-steps", "1", "--n-pairs", "4", "--seed", "0"], 1),
        (["--max-steps", "1", "--n-pairs", "3", "--seed", "9"], 1),
    ], ids=["all three", "train config", "pair count", "seed"])
    def test_stale_rows_retrained(self, rerun, n_rows, runner, corpus_manifest,
                                  tmp_path, monkeypatch):
        suite = training.ablation_suite
        monkeypatch.setattr(training, "ablation_suite",
                            lambda base: suite(base)[:n_rows])
        cfg = write_tiny_config(tmp_path / "c.cfg")
        out = tmp_path / "abl"
        args = ["ablate", "--config", str(cfg), "--manifest", str(corpus_manifest),
                "--out-dir", str(out)]
        res = runner.invoke(main, [*args, "--max-steps", "1", "--n-pairs", "3",
                                   "--seed", "0"])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, [*args, *rerun])
        assert res.exit_code == 0, res.output
        assert "skipping" not in res.output
        assert res.output.count(f"training {rerun[1]} steps") == n_rows
        rows = json.loads((out / "ablation_report.json").read_text())["results"]
        assert {(r["n_pairs"], r["seed"]) for r in rows} == {(int(rerun[3]),
                                                             int(rerun[5]))}

    def test_skipped_rows_parse_no_array(self, runner, corpus_manifest, tmp_path,
                                         monkeypatch):
        cfg = write_tiny_config(tmp_path / "c.cfg")
        args = ["ablate", "--config", str(cfg), "--manifest", str(corpus_manifest),
                "--out-dir", str(tmp_path / "abl"), "--max-steps", "1",
                "--n-pairs", "2"]
        assert runner.invoke(main, args).exit_code == 0
        report = (tmp_path / "abl" / "ablation_report.json").read_bytes()
        monkeypatch.setattr(model, "_parse_blob", pytest.fail)
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert res.output.count("skipping") == 7
        assert (tmp_path / "abl" / "ablation_report.json").read_bytes() == report

    # a prior row's file made unreadable -> rows trained again on the rerun
    UNREADABLE = {
        "report not JSON": ("report.json", lambda raw: b"{" + raw, 1),
        "report without rows": ("report.json", lambda raw: b'{"results": []}', 1),
        "row without n_pairs": ("report.json",
                                lambda raw: raw.replace(b'"n_pairs"', b'"pairs"'), 1),
        "checkpoint cut in its metadata": ("checkpoint_final.s2vc",
                                           lambda raw: raw[:64], 1),
        # the metadata still reads, and the row's result is its report
        "checkpoint cut in its arrays": ("checkpoint_final.s2vc",
                                         lambda raw: raw[:len(raw) // 2], 0),
    }

    @pytest.mark.parametrize("fault", list(UNREADABLE))
    def test_unreadable_row_is_stale(self, fault, runner, corpus_manifest, tmp_path,
                                     monkeypatch):
        name, damage, n_trained = self.UNREADABLE[fault]
        suite = training.ablation_suite
        monkeypatch.setattr(training, "ablation_suite", lambda base: suite(base)[:2])
        cfg = write_tiny_config(tmp_path / "c.cfg")
        out = tmp_path / "abl"
        args = ["ablate", "--config", str(cfg), "--manifest", str(corpus_manifest),
                "--out-dir", str(out), "--max-steps", "1", "--n-pairs", "2"]
        assert runner.invoke(main, args).exit_code == 0
        first = (out / "ablation_report.json").read_bytes()
        damaged = out / "a_baseline" / name
        damaged.write_bytes(damage(damaged.read_bytes()))
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert res.output.count("training 1 steps") == n_trained
        assert res.output.count("skipping") == 2 - n_trained
        assert (out / "ablation_report.json").read_bytes() == first
        if n_trained:
            model.load_checkpoint(out / "a_baseline" / "checkpoint_final.s2vc")

    def test_truncated_feature_file_runtime_error(self, runner, corpus_manifest,
                                                  tmp_path):
        cfg = write_tiny_config(tmp_path / "c.cfg")
        man = truncated_manifest(corpus_manifest, tmp_path)
        res = runner.invoke(main, ["ablate", "--config", str(cfg),
                                   "--manifest", str(man),
                                   "--out-dir", str(tmp_path / "abl"),
                                   "--max-steps", "1", "--n-pairs", "2"])
        assert_one_error_line(res, "payload length mismatch")


# mistyped or out-of-range checkpoint metadata: case suffix -> (section,
# key, value), where a key of None replaces the whole section
MISTYPED_META = {
    "model_config a list": ("model_config", None, ["abc"]),
    "d_model 64.0": ("model_config", "d_model", 64.0),
    "use_sap \"no\"": ("model_config", "use_sap", "no"),
    "n_fft 512.5": ("mel_config", "n_fft", 512.5),
    "hop_length 0": ("mel_config", "hop_length", 0),
    "n_mels 0": ("mel_config", "n_mels", 0),
    # the extra section of a training checkpoint
    "extra a list": ("extra", None, ["step"]),
    "train_speakers 5": ("extra", "train_speakers", 5),
    "extra without step": ("extra", None, {"train_config": {}}),
    "step 1.5": ("extra", "step", 1.5),
    "optimizer_t true": ("extra", "optimizer_t", True),
    "rng_state 5": ("extra", "rng_state", 5),
}


def fault_args(case, tmp_path, corpus_manifest, checkpoint):
    """The command line of one case of TestFaultMatrix."""
    by_spk = Manifest.load(corpus_manifest).speakers()
    convert_inputs = [by_spk["spkA"][0].features["mel"],
                      *[e.features["mel"] for e in by_spk["spkB"][:5]]]
    if " checkpoint with " in case:   # CRC-valid, with a bad value
        command, _, what = case.partition(" checkpoint with ")
        section, key, value = MISTYPED_META[what]
        config = write_tiny_config(tmp_path / "c.cfg")
        if section == "extra":   # a training checkpoint, with optimizer moments
            checkpoint = training.run_training(resolve_train_config(config, {
                "train.manifest": str(corpus_manifest),
                "train.out_dir": str(tmp_path / "trained"), "train.max_steps": 0}))
        meta, arrays = model._read_blob_file(checkpoint, model.CHECKPOINT_MAGIC,
                                             extra_arrays=True)
        meta[section] = value if key is None else {**meta[section], key: value}
        crafted = tmp_path / "crafted.s2vc"
        crafted.write_bytes(model._pack_blob_file(model.CHECKPOINT_MAGIC, meta, arrays))
        if command == "convert":
            return ["convert", str(crafted), *convert_inputs,
                    "--out", str(tmp_path / "o.wav"), "--gl-iters", "2"]
        if command == "train --resume":
            return ["train", "--config", str(config), "--manifest", str(corpus_manifest),
                    "--out-dir", str(tmp_path / "run"), "--max-steps", "1",
                    "--resume", str(crafted)]
        return ["eval", str(crafted), str(corpus_manifest), *command.split()[1:],
                "--n-pairs", "2", "--out-dir", str(tmp_path / "o")]
    if case.endswith(("below 0", "below 1")) or "--seed" in case:
        command = case.split()[0]
        config = ["--config", str(write_tiny_config(tmp_path / "c.cfg")),
                  "--manifest", str(corpus_manifest), "--out-dir", str(tmp_path / "o")]
        args = {"train": ["train", *config, "--max-steps", "1"],
                "ablate": ["ablate", *config, "--max-steps", "1", "--n-pairs", "2"],
                "eval": ["eval", str(checkpoint), str(corpus_manifest),
                         "--out-dir", str(tmp_path / "o")],
                "probe": ["probe", str(checkpoint), str(corpus_manifest),
                          "--site", "Q"],
                "convert": ["convert", str(checkpoint), *convert_inputs,
                            "--out", str(tmp_path / "o.wav")]}[command]
        if case.endswith(("below 0", "below 1")):   # an option value under its floor
            _, option, _, floor = case.split()
            return [*args, option, str(int(floor) - 1)]
        return [*args, "--seed", case.split()[-1]]   # a value that is no integer
    if case.endswith("at 3e38"):   # a weight that overflows float32 downstream
        mdl, mel_cfg, extra, _ = load_checkpoint(checkpoint)
        mdl.params[case.split()[-3]].data[...] = 3e38
        overflow = tmp_path / "overflow.s2vc"
        save_checkpoint(mdl, overflow, mel_config=mel_cfg, extra_meta=extra)
        command = ["probe", str(overflow), str(corpus_manifest), "--site", "V"]
        if case.startswith("eval"):
            command = ["eval", str(overflow), str(corpus_manifest), "--n-pairs", "2",
                       "--out-dir", str(tmp_path / "o")]
        return command
    if case == "train --config with a non-UTF-8 comment":
        config = write_tiny_config(tmp_path / "c.cfg")
        config.write_bytes(config.read_bytes().replace(b"\n", b" \xff\n", 1))
        return ["train", "--config", str(config), "--manifest", str(corpus_manifest),
                "--out-dir", str(tmp_path / "run"), "--max-steps", "1"]
    if case.startswith("eval manifest"):
        lines = Path(corpus_manifest).read_bytes().splitlines()
        if case.endswith("non-UTF-8 line"):
            lines[2] = lines[2].replace(b'"spk', b'"\xffspk')
        else:
            features = {"mel": 0} if case.endswith("path 0") else ["mel"]
            lines[1] = json.dumps({"utterance_id": "u", "speaker_id": "spkA",
                                   "features": features}).encode()
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_bytes(b"\n".join(lines) + b"\n")
        return ["eval", str(checkpoint), str(manifest), "--out-dir", str(tmp_path / "o")]
    if case.startswith("train"):
        resume = tmp_path / "resume.s2vc"
        if case == "train --resume 4-byte file":
            resume.write_bytes(b"S2VC")
        return ["train", "--config", str(write_tiny_config(tmp_path / "c.cfg")),
                "--manifest", str(corpus_manifest), "--out-dir", str(tmp_path / "run"),
                "--max-steps", "1", "--resume", str(resume)]
    missing_dir = tmp_path / "nope"
    missing_file = str(missing_dir / "f")
    inputs = [str(checkpoint), *convert_inputs]
    for role, index in (("checkpoint", 0), ("source", 1), ("target", 4)):
        if case == f"convert missing {role}":
            inputs[index] = missing_file
            return ["convert", *inputs, "--out", str(tmp_path / "o.wav")]
    if case in ("eval missing checkpoint", "probe missing checkpoint"):
        site = ["--site", "Q"] if case.startswith("probe") else []
        return [case.split()[0], missing_file, str(corpus_manifest), *site]
    if case == "probe checkpoint is a directory":
        return ["probe", str(tmp_path), str(corpus_manifest), "--site", "Q"]
    convert = ["convert", *inputs, "--gl-iters", "2"]
    if case == "convert --out into a missing dir":
        return [*convert, "--out", str(missing_dir / "o.wav")]
    if case == "convert --out onto a directory":
        return [*convert, "--out", str(tmp_path)]
    if case == "convert --dump-trace into a missing dir":
        return [*convert, "--out", str(tmp_path / "o.wav"),
                "--dump-trace", str(missing_dir / "t.s2vt")]
    if case == "probe --out into a missing dir":
        return ["probe", str(checkpoint), str(corpus_manifest), "--site", "Q",
                "--out", str(missing_dir / "p.json")]
    (tmp_path / "file").write_text("")
    under_file = str(tmp_path / "file" / "out")
    if case == "feats into an out dir under a file":
        return ["feats", str(Path(corpus_manifest).parent / "wav"), under_file]
    if case == "ablate --out-dir under a file":
        return ["ablate", "--config", str(write_tiny_config(tmp_path / "c.cfg")),
                "--manifest", str(corpus_manifest), "--out-dir", under_file,
                "--max-steps", "1", "--n-pairs", "2"]
    assert case == "eval --out-dir under a file"
    return ["eval", str(checkpoint), str(corpus_manifest), "--n-pairs", "2",
            "--out-dir", under_file]


class TestFaultMatrix:
    """A bad input or output path gives one ``error:`` line and the documented
    exit code: no traceback, no temp file left behind, and a usage error is
    caught before the checkpoint is loaded."""

    CASES = {   # case -> (exit code, text of the error line)
        "train --resume 4-byte file": (1, "bad magic"),
        "train --resume missing file": (1, "No such file"),
        "convert --out into a missing dir": (2, "output directory not found"),
        "convert --dump-trace into a missing dir": (2, "output directory not found"),
        "convert --out onto a directory": (1, "Is a directory"),
        "probe --out into a missing dir": (1, "No such file"),
        "eval --out-dir under a file": (1, "Not a directory"),
        "feats into an out dir under a file": (1, "Not a directory"),
        "ablate --out-dir under a file": (1, "Not a directory"),
        "convert missing checkpoint": (2, "checkpoint not found"),
        "convert missing source": (2, "source not found"),
        "convert missing target": (2, "target not found"),
        "eval missing checkpoint": (2, "checkpoint not found"),
        "probe missing checkpoint": (2, "checkpoint not found"),
        "probe checkpoint is a directory": (1, "Is a directory"),
        "convert --gl-iters below 1": (2, "Invalid value for '--gl-iters'"),
        "train --max-steps below 0": (2, "Invalid value for '--max-steps'"),
        "eval --n-pairs below 1": (2, "Invalid value for '--n-pairs'"),
        "ablate --n-pairs below 1": (2, "Invalid value for '--n-pairs'"),
        "ablate --max-steps below 0": (2, "Invalid value for '--max-steps'"),
        "train --seed below 0": (2, "Invalid value for '--seed'"),
        "eval --seed below 0": (2, "Invalid value for '--seed'"),
        "probe --seed below 0": (2, "Invalid value for '--seed'"),
        "ablate --seed below 0": (2, "Invalid value for '--seed'"),
        "train --seed 1.5": (2, "Invalid value for '--seed'"),
        "eval --seed abc": (2, "Invalid value for '--seed'"),
        "eval checkpoint with model_config a list": (1, "model_config is no JSON object"),
        "eval checkpoint with d_model 64.0": (1, "d_model = 64.0 (expected int)"),
        "eval checkpoint with use_sap \"no\"": (1, "use_sap = no (expected bool)"),
        "eval checkpoint with n_fft 512.5": (1, "n_fft = 512.5 (expected int)"),
        "convert checkpoint with n_fft 512.5": (1, "n_fft = 512.5 (expected int)"),
        "convert checkpoint with hop_length 0": (1, "hop_length must be positive"),
        "convert checkpoint with n_mels 0": (1, "n_mels must be positive"),
        "eval checkpoint with extra a list": (1, "extra is no JSON object"),
        "train --resume checkpoint with extra a list": (1, "extra is no JSON object"),
        "eval --scenario u2u checkpoint with train_speakers 5": (
            1, "train_speakers = 5 (expected a list of strings)"),
        "train --resume checkpoint with extra without step": (
            1, "step = None (expected int)"),
        "train --resume checkpoint with step 1.5": (1, "step = 1.5 (expected int)"),
        "train --resume checkpoint with optimizer_t true": (
            1, "optimizer_t = True (expected int)"),
        "train --resume checkpoint with rng_state 5": (1, "rng_state = 5 (expected str)"),
        "eval with dec.out.w at 3e38": (1, "produced non-finite values"),
        "probe --site V with attn.0.wv.w at 3e38": (1, "produced non-finite values"),
        "train --config with a non-UTF-8 comment": (2, "c.cfg:1: not UTF-8"),
        "eval manifest with a non-UTF-8 line": (1, "manifest.jsonl:3: not UTF-8"),
        "eval manifest with a feature path 0": (
            1, "manifest.jsonl:2: bad manifest line: features.mel is no string: 0"),
        "eval manifest with a list of features": (
            1, "manifest.jsonl:2: bad manifest line: features is no JSON object"),
    }
    # the work each case must not start before it fails
    EXPENSIVE = {"eval": (os, "fork"),    # the embedder's child
                 "feats": (dsp, "read_wav"),
                 "ablate": (evaluate, "train_speaker_embedder")}

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_error_line(self, case, runner, corpus_manifest, tiny_checkpoint,
                            tmp_path, monkeypatch):
        code, message = self.CASES[case]
        args = fault_args(case, tmp_path, corpus_manifest, tiny_checkpoint)
        if code == EXIT_USAGE:
            monkeypatch.setattr(model, "load_checkpoint", pytest.fail)
        if args[0] == "eval":   # eval forks its embedder's child, as EXPENSIVE expects
            monkeypatch.setattr(cpus, "spare_cpus", lambda: 1)
        if args[0] in self.EXPENSIVE and not case.endswith("at 3e38"):
            # the out dir is checked first
            monkeypatch.setattr(*self.EXPENSIVE[args[0]], pytest.fail)
        res = runner.invoke(main, args)
        monkeypatch.undo()
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == code, res.output
        assert "Traceback" not in res.output
        errors = [l for l in res.stderr.splitlines() if not l.startswith("warning: ")]
        assert len(errors) == 1 and errors[0].startswith("error: "), res.stderr
        assert message in errors[0]
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("case", [c for c in CASES if c.endswith("at 3e38")])
    def test_overflow_warns_nothing(self, case, runner, corpus_manifest,
                                    tiny_checkpoint, tmp_path):
        """An overflowing product is reported by its ``error:`` line alone."""
        args = fault_args(case, tmp_path, corpus_manifest, tiny_checkpoint)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, args)
        assert res.exit_code == 1, res.output
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []


def package_errors():
    """``s2vc.Error`` and every subclass of it the package defines."""
    found, todo = [], [s2vc.Error]
    while todo:
        found.append(todo.pop())
        todo.extend(found[-1].__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.fixture
def failing_eval(runner, corpus_manifest, tiny_checkpoint, tmp_path, monkeypatch):
    """``s2vc eval`` whose checkpoint load raises ``error("injected failure")``."""
    def invoke(error):
        def fail(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(model, "load_checkpoint", fail)
        return runner.invoke(main, ["eval", str(tiny_checkpoint), str(corpus_manifest),
                                    "--out-dir", str(tmp_path / "o")])
    return invoke


class TestBoundary:
    """``_Commands.invoke`` turns each kind of failure into its exit code,
    whichever command and layer raised it."""

    @pytest.mark.parametrize("error", package_errors(), ids=lambda cls: cls.__name__)
    def test_package_error_exits_1(self, error, failing_eval):
        assert_one_error_line(failing_eval(error), "injected failure")

    def test_config_error_exits_2(self, failing_eval):
        res = failing_eval(ConfigError)
        assert res.exit_code == 2
        assert res.stderr == "error: injected failure\n"

    def test_closed_stdout_exits_1_quietly(self, failing_eval):
        res = failing_eval(BrokenPipeError)
        assert res.exit_code == 1
        assert res.stderr == ""

    def test_other_exception_keeps_its_traceback(self, failing_eval):
        assert type(failing_eval(ValueError).exception) is ValueError
