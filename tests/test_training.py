import functools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from s2vc import cpus
from s2vc import tensor as T
from s2vc import training
from s2vc.features import FeatureSequence, Manifest, load_feature_file
from s2vc.model import S2VCModel, load_checkpoint
from s2vc.tensor import AdamW, ShapeError, Tensor
from s2vc.training import (
    ABLATION_ROWS,
    BatchItem,
    TrainConfig,
    TrainingError,
    ablation_suite,
    reconstruction_loss,
    run_training,
    train_step,
)
from toycorpus import tiny_model_config


def tiny_cfg(manifest, out_dir, **overrides):
    base = dict(
        learning_rate=1e-3,
        batch_size=2,
        max_steps=2,
        seed=0,
        checkpoint_every=0,
        manifest=str(manifest),
        out_dir=str(out_dir),
        model=tiny_model_config(),
    )
    base.update(overrides)
    return TrainConfig(**base)


def load_batch(manifest_path, model_cfg, n=2):
    entries = Manifest.load(manifest_path).entries[:n]
    batch = []
    for e in entries:
        seq = load_feature_file(e.features["mel"])
        batch.append(BatchItem(e.utterance_id, seq, seq, seq.frames))
    return batch


def varied_batch(manifest_path, n):
    """``n`` items cycling through the corpus, each of another length."""
    entries = Manifest.load(manifest_path).entries
    batch = []
    for i in range(n):
        e = entries[i % len(entries)]
        seq = load_feature_file(e.features["mel"])
        seq = FeatureSequence(seq.kind, seq.frames[:40 + 7 * i], seq.fps,
                              seq.utterance_id, seq.speaker_id)
        batch.append(BatchItem(e.utterance_id, seq, seq, seq.frames))
    return batch


def microstep_helpers(model_cfg, n):
    """The helpers ``run_training`` opens for ``model_cfg``."""
    return cpus.Helpers(functools.partial(training._microsteps, model_cfg), n)


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_checkpoints_equal(path_a, path_b):
    """Parameters, buffers, and the optimizer moments among the extra arrays."""
    ma, _, _, xa = load_checkpoint(path_a, extra_arrays=True)
    mb, _, _, xb = load_checkpoint(path_b, extra_arrays=True)
    assert xa, "no optimizer moments to compare"
    for a, b in ((ma.state_arrays(), mb.state_arrays()), (xa, xb)):
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k], err_msg=k)


class TestReconstructionLoss:
    def test_hand_example(self):
        pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        target = Tensor(np.array([[0.0, 2.0], [5.0, 3.0]], dtype=np.float32))
        assert reconstruction_loss(pred, target).item() == pytest.approx(1.0)

    def test_zero_at_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
        assert reconstruction_loss(x, x).item() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruction_loss(Tensor(np.zeros((2, 3), dtype=np.float32)),
                                Tensor(np.zeros((3, 3), dtype=np.float32)))


class TestTrainConfig:
    def test_defaults(self):
        assert TrainConfig().learning_rate == 5e-5
        # run_training builds its optimizer with AdamW's own moments and decay
        opt = AdamW({}, lr=5e-5)
        assert (opt.beta1, opt.beta2, opt.weight_decay) == (0.9, 0.999, 0.01)
        assert training.CLIP_GRAD_NORM == 1.0

    def test_rejects_bad_values(self):
        with pytest.raises(TrainingError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(TrainingError):
            TrainConfig(batch_size=0)


class TestTrainStep:
    def test_loss_decreases_on_repeat(self, corpus_manifest):
        cfg = tiny_model_config()
        model = S2VCModel(cfg, seed=0)
        opt = AdamW(model.params, lr=1e-3)
        batch = load_batch(corpus_manifest, cfg)
        rng = np.random.default_rng(0)
        losses = [train_step(model, batch, opt, rng) for _ in range(5)]
        assert losses[-1] < losses[0]

    def test_deterministic(self, corpus_manifest):
        cfg = tiny_model_config()
        batch = load_batch(corpus_manifest, cfg)
        vals = []
        for _ in range(2):
            model = S2VCModel(cfg, seed=3)
            opt = AdamW(model.params, lr=1e-3)
            train_step(model, batch, opt, np.random.default_rng(3))
            vals.append(model.params["dec.out.w"].data.copy())
        np.testing.assert_array_equal(vals[0], vals[1])

    def test_empty_batch_rejected(self):
        model = S2VCModel(tiny_model_config(), seed=0)
        with pytest.raises(TrainingError, match="empty"):
            train_step(model, [], AdamW(model.params), np.random.default_rng(0))

    def test_non_finite_loss_names_utterance(self, corpus_manifest):
        cfg = tiny_model_config()
        model = S2VCModel(cfg, seed=0)
        batch = load_batch(corpus_manifest, cfg, n=1)
        batch[0].logmel = np.full_like(batch[0].logmel, np.inf)
        with pytest.raises(TrainingError, match=batch[0].utterance_id):
            train_step(model, batch, AdamW(model.params), np.random.default_rng(0))


class TestSplitInvariance:
    """A step gives the same bits whichever process computes each microstep."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_workers_match_sequential_step(self, n_workers, corpus_manifest,
                                           tmp_path, monkeypatch):
        pids = tmp_path / "pids"
        real_microstep = training.microstep

        def logged_microstep(*args):
            with open(pids, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_microstep(*args)

        # patched before the helpers fork, so that they inherit it
        monkeypatch.setattr(training, "microstep", logged_microstep)
        cfg = tiny_model_config()
        with microstep_helpers(cfg, n_workers) as workers:
            for size in (1, 2, 3, 8):
                batch = varied_batch(corpus_manifest, size)
                runs = []
                for w in (workers, None):
                    model = S2VCModel(cfg, seed=5)
                    opt = AdamW(model.params, lr=1e-3)
                    losses = [train_step(model, batch, opt, np.random.default_rng(0),
                                         workers=w) for _ in range(2)]
                    arrays = dict(model.state_arrays())
                    arrays.update({f"opt.m.{k}": v for k, v in opt.m.items()})
                    arrays.update({f"opt.v.{k}": v for k, v in opt.v.items()})
                    runs.append((losses, arrays))
                    if w is workers:   # a later share ran in each helper
                        computed_in = set(pids.read_text().split())
                        assert len(computed_in) == min(size, 1 + n_workers), size
                        pids.unlink()
                (split_loss, split), (seq_loss, seq) = runs
                assert split_loss == seq_loss, size
                assert split.keys() == seq.keys()
                for k in seq:
                    np.testing.assert_array_equal(split[k], seq[k],
                                                  err_msg=f"batch {size}: {k}")
        assert_no_child_process()

    def test_error_in_worker_share_names_utterance(self, corpus_manifest):
        cfg = tiny_model_config()
        batch = varied_batch(corpus_manifest, 2)
        batch[1].logmel = np.full_like(batch[1].logmel, np.inf)
        model = S2VCModel(cfg, seed=0)
        with microstep_helpers(cfg, 1) as workers:
            with pytest.raises(TrainingError, match=batch[1].utterance_id):
                train_step(model, batch, AdamW(model.params),
                           np.random.default_rng(0), workers=workers)
            # the worker answered and serves the next step
            batch[1].logmel = batch[1].source.frames
            assert np.isfinite(train_step(model, batch, AdamW(model.params),
                                          np.random.default_rng(0), workers=workers))
        assert_no_child_process()

    def test_error_in_trainer_share_kills_helpers(self, corpus_manifest):
        """The trainer's error closes the set; later steps run in one process."""
        cfg = tiny_model_config()
        batch = varied_batch(corpus_manifest, 2)
        batch[0].logmel = np.full_like(batch[0].logmel, np.inf)
        model = S2VCModel(cfg, seed=0)
        with microstep_helpers(cfg, 1) as workers:
            with pytest.raises(TrainingError, match=batch[0].utterance_id):
                train_step(model, batch, AdamW(model.params),
                           np.random.default_rng(0), workers=workers)
            assert_no_child_process()
            assert workers.count == 1
            batch[0].logmel = batch[0].source.frames
            assert np.isfinite(train_step(model, batch, AdamW(model.params),
                                          np.random.default_rng(0), workers=workers))


class TestRunTraining:
    def test_zero_steps_writes_checkpoints(self, corpus_manifest, tmp_path):
        cfg = tiny_cfg(corpus_manifest, tmp_path / "run", max_steps=0)
        final = run_training(cfg)
        assert final.name == "checkpoint_final.s2vc"
        assert (tmp_path / "run" / "checkpoint_init.s2vc").exists()
        mdl, _, extra, extra_arrays = load_checkpoint(final)
        assert extra_arrays == {}   # the optimizer moments are read on resume only
        assert extra["step"] == 0
        assert extra["train_speakers"] == ["spkA", "spkB"]
        assert mdl.config == cfg.model

    def test_worker_run_matches_sequential_run(self, corpus_manifest, tmp_path,
                                               monkeypatch):
        monkeypatch.setattr(cpus, "spare_cpus", lambda: 0)
        sequential = run_training(tiny_cfg(corpus_manifest, tmp_path / "a", max_steps=3))
        monkeypatch.setattr(cpus, "spare_cpus", lambda: 1)
        split = run_training(tiny_cfg(corpus_manifest, tmp_path / "b", max_steps=3))
        assert_no_child_process()
        logs = [[(r["step"], r["loss"]) for r in map(json.loads, (
            path.parent / "train_log.jsonl").read_text().splitlines())]
            for path in (sequential, split)]
        assert logs[0] == logs[1] and len(logs[0]) == 3
        assert_checkpoints_equal(sequential, split)

    def test_script_without_main_guard(self, corpus_manifest, tmp_path,
                                       monkeypatch):
        """A script that calls run_training at top level, with a helper,
        runs to the end and trains as a helper-free run does."""
        script = tmp_path / "train_script.py"
        script.write_text(
            "import sys\n"
            "from s2vc import cpus\n"
            "from s2vc.training import TrainConfig, run_training\n"
            "from toycorpus import tiny_model_config\n"
            "cpus.spare_cpus = lambda: 1\n"
            "run_training(TrainConfig(learning_rate=1e-3, batch_size=2, max_steps=2,\n"
            "                         checkpoint_every=0, manifest=sys.argv[1],\n"
            "                         out_dir=sys.argv[2], model=tiny_model_config()))\n")
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tests.parent / "src"), str(tests)]))
        proc = subprocess.run([sys.executable, str(script), str(corpus_manifest),
                               str(tmp_path / "script")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.setattr(cpus, "spare_cpus", lambda: 0)
        alone = run_training(tiny_cfg(corpus_manifest, tmp_path / "alone", max_steps=2))
        assert_checkpoints_equal(tmp_path / "script" / "checkpoint_final.s2vc", alone)

    @pytest.mark.usefixtures("one_worker")
    def test_log_lines_written(self, corpus_manifest, tmp_path):
        cfg = tiny_cfg(corpus_manifest, tmp_path / "run", max_steps=2)
        run_training(cfg)
        assert_no_child_process()
        lines = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
        records = [json.loads(l) for l in lines]
        assert [r["step"] for r in records] == [1, 2]
        assert all(np.isfinite(r["loss"]) for r in records)

    @pytest.mark.usefixtures("one_worker")
    def test_log_survives_failed_step(self, corpus_manifest, tmp_path,
                                      monkeypatch):
        real_step = training.train_step
        calls = []

        def fail_on_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise TrainingError("injected failure on step 3")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(training, "train_step", fail_on_third)
        cfg = tiny_cfg(corpus_manifest, tmp_path / "run", max_steps=4)
        with pytest.raises(TrainingError, match="step 3"):
            run_training(cfg)
        assert_no_child_process()
        lines = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
        assert [json.loads(l)["step"] for l in lines] == [1, 2]

    @pytest.mark.usefixtures("one_worker")
    def test_non_finite_loss_in_worker_share(self, corpus_manifest, tmp_path,
                                             monkeypatch):
        real_step = training.train_step
        poisoned = []

        def poison_third(model, batch, *args, workers, **kwargs):
            if len(poisoned) < 2:
                poisoned.append(None)
            else:
                # the helper computes the second half of a batch of two
                batch[1].logmel = np.full_like(batch[1].logmel, np.inf)
                poisoned.append(batch[1].utterance_id)
            return real_step(model, batch, *args, workers=workers, **kwargs)

        monkeypatch.setattr(training, "train_step", poison_third)
        cfg = tiny_cfg(corpus_manifest, tmp_path / "run", max_steps=4)
        with pytest.raises(TrainingError, match="non-finite loss") as info:
            run_training(cfg)
        assert repr(poisoned[2]) in str(info.value)
        assert_no_child_process()
        lines = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
        assert [json.loads(l)["step"] for l in lines] == [1, 2]

    def test_resume_cuts_redone_log_lines(self, corpus_manifest, tmp_path):
        cfg = tiny_cfg(corpus_manifest, tmp_path / "run", max_steps=4,
                       checkpoint_every=2)
        log_path = tmp_path / "run" / "train_log.jsonl"
        run_training(cfg)
        first = [json.loads(l) for l in log_path.read_text().splitlines()]
        run_training(cfg, resume_from=tmp_path / "run" / "checkpoint_000002.s2vc")
        again = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert [r["step"] for r in again] == [1, 2, 3, 4]
        assert [r["loss"] for r in again] == [r["loss"] for r in first]

    def test_missing_feature_files_enumerated(self, corpus_manifest, tmp_path):
        man = Manifest.load(corpus_manifest)
        man.entries[0].features["mel"] = str(tmp_path / "gone.s2vf")
        broken = tmp_path / "manifest.jsonl"
        man.save(broken)
        cfg = tiny_cfg(broken, tmp_path / "run")
        with pytest.raises(TrainingError, match=man.entries[0].utterance_id):
            run_training(cfg)

    def test_resume_matches_uninterrupted(self, corpus_manifest, tmp_path):
        straight = tiny_cfg(corpus_manifest, tmp_path / "a", max_steps=4)
        final_a = run_training(straight)

        split = tiny_cfg(corpus_manifest, tmp_path / "b", max_steps=2,
                         checkpoint_every=2)
        run_training(split)
        split = replace(split, max_steps=4)
        final_b = run_training(split, resume_from=tmp_path / "b" / "checkpoint_000002.s2vc")

        ma, _, ea, _ = load_checkpoint(final_a)
        mb, _, eb, _ = load_checkpoint(final_b)
        assert ea["step"] == eb["step"] == 4
        for k in ma.params:
            np.testing.assert_array_equal(ma.params[k].data, mb.params[k].data, err_msg=k)

    def test_resume_requires_training_state(self, corpus_manifest, tmp_path):
        from s2vc.model import save_checkpoint

        model = S2VCModel(tiny_model_config(), seed=0)
        bare = tmp_path / "bare.s2vc"
        save_checkpoint(model, bare)
        cfg = tiny_cfg(corpus_manifest, tmp_path / "run")
        with pytest.raises(TrainingError, match="training state"):
            run_training(cfg, resume_from=bare)

    @pytest.mark.parametrize("drop", ["opt.m.", "opt.v."])
    def test_resume_requires_every_moment(self, drop, corpus_manifest, tmp_path):
        from s2vc import model as model_mod

        cfg = tiny_cfg(corpus_manifest, tmp_path / "run", max_steps=0)
        meta, arrays = model_mod._read_blob_file(
            run_training(cfg), model_mod.CHECKPOINT_MAGIC, extra_arrays=True)
        dropped = sorted(k for k in arrays if k.startswith(f"extra.{drop}"))[-1]
        del arrays[dropped]
        crafted = tmp_path / "crafted.s2vc"
        crafted.write_bytes(model_mod._pack_blob_file(model_mod.CHECKPOINT_MAGIC,
                                                      meta, arrays))
        with pytest.raises(TrainingError,
                           match=f"no optimizer moment {dropped[len('extra.'):]}"):
            run_training(replace(cfg, max_steps=1), resume_from=crafted)


class TestAblationSuite:
    def test_seven_rows(self):
        assert [row for row, _, _ in ABLATION_ROWS] == list("abcdefg")

    def test_flag_grid(self, corpus_manifest, tmp_path):
        base = tiny_cfg(corpus_manifest, tmp_path / "abl")
        runs = {row: cfg for row, _, cfg in ablation_suite(base)}
        assert runs["b"].model == base.model
        assert not runs["a"].model.use_sap
        assert not runs["a"].model.use_instance_norm
        assert not runs["a"].model.use_bottleneck
        assert not runs["c"].model.use_sap and runs["c"].model.use_bottleneck
        assert not runs["d"].model.use_bottleneck and runs["d"].model.use_sap
        assert not runs["e"].model.use_instance_norm
        assert not runs["f"].model.use_bottleneck
        assert not runs["f"].model.use_instance_norm
        assert not runs["g"].model.use_cross_attention

    def test_out_dirs_distinct(self, corpus_manifest, tmp_path):
        base = tiny_cfg(corpus_manifest, tmp_path / "abl")
        dirs = [cfg.out_dir for _, _, cfg in ablation_suite(base)]
        assert len(set(dirs)) == 7
        assert all(Path(d).parent == tmp_path / "abl" for d in dirs)
