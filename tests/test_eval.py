import os
import signal
import time
from dataclasses import asdict
from itertools import groupby

import numpy as np
import pytest

from s2vc import cpus, evaluate
from s2vc.evaluate import (
    EvalError,
    SpeakerEmbedder,
    calibrate_threshold,
    convert,
    cosine_similarity,
    eer_threshold,
    probe_speaker_info,
    render_report,
    sample_pairs,
    sv_accuracy,
    train_speaker_embedder,
)
from s2vc.evaluate import TestPair as Pair
from s2vc.features import Manifest, load_feature_file
from s2vc.model import S2VCModel
from s2vc.training import ABLATION_ROWS
from toycorpus import tiny_model_config


def eer_oracle(gen, imp):
    """Brute-force sweep over every candidate threshold, explicit loops."""
    cands = sorted(set(list(gen) + list(imp)))
    cands.append(cands[-1] + 1.0)
    pts = []
    for t in cands:
        far = sum(1 for s in imp if s >= t) / len(imp)
        frr = sum(1 for s in gen if s < t) / len(gen)
        pts.append((t, far, frr))
    for i, (t, far, frr) in enumerate(pts):
        if far - frr <= 0:
            if far == frr or i == 0:
                return t, (far + frr) / 2.0
            t0, f0, r0 = pts[i - 1]
            d0, d1 = f0 - r0, far - frr
            a = d0 / (d0 - d1)
            return t0 + a * (t - t0), f0 + a * (far - f0)
    raise AssertionError("no crossing found")


@pytest.fixture(scope="module")
def manifest(corpus_manifest):
    return Manifest.load(corpus_manifest)


@pytest.fixture(scope="module")
def mels(manifest):
    return [(load_feature_file(e.features["mel"]).frames, e.speaker_id)
            for e in manifest.entries]


@pytest.fixture(scope="module")
def tiny_model():
    return S2VCModel(tiny_model_config(), seed=0)


class TestPairs:
    def test_sampled_pair_shape(self, manifest):
        pairs = sample_pairs(manifest, n=50, seed=0)
        assert len(pairs) == 50
        for p in pairs:
            assert len(p.targets) == 5
            tgt_spk = p.targets[0].speaker_id
            assert all(t.speaker_id == tgt_spk for t in p.targets)
            assert p.source.speaker_id != tgt_spk
            assert len({t.utterance_id for t in p.targets}) == 5

    def test_seed_determinism(self, manifest):
        a = sample_pairs(manifest, n=20, seed=7)
        b = sample_pairs(manifest, n=20, seed=7)
        assert ([(p.source.utterance_id, p.targets[0].speaker_id) for p in a]
                == [(p.source.utterance_id, p.targets[0].speaker_id) for p in b])

    def test_one_speaker_rejected(self, manifest):
        solo = Manifest([e for e in manifest.entries if e.speaker_id == "spkA"])
        with pytest.raises(EvalError, match="2 speakers"):
            sample_pairs(solo, n=5)

    def test_u2u_draws_only_unseen_speakers(self, four_speaker_manifest):
        man = Manifest.load(four_speaker_manifest)
        pairs = sample_pairs(man, n=20, scenario="u2u", seed=0,
                             train_speakers=["spkA", "spkB"])
        used = {p.source.speaker_id for p in pairs}
        used |= {t.speaker_id for p in pairs for t in p.targets}
        assert used == {"spkC", "spkD"}

    def test_s2s_ignores_training_speakers(self, four_speaker_manifest):
        man = Manifest.load(four_speaker_manifest)
        a = sample_pairs(man, n=20, seed=0)
        b = sample_pairs(man, n=20, seed=0, train_speakers=["spkA", "spkB"])
        assert ([(p.source.utterance_id, p.targets[0].speaker_id) for p in a]
                == [(p.source.utterance_id, p.targets[0].speaker_id) for p in b])
        assert {p.source.speaker_id for p in a} == {"spkA", "spkB", "spkC", "spkD"}

    def test_u2u_needs_recorded_training_speakers(self, four_speaker_manifest):
        man = Manifest.load(four_speaker_manifest)
        with pytest.raises(EvalError, match="records none"):
            sample_pairs(man, n=2, scenario="u2u")

    def test_u2u_needs_two_unseen_speakers(self, four_speaker_manifest):
        man = Manifest.load(four_speaker_manifest)
        with pytest.raises(EvalError, match="2 speakers unseen"):
            sample_pairs(man, n=2, scenario="u2u",
                         train_speakers=["spkA", "spkB", "spkC"])

    def test_pair_validation(self, manifest):
        by_spk = manifest.speakers()
        with pytest.raises(EvalError, match="differ"):
            Pair(by_spk["spkA"][0], [by_spk["spkA"][1]])
        with pytest.raises(EvalError, match="share"):
            Pair(by_spk["spkA"][0], [by_spk["spkB"][0], by_spk["spkA"][1]])
        with pytest.raises(EvalError, match="at least one"):
            Pair(by_spk["spkA"][0], [])


class TestCosine:
    def test_matches_numpy_oracle(self, rng):
        for _ in range(20):
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            expected = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
            assert cosine_similarity(a, b) == pytest.approx(expected, abs=1e-12)

    def test_rejects_unnormalized(self):
        a = np.zeros(4)
        a[0] = 1.0
        with pytest.raises(EvalError, match="unit-norm"):
            cosine_similarity(a, 2.0 * a)


class TestEer:
    def test_separable_scores_zero_eer(self):
        thr, eer = eer_threshold([0.9, 0.8, 0.85], [0.1, 0.2, 0.15])
        assert eer == 0.0
        assert 0.2 <= thr <= 0.8

    def test_identical_distributions_half(self):
        scores = [i / 10 for i in range(1, 11)]
        _, eer = eer_threshold(scores, list(scores))
        assert eer == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            eer_threshold([], [0.5])
        with pytest.raises(EvalError):
            eer_threshold([0.5], [])

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(200):
            gen = rng.normal(0.3, 1.0, size=int(rng.integers(1, 50)))
            imp = rng.normal(-0.3, 1.0, size=int(rng.integers(1, 50)))
            thr, eer = eer_threshold(gen, imp)
            thr_o, eer_o = eer_oracle(gen.tolist(), imp.tolist())
            assert abs(thr - thr_o) < 1e-9
            assert abs(eer - eer_o) < 1e-9
            assert 0.0 <= eer <= 1.0

    def test_threshold_balances_rates(self, rng):
        gen = rng.normal(0.5, 0.5, size=500)
        imp = rng.normal(-0.5, 0.5, size=500)
        thr, eer = eer_threshold(gen, imp)
        far = np.mean(imp >= thr)
        frr = np.mean(gen < thr)
        assert abs(far - frr) < 0.02
        assert abs(eer - (far + frr) / 2) < 0.02


class TestSvAccuracy:
    def test_hand_example(self):
        assert sv_accuracy([0.9, 0.4, 0.6, 0.59], 0.6) == pytest.approx(0.5)

    def test_affine_rescaling_invariance(self, rng):
        scores = rng.uniform(-1, 1, size=50)
        base = sv_accuracy(scores, 0.2)
        assert sv_accuracy(3.0 * scores + 1.0, 3.0 * 0.2 + 1.0) == base

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            sv_accuracy([], 0.5)


class TestEmbedder:
    def test_embedding_unit_norm(self, rng):
        emb = SpeakerEmbedder(mel_dim=80, seed=0)
        e = emb.embed(rng.normal(size=(30, 80)).astype(np.float32))
        assert e.shape == (128,)
        assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-5)

    def test_trained_embedder_separates_speakers(self, mels):
        emb = train_speaker_embedder(mels, steps=200, seed=0)
        by_spk = {}
        for frames, spk in mels:
            by_spk.setdefault(spk, []).append(emb.embed(frames))
        same, cross = [], []
        for spk, embs in by_spk.items():
            for i in range(len(embs)):
                for j in range(i + 1, len(embs)):
                    same.append(cosine_similarity(embs[i], embs[j]))
        for ea in by_spk["spkA"]:
            for eb in by_spk["spkB"]:
                cross.append(cosine_similarity(ea, eb))
        assert np.mean(same) > np.mean(cross)

    def test_calibration_on_separated_embeddings(self, mels):
        emb = train_speaker_embedder(mels, steps=300, seed=0)
        by_spk = {}
        for frames, spk in mels:
            by_spk.setdefault(spk, []).append(emb.embed(frames))
        thr, eer = calibrate_threshold(by_spk, seed=0)
        assert -1.0 <= thr <= 1.0
        assert eer < 0.35

    def test_needs_two_speakers(self, mels):
        only_a = [(f, s) for f, s in mels if s == "spkA"]
        with pytest.raises(EvalError, match="2 speakers"):
            train_speaker_embedder(only_a, steps=1)


class TestConvert:
    def test_returns_audio_and_trace(self, manifest, tiny_model):
        by_spk = manifest.speakers()
        src = load_feature_file(by_spk["spkA"][0].features["mel"])
        tgts = [load_feature_file(e.features["mel"]) for e in by_spk["spkB"][:5]]
        audio, trace, mel_pred = convert(tiny_model, src, tgts, n_gl_iter=5)
        assert audio.sample_rate == 16000
        assert len(audio.samples) > 0
        assert mel_pred.shape[1] == 80
        assert trace.q.shape[0] == mel_pred.shape[0]
        assert trace.attn_weights.shape == (trace.q.shape[0], trace.k.shape[0])


def _probe_reference(model, manifest, site, seed, max_pairs, frames_per_pair,
                     probe_steps):
    """probe_speaker_info with the site matrix read off a full forward."""
    by_speaker = manifest.speakers()
    speakers = sorted(by_speaker)
    spk_idx = {s: i for i, s in enumerate(speakers)}
    rng = np.random.default_rng(seed)
    feats_x, labels = [], []
    for _ in range(max_pairs):
        s1, s2 = rng.choice(speakers, size=2, replace=False)
        src = by_speaker[s1][int(rng.integers(len(by_speaker[s1])))]
        tgt = by_speaker[s2][int(rng.integers(len(by_speaker[s2])))]
        _, trace = model.forward(
            src.load(model.config.source_feature_kind),
            [tgt.load(model.config.target_feature_kind)])
        mat = {"Q": trace.q, "K": trace.k, "V": trace.v}[site]
        take = min(frames_per_pair, mat.shape[0])
        sel = rng.choice(mat.shape[0], size=take, replace=False)
        feats_x.append(mat[sel])
        labels.append(np.full(take, spk_idx[s1] if site == "Q" else spk_idx[s2]))
    order = rng.permutation(len(feats_x))
    dev = set(order[:max(1, len(feats_x) // 10)].tolist())
    train = [i for i in range(len(feats_x)) if i not in dev]
    train_acc, dev_acc = evaluate._linear_probe(
        np.concatenate([feats_x[i] for i in train]),
        np.concatenate([labels[i] for i in train]),
        np.concatenate([feats_x[i] for i in dev]),
        np.concatenate([labels[i] for i in dev]),
        len(speakers), steps=probe_steps, seed=seed)
    return evaluate.ProbeResult(site, (model.config.source_feature_kind,
                                       model.config.target_feature_kind),
                                train_acc, dev_acc, len(speakers))


class TestProbe:
    def test_deterministic(self, manifest, tiny_model):
        a = probe_speaker_info(tiny_model, manifest, "Q", seed=0, max_pairs=6,
                               frames_per_pair=5, probe_steps=50)
        b = probe_speaker_info(tiny_model, manifest, "Q", seed=0, max_pairs=6,
                               frames_per_pair=5, probe_steps=50)
        assert a.dev_accuracy == b.dev_accuracy
        assert a.train_accuracy == b.train_accuracy
        assert a.class_count == 2
        assert a.site == "Q"

    @pytest.mark.parametrize("site", ["Q", "K", "V"])
    def test_matches_forward_reference(self, site, manifest, tiny_model):
        kwargs = dict(seed=2, max_pairs=8, frames_per_pair=6, probe_steps=40)
        got = probe_speaker_info(tiny_model, manifest, site, **kwargs)
        assert got == _probe_reference(tiny_model, manifest, site, **kwargs)

    def test_unknown_site(self, manifest, tiny_model):
        with pytest.raises(EvalError, match="site"):
            probe_speaker_info(tiny_model, manifest, "X")

    def test_disabled_attention_has_no_sites(self, manifest):
        mdl = S2VCModel(tiny_model_config(use_cross_attention=False), seed=0)
        with pytest.raises(EvalError, match="disabled"):
            probe_speaker_info(mdl, manifest, "Q", max_pairs=2,
                               frames_per_pair=2, probe_steps=1)

    def test_random_labels_near_chance(self, rng):
        x = rng.normal(size=(400, 8)).astype(np.float32)
        y = rng.integers(0, 2, size=400)
        tr, dv = evaluate._linear_probe(x[:360], y[:360], x[360:], y[360:],
                                        n_classes=2, steps=200, seed=0)
        assert 0.25 <= dv <= 0.75


def _run_eval_reference(model, manifest, scenario, n_pairs, seed, out_dir,
                        train_speakers=None):
    """run_eval as one full forward per conversion and one per
    self-reconstruction, every pair on its own: the loop run_eval replaced."""
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = sample_pairs(manifest, n=n_pairs, scenario=scenario, seed=seed,
                         train_speakers=train_speakers)
    mels = evaluate.load_mels(manifest)
    embedder = train_speaker_embedder(list(mels.values()), seed=seed)
    by_spk = {}
    for frames, spk in mels.values():
        by_spk.setdefault(spk, []).append(embedder.embed(frames))
    threshold, eer = calibrate_threshold(by_spk, seed=seed)
    src_kind = model.config.source_feature_kind
    tgt_kind = model.config.target_feature_kind
    scores, recon_l1 = [], []
    for pair in pairs:
        src_seq = pair.source.load(src_kind)
        tgts = [t.load(tgt_kind) for t in pair.targets]
        mel_pred, _ = model.forward(src_seq, tgts, train=False)
        conv_emb = embedder.embed(mel_pred.data)
        tgt_embs = np.stack([embedder.embed(mels[t.utterance_id][0])
                             for t in pair.targets])
        centroid = tgt_embs.mean(axis=0)
        centroid /= np.linalg.norm(centroid)
        scores.append(cosine_similarity(conv_emb, centroid))
        self_tgt = pair.source.load(tgt_kind)
        self_pred, _ = model.forward(src_seq, [self_tgt], train=False)
        gt = mels[pair.source.utterance_id][0]
        t = min(self_pred.shape[0], gt.shape[0])
        recon_l1.append(float(np.mean(np.abs(self_pred.data[:t] - gt[:t]))))
    result = {"scenario": scenario, "n_pairs": len(pairs), "seed": seed,
              "sv_accuracy": sv_accuracy(scores, threshold), "eer": eer,
              "threshold": threshold, "recon_l1": float(np.mean(recon_l1))}
    render_report([result], out_dir / "report.json", out_dir / "report.txt",
                  model_config=asdict(model.config))
    return result


@pytest.fixture
def forks_within_60s():
    """Fails a run_eval that hangs on its embedder child instead of hanging
    the suite, then checks that no child process is left."""
    def timeout(signum, frame):
        raise TimeoutError("run_eval took over 60 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("forks_within_60s")
class TestRunEval:
    @pytest.mark.parametrize("scenario", ["s2s", "u2u"])
    def test_matches_per_pair_forwards(self, scenario, four_speaker_manifest,
                                       tiny_model, tmp_path):
        man = Manifest.load(four_speaker_manifest)
        kwargs = dict(scenario=scenario, n_pairs=12, seed=3,
                      train_speakers=["spkA", "spkB"])
        want = _run_eval_reference(tiny_model, man, out_dir=tmp_path / "ref",
                                   **kwargs)
        got = evaluate.run_eval(tiny_model, man, out_dir=tmp_path / "new", **kwargs)
        assert got == want
        for name in ("report.json", "report.txt"):
            assert ((tmp_path / "new" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes())

    def test_each_utterance_embedded_and_encoded_once(
            self, four_speaker_manifest, tiny_model, tmp_path, monkeypatch):
        man = Manifest.load(four_speaker_manifest)
        embedder = train_speaker_embedder(
            list(evaluate.load_mels(man).values()), steps=5, seed=0)
        calls = {"embed": 0, "target_encode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SpeakerEmbedder, "embed",
                            counted("embed", SpeakerEmbedder.embed))
        monkeypatch.setattr(S2VCModel, "target_encode",
                            counted("target_encode", S2VCModel.target_encode))
        pairs = sample_pairs(man, n=20, seed=5)   # the pairs run_eval draws
        evaluate.run_eval(tiny_model, man, "s2s", len(pairs), 5, tmp_path,
                          embedder=embedder)

        assert calls["embed"] == len(man.entries) + len(pairs)

        def speaker(p):
            return p.targets[0].speaker_id

        per_group = sum(
            len({t.utterance_id for p in group for t in p.targets})
            for _, group in groupby(sorted(pairs, key=speaker), key=speaker))
        sources = len({p.source.utterance_id for p in pairs})
        assert per_group < 5 * len(pairs)  # the bound below saves work
        assert calls["target_encode"] <= per_group + sources


@pytest.mark.usefixtures("forks_within_60s", "one_worker")
class TestEmbedderChild:
    """With a spare CPU, run_eval trains the embedder in a forked child;
    whatever happens, the child is gone when run_eval returns or raises."""

    @pytest.fixture
    def run(self, four_speaker_manifest, tiny_model, tmp_path):
        man = Manifest.load(four_speaker_manifest)
        return lambda **kwargs: evaluate.run_eval(tiny_model, man, "s2s", 4, 0,
                                                  tmp_path, **kwargs)

    def test_child_eval_error_reaches_caller(self, run, monkeypatch):
        def fail(*args, **kwargs):
            raise EvalError(f"raised in process {os.getpid()}")

        monkeypatch.setattr(evaluate, "train_speaker_embedder", fail)
        with pytest.raises(EvalError, match="raised in process") as info:
            run()
        assert str(info.value) != f"raised in process {os.getpid()}"

    def test_child_exit_without_result_names_status(self, run, monkeypatch):
        monkeypatch.setattr(evaluate, "train_speaker_embedder",
                            lambda *args, **kwargs: os._exit(3))
        with pytest.raises(EvalError, match="status 3"):
            run()

    def test_parent_error_kills_child(self, run, monkeypatch):
        decode = S2VCModel.decode
        calls = []

        def fail_second(self, h):
            calls.append(h)
            if len(calls) == 2:
                raise RuntimeError("decode failed")
            return decode(self, h)

        monkeypatch.setattr(evaluate, "train_speaker_embedder",
                            lambda *args, **kwargs: time.sleep(60))
        monkeypatch.setattr(S2VCModel, "decode", fail_second)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="decode failed"):
            run()
        assert time.monotonic() - start < 30   # killed, not waited for

    def test_given_embedder_forks_nothing(self, run, mels, monkeypatch):
        embedder = train_speaker_embedder(mels, steps=5, seed=0)
        monkeypatch.setattr(os, "fork", pytest.fail)
        assert run(embedder=embedder)["n_pairs"] == 4

    def test_no_spare_cpu_forks_nothing(self, run, tmp_path, monkeypatch):
        """Without a spare CPU the embedder trains here, after the
        conversions, and the report keeps its bytes."""
        calls = []

        def recorded(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        recorded(os, "fork")
        run()
        assert calls == ["fork"]
        reports = [(tmp_path / name).read_bytes() for name in ("report.json", "report.txt")]
        calls.clear()
        recorded(evaluate, "_convert_pairs")
        recorded(evaluate, "train_speaker_embedder")
        monkeypatch.setattr(cpus, "spare_cpus", lambda: 0)
        monkeypatch.setattr(os, "fork", pytest.fail)
        run()
        assert calls == ["_convert_pairs", "train_speaker_embedder"]
        assert [(tmp_path / name).read_bytes()
                for name in ("report.json", "report.txt")] == reports


class TestAttend:
    @pytest.mark.parametrize("overrides", [o for _, _, o in ABLATION_ROWS],
                             ids=[f"({row}) {name}" for row, name, _ in ABLATION_ROWS])
    def test_equals_forward_bit_for_bit(self, overrides, manifest):
        mdl = S2VCModel(tiny_model_config(**overrides), seed=1)
        by_spk = manifest.speakers()
        src = load_feature_file(by_spk["spkA"][0].features["mel"])
        tgts = [load_feature_file(e.features["mel"]) for e in by_spk["spkB"][:5]]
        mel, trace = mdl.forward(src, tgts)

        h, split_trace = mdl.attend(mdl.source_encode(src),
                                    [mdl.target_encode(t) for t in tgts])
        assert np.array_equal(mdl.decode(h).data, mel.data)
        for field in ("q", "k", "v", "attn_weights", "pooled_target"):
            a, b = getattr(trace, field), getattr(split_trace, field)
            assert (a is None) == (b is None)
            assert a is None or (a.shape == b.shape and np.array_equal(a, b))
        assert (trace.pooled_target is None) == (not mdl.config.use_sap)


class TestReport:
    def test_json_roundtrip(self, tmp_path):
        rows = [{"row": "(a)", "sv_accuracy": 0.25, "eer": 0.125},
                {"row": "(b)", "sv_accuracy": 0.75, "eer": 0.0625}]
        payload = render_report(rows, tmp_path / "r.json", tmp_path / "r.txt")
        assert payload["results"] == rows
        import json
        assert json.loads((tmp_path / "r.json").read_text())["results"] == rows

    def test_text_grid_aligned(self, tmp_path):
        rows = [{"name": "proposed", "sv_accuracy": 0.5},
                {"name": "x", "sv_accuracy": 1.0}]
        render_report(rows, tmp_path / "r.json", tmp_path / "r.txt")
        lines = (tmp_path / "r.txt").read_text().splitlines()
        assert len(lines) == 4
        assert len({len(l) for l in lines}) == 1
        assert lines[0].startswith("name")
        assert "0.5000" in lines[2]

    def test_empty_results(self, tmp_path):
        payload = render_report([], tmp_path / "r.json", tmp_path / "r.txt")
        assert payload == {"results": []}
        assert (tmp_path / "r.txt").exists()
