"""Objective evaluation: conversion, speaker verification, probing, and the
ablation grid.

The pretrained verification system the protocol calls for is replaced by a
small speaker embedder trained on the evaluation corpus itself, so absolute
acceptance percentages are not comparable to published numbers; comparisons
across configurations with shared seeds and pair samples are.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import Error, cpus, dsp, training
from . import model as model_mod
from . import nn
from . import tensor as T
from .features import Manifest, align_frame_rate
from .tensor import AdamW, GradTape, Tensor

__all__ = [
    "TestPair",
    "EvalError",
    "sample_pairs",
    "convert",
    "load_mels",
    "run_eval",
    "SpeakerEmbedder",
    "train_speaker_embedder",
    "cosine_similarity",
    "eer_threshold",
    "sv_accuracy",
    "probe_speaker_info",
    "ProbeResult",
    "render_report",
    "run_ablation",
]


TARGETS_PER_PAIR = 5   # target utterances per pair, the standard protocol
EMBEDDER_WIDTH = 128   # hidden and output width of SpeakerEmbedder


class EvalError(Error):
    pass


@dataclass
class TestPair:
    source: object           # ManifestEntry
    targets: list            # up to five ManifestEntries, same speaker

    def __post_init__(self):
        if not self.targets:
            raise EvalError("pair needs at least one target utterance")
        spk = self.targets[0].speaker_id
        if any(t.speaker_id != spk for t in self.targets):
            raise EvalError("target utterances must share a speaker")
        if self.source.speaker_id == spk:
            raise EvalError("source and target speakers must differ")


def sample_pairs(manifest, n=400, scenario="s2s", seed=0, train_speakers=None):
    """Seeded sampling of conversion pairs: one source utterance, five target
    utterances from a different speaker, without replacement within a pair.

    ``s2s`` draws from every manifest speaker.  ``u2u`` draws only from
    speakers absent from ``train_speakers``, the speaker ids a checkpoint
    records as seen in training.
    """
    by_speaker = manifest.speakers()
    if scenario == "u2u":
        if train_speakers is None:
            raise EvalError("u2u needs the training speakers, and the checkpoint "
                            "records none (retrain to record them)")
        by_speaker = {s: es for s, es in by_speaker.items()
                      if s not in train_speakers}
        if len(by_speaker) < 2:
            raise EvalError(
                f"u2u needs at least 2 speakers unseen in training, manifest has "
                f"{len(by_speaker)}: {sorted(by_speaker)}")
    eligible_targets = {s: es for s, es in by_speaker.items()
                        if len(es) >= TARGETS_PER_PAIR}
    if len(by_speaker) < 2:
        raise EvalError(f"need at least 2 speakers, manifest has {len(by_speaker)}")
    if len(eligible_targets) < 1 or (
            len(eligible_targets) == 1 and len(by_speaker) == 1):
        raise EvalError(
            f"no speaker has the {TARGETS_PER_PAIR} utterances required as target")

    rng = np.random.default_rng(seed)
    speakers = sorted(by_speaker)
    pairs = []
    guard = 0
    while len(pairs) < n:
        guard += 1
        if guard > 100 * n + 100:
            raise EvalError("could not sample enough valid pairs")
        src_spk, tgt_spk = rng.choice(speakers, size=2, replace=False)
        if tgt_spk not in eligible_targets:
            continue
        src_entries = by_speaker[src_spk]
        src = src_entries[int(rng.integers(0, len(src_entries)))]
        tgt_entries = eligible_targets[tgt_spk]
        idx = rng.choice(len(tgt_entries), size=TARGETS_PER_PAIR, replace=False)
        pairs.append(TestPair(src, [tgt_entries[int(i)] for i in idx]))
    return pairs


def load_mels(manifest):
    """Log-mel frames and speaker of every manifest utterance, by utterance id."""
    return {e.utterance_id: (e.load("mel").frames, e.speaker_id)
            for e in manifest.entries}


def convert(model, src, tgts, mel_cfg=None, n_gl_iter=60):
    """Convert ``src`` toward the speaker of ``tgts`` (FeatureSequences);
    returns (AudioBuffer, AttentionTrace, mel prediction).  The network and
    Griffin-Lim split their row-wise work across the active ``cpus.Shares``;
    the result is the same bits for any number of shares."""
    mel_cfg = mel_cfg or dsp.MelConfig()
    mel_pred, trace = model.forward(src, tgts, train=False)
    spec = dsp.Spectrogram(frames=mel_pred.data.astype(np.float32), config=mel_cfg)
    audio = dsp.griffin_lim(spec, mel_cfg, n_iter=n_gl_iter)
    return audio, trace, mel_pred.data


def _target_encodings(model, src, entries, cache):
    """The per-utterance target encodings ``model.forward`` computes for
    ``src`` and the target utterances ``entries``, each encoded once per
    ``cache``: (utterance id, frame rate) -> encoding.

    The entries come from one speaker: a TestPair's targets, or one entry.
    """
    kind = model.config.target_feature_kind
    for e in entries:
        key = (e.utterance_id, src.fps)
        if key not in cache:
            cache[key] = model.target_encode(align_frame_rate(e.load(kind), src.fps))
    return [cache[(e.utterance_id, src.fps)] for e in entries]


def _convert_pairs(model, pairs, mels):
    """Every pair's converted mel, in pair order, and the self-reconstruction
    L1 of each distinct source: (list of arrays, source utterance id -> L1).
    """
    converted = [None] * len(pairs)
    recon_by_src = {}
    by_target = {}
    for i, pair in enumerate(pairs):
        by_target.setdefault(pair.targets[0].speaker_id, []).append(i)
    for indices in by_target.values():
        encoded = {}    # this target speaker's utterances only
        for i in indices:
            pair = pairs[i]
            src_seq = pair.source.load(model.config.source_feature_kind)
            tgt_encodings = _target_encodings(model, src_seq, pair.targets, encoded)
            src_h = model.source_encode(src_seq)
            h, _ = model.attend(src_h, tgt_encodings)
            converted[i] = model.decode(h).data

            # quality proxy: self-reconstruction error on the source utterance
            utt = pair.source.utterance_id
            if utt not in recon_by_src:
                h, _ = model.attend(src_h, _target_encodings(model, src_seq,
                                                             [pair.source], {}))
                self_pred = model.decode(h).data
                gt = mels[utt][0]
                t = min(self_pred.shape[0], gt.shape[0])
                recon_by_src[utt] = float(np.mean(np.abs(self_pred[:t] - gt[:t])))
    return converted, recon_by_src


def run_eval(model, manifest, scenario, n_pairs, seed, out_dir, embedder=None,
             train_speakers=None):
    """Objective evaluation of ``model``; writes report.json and report.txt
    to ``out_dir`` and returns the result row.

    The embedder and the EER calibration always use the whole manifest;
    ``scenario`` and ``train_speakers`` select the pairs (see sample_pairs).

    Each utterance is embedded once, each pair's source is encoded once for
    both of its forwards, and each distinct source is self-reconstructed
    once.  Pairs run grouped by target speaker, so target encodings are
    cached for one speaker at a time; results keep the sampled pair order.
    Without ``embedder``, a ``cpus.Helpers`` child trains it while the
    pairs convert, or this process does afterwards when no CPU is spare
    (docs/eval.md).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = sample_pairs(manifest, n=n_pairs, scenario=scenario, seed=seed,
                         train_speakers=train_speakers)
    mels = load_mels(manifest)
    tasks = [()] if embedder is None else []
    with cpus.Helpers(lambda: train_speaker_embedder(list(mels.values()), seed=seed),
                      min(len(tasks), cpus.spare_cpus())) as helpers:
        try:
            (converted, recon_by_src), trained = helpers.run(
                lambda: _convert_pairs(model, pairs, mels), tasks)
        except cpus.HelperExited as e:
            raise EvalError(f"speaker embedder {e}") from None
    if embedder is None:
        (embedder,) = trained

    embs, by_spk = {}, {}
    for utt, (frames, spk) in mels.items():
        embs[utt] = embedder.embed(frames)
        by_spk.setdefault(spk, []).append(embs[utt])
    threshold, eer = calibrate_threshold(by_spk, seed=seed)
    scores = []
    for pair, mel in zip(pairs, converted):
        centroid = np.stack([embs[t.utterance_id] for t in pair.targets]).mean(axis=0)
        centroid /= np.linalg.norm(centroid)
        scores.append(cosine_similarity(embedder.embed(mel), centroid))
    recon_l1 = [recon_by_src[p.source.utterance_id] for p in pairs]

    result = {
        "scenario": scenario,
        "n_pairs": len(pairs),
        "seed": seed,
        "sv_accuracy": sv_accuracy(scores, threshold),
        "eer": eer,
        "threshold": threshold,
        "recon_l1": float(np.mean(recon_l1)),
    }
    render_report([result], out_dir / "report.json", out_dir / "report.txt",
                  model_config=asdict(model.config))
    return result


# ---------------------------------------------------------------------------
# speaker embedder

class SpeakerEmbedder:
    """Two linear layers, temporal average pooling, unit-norm 128-d output.

    The classification head exists only for training.
    """

    def __init__(self, mel_dim=80, n_speakers=2, seed=0):
        rng = np.random.default_rng(seed)
        self.params = {}
        nn.init_linear(self.params, "l1", mel_dim, EMBEDDER_WIDTH, rng)
        nn.init_linear(self.params, "l2", EMBEDDER_WIDTH, EMBEDDER_WIDTH, rng)
        nn.init_linear(self.params, "proj", EMBEDDER_WIDTH, EMBEDDER_WIDTH, rng)
        nn.init_linear(self.params, "head", EMBEDDER_WIDTH, n_speakers, rng)

    def _embed_tensor(self, mel_frames):
        h = T.relu(nn.linear(self.params, "l1", Tensor(mel_frames)))
        h = T.relu(nn.linear(self.params, "l2", h))
        pooled = T.mean(h, axis=0, keepdims=True)          # 1 x hidden
        e = nn.linear(self.params, "proj", pooled)          # 1 x emb
        norm = T.sqrt(T.sum_(e * e) + 1e-12)
        if norm.item() < 1e-6:
            raise EvalError("degenerate zero-norm speaker embedding")
        return e / norm

    def embed(self, mel_frames):
        """Unit-norm embedding of a T x mel_dim log-mel matrix."""
        return self._embed_tensor(np.asarray(mel_frames, dtype=np.float32)).data.reshape(-1)

    def logits(self, mel_frames):
        return nn.linear(self.params, "head", self._embed_tensor(mel_frames))


def train_speaker_embedder(utterances, steps=300, seed=0):
    """Train the embedder with a speaker-classification objective.

    ``utterances`` is a list of (T x mel_dim frames, speaker_id).
    """
    speakers = sorted({spk for _, spk in utterances})
    if len(speakers) < 2:
        raise EvalError("speaker embedder needs at least 2 speakers")
    spk_idx = {s: i for i, s in enumerate(speakers)}
    emb = SpeakerEmbedder(mel_dim=np.shape(utterances[0][0])[1],
                          n_speakers=len(speakers), seed=seed)
    opt = AdamW(emb.params, lr=1e-3, weight_decay=0.0)
    rng = np.random.default_rng(seed)
    order = np.arange(len(utterances))
    for step in range(steps):
        i = int(order[step % len(order)])
        if step % len(order) == 0:
            rng.shuffle(order)
            i = int(order[0])
        frames, spk = utterances[i]
        opt.zero_grad()
        with GradTape() as tape:
            logits = emb.logits(np.asarray(frames, dtype=np.float32))
            loss = T.cross_entropy(logits, np.array([spk_idx[spk]]))
            tape.backward(loss)
        opt.step()
    return emb


def cosine_similarity(a, b):
    """Dot product of unit-norm embeddings."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for name, v in (("a", a), ("b", b)):
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-3:
            raise EvalError(f"cosine_similarity expects unit-norm inputs; |{name}|={n:.4f}")
    return float(np.dot(a, b))


# ---------------------------------------------------------------------------
# EER

def _interp_crossing(thresholds, far, frr):
    d = far - frr
    k = int(np.argmax(d <= 0))  # d is non-increasing; first non-positive entry
    if d[k] == 0 or k == 0:
        return float(thresholds[k]), float((far[k] + frr[k]) / 2.0)
    d1, d2 = d[k - 1], d[k]
    alpha = d1 / (d1 - d2)
    thr = thresholds[k - 1] + alpha * (thresholds[k] - thresholds[k - 1])
    eer = far[k - 1] + alpha * (far[k] - far[k - 1])
    return float(thr), float(eer)


def eer_threshold(genuine_scores, impostor_scores):
    """Equal-error-rate operating point with linear interpolation.

    Returns (threshold, eer).  Accept means score >= threshold.
    """
    gen = np.asarray(genuine_scores, dtype=np.float64)
    imp = np.asarray(impostor_scores, dtype=np.float64)
    if gen.size == 0 or imp.size == 0:
        raise EvalError("eer_threshold needs nonempty genuine and impostor scores")
    cands = np.unique(np.concatenate([gen, imp]))
    cands = np.append(cands, cands[-1] + 1.0)
    # FAR(t) = fraction of impostors accepted, FRR(t) = fraction of genuine rejected
    imp_sorted = np.sort(imp)
    gen_sorted = np.sort(gen)
    far = 1.0 - np.searchsorted(imp_sorted, cands, side="left") / imp.size
    frr = np.searchsorted(gen_sorted, cands, side="left") / gen.size
    return _interp_crossing(cands, far, frr)


def sv_accuracy(similarity_scores, threshold):
    """Fraction of conversions accepted at the given threshold."""
    scores = np.asarray(similarity_scores, dtype=np.float64)
    if scores.size == 0:
        raise EvalError("no similarity scores")
    return float(np.mean(scores >= threshold))


def calibrate_threshold(embeddings_by_speaker, seed=0):
    """EER threshold from authentic utterances only.

    Genuine pairs are all same-speaker pairs; impostors are an equal-count
    seeded sample of cross-speaker pairs.
    """
    genuine = []
    speakers = sorted(embeddings_by_speaker)
    for spk in speakers:
        embs = embeddings_by_speaker[spk]
        for i in range(len(embs)):
            for j in range(i + 1, len(embs)):
                genuine.append(cosine_similarity(embs[i], embs[j]))
    if not genuine:
        raise EvalError("no same-speaker pairs available for calibration")
    rng = np.random.default_rng(seed)
    impostor = []
    for _ in range(len(genuine)):
        s1, s2 = rng.choice(speakers, size=2, replace=False)
        e1 = embeddings_by_speaker[s1][int(rng.integers(len(embeddings_by_speaker[s1])))]
        e2 = embeddings_by_speaker[s2][int(rng.integers(len(embeddings_by_speaker[s2])))]
        impostor.append(cosine_similarity(e1, e2))
    return eer_threshold(genuine, impostor)


# ---------------------------------------------------------------------------
# speaker-information probing

@dataclass
class ProbeResult:
    site: str                # "Q" | "K" | "V"
    feature_kinds: tuple
    train_accuracy: float
    dev_accuracy: float
    class_count: int


def _linear_probe(train_x, train_y, dev_x, dev_y, n_classes, steps=1000, seed=0):
    rng = np.random.default_rng(seed)
    params = {}
    nn.init_linear(params, "probe", train_x.shape[1], n_classes, rng)
    opt = AdamW(params, lr=1e-2, weight_decay=0.0)
    x = np.asarray(train_x, dtype=np.float32)
    y = np.asarray(train_y, dtype=np.int64)
    for _ in range(steps):
        opt.zero_grad()
        with GradTape() as tape:
            logits = nn.linear(params, "probe", Tensor(x))
            loss = T.cross_entropy(logits, y)
            tape.backward(loss)
        opt.step()

    def acc(xm, ym):
        logits = xm @ params["probe.w"].data + params["probe.b"].data
        return float(np.mean(np.argmax(logits, axis=1) == ym))

    return acc(x, y), acc(np.asarray(dev_x, dtype=np.float32), np.asarray(dev_y))


def probe_speaker_info(model, manifest, site, seed=0, max_pairs=40,
                       frames_per_pair=20, probe_steps=1000):
    """Frame-level speaker probing on Q, K, or V.

    Pairs always mix two different speakers.  The probe predicts the source
    speaker from Q and the target speaker from K and V, on a seeded 90/10
    pair split, with a linear softmax classifier.
    """
    if site not in ("Q", "K", "V"):
        raise EvalError(f"unknown probe site {site!r}")
    by_speaker = manifest.speakers()
    speakers = sorted(by_speaker)
    if len(speakers) < 2:
        raise EvalError("probing needs at least 2 speakers")
    spk_idx = {s: i for i, s in enumerate(speakers)}

    rng = np.random.default_rng(seed)
    feats_x, labels = [], []
    for _ in range(max_pairs):
        s1, s2 = rng.choice(speakers, size=2, replace=False)
        src = by_speaker[s1][int(rng.integers(len(by_speaker[s1])))]
        tgt = by_speaker[s2][int(rng.integers(len(by_speaker[s2])))]
        # the attention internals of model.forward, without its decoder
        src_seq = src.load(model.config.source_feature_kind)
        tgt_encodings = _target_encodings(model, src_seq, [tgt], {})
        _, trace = model.attend(model.source_encode(src_seq), tgt_encodings)
        mat = {"Q": trace.q, "K": trace.k, "V": trace.v}[site]
        if mat.size == 0:
            raise EvalError(f"site {site} is empty (cross attention disabled?)")
        label = spk_idx[s1] if site == "Q" else spk_idx[s2]
        take = min(frames_per_pair, mat.shape[0])
        sel = rng.choice(mat.shape[0], size=take, replace=False)
        feats_x.append(mat[sel])
        labels.append(np.full(take, label, dtype=np.int64))

    order = rng.permutation(len(feats_x))
    n_dev = max(1, len(feats_x) // 10)
    dev_set = set(order[:n_dev].tolist())
    tr_x = np.concatenate([feats_x[i] for i in range(len(feats_x)) if i not in dev_set])
    tr_y = np.concatenate([labels[i] for i in range(len(labels)) if i not in dev_set])
    dv_x = np.concatenate([feats_x[i] for i in dev_set])
    dv_y = np.concatenate([labels[i] for i in dev_set])

    train_acc, dev_acc = _linear_probe(tr_x, tr_y, dv_x, dv_y, len(speakers),
                                       steps=probe_steps, seed=seed)
    return ProbeResult(site=site,
                       feature_kinds=(model.config.source_feature_kind,
                                      model.config.target_feature_kind),
                       train_accuracy=train_acc, dev_accuracy=dev_acc,
                       class_count=len(speakers))


# ---------------------------------------------------------------------------
# reports

def render_report(results, json_path, text_path, model_config=None):
    """Write report.json and an aligned-text grid.

    ``results`` is a list of dicts; keys become columns.  ``model_config``,
    when given, is stored next to the results in report.json only.
    """
    payload = {"results": results}
    if model_config is not None:
        payload["model_config"] = model_config
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    dsp.write_atomic(json_path, text.encode("utf-8"))

    columns = []
    for r in results:
        for k in r:
            if k not in columns:
                columns.append(k)
    widths = {c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in results), 1)
              if results else len(c) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    lines.append("  ".join("-" * widths[c] for c in columns))
    for r in results:
        lines.append("  ".join(_fmt(r.get(c, "")).ljust(widths[c]) for c in columns))
    dsp.write_atomic(text_path, ("\n".join(lines) + "\n").encode("utf-8"))
    return payload


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


# ---------------------------------------------------------------------------
# the ablation grid

def _prior_result(run_dir, run_cfg, n_pairs):
    """The result row of ``run_dir``'s report.json when it holds ``n_pairs``
    pairs of ``run_cfg``'s seed and the final checkpoint's metadata records
    ``run_cfg`` as its training configuration; else None, also when either
    file cannot be read.  The checkpoint's arrays are not read."""
    report, ckpt = run_dir / "report.json", run_dir / "checkpoint_final.s2vc"
    if not (report.exists() and ckpt.exists()):
        return None
    try:
        with open(report, encoding="utf-8") as fh:
            prior = json.load(fh)["results"][0]
        fresh = (prior["n_pairs"], prior["seed"]) == (n_pairs, run_cfg.seed)
        meta = model_mod.read_checkpoint_meta(ckpt)
    except (ValueError, LookupError, TypeError, model_mod.CheckpointError):
        return None   # bad JSON or UTF-8, a missing row or key, a bad header
    trained = meta.get("extra", {}).get("train_config")
    return prior if fresh and trained == asdict(run_cfg) else None


def run_ablation(base_cfg, n_pairs, log_fn=None):
    """Train and evaluate the configurations of ``training.ablation_suite``
    with one speaker embedder and the same ``n_pairs`` pairs; returns the
    rows, also written to ablation_report.json and .txt in ``base_cfg.out_dir``.

    A row whose ``_prior_result`` holds is reused.  Any other row has its
    report.json deleted, then is trained and evaluated again over its files.
    ``log_fn`` receives one line per row: skipped, or trained for how many
    steps.
    """
    def log(line):
        if log_fn:
            log_fn(line)

    out = Path(base_cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest.load(base_cfg.manifest)
    embedder = train_speaker_embedder(list(load_mels(manifest).values()),
                                      seed=base_cfg.seed)
    rows = []
    for row, name, run_cfg in training.ablation_suite(base_cfg):
        run_dir = Path(run_cfg.out_dir)
        result = _prior_result(run_dir, run_cfg, n_pairs)
        if result is None:
            # a retrain that fails must not leave the old report to be reused
            (run_dir / "report.json").unlink(missing_ok=True)
            log(f"({row}) {name}: training {run_cfg.max_steps} steps")
            mdl, _, _, _ = model_mod.load_checkpoint(training.run_training(run_cfg))
            result = run_eval(mdl, manifest, "s2s", n_pairs, base_cfg.seed, run_dir,
                              embedder=embedder)
        else:
            log(f"({row}) {name}: already done, skipping")
        rows.append({"row": f"({row})", "name": name, **result})
    render_report(rows, out / "ablation_report.json", out / "ablation_report.txt")
    return rows
