"""Self-reconstruction training loop and the ablation configuration suite.

One utterance doubles as source input, target input, and reconstruction
target.  Variable-length utterances are handled by gradient accumulation
(one utterance per microstep) instead of padding and masking.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .dsp import MelConfig
from .features import FeatureSequence, Manifest
from .model import ModelConfig, S2VCModel, load_checkpoint, save_checkpoint
from .tensor import AdamW, GradTape, Tensor, clip_global_norm

__all__ = [
    "TrainConfig",
    "TrainingError",
    "reconstruction_loss",
    "train_step",
    "run_training",
    "ablation_suite",
    "ABLATION_ROWS",
]

MAX_CROP_FRAMES = 512


class TrainingError(Exception):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.01
    batch_size: int = 8
    max_steps: int = 1000
    seed: int = 0
    clip_grad_norm: float = 1.0
    checkpoint_every: int = 500
    manifest: str = ""
    out_dir: str = "runs/default"
    model: ModelConfig = field(default_factory=ModelConfig)
    mel: MelConfig = field(default_factory=MelConfig)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")

    def to_dict(self):
        d = asdict(self)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["model"] = ModelConfig.from_dict(d["model"])
        d["mel"] = MelConfig.from_dict(d["mel"])
        return cls(**d)


def reconstruction_loss(pred, target):
    """Mean absolute error between predicted and ground-truth log-mel."""
    if pred.shape != target.shape:
        raise T.ShapeError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    return T.mean(T.abs_(pred - target))


@dataclass
class BatchItem:
    utterance_id: str
    source: FeatureSequence
    target: FeatureSequence
    logmel: np.ndarray  # T x mel_dim ground truth


def train_step(model, batch, optimizer, rng, clip_grad_norm=1.0):
    """One optimization step over a list of BatchItems.

    Returns the averaged loss value.  Gradients are accumulated one
    utterance at a time, clipped by global norm, then applied with AdamW.
    """
    if not batch:
        raise TrainingError("empty batch")
    optimizer.zero_grad()
    total = 0.0
    for item in batch:
        try:
            with GradTape() as tape:
                pred, _ = model.forward(item.source, [item.target], train=True,
                                        rng=rng)
                t = min(pred.shape[0], item.logmel.shape[0])
                pred_t = T.rows(pred, 0, t) if t < pred.shape[0] else pred
                target = Tensor(item.logmel[:t])
                loss = reconstruction_loss(pred_t, target) * (1.0 / len(batch))
                tape.backward(loss)
        except T.NumericError as e:
            raise TrainingError(
                f"non-finite loss on utterance {item.utterance_id!r}: {e}") from e
        total += loss.item() * len(batch)
    clip_global_norm(model.params, clip_grad_norm)
    optimizer.step()
    return total / len(batch)


# ---------------------------------------------------------------------------
# dataset plumbing

def _crop(seq, start, length):
    t = seq.num_frames
    if t <= length:
        return seq, 0, t
    s = min(start, t - length)
    return FeatureSequence(seq.kind, seq.frames[s:s + length], seq.fps,
                           seq.utterance_id, seq.speaker_id), s, length


def _make_item(feats, cfg, rng):
    src = feats[cfg.model.source_feature_kind]
    tgt = feats[cfg.model.target_feature_kind]
    mel = feats["mel"]
    # crop source (and ground truth in lockstep) for memory boundedness
    max_start = max(0, src.num_frames - MAX_CROP_FRAMES)
    start = int(rng.integers(0, max_start + 1)) if max_start > 0 else 0
    src, s, length = _crop(src, start, MAX_CROP_FRAMES)
    mel_frames = mel.frames[s:s + length]
    tgt, _, _ = _crop(tgt, start, MAX_CROP_FRAMES)
    return BatchItem(src.utterance_id, src, tgt, mel_frames)


def run_training(cfg, resume_from=None, log_fn=None):
    """Train per ``cfg``; returns the final checkpoint path.

    Missing feature files are enumerated before step 1.  A checkpoint written
    every ``checkpoint_every`` steps carries optimizer and RNG state so a
    resumed run reproduces the uninterrupted loss trajectory.  Each step's
    line is flushed to ``train_log.jsonl`` as the step ends.
    """
    manifest = Manifest.load(cfg.manifest)
    missing = []
    needed = {cfg.model.source_feature_kind, cfg.model.target_feature_kind, "mel"}
    for e in manifest.entries:
        for kind in needed:
            p = e.features.get(kind)
            if p is None or not Path(p).exists():
                missing.append(f"{e.utterance_id}:{kind}")
    if missing:
        raise TrainingError("missing feature files: " + ", ".join(sorted(missing)))
    if not manifest.entries:
        raise TrainingError(f"manifest {cfg.manifest} has no entries")

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train_log.jsonl"

    if resume_from is not None:
        model, _, extra, extra_arrays = load_checkpoint(resume_from)
        if extra.get("train_config") is None:
            raise TrainingError(f"{resume_from} carries no training state")
        optimizer = AdamW(model.params, lr=cfg.learning_rate, beta1=cfg.beta1,
                          beta2=cfg.beta2, weight_decay=cfg.weight_decay)
        step = int(extra["step"])
        optimizer.t = int(extra["optimizer_t"])
        for k in optimizer.m:
            optimizer.m[k][...] = extra_arrays[f"opt.m.{k}"]
            optimizer.v[k][...] = extra_arrays[f"opt.v.{k}"]
        rng = np.random.default_rng()
        rng.bit_generator.state = json.loads(extra["rng_state"])
    else:
        model = S2VCModel(cfg.model, seed=cfg.seed)
        optimizer = AdamW(model.params, lr=cfg.learning_rate, beta1=cfg.beta1,
                          beta2=cfg.beta2, weight_decay=cfg.weight_decay)
        step = 0
        rng = np.random.default_rng(cfg.seed)

    train_speakers = sorted(manifest.speakers())

    def _save(path, at_step):
        save_checkpoint(
            model, path, mel_config=cfg.mel,
            extra_meta={
                "train_config": cfg.to_dict(),
                "train_speakers": train_speakers,
                "step": at_step,
                "optimizer_t": optimizer.t,
                "rng_state": json.dumps(rng.bit_generator.state),
            },
            extra_arrays={**{f"opt.m.{k}": v for k, v in optimizer.m.items()},
                          **{f"opt.v.{k}": v for k, v in optimizer.v.items()}},
        )

    if step == 0:
        _save(out_dir / "checkpoint_init.s2vc", 0)

    # the log keeps its lines up to the step the run starts from; a resumed
    # run cuts the lines of the steps it is about to redo
    keep_bytes = 0
    if resume_from is not None and log_path.exists():
        with open(log_path, "rb") as fh:
            for raw in fh:
                if json.loads(raw)["step"] > step:
                    break
                keep_bytes += len(raw)
    entries = manifest.entries
    with open(log_path, "a", encoding="utf-8") as log:
        log.truncate(keep_bytes)
        while step < cfg.max_steps:
            idx = rng.integers(0, len(entries), size=cfg.batch_size)
            batch = []
            for i in idx:
                feats = {kind: entries[int(i)].load(kind) for kind in needed}
                batch.append(_make_item(feats, cfg, rng))
            t0 = time.monotonic()
            loss = train_step(model, batch, optimizer, rng, cfg.clip_grad_norm)
            step += 1
            line = {"step": step, "loss": loss, "lr": cfg.learning_rate,
                    "wall_ms": round((time.monotonic() - t0) * 1000.0, 3)}
            log.write(json.dumps(line) + "\n")
            log.flush()
            if log_fn:
                log_fn(line)
            if cfg.checkpoint_every > 0 and step % cfg.checkpoint_every == 0:
                _save(out_dir / f"checkpoint_{step:06d}.s2vc", step)

    final = out_dir / "checkpoint_final.s2vc"
    _save(final, step)
    return final


# ---------------------------------------------------------------------------
# ablation suite

# row label -> flag overrides relative to the proposed configuration
ABLATION_ROWS = (
    ("a", "baseline", {"use_sap": False, "use_instance_norm": False,
                       "use_bottleneck": False}),
    ("b", "proposed", {}),
    ("c", "no_sap", {"use_sap": False}),
    ("d", "no_bottleneck", {"use_bottleneck": False}),
    ("e", "no_instance_norm", {"use_instance_norm": False}),
    ("f", "no_bottleneck_no_instance_norm", {"use_bottleneck": False,
                                             "use_instance_norm": False}),
    ("g", "no_cross_attention", {"use_cross_attention": False}),
)


def ablation_suite(base_cfg):
    """The 7 run configurations of the ablation grid, rows (a)-(g)."""
    runs = []
    for row, name, overrides in ABLATION_ROWS:
        model_cfg = replace(base_cfg.model, **overrides)
        run_cfg = replace(base_cfg, model=model_cfg,
                          out_dir=str(Path(base_cfg.out_dir) / f"{row}_{name}"))
        runs.append((row, name, run_cfg))
    return runs
