"""Self-reconstruction training loop and the ablation configuration suite.

One utterance doubles as source input, target input, and reconstruction
target.  Variable-length utterances are handled by gradient accumulation
(one utterance per microstep) instead of padding and masking.

A microstep is a pure function of the parameters and its utterance, so a
step shares its microsteps out between the trainer and helper processes
(``cpus.Helpers``), one per spare CPU, and folds every result in batch
order: the parameters, buffers and optimizer state after a step are
bit-identical whichever process computed each microstep.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path

import numpy as np

from . import Error, check_field_types, cpus, nn
from . import tensor as T
from .features import FeatureSequence, Manifest
from .model import ModelConfig, S2VCModel, load_checkpoint, save_checkpoint
from .tensor import AdamW, GradTape, Tensor, clip_global_norm

__all__ = [
    "TrainConfig",
    "TrainingError",
    "reconstruction_loss",
    "microstep",
    "fold_microstep",
    "train_step",
    "run_training",
    "ablation_suite",
    "ABLATION_ROWS",
]

MAX_CROP_FRAMES = 512
CLIP_GRAD_NORM = 1.0


class TrainingError(Error):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    batch_size: int = 8
    max_steps: int = 1000
    seed: int = 0
    checkpoint_every: int = 500
    manifest: str = ""
    out_dir: str = "runs/default"
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        check_field_types(self, TrainingError)
        for f in ("learning_rate", "batch_size"):
            if getattr(self, f) <= 0:
                raise TrainingError(f"{f} must be positive")
        for f in ("max_steps", "seed", "checkpoint_every"):
            if getattr(self, f) < 0:
                raise TrainingError(f"{f} must be non-negative")


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


def microstep(model, item, scale):
    """One utterance's forward and backward pass; changes nothing in ``model``.

    Returns ``(loss, grads, bn_stats)``: the utterance's reconstruction loss
    times ``scale``, the gradient of that loss for each parameter on the
    tape by name, and the ``(name, mu, var)`` of every batch norm in forward
    order.
    """
    bn_stats = []
    try:
        with GradTape() as tape:
            pred, _ = model.forward(item.source, [item.target], train=True,
                                    bn_stats=bn_stats)
            t = min(pred.shape[0], item.logmel.shape[0])
            pred_t = T.rows(pred, 0, t) if t < pred.shape[0] else pred
            target = Tensor(item.logmel[:t])
            loss = reconstruction_loss(pred_t, target) * scale
            leaf_grads = tape.backward(loss, accumulate=False)
    except T.NumericError as e:
        raise TrainingError(
            f"non-finite loss on utterance {item.utterance_id!r}: {e}") from e
    names = {id(p): k for k, p in model.params.items()}
    return loss.item(), {names[id(t)]: g for t, g in leaf_grads}, bn_stats


def fold_microstep(model, result):
    """Sum a ``microstep`` result into ``model``; returns its loss.

    Gradients go into each parameter's ``.grad`` and batch statistics into
    the running averages, as the inline forward and backward would, so
    folding a batch's results in batch order gives the same bits whichever
    process computed each one.
    """
    loss, grads, bn_stats = result
    for name, g in grads.items():
        T.accumulate_grad(model.params[name], g)
    for name, mu, var in bn_stats:
        nn.update_running_stats(model.buffers, name, mu, var)
    return loss


def train_step(model, batch, optimizer, rng, workers=None):
    """One optimization step over a list of BatchItems.

    Returns the averaged loss value.  Each utterance is one ``microstep``.
    ``workers`` (the ``cpus.Helpers`` that ``run_training`` opens) splits
    the batch into contiguous shares, the first computed and folded here
    and each later one by a helper, folded afterwards in batch order.  The
    summed gradients are clipped to global norm ``CLIP_GRAD_NORM``, then
    applied with AdamW.  ``rng`` is unused since the model has no dropout;
    it stays for callers.
    """
    if not batch:
        raise TrainingError("empty batch")
    if workers is None:
        workers = cpus.Helpers(functools.partial(_microsteps, model.config), 0)
    optimizer.zero_grad()
    scale = 1.0 / len(batch)
    n_parts = min(workers.count, len(batch))
    bounds = [len(batch) * i // n_parts for i in range(n_parts + 1)]
    state = model.state_arrays() if n_parts > 1 else None
    total = 0.0

    def own():
        nonlocal total
        for item in batch[:bounds[1]]:
            total += fold_microstep(model, microstep(model, item, scale)) * len(batch)

    try:
        _, shares = workers.run(own, [(state, batch[lo:hi], scale)
                                      for lo, hi in zip(bounds[1:], bounds[2:])])
    except cpus.HelperExited as e:
        raise TrainingError(f"microstep {e}") from None
    for share in shares:
        for result in share:
            total += fold_microstep(model, result) * len(batch)
    clip_global_norm(model.params, CLIP_GRAD_NORM)
    optimizer.step()
    return total / len(batch)


def _microsteps(config, state, items, scale):
    """``microstep`` of each of ``items`` on a model built around the
    parameter and buffer arrays ``state``; a helper's task."""
    model = S2VCModel.from_state_arrays(config, state)
    return [microstep(model, item, scale) for item in items]


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


def _resume(path, learning_rate):
    """The model, AdamW optimizer, step and RNG the training checkpoint at
    ``path`` saved; training state of the wrong type, or a missing moment,
    raises TrainingError."""
    model, _, extra, moments = load_checkpoint(path, extra_arrays=True)
    if extra.get("train_config") is None:
        raise TrainingError(f"{path} carries no training state")
    for key, kind in (("step", int), ("optimizer_t", int), ("rng_state", str)):
        if type(extra.get(key)) is not kind:   # a bool is no step
            raise TrainingError(f"{path}: {key} = {extra.get(key)!r} "
                                f"(expected {kind.__name__})")
    optimizer = AdamW(model.params, lr=learning_rate)
    optimizer.t = extra["optimizer_t"]
    for k in optimizer.m:
        for name, state in (("m", optimizer.m), ("v", optimizer.v)):
            saved = moments.get(f"opt.{name}.{k}")
            if saved is None or saved.shape != state[k].shape:
                raise TrainingError(f"{path}: no optimizer moment opt.{name}.{k} "
                                    f"of shape {state[k].shape}")
            state[k][...] = saved
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = json.loads(extra["rng_state"])
    except (ValueError, TypeError, KeyError) as e:
        raise TrainingError(f"{path}: rng_state is no generator state: {e}") from e
    return model, optimizer, extra["step"], rng


def run_training(cfg, resume_from=None, log_fn=None):
    """Train per ``cfg``; returns the final checkpoint path.

    Missing feature files are enumerated before step 1.  A checkpoint written
    every ``checkpoint_every`` steps carries optimizer and RNG state so a
    resumed run reproduces the uninterrupted loss trajectory, and the
    default ``MelConfig()``, which ``s2vc feats`` extracts with.  Each step's
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
        model, optimizer, step, rng = _resume(resume_from, cfg.learning_rate)
    else:
        model = S2VCModel(cfg.model, seed=cfg.seed)
        optimizer = AdamW(model.params, lr=cfg.learning_rate)
        step = 0
        rng = np.random.default_rng(cfg.seed)

    train_speakers = sorted(manifest.speakers())

    def _save(path, at_step):
        save_checkpoint(
            model, path, extra_meta={
                "train_config": asdict(cfg),
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
    n_workers = min(cpus.spare_cpus(), cfg.batch_size - 1) if step < cfg.max_steps else 0
    with open(log_path, "a", encoding="utf-8") as log, \
            cpus.Helpers(functools.partial(_microsteps, model.config), n_workers) as workers:
        log.truncate(keep_bytes)
        while step < cfg.max_steps:
            idx = rng.integers(0, len(entries), size=cfg.batch_size)
            batch = []
            for i in idx:
                feats = {kind: entries[int(i)].load(kind) for kind in needed}
                batch.append(_make_item(feats, cfg, rng))
            t0 = time.monotonic()
            loss = train_step(model, batch, optimizer, rng, workers=workers)
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
