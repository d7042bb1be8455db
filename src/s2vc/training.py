"""Self-reconstruction training loop and the ablation configuration suite.

One utterance doubles as source input, target input, and reconstruction
target.  Variable-length utterances are handled by gradient accumulation
(one utterance per microstep) instead of padding and masking.

A microstep is a pure function of the parameters and its utterance, so a
step shares its microsteps out between the trainer and helper processes
(``cpus.Helper``), one per spare CPU, and folds every result in batch
order: the parameters, buffers and optimizer state after a step are
bit-identical whichever process computed each microstep.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path

import numpy as np

from . import Error, cpus, nn
from . import tensor as T
from .features import FeatureSequence, Manifest
from .model import ModelConfig, S2VCModel, load_checkpoint, save_checkpoint
from .tensor import AdamW, GradTape, Tensor, clip_global_norm

__all__ = [
    "TrainConfig",
    "TrainingError",
    "MicrostepWorkers",
    "reconstruction_loss",
    "microstep",
    "fold_microstep",
    "train_step",
    "run_training",
    "ablation_suite",
    "ABLATION_ROWS",
]

MAX_CROP_FRAMES = 512


class TrainingError(Error):
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

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.seed < 0:
            raise TrainingError("seed must be non-negative")


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


def train_step(model, batch, optimizer, rng, clip_grad_norm=1.0, workers=None):
    """One optimization step over a list of BatchItems.

    Returns the averaged loss value.  Each utterance is one ``microstep``.
    ``workers`` (a MicrostepWorkers) splits the batch into contiguous
    shares, the first computed here and the later ones by its helpers, and
    every result is folded in batch order.  The summed gradients are
    clipped by global norm, then applied with AdamW.  ``rng`` is unused
    since the model has no dropout; it stays for callers.
    """
    if not batch:
        raise TrainingError("empty batch")
    if workers is None:
        workers = MicrostepWorkers(model.config, 0)
    optimizer.zero_grad()
    scale = 1.0 / len(batch)
    total = 0.0
    try:
        own = workers.dispatch(model, batch, scale)
        for item in batch[:own]:
            total += fold_microstep(model, microstep(model, item, scale)) * len(batch)
    except BaseException:
        workers.discard()
        raise
    for result in workers.results():
        total += fold_microstep(model, result) * len(batch)
    clip_global_norm(model.params, clip_grad_norm)
    optimizer.step()
    return total / len(batch)


# ---------------------------------------------------------------------------
# microstep helpers

def _microsteps(config, state, items, scale):
    """``microstep`` of each of ``items`` on a model built around the
    parameter and buffer arrays ``state``; a helper's task."""
    model = S2VCModel.from_state_arrays(config, state)
    return [microstep(model, item, scale) for item in items]


def _as_training_error(fn, *args):
    try:
        return fn(*args)
    except cpus.HelperExited as e:
        raise TrainingError(f"microstep {e}") from None


class MicrostepWorkers:
    """Helper processes that compute microsteps for the trainer.

    Each helper is forked once, here, and is sent the current parameter and
    buffer arrays and a contiguous share of each batch; it builds a
    shape-only model around the arrays.  A helper that dies raises
    TrainingError with its exit status.  Use as a context manager, or call
    ``close``.

    While there are helpers, the calling thread and each helper are pinned
    to one CPU each of the caller's affinity mask, which ``close`` restores:
    left to the scheduler, a helper woken by the trainer's pipe write ran on
    the trainer's CPU for the first second or so, at half speed for both.
    """

    def __init__(self, config, n_workers):
        self._mask = os.sched_getaffinity(0)
        mask = sorted(self._mask)
        task = functools.partial(_microsteps, config)
        self._helpers = []
        self._sent = []   # the helpers with a share to answer, in batch order
        try:
            for i in range(n_workers):
                self._helpers.append(cpus.Helper(task, mask[(1 + i) % len(mask)]))
        except BaseException:
            self.close()
            raise
        if self._helpers:
            os.sched_setaffinity(0, {mask[0]})

    def dispatch(self, model, items, scale):
        """Send the later shares of ``items`` to the helpers; returns the
        length of the first share, which the trainer computes."""
        n_parts = min(1 + len(self._helpers), len(items))
        bounds = [len(items) * i // n_parts for i in range(n_parts + 1)]
        if n_parts > 1:
            state = model.state_arrays()
            for h, lo, hi in zip(self._helpers, bounds[1:-1], bounds[2:]):
                _as_training_error(h.send, state, items[lo:hi], scale)
                self._sent.append(h)
        return bounds[1]

    def results(self):
        """Yield the results of the shares ``dispatch`` sent, in batch order.

        A share's exception is raised once every share's reply is read.
        """
        sent, self._sent = self._sent, []
        error = None
        for h in sent:
            try:
                share = _as_training_error(h.recv)
            except Exception as e:
                error = error or e
                continue
            if error is None:
                yield from share
        if error is not None:
            raise error

    def discard(self):
        """Read and drop the replies to the shares ``dispatch`` sent."""
        sent, self._sent = self._sent, []
        for h in sent:
            with contextlib.suppress(Exception):
                h.recv()

    def close(self):
        """Kill and reap every helper."""
        if self._helpers:
            os.sched_setaffinity(0, self._mask)
        for h in self._helpers:
            h.close()
        self._helpers = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


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
            MicrostepWorkers(model.config, n_workers) as workers:
        log.truncate(keep_bytes)
        while step < cfg.max_steps:
            idx = rng.integers(0, len(entries), size=cfg.batch_size)
            batch = []
            for i in idx:
                feats = {kind: entries[int(i)].load(kind) for kind in needed}
                batch.append(_make_item(feats, cfg, rng))
            t0 = time.monotonic()
            loss = train_step(model, batch, optimizer, rng, cfg.clip_grad_norm,
                              workers=workers)
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
