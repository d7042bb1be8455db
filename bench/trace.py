"""Traced run: the workload's s2vc commands, in this one process, with the
public functions of every layer wrapped in timers.

Each wrapped function is replaced at every module attribute through which
the program reaches it (``model.save_checkpoint`` is also
``training.save_checkpoint``), and methods are replaced on their class.  A
wrapper records calls, total time and self time (total minus the time of
wrapped functions it called); everything stays in memory until the end.

Usage:  python3 bench/trace.py SPEC.json OUT.json

SPEC holds ``spawned_at`` (the parent's ``time.time()`` just before it
started this process) and ``commands``, a list of s2vc argument lists.
"""

import functools
import json
import os
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from s2vc import cli  # noqa: E402  (startup is measured up to this import)

IMPORTED_AT = time.time()

from s2vc import dsp, evaluate, features, model, nn, tensor, training  # noqa: E402

MODULES = {"dsp": dsp, "features": features, "model": model, "nn": nn,
           "tensor": tensor, "training": training, "evaluate": evaluate, "cli": cli}

# the layer boundaries; each is reported as <name>.ms per workload operation
TIMED = (
    "dsp.read_wav", "dsp.write_wav", "dsp.resample", "dsp.stft", "dsp.istft",
    "dsp.log_mel", "dsp.griffin_lim",
    "features.extract_mel", "features.write_feature_file",
    "features.load_feature_file", "features.Manifest.load", "features.Manifest.save",
    "model.load_checkpoint", "model.save_checkpoint", "model.write_trace",
    "model.S2VCModel.forward", "model.S2VCModel.source_encode",
    "model.S2VCModel.target_encode", "model.S2VCModel.cross_attention",
    "model.S2VCModel.decode",
    "nn.conformer_block", "nn.self_attention_pool",
    "tensor.GradTape.backward", "tensor.AdamW.step", "tensor.clip_global_norm",
    "training.train_step",
    "evaluate.sample_pairs", "evaluate.train_speaker_embedder",
    "evaluate.calibrate_threshold", "evaluate.SpeakerEmbedder.embed",
    "evaluate.cosine_similarity", "evaluate.render_report",
)
# counted only: called once per tape op, too often to time without skew
COUNTED = ("tensor.GradTape.record",)


class Tracer:
    def __init__(self):
        self.stats = {}         # name -> [calls, total_s, self_s]
        self.children = []      # per open span: time spent in wrapped callees
        self.top_level_s = 0.0  # time inside outermost spans
        self.checkpoint_bytes = 0

    def timed(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self.children
        is_save = name == "model.save_checkpoint"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = children.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
                if children:
                    children[-1] += dt
                else:
                    self.top_level_s += dt
                if is_save:
                    path = args[1] if len(args) > 1 else kwargs["path"]
                    self.checkpoint_bytes += os.path.getsize(path)
        return wrapper

    def counted(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for name in TIMED + COUNTED:
            make = self.timed if name in TIMED else self.counted
            module_name, *path = name.split(".")
            owner = MODULES[module_name]
            for part in path[:-1]:
                owner = getattr(owner, part)
            if len(path) > 1:  # a method: replace it on its class
                raw = vars(owner)[path[-1]]
                if isinstance(raw, classmethod):
                    setattr(owner, path[-1], classmethod(make(name, raw.__func__)))
                else:
                    setattr(owner, path[-1], make(name, raw))
                continue
            original = getattr(owner, path[-1])
            wrapper = make(name, original)
            for mod in MODULES.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def main():
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    startup_s = IMPORTED_AT - spec["spawned_at"]
    tracer = Tracer()
    tracer.install()
    commands = []
    for args in spec["commands"]:
        top0 = tracer.top_level_s
        t0 = time.perf_counter()
        try:
            cli.main(args, prog_name="s2vc", standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # one failed command must not lose the others' trace
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - t0
        commands.append({"wall_s": wall, "covered_s": tracer.top_level_s - top0,
                         "exit": code})
    out = {"startup_s": startup_s, "commands": commands,
           "checkpoint_bytes": tracer.checkpoint_bytes,
           "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                     for k, v in tracer.stats.items()}}
    Path(sys.argv[2]).write_text(json.dumps(out, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
