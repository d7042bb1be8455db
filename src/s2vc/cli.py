"""Command-line entry point.

Subcommands: feats, train, convert, eval, probe, ablate.  Configuration is
layered: built-in defaults < config file < command-line flags.  The resolved
snapshot is embedded in every checkpoint and report the run produces.

Seeds come from ``--seed``, else ``S2VC_SEED``, else (for train and ablate)
the config file's ``train.seed``, else 0.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
``_Commands.invoke`` is the one place that turns a failure into an exit: a
``click.UsageError`` (``ConfigError`` among them) exits 2, and an
``s2vc.Error`` or ``OSError`` exits 1, each as one ``error:`` line on stderr.

The model, training and evaluation modules are imported by the commands that
use them, so ``feats`` never loads the tensor library.
"""

from __future__ import annotations

import json
import os
import sys
import typing
from dataclasses import asdict, replace
from pathlib import Path

import click

from . import Error, dsp, features
from .features import Manifest, ManifestEntry

EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ConfigError(click.UsageError):
    """A config file or value the command cannot use; exits 2."""


def _parse_value(text):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip("\"'")


def load_config_file(path):
    """Parse a flat TOML-like ``section.key = value`` file; a missing file,
    a line that is not UTF-8 or a malformed line raises ConfigError."""
    values = {}
    section = ""
    try:
        lines = features.read_lines(path, ConfigError)
    except FileNotFoundError as e:
        raise ConfigError(str(e)) from e
    for line_no, line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, val = line.split("=", 1)
        full = f"{section}.{key.strip()}" if section else key.strip()
        values[full] = _parse_value(val)
    return values


def _type_matches(value, expected):
    """Whether a parsed config value fits a field annotated ``expected``;
    a bool fits only bool fields, and an int also fits float fields."""
    if isinstance(value, bool) or expected is bool:
        return type(value) is expected
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def resolve_train_config(config_file=None, overrides=None):
    """defaults < config file < flag overrides.

    An unknown key, a value of the wrong type or a value the configs reject
    raises ConfigError.
    """
    from .model import ModelConfig
    from .training import TrainConfig

    values = {}
    if config_file:
        values.update(load_config_file(config_file))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})

    sections = {"model": ModelConfig, "train": TrainConfig}
    fields = {name: typing.get_type_hints(cls) for name, cls in sections.items()}
    chosen = {name: {} for name in sections}
    for full, value in values.items():
        name, _, key = full.partition(".")
        expected = fields.get(name, {}).get(key)
        if expected is None:
            raise ConfigError(f"unknown config key: {full}")
        if not _type_matches(value, expected):
            raise ConfigError(f"invalid config value: {full} = {value} "
                              f"(expected {expected.__name__})")
        chosen[name][key] = value

    try:
        model_cfg = replace(ModelConfig(), **chosen["model"])
        cfg = replace(TrainConfig(model=model_cfg), **chosen["train"])
    except Error as e:
        raise ConfigError(f"invalid config value: {e}") from e
    return cfg


def _global_seed(seed, default=0):
    """``--seed``, else ``S2VC_SEED``, else ``default``."""
    if seed is not None:
        return seed
    env = os.environ.get("S2VC_SEED")
    if not env:
        return default
    if not env.isdecimal():
        raise click.UsageError(
            f"invalid S2VC_SEED {env!r}: expected a non-negative integer")
    return int(env)


def _fail(message, code):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Commands(click.Group):
    """The command group, whose ``invoke`` maps failures to exit codes as
    the module docstring says.  Any other exception is a bug and keeps its
    traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise   # a closed stdout, which Click's main silences
        except click.UsageError as e:
            _fail(e.format_message(), EXIT_USAGE)
        except (Error, OSError) as e:
            _fail(str(e), EXIT_RUNTIME)


@click.group(cls=_Commands)
def main():
    """Any-to-any voice conversion: features, training, conversion, evaluation."""


# glibc's mallopt parameter numbers, and the values ``_steady_heap`` sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 2 << 20, 1 << 20


def _steady_heap():
    """Serve allocations under 1 MB from the heap and keep up to 2 MB of
    freed memory at its top, in this process and the children it forks.

    Under glibc's 128 KB defaults, each of eval's pair conversions and each
    step of its forked embedder training returned memory to the kernel and
    faulted it back in: 35k minor faults in the child and 7k in the parent
    on the eval benchmark's inputs, against 1.5k and 3.4k with these values.
    Other C libraries are left as they are.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


def _require_inputs(*named_paths):
    """A usage error for the first ``(role, path)`` whose path is missing."""
    for role, path in named_paths:
        if not Path(path).exists():
            raise click.UsageError(f"{role} not found: {path}")


@main.command("feats")
@click.argument("wav_dir", type=click.Path())
@click.argument("out_dir", type=click.Path())
@click.option("--manifest", default=None, help="Manifest path to write/update.")
def cmd_feats(wav_dir, out_dir, manifest):
    """Extract log-mel features from WAV files; one feature file per utterance.

    Speaker ids come from the first '_'-separated token of each filename.
    Other kinds (cpc, apc, w2v, ppg) are exported externally as .s2vf files.
    """
    wav_dir = Path(wav_dir)
    if not wav_dir.is_dir():
        raise click.UsageError(f"wav directory not found: {wav_dir}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = Path(manifest) if manifest else out / "manifest.jsonl"

    entries = []
    failures = []
    for wav in sorted(wav_dir.glob("*.wav")):
        utt = wav.stem
        speaker = utt.split("_", 1)[0]
        try:
            seq = features.extract_mel(dsp.read_wav(wav), utterance_id=utt,
                                       speaker_id=speaker)
            feat_path = out / f"{utt}.mel.s2vf"
            features.write_feature_file(feat_path, seq)
            entries.append(ManifestEntry(utterance_id=utt, speaker_id=speaker,
                                         wav=str(wav),
                                         features={"mel": str(feat_path)}))
        except Exception as e:  # collect, keep going
            failures.append(f"{wav.name}: {e}")
    Manifest(entries).save(manifest_path)
    click.echo(f"wrote {len(entries)} feature files, manifest {manifest_path}")
    if failures:
        for f in failures:
            click.echo(f"failed: {f}", err=True)
        sys.exit(EXIT_RUNTIME)


@main.command("train")
@click.option("--config", "config_file", type=click.Path(), default=None)
@click.option("--manifest", default=None)
@click.option("--out-dir", default=None)
@click.option("--max-steps", type=click.IntRange(min=0), default=None)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--ablation", default=None,
              help="Named ablation, e.g. no-bottleneck or no_cross_attention.")
@click.option("--resume", type=click.Path(), default=None)
@click.option("--show-config", is_flag=True)
def cmd_train(config_file, manifest, out_dir, max_steps, seed, ablation, resume,
              show_config):
    """Train a model by self-reconstruction."""
    from . import training

    overrides = {
        "train.manifest": manifest,
        "train.out_dir": out_dir,
        "train.max_steps": max_steps,
        "train.seed": _global_seed(seed, default=None),
    }
    cfg = resolve_train_config(config_file, overrides)
    if ablation:
        ablation_names = {name: overrides
                          for _, name, overrides in training.ABLATION_ROWS}
        flags = ablation_names.get(ablation.replace("-", "_"))
        if flags is None:
            raise ConfigError(f"unknown ablation {ablation!r}; options: "
                              + ", ".join(sorted(ablation_names)))
        cfg = replace(cfg, model=replace(cfg.model, **flags))
    if show_config:
        click.echo(json.dumps(asdict(cfg), indent=2, sort_keys=True))
        return
    if not cfg.manifest or not Path(cfg.manifest).exists():
        raise click.UsageError(f"manifest not found: {cfg.manifest!r}")
    path = training.run_training(cfg, resume_from=resume,
                                 log_fn=lambda l: click.echo(
                                     f"step {l['step']} loss {l['loss']:.4f}"))
    click.echo(f"final checkpoint: {path}")


@main.command("convert")
@click.argument("checkpoint", type=click.Path())
@click.argument("source", type=click.Path())
@click.argument("targets", nargs=-1, type=click.Path())
@click.option("--out", "out_wav", required=True, type=click.Path())
@click.option("--dump-trace", type=click.Path(), default=None)
@click.option("--gl-iters", type=click.IntRange(min=1), default=60,
              show_default=True)
def cmd_convert(checkpoint, source, targets, out_wav, dump_trace, gl_iters):
    """Convert SOURCE (a feature file) toward the speaker of TARGETS.

    Five target feature files are the standard protocol; fewer are accepted
    with a warning.  The conversion uses one thread per spare CPU, and its
    output does not depend on how many there are.
    """
    from . import cpus, evaluate, model as model_mod

    if not targets:
        raise click.UsageError("at least one target feature file required")
    _require_inputs(("checkpoint", checkpoint), ("source", source),
                    *(("target", t) for t in targets))
    if len(targets) < evaluate.TARGETS_PER_PAIR:
        click.echo(f"warning: only {len(targets)} target utterances "
                   f"({evaluate.TARGETS_PER_PAIR} is the standard protocol)", err=True)
    for out_path in filter(None, (out_wav, dump_trace)):
        if not Path(out_path).parent.is_dir():
            raise click.UsageError(
                f"output directory not found: {Path(out_path).parent}")
    with cpus.Shares(cpus.spare_cpus()):
        mdl, mel_cfg, _, _ = model_mod.load_checkpoint(checkpoint)
        src = features.load_feature_file(source)
        tgts = [features.load_feature_file(t) for t in targets]
        audio, trace, _ = evaluate.convert(mdl, src, tgts, mel_cfg,
                                           n_gl_iter=gl_iters)
        dsp.write_wav(out_wav, audio)
        if dump_trace:
            model_mod.write_trace(dump_trace, trace)
    click.echo(f"wrote {out_wav}")


@main.command("eval")
@click.argument("checkpoint", type=click.Path())
@click.argument("manifest_path", type=click.Path())
@click.option("--scenario", type=click.Choice(["s2s", "u2u"]), default="s2s",
              show_default=True)
@click.option("--n-pairs", type=click.IntRange(min=1), default=400,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--out-dir", default="eval_out", show_default=True)
def cmd_eval(checkpoint, manifest_path, scenario, n_pairs, seed, out_dir):
    """Objective evaluation: SV accuracy plus a reconstruction-error proxy."""
    from . import evaluate, model as model_mod

    seed = _global_seed(seed)
    _require_inputs(("checkpoint", checkpoint), ("manifest", manifest_path))
    _steady_heap()
    mdl, _, extra, _ = model_mod.load_checkpoint(checkpoint)
    manifest = Manifest.load(manifest_path)
    result = evaluate.run_eval(mdl, manifest, scenario, n_pairs, seed, out_dir,
                               train_speakers=extra.get("train_speakers"))
    click.echo(json.dumps(result, indent=2, sort_keys=True))


@main.command("probe")
@click.argument("checkpoint", type=click.Path())
@click.argument("manifest_path", type=click.Path())
@click.option("--site", type=click.Choice(["Q", "K", "V"]), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--out", "out_json", default=None)
def cmd_probe(checkpoint, manifest_path, site, seed, out_json):
    """Linear speaker-information probe on an attention site."""
    from . import evaluate, model as model_mod

    seed = _global_seed(seed)
    _require_inputs(("checkpoint", checkpoint), ("manifest", manifest_path))
    mdl, _, _, _ = model_mod.load_checkpoint(checkpoint)
    manifest = Manifest.load(manifest_path)
    res = evaluate.probe_speaker_info(mdl, manifest, site, seed=seed)
    text = json.dumps(asdict(res), indent=2, sort_keys=True)
    if out_json:
        dsp.write_atomic(out_json, (text + "\n").encode("utf-8"))
    click.echo(text)


@main.command("ablate")
@click.option("--config", "config_file", type=click.Path(), default=None)
@click.option("--manifest", required=True)
@click.option("--out-dir", default="ablation", show_default=True)
@click.option("--max-steps", type=click.IntRange(min=0), default=None)
@click.option("--n-pairs", type=click.IntRange(min=1), default=20,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=None)
def cmd_ablate(config_file, manifest, out_dir, max_steps, n_pairs, seed):
    """Train and evaluate all 7 ablation configurations on shared seeds/pairs.

    On rerun, a row is skipped when its final checkpoint was trained with
    this run's configuration and its report.json has this run's pair count
    and seed; any other row is trained and evaluated again, over its files.
    The manifest is compared by path only, not by its contents.
    """
    from . import evaluate, model as model_mod, training

    overrides = {"train.manifest": manifest, "train.out_dir": out_dir,
                 "train.max_steps": max_steps,
                 "train.seed": _global_seed(seed, default=None)}
    base = resolve_train_config(config_file, overrides)
    if not Path(manifest).exists():
        raise click.UsageError(f"manifest not found: {manifest}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    man = Manifest.load(manifest)
    embedder = evaluate.train_speaker_embedder(
        list(evaluate.load_mels(man).values()), seed=base.seed)
    rows = []
    for row, name, run_cfg in training.ablation_suite(base):
        run_dir = Path(run_cfg.out_dir)
        report_path = run_dir / "report.json"
        ckpt = run_dir / "checkpoint_final.s2vc"
        if report_path.exists() and ckpt.exists():
            with open(report_path, encoding="utf-8") as fh:
                prior = json.load(fh)["results"][0]
            _, _, extra, _ = model_mod.load_checkpoint(ckpt)
            if ((prior["n_pairs"], prior["seed"]) == (n_pairs, base.seed)
                    and extra.get("train_config") == asdict(run_cfg)):
                rows.append({"row": f"({row})", "name": name, **prior})
                click.echo(f"({row}) {name}: already done, skipping")
                continue
        # a retrain that fails must not leave the old report to be reused
        report_path.unlink(missing_ok=True)
        click.echo(f"({row}) {name}: training {run_cfg.max_steps} steps")
        ckpt = training.run_training(run_cfg)
        mdl, _, _, _ = model_mod.load_checkpoint(ckpt)
        result = evaluate.run_eval(mdl, man, "s2s", n_pairs, base.seed, run_dir,
                                   embedder=embedder)
        rows.append({"row": f"({row})", "name": name, **result})
    evaluate.render_report(rows, out / "ablation_report.json",
                           out / "ablation_report.txt")
    click.echo(f"ablation grid written to {out / 'ablation_report.txt'}")


if __name__ == "__main__":
    main()
