"""Benchmark of the s2vc command line: ingest, train, convert and evaluate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; s2vc need not be installed, because
every process gets the checkout's ``src/`` on its import path.  Each timed
operation is one ``s2vc`` process, timed from start to exit, so every
command pays its own start-up as a user's would.

With ``--trace 0`` the inputs are generated three times (the median is
``setup_s``), then s2vc processes run back to back until their wall time
adds up to S seconds.  With ``--trace 1`` the inputs are generated once,
the processes run for S/2 seconds, and then the same commands run again in
one traced process (bench/trace.py) that times each layer.

Every process's outputs are checked.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (counted in
workload operations: WAV files, optimizer steps, conversions or pairs) and
``metrics``.  The exit code is 0 when every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
from workloads import WORKLOADS, CheckError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROCESS_TIMEOUT_S = 60
# The host's two cores are shared with other tenants; a second BLAS thread
# made a matmul probe 1.75x faster but 8x noisier, so BLAS runs on one.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}

# per-layer metric -> (what it counts, traced function); times and counts
# are per workload operation
PER_LAYER = {
    "dsp.read_wav.ms": ("ms", "dsp.read_wav"),
    "dsp.resample.ms": ("ms", "dsp.resample"),
    "dsp.log_mel.ms": ("ms", "dsp.log_mel"),
    "dsp.griffin_lim.ms": ("ms", "dsp.griffin_lim"),
    "dsp.stft.ms": ("ms", "dsp.stft"),
    "dsp.istft.ms": ("ms", "dsp.istft"),
    "dsp.write_wav.ms": ("ms", "dsp.write_wav"),
    "features.write_feature_file.ms": ("ms", "features.write_feature_file"),
    "features.load_feature_file.ms": ("ms", "features.load_feature_file"),
    "features.load_feature_file.calls": ("calls", "features.load_feature_file"),
    "model.load_checkpoint.ms": ("ms", "model.load_checkpoint"),
    "model.save_checkpoint.ms": ("ms", "model.save_checkpoint"),
    "model.save_checkpoint.bytes": ("bytes", "model.save_checkpoint"),
    "model.write_trace.ms": ("ms", "model.write_trace"),
    "model.forward.ms": ("ms", "model.S2VCModel.forward"),
    "model.forward.calls": ("calls", "model.S2VCModel.forward"),
    "model.source_encode.ms": ("ms", "model.S2VCModel.source_encode"),
    "model.target_encode.ms": ("ms", "model.S2VCModel.target_encode"),
    "model.cross_attention.ms": ("ms", "model.S2VCModel.cross_attention"),
    "model.decode.ms": ("ms", "model.S2VCModel.decode"),
    "nn.conformer_block.ms": ("ms", "nn.conformer_block"),
    "nn.self_attention_pool.ms": ("ms", "nn.self_attention_pool"),
    "tensor.tape_ops_per_step": ("tape", "tensor.GradTape.record"),
    "tensor.GradTape.backward.ms": ("ms", "tensor.GradTape.backward"),
    "tensor.AdamW.step.ms": ("ms", "tensor.AdamW.step"),
    "tensor.clip_global_norm.ms": ("ms", "tensor.clip_global_norm"),
    "training.train_step.ms": ("ms", "training.train_step"),
    "evaluate.train_speaker_embedder.ms": ("ms", "evaluate.train_speaker_embedder"),
    "evaluate.calibrate_threshold.ms": ("ms", "evaluate.calibrate_threshold"),
    "evaluate.SpeakerEmbedder.embed.ms": ("ms", "evaluate.SpeakerEmbedder.embed"),
    "evaluate.SpeakerEmbedder.embed.calls": ("calls", "evaluate.SpeakerEmbedder.embed"),
}
UNITS = {"ms": "ms", "calls": "count", "bytes": "bytes", "tape": "count"}


def run_process(argv, log_path):
    """Run argv to its exit; returns (wall seconds, peak RSS in MB, exit code)."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def s2vc_argv(args):
    return [sys.executable, "-m", "s2vc.cli", *args]


def _log_failure(what, log_path):
    tail = Path(log_path).read_text(encoding="utf-8", errors="replace")[-2000:]
    print(f"FAILED {what}:\n{tail}", file=sys.stderr)


class Run:
    """Counts operations and check results across one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def settle(self, out, i, exit_code, log_path):
        """Count one process's operations and check its outputs."""
        units = self.workload.units_per_process
        self.attempted += units
        if exit_code != 0:
            self.failed += units
            _log_failure(f"process {i} (exit {exit_code})", log_path)
            return
        try:
            self.workload.check(out, i)
        except (CheckError, OSError, KeyError, ValueError) as e:
            self.problems.append(f"process {i}: {e}")


def timed_processes(run, work, budget_s):
    """Run s2vc processes until their wall times add up to ``budget_s``."""
    records = []  # (wall, rss, out dir)
    total = 0.0
    while not records or total < budget_s:
        i = len(records)
        out = work / f"op{i}"
        out.mkdir()
        log = work / f"op{i}.log"
        wall, rss, code = run_process(s2vc_argv(run.workload.command(out, i)), log)
        run.settle(out, i, code, log)
        records.append((wall, rss, out))
        total += wall
    return records


def traced_processes(work, commands):
    """Run ``commands`` in one traced process; returns its trace."""
    spec = work / "trace_spec.json"
    result = work / "trace.json"
    argv = [sys.executable, str(BENCH / "trace.py"), str(spec), str(result)]
    spec.write_text(json.dumps({"spawned_at": time.time(), "commands": commands}),
                    encoding="utf-8")
    _, _, code = run_process(argv, work / "trace.log")
    if code != 0:
        _log_failure(f"traced process (exit {code})", work / "trace.log")
        raise SystemExit(1)
    return json.loads(result.read_text(encoding="utf-8"))


def per_layer_metrics(trace, ops, untraced_s):
    stats = trace["stats"]

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    metrics = {}
    for metric, (kind, name) in PER_LAYER.items():
        if kind == "ms":
            value = 1000.0 * stat(name, "total_s") / ops
        elif kind == "calls":
            value = stat(name, "calls") / ops
        elif kind == "bytes":
            value = trace["checkpoint_bytes"] / ops
        else:  # tape ops recorded per optimizer step, embedder steps included
            steps = stat("tensor.AdamW.step", "calls")
            value = stat(name, "calls") / steps if steps else 0.0
        metrics[metric] = (value, UNITS[kind])
    commands = trace["commands"]
    wall = sum(c["wall_s"] for c in commands)
    covered = sum(c["covered_s"] for c in commands)
    startup = trace["startup_s"] * len(commands)
    traced = wall + startup
    metrics["cli.startup.ms"] = (1000.0 * startup / ops, "ms")
    metrics["cli.self.ms"] = (1000.0 * (wall - covered) / ops, "ms")
    metrics["trace.traced_ms_per_op"] = (1000.0 * traced / ops, "ms")
    metrics["trace.untraced_ms_per_op"] = (1000.0 * untraced_s / ops, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced / untraced_s - 1.0), "%")
    metrics["trace.coverage_pct"] = (100.0 * covered / wall, "%")
    return metrics


def print_trace_table(trace, ops):
    """Where the traced run put the time, by self time, on standard error."""
    print(f"{'traced function':40s} {'calls/op':>9s} {'total ms/op':>12s} "
          f"{'self ms/op':>11s}", file=sys.stderr)
    rows = sorted(trace["stats"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, st in rows:
        if st["calls"]:
            print(f"{name:40s} {st['calls'] / ops:9.2f} "
                  f"{1000.0 * st['total_s'] / ops:12.3f} "
                  f"{1000.0 * st['self_s'] / ops:11.3f}", file=sys.stderr)


def benchmark(workload_name, seed, seconds, trace, work):
    setup_s = []
    for k in range(1 if trace else 3):
        t0 = time.perf_counter()
        inputs = gen.generate(workload_name, seed, work / f"inputs{k}")
        setup_s.append(time.perf_counter() - t0)
        if k:
            shutil.rmtree(inputs)
    workload = WORKLOADS[workload_name](work / "inputs0", seed)
    run = Run(workload)

    records = timed_processes(run, work, seconds / 2 if trace else seconds)
    if trace:
        commands = []
        for i in range(len(records)):
            (work / f"traced{i}").mkdir()
            commands.append(workload.command(work / f"traced{i}", i))
        result = traced_processes(work, commands)
        for i, c in enumerate(result["commands"]):
            run.settle(work / f"traced{i}", i, c["exit"], work / "trace.log")
        ops = workload.units_per_process * len(records)
        metrics = per_layer_metrics(result, ops, sum(r[0] for r in records))
        print_trace_table(result, ops)
        coverage = metrics["trace.coverage_pct"][0]
        if coverage < 90.0:
            print(f"warning: traced functions cover {coverage:.1f}% of command time",
                  file=sys.stderr)
    else:
        rates = [workload.units_per_process / r[0] for r in records]
        metrics = {
            "ops_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (max(r[1] for r in records), "MB"),
        }
    if run.failed < run.attempted:
        try:
            workload.check_run([r[2] for r in records])
        except Exception as e:  # a failed run check is reported, not raised
            run.problems.append(f"run check: {type(e).__name__}: {e}")
    for p in run.problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "s2vc" / "cli.py").is_file():
        print(f"error: no s2vc sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
