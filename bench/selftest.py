"""Quick self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload once untraced and once traced at the smallest run
length (one s2vc process each), with all output checks, and checks the
result lines against BENCHMARK.json.  Then shows that the output checks
reject broken outputs, that the reference EER agrees with the program's on
random scores, and that the benchmark fails without printing a result in a
directory that holds nothing but the benchmark.  Takes about two minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
from workloads import WORKLOADS, CheckError, Convert, Train  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = ROOT / ".bench_work" / "selftest"


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result_lines():
    for workload in SPEC["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(workload["name"], trace)
            assert proc.returncode == 0, proc.stderr[-3000:]
            result = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, set(got) ^ set(want)
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), name
                if section == "end_to_end":
                    assert metric["value"] > 0, name
            print(f"ok   {workload['name']} --trace {trace}")


def expect_rejected(check, what):
    try:
        check()
    except CheckError as e:
        print(f"ok   rejects {what}: {e}")
        return
    raise AssertionError(f"check accepted {what}")


def check_checks_reject_broken_outputs():
    """Run one process of train and convert, then break their outputs."""
    import run

    for cls in (Train, Convert):
        inputs = gen.generate(cls.name, 3, WORK / cls.name / "inputs")
        workload = cls(inputs, 3)
        out = WORK / cls.name / "out"
        out.mkdir()
        _, _, code = run.run_process(run.s2vc_argv(workload.command(out, 0)),
                                     WORK / cls.name / "log")
        assert code == 0, (WORK / cls.name / "log").read_text()
        workload.check(out, 0)
        if cls is Train:
            path = out / "checkpoint_final.s2vc"
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 1
            path.write_bytes(bytes(raw))
            expect_rejected(lambda: workload.check(out, 0), "a flipped checkpoint bit")
        else:
            path = out / "trace.s2vt"
            meta, arrays = oracle.read_blob(path, b"S2VT")
            q = arrays["q"].copy()
            q[:, 0] += 0.5  # attention no longer matches q
            from s2vc.model import AttentionTrace, write_trace
            write_trace(path, AttentionTrace(q, arrays["k"], arrays["v"],
                                             arrays["attn_weights"]))
            expect_rejected(lambda: workload.check(out, 0), "attention unlike softmax(q k^T/2)")


def check_ingest_reference_is_sharp():
    """A 1% pitch error in the input must break the log-mel comparison."""
    workload = WORKLOADS["ingest-48k"](gen.generate("ingest-48k", 3, WORK / "ingest"), 3)
    ref = workload.reference()
    utt, _, voice, content = gen.corpus("ingest-48k", 3)[0]
    skewed = dict(voice, f0=voice["f0"] * 1.01)
    n16, want = ref[utt]
    gain = gen.peak_gain(gen.synth(voice, content, 48000))
    got = oracle.log_mel(gen.synth(skewed, content, 16000)[:n16] * gain)
    strong = want >= want.max() - np.log(1e4)
    err = np.abs(got[strong] - want[strong]).max()
    assert err > 0.1, err
    print(f"ok   ingest reference tells a 1% pitch shift apart (max error {err:.2f})")


def check_sweep_eer():
    from s2vc import evaluate

    rng = np.random.default_rng(0)
    for _ in range(100):
        g = rng.normal(0.4, 1.0, int(rng.integers(1, 40)))
        i = rng.normal(-0.4, 1.0, int(rng.integers(1, 40)))
        assert np.allclose(oracle.sweep_eer(g, i), evaluate.eer_threshold(g, i),
                           rtol=0, atol=1e-12)
    print("ok   sweep EER equals eer_threshold on 100 random score sets")


def check_bare_directory_fails():
    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("convert-paper", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok   fails without sources: {proc.stderr.strip()}")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        check_bare_directory_fails()
        check_sweep_eer()
        check_ingest_reference_is_sharp()
        check_checks_reject_broken_outputs()
        check_result_lines()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
