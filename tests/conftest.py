import errno
import struct
import zlib

import numpy as np
import pytest

from s2vc.tensor import GradTape, Tensor


def gradcheck(fn, inputs, h=1e-3, rtol=1e-4, atol=1e-6):
    """Compare tape gradients against central finite differences.

    ``fn`` maps a list of Tensors to a scalar Tensor.  The check runs the
    same graph in float64 (the oracle precision); the library default stays
    float32.
    """
    tensors = [Tensor(np.asarray(x, dtype=np.float64), requires_grad=True,
                      dtype=np.float64) for x in inputs]
    with GradTape() as tape:
        loss = fn(tensors)
        tape.backward(loss)
    analytic = [t.grad.copy() for t in tensors]

    def eval_loss(arrays):
        ts = [Tensor(a, dtype=np.float64) for a in arrays]
        return fn(ts).item()

    max_rel = 0.0
    for i, t in enumerate(tensors):
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            arrays = [u.data.copy() for u in tensors]
            arrays[i].reshape(-1)[j] = orig + h
            up = eval_loss(arrays)
            arrays[i].reshape(-1)[j] = orig - h
            down = eval_loss(arrays)
            numeric.reshape(-1)[j] = (up - down) / (2 * h)
        denom = np.maximum(np.abs(numeric), np.abs(analytic[i]))
        err = np.abs(numeric - analytic[i]) / np.maximum(denom, atol / rtol)
        max_rel = max(max_rel, float(err.max()))
    assert max_rel < rtol, f"gradient mismatch: max relative error {max_rel:.3g}"
    return max_rel


class _HalfWrittenFile:
    """Stores the first half of what it is asked to write, then fails as a
    full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def open_half_written(path, mode, *args, **kwargs):
    """Stand-in for ``open`` whose files fail halfway through a write."""
    return _HalfWrittenFile(open(path, mode, *args, **kwargs))


def malform_container(path, how):
    """Rewrite the CRC-guarded container at ``path`` with a valid CRC over a
    body its parser must reject: ``"overrun"`` declares one array more than
    the payload holds, ``"trailing"`` leaves bytes after the last array."""
    payload = bytearray(path.read_bytes()[:-4])
    if how == "overrun":
        (meta_len,) = struct.unpack_from("<I", payload, 6)
        (count,) = struct.unpack_from("<I", payload, 10 + meta_len)
        struct.pack_into("<I", payload, 10 + meta_len, count + 1)
    else:
        payload += b"\0\0\0"
    path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def one_worker(monkeypatch):
    """One CPU is spare, whatever the host's BLAS threads: training and
    ``s2vc eval`` each fork one helper."""
    from s2vc import cpus

    monkeypatch.setattr(cpus, "spare_cpus", lambda: 1)


@pytest.fixture(scope="session")
def corpus_manifest(tmp_path_factory):
    """Shared toy corpus: 2 speakers, 6 utterances each, 1 s at 16 kHz."""
    from toycorpus import build_corpus

    root = tmp_path_factory.mktemp("corpus")
    return build_corpus(root, speakers=("spkA", "spkB"), utts_per_speaker=6)


@pytest.fixture(scope="session")
def four_speaker_manifest(tmp_path_factory):
    """spkA/spkB stand for the training speakers, spkC/spkD for unseen ones;
    five utterances each, the target count of one pair."""
    from toycorpus import build_corpus

    root = tmp_path_factory.mktemp("corpus4")
    return build_corpus(root, speakers=("spkA", "spkB", "spkC", "spkD"),
                        utts_per_speaker=5)


@pytest.fixture(scope="session")
def paper_width_checkpoint(tmp_path_factory):
    """A model of the paper's width, d_model = 512, on mel features: wide
    enough that ``s2vc convert`` splits its larger matmuls across threads."""
    from s2vc.dsp import MelConfig
    from s2vc.model import S2VCModel, save_checkpoint
    from toycorpus import tiny_model_config

    path = tmp_path_factory.mktemp("d512") / "model.s2vc"
    config = tiny_model_config(d_model=512, conformer_ff_dim=1024,
                               conformer_conv_kernel=15)
    save_checkpoint(S2VCModel(config, seed=0), path, mel_config=MelConfig())
    return path


def convert_args(corpus_manifest, checkpoint, out_dir, gl_iters=4):
    """An ``s2vc convert`` command line over the toy corpus that writes
    ``o.wav`` and ``t.s2vt`` into ``out_dir``."""
    from s2vc.features import Manifest

    by_spk = Manifest.load(corpus_manifest).speakers()
    return ["convert", str(checkpoint), by_spk["spkA"][0].features["mel"],
            *[e.features["mel"] for e in by_spk["spkB"][:5]],
            "--out", str(out_dir / "o.wav"), "--dump-trace", str(out_dir / "t.s2vt"),
            "--gl-iters", str(gl_iters)]
