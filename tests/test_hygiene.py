"""Source hygiene: no module of the package imports a name it never uses
or exports a name it does not define, only ``cpus`` makes child processes,
and every function the traced benchmark wraps still exists and runs on the
main thread only.

No linter is a declared dependency, so the checks are ``ast`` walks.
"""

import ast
import functools
import importlib
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import convert_args

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "s2vc"
BENCH_TRACE = ROOT / "bench" / "trace.py"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def unused_imports(source):
    """Sorted (line, name) of every name ``source`` imports but never reads.

    A name is read if it is loaded anywhere in the module, the base of an
    attribute chain included, or listed in a module-level ``__all__``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_sees_reads_and_exports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from json import dumps, loads\n"
              "from . import tensor as T\n"
              "__all__ = ['loads']\n"
              "x = np.zeros(3)\n"
              "T = None\n")
    assert unused_imports(source) == [(2, "os"), (4, "dumps"), (5, "T")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def undefined_exports(source):
    """Sorted names of the module-level ``__all__`` that ``source`` never
    binds at module level."""
    bound, exports = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exports = ast.literal_eval(node.value)
    return sorted(set(exports) - bound)


def test_export_checker_sees_every_binding():
    source = ("import numpy as np\n"
              "from json import dumps\n"
              "A, (B, C) = 1, (2, 3)\n"
              "D: int = 4\n"
              "def f(): pass\n"
              "class K: pass\n"
              "if True:\n"
              "    hidden = 5\n"
              "__all__ = ['np', 'dumps', 'A', 'C', 'D', 'f', 'K', 'hidden', 'gone']\n")
    assert undefined_exports(source) == ["gone", "hidden"]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_defined(module):
    assert undefined_exports((PACKAGE / module).read_text(encoding="utf-8")) == []


def process_starts(source):
    """Sorted (line, what) of every ``os.fork`` reference and every
    ``multiprocessing`` import in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "fork"
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, "os.fork"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, "os.fork") for a in node.names if a.name == "fork"]
        modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""] if isinstance(node, ast.ImportFrom)
                   else [])
        found += [(node.lineno, "multiprocessing") for m in modules
                  if m.split(".")[0] == "multiprocessing"]
    return sorted(found)


def test_process_checker_sees_forks_and_imports():
    source = ("import os, multiprocessing.pool\n"
              "from os import fork\n"
              "from multiprocessing import Process\n"
              "pid = os.fork()\n"
              "'os.fork' and os.forkpty\n")
    assert process_starts(source) == [(1, "multiprocessing"), (2, "os.fork"),
                                      (3, "multiprocessing"), (4, "os.fork")]


@pytest.mark.parametrize("module", MODULES)
def test_only_cpus_forks(module):
    """``cpus.Helper`` owns every child process: no other module forks, and
    none uses ``multiprocessing``."""
    found = process_starts((PACKAGE / module).read_text(encoding="utf-8"))
    if module == "cpus.py":
        assert [what for _, what in found] == ["os.fork"]
    else:
        assert found == []


def traced_names():
    """The dotted names bench/trace.py wraps, read without importing it."""
    lists = {}
    for node in ast.parse(BENCH_TRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED"):
                    lists[t.id] = ast.literal_eval(node.value)
    assert sorted(lists) == ["COUNTED", "TIMED"] and all(lists.values())
    return lists["TIMED"] + lists["COUNTED"]


def test_traced_names_resolve():
    """A refactor that drops a function the traced benchmark times fails
    here instead of in ``bench/run.py --trace 1``."""
    missing = []
    for name in traced_names():
        module, *path = name.split(".")
        owner = importlib.import_module(f"s2vc.{module}")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("width", ["tiny", "d512"])
def test_traced_names_run_on_the_main_thread(width, corpus_manifest, tmp_path,
                                             paper_width_checkpoint, monkeypatch):
    """The traced benchmark keeps one span stack, which threads would corrupt:
    ``s2vc convert`` with spare CPUs runs no traced function on a share
    thread."""
    from s2vc import cli, cpus, dsp
    from s2vc.model import S2VCModel, save_checkpoint
    from toycorpus import tiny_model_config

    if width == "tiny":
        checkpoint = tmp_path / "tiny.s2vc"
        save_checkpoint(S2VCModel(tiny_model_config(), seed=0), checkpoint,
                        mel_config=dsp.MelConfig())
    else:
        checkpoint = paper_width_checkpoint
    modules = [importlib.import_module(f"s2vc.{m}") for m in
               ("cli", "dsp", "evaluate", "features", "model", "nn", "tensor",
                "training")]
    threads = {}

    def on_thread(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.current_thread().name)
            return fn(*args, **kwargs)
        return wrapper

    for name in traced_names():
        module, *path = name.split(".")
        owner = importlib.import_module(f"s2vc.{module}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        if len(path) > 1:   # a method: replace it on its class
            raw = vars(owner)[path[-1]]
            if isinstance(raw, classmethod):
                wrapped = classmethod(on_thread(name, raw.__func__))
            else:
                wrapped = on_thread(name, raw)
            monkeypatch.setattr(owner, path[-1], wrapped)
            continue
        original = getattr(owner, path[-1])
        wrapper = on_thread(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    monkeypatch.setattr(cpus, "spare_cpus", lambda: 2)
    share_threads = set()
    real_outcome = cpus._outcome

    def outcome(task):
        share_threads.add(threading.current_thread().name)
        return real_outcome(task)

    monkeypatch.setattr(cpus, "_outcome", outcome)
    res = CliRunner().invoke(cli.main, convert_args(corpus_manifest, checkpoint,
                                                    tmp_path))
    assert res.exit_code == 0, res.output
    main = threading.main_thread().name
    assert len(share_threads) > 1   # not all of it ran on the caller
    assert {"dsp.griffin_lim", "model.load_checkpoint",
            "model.S2VCModel.decode"} <= set(threads)
    assert {name: names for name, names in threads.items() if names != {main}} == {}
