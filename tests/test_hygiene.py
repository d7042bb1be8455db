"""Source hygiene: no module of the package imports a name it never uses
or exports a name it does not define, only ``cpus`` makes child processes
and threads and talks to its children, only ``tensor`` reads the tape's
state, no function is handed a share set or has a parameter it never reads,
no checkpoint is loaded whole for its metadata, every exception derives
from ``s2vc.Error`` and reaches the user through the one CLI boundary, and
every function the traced benchmark wraps still exists and runs on the
main thread only.

No linter is a declared dependency, so the checks are ``ast`` walks.
"""

import ast
import functools
import importlib
import threading
import types
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import s2vc
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
    """``cpus.Helpers`` owns every child process: no other module forks, and
    none uses ``multiprocessing``."""
    found = process_starts((PACKAGE / module).read_text(encoding="utf-8"))
    if module == "cpus.py":
        assert [what for _, what in found] == ["os.fork"]
    else:
        assert found == []



HELPER_CLASSES = ("Helper", "_Helper")


def pipe_uses(source):
    """Sorted (line, what) of every ``send`` or ``recv`` attribute, and every
    name, attribute or import of one of ``HELPER_CLASSES``, in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("send", "recv"):
            found.append((node.lineno, node.attr))
        names = ([node.id] if isinstance(node, ast.Name)
                 else [node.attr] if isinstance(node, ast.Attribute)
                 else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                 else [])
        found += [(node.lineno, name) for name in names if name in HELPER_CLASSES]
    return sorted(found)


def test_pipe_checker_sees_calls_and_names():
    source = ("from s2vc.cpus import Helper, Helpers\n"
              "h = cpus.Helper(f)\n"
              "h.send(1, 2)\n"
              "receive = h.recv\n"
              "helpers = Helpers(f, 1)\n"
              "helpers.run(lambda: 0, [()])\n"
              "'send' and recv and _Helper and HelperExited\n")
    assert pipe_uses(source) == [(1, "Helper"), (2, "Helper"), (3, "send"),
                                 (4, "recv"), (7, "_Helper")]


@pytest.mark.parametrize("module", MODULES)
def test_only_cpus_uses_pipes(module):
    """``cpus.Helpers.run`` is the one way to a child process: no other
    module sends a task, receives a reply or names a single helper."""
    found = pipe_uses((PACKAGE / module).read_text(encoding="utf-8"))
    if module != "cpus.py":
        assert found == []


THREAD_MODULES = ("threading", "concurrent.futures")


def thread_imports(source):
    """Sorted (line, module) of every import of one of ``THREAD_MODULES``,
    or of a name or submodule of one, in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
        else:
            continue
        found.update((node.lineno, module) for name in names for module in THREAD_MODULES
                     if name == module or name.startswith(f"{module}."))
    return sorted(found)


def test_thread_checker_sees_every_import_form():
    source = ("import os, threading\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "from concurrent import futures\n"
              "import concurrent.futures.thread\n"
              "from queue import SimpleQueue\n"
              "from .threading import local\n"
              "def f():\n"
              "    import threading as t\n")
    assert thread_imports(source) == [(1, "threading"), (2, "concurrent.futures"),
                                      (3, "concurrent.futures"),
                                      (4, "concurrent.futures"), (8, "threading")]


@pytest.mark.parametrize("module", MODULES)
def test_only_cpus_starts_threads(module):
    """``cpus.Shares`` owns every thread: no other module imports
    ``threading`` or ``concurrent.futures``."""
    found = thread_imports((PACKAGE / module).read_text(encoding="utf-8"))
    if module == "cpus.py":
        assert [what for _, what in found] == ["threading", "concurrent.futures"]
    else:
        assert found == []


def tape_state_uses(source):
    """Sorted lines of ``source`` that name ``GradTape._active``, bare or as
    a module's attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "_active"
                  and (getattr(node.value, "id", None) == "GradTape"
                       or getattr(node.value, "attr", None) == "GradTape"))


def test_tape_state_checker_sees_every_form():
    source = ("from .tensor import GradTape\n"
              "if T.GradTape._active is not None: pass\n"
              "recording = GradTape._active\n"
              "GradTape._active = None\n"
              "s2vc.tensor.GradTape._active\n"
              "cpus._active.shares\n"
              "tape._active\n"
              "'GradTape._active'\n")
    assert tape_state_uses(source) == [2, 3, 4, 5]


@pytest.mark.parametrize("module", MODULES)
def test_only_tensor_reads_tape_state(module):
    """Whether a tape is recording is ``tensor``'s to know: every other
    module calls its ops and leaves the choice of path to them."""
    if module != "tensor.py":
        assert tape_state_uses((PACKAGE / module).read_text(encoding="utf-8")) == []


def parameters_named(source, name):
    """Sorted (line, function) of every function or lambda in ``source`` that
    has a parameter called ``name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if any(p is not None and p.arg == name for p in params):
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return sorted(found)


def test_parameter_checker_sees_every_kind():
    source = ("def a(x, shares=None): pass\n"
              "def b(*, shares): pass\n"
              "f = lambda shares: shares\n"
              "class K:\n"
              "    def m(self, shares, /): pass\n"
              "async def c(*shares, **kw): pass\n"
              "def d(**shares): shares = 1\n"
              "def e(x): shares = x\n")
    assert parameters_named(source, "shares") == [
        (1, "a"), (2, "b"), (3, "<lambda>"), (5, "m"), (6, "c"), (7, "d")]


@pytest.mark.parametrize("module", MODULES)
def test_no_shares_parameter(module):
    """A split site reads the active set from ``cpus.active()``; no function
    is handed one."""
    assert parameters_named((PACKAGE / module).read_text(encoding="utf-8"),
                            "shares") == []


def unused_parameters(source):
    """Sorted (line, function, parameter) of every parameter of a function or
    lambda in ``source`` that its body never reads; the first parameter of a
    method (``self`` or ``cls``) is not counted.

    A read anywhere in the body counts, in a nested function included.
    """
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
            inner = [*scope, child.name] if named else scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = child.args
                params = [p for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for b in body for n in ast.walk(b)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                qualname = ".".join(inner if named else [*scope, "<lambda>"])
                found.extend((child.lineno, qualname, p.arg)
                             for p in params[id(child) in methods:]
                             if p.arg not in read)
            visit(child, inner)

    visit(tree, [])
    return sorted(found)


def test_unused_parameter_checker_sees_every_kind():
    source = ("def a(x, y=1, *args, z, **kw):\n"
              "    return x + z\n"
              "f = lambda u, v: u\n"
              "class K:\n"
              "    def m(self, used, unused):\n"
              "        def inner(w):\n"
              "            return used\n"
              "        return inner\n"
              "    @classmethod\n"
              "    def c(cls, p, /):\n"
              "        p = 1\n"
              "def target_encode(self, tgt, train=False):\n"
              "    try: pass\n"
              "    except ValueError:\n"
              "        g = lambda e: self\n"
              "    return self.encode(tgt)\n")
    assert unused_parameters(source) == [
        (1, "a", "args"), (1, "a", "kw"), (1, "a", "y"), (3, "<lambda>", "v"),
        (5, "K.m", "unused"), (6, "K.m.inner", "w"), (10, "K.c", "p"),
        (12, "target_encode", "train"), (15, "target_encode.<lambda>", "e")]


# each parameter the package keeps without reading it, and why
UNREAD_PARAMETERS = {
    **{(f"{cls}.__exit__", p): "the context-manager protocol"
       for cls in ("Shares", "Helpers", "GradTape")
       for p in ("exc_type", "exc", "tb")},
    ("train_step", "rng"): "acceptance criterion 05 passes it by position",
    ("conformer_block", "cfg"): "acceptance criterion 01 passes it by position",
}


def test_no_unused_parameters():
    """Every parameter of every function is read: a value with one use is a
    constant, and one worked out from the inputs is not passed in."""
    found = [(module, fn, p) for module in MODULES
             for _, fn, p in unused_parameters(
                 (PACKAGE / module).read_text(encoding="utf-8"))
             if (fn, p) not in UNREAD_PARAMETERS]
    assert found == []


def stray_exceptions(module):
    """Sorted names of the exception classes ``module`` defines that do not
    derive from ``s2vc.Error``."""
    return sorted(name for name, value in vars(module).items()
                  if isinstance(value, type) and issubclass(value, BaseException)
                  and value.__module__ == module.__name__
                  and not issubclass(value, s2vc.Error))


def test_exception_checker_sees_every_base():
    module = types.ModuleType("madeup")
    exec("import s2vc\n"
         "from json import JSONDecodeError\n"
         "class A(s2vc.Error): pass\n"
         "class B(A, KeyError): pass\n"
         "class C(ValueError): pass\n"
         "class D(C): pass\n"
         "class E(JSONDecodeError): pass\n"
         "class F: pass\n", vars(module))
    assert stray_exceptions(module) == ["C", "D", "E"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exception_derives_from_error(module):
    """The CLI reports an ``s2vc.Error`` as one ``error:`` line; the one
    other exception is ``ConfigError``, a usage error."""
    name = "s2vc" if module == "__init__.py" else f"s2vc.{module[:-3]}"
    mod = importlib.import_module(name)
    if module == "cli.py":
        assert stray_exceptions(mod) == ["ConfigError"]
        assert issubclass(mod.ConfigError, click.UsageError)
    else:
        assert stray_exceptions(mod) == []


def command_handlers(source):
    """Sorted (function, caught) of every ``except`` clause inside a
    module-level function of ``source`` whose name starts ``cmd_``;
    ``caught`` is the clause's exception as written, or ``""``."""
    return sorted((node.name, ast.unparse(handler.type) if handler.type else "")
                  for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
                  for handler in ast.walk(node)
                  if isinstance(handler, ast.ExceptHandler))


def callers(source, name):
    """Sorted qualified names of the functions in ``source`` that call
    ``name`` directly; module-level calls count as ``<module>``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == name):
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def test_boundary_checkers_see_every_form():
    source = ("def cmd_a():\n"
              "    try: pass\n"
              "    except (OSError, KeyError): _fail()\n"
              "    def inner():\n"
              "        try: pass\n"
              "        except: pass\n"
              "def helper():\n"
              "    try: pass\n"
              "    except ValueError: pass\n"
              "class K:\n"
              "    def invoke(self):\n"
              "        _fail(); _fail()\n"
              "    def other(self):\n"
              "        self._fail(); fail()\n"
              "_fail()\n")
    assert command_handlers(source) == [("cmd_a", ""), ("cmd_a", "(OSError, KeyError)")]
    assert callers(source, "_fail") == ["<module>", "K.invoke", "cmd_a"]


def test_one_cli_boundary():
    """``_Commands.invoke`` alone turns a failure into an exit: no command
    catches an exception, except ``feats``, which reports each WAV it could
    not read on its own ``failed:`` line and goes on."""
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert command_handlers(source) == [("cmd_feats", "Exception")]
    assert callers(source, "_fail") == ["_Commands.invoke"]

def discarded_model_loads(source):
    """Sorted lines of ``source`` that unpack a ``load_checkpoint(...)`` call
    with ``_`` in the model's place: a full load for its metadata alone."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        if getattr(func, "attr", getattr(func, "id", None)) != "load_checkpoint":
            continue
        for t in node.targets:
            if (isinstance(t, (ast.Tuple, ast.List)) and t.elts
                    and isinstance(t.elts[0], ast.Name) and t.elts[0].id == "_"):
                found.append(node.lineno)
    return sorted(found)


def test_model_load_checker_sees_every_form():
    source = ("m, _, extra, _ = load_checkpoint(p)\n"
              "_, _, extra, _ = load_checkpoint(p)\n"
              "[_, cfg, x, y] = model_mod.load_checkpoint(p, extra_arrays=True)\n"
              "_, meta = read_blob(p)\n"
              "loaded = load_checkpoint(p)\n"
              "a = _, _, e, _ = model.load_checkpoint(p)\n")
    assert discarded_model_loads(source) == [2, 3, 6]


@pytest.mark.parametrize("module", MODULES)
def test_no_full_load_for_metadata(module):
    """A caller that needs a checkpoint's metadata but not its model reads it
    with ``read_checkpoint_meta``, which parses no array."""
    assert discarded_model_loads((PACKAGE / module).read_text(encoding="utf-8")) == []


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
