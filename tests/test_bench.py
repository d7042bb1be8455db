"""The cheapest checks of ``bench/selftest.py``, so that the benchmark cannot
fall out of step with the program between changes to it.  The whole
self-test (``python3 bench/selftest.py``) takes about half a minute more."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def selftest(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # bench/ stays as it is
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module("selftest")
    monkeypatch.setattr(module, "WORK", tmp_path)
    yield module
    for name in ("selftest", "workloads", "gen", "oracle"):
        sys.modules.pop(name, None)


def test_sweep_eer(selftest):
    selftest.check_sweep_eer()


def test_ingest_reference_is_sharp(selftest):
    selftest.check_ingest_reference_is_sharp()
