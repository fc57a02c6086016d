"""The benchmark's span recorder still finds every library function it
traces, so renaming or deleting one fails here and not only in the benchmark
run."""
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    return importlib.import_module("tracer")


def owner_and_attr(module_name, path):
    owner = importlib.import_module(f"nof.{module_name}")
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner, attr


def test_recorder_patches_every_target_and_restores_it(tracer):
    originals = {}
    for module_name, path, _ in tracer.TARGETS:
        owner, attr = owner_and_attr(module_name, path)
        assert attr in owner.__dict__, f"nof.{module_name}.{path} is gone"
        originals[module_name, path] = (owner, attr, owner.__dict__[attr])
    recorder = tracer.Recorder()
    recorder.install()
    try:
        patched = [key for key, (owner, attr, raw) in originals.items()
                   if owner.__dict__[attr] is not raw]
    finally:
        recorder.uninstall()
    assert len(patched) == len(tracer.TARGETS)
    for owner, attr, raw in originals.values():
        assert owner.__dict__[attr] is raw


def test_every_timed_span_is_a_target(tracer):
    targets = {f"{module_name}.{path}" for module_name, path, _ in tracer.TARGETS}
    timed = {name for names in tracer.TIMERS.values() for name in names}
    assert timed <= targets
