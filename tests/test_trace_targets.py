import importlib.util
import pathlib
import sys

WORKER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_perfbench_trace_targets_are_module_attributes(monkeypatch):
    # `perfbench/run.py --trace 1` patches every (owner, attr) target through
    # owner.__dict__[attr], so each traced name must be an attribute of its
    # own module or class, not one reached through an import chain
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    targets = worker.trace_targets(worker.Bench(), set())
    assert targets
    for owner, attr, *_ in targets:
        assert attr in owner.__dict__, (owner.__name__, attr)
