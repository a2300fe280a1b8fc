def test_perfbench_trace_targets_are_module_attributes(perfbench_worker):
    # `perfbench/run.py --trace 1` patches every (owner, attr) target through
    # owner.__dict__[attr], so each traced name must be an attribute of its
    # own module or class, not one reached through an import chain
    targets = perfbench_worker.trace_targets(perfbench_worker.Bench(), set())
    assert targets
    for owner, attr, *_ in targets:
        assert attr in owner.__dict__, (owner.__name__, attr)
