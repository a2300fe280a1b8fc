"""Tests for the benchmark harness itself.

    python -m pytest perfbench -q

They check that inputs depend on the seed alone, that span arithmetic
(self time, busy time, nesting) is right, and that the metrics a run prints
are exactly the ones BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer, busy, calls, self_time, self_times  # noqa: E402


def fingerprint(scheme):
    return (scheme.r,) + tuple(
        tuple(p.coeffs) + tuple(p.exponents) for p in (scheme.f1, scheme.f1t, scheme.P)
    )


def generated(seed, repeat):
    batch = [(it.label, fingerprint(it.scheme), it.base_c) for it in inputs.certify_batch(seed, repeat)]
    oracle, ks = inputs.oracle_scheme(seed, repeat)
    return batch, fingerprint(inputs.optimize_start(seed, repeat)), fingerprint(oracle.scheme), list(ks)


def test_inputs_are_deterministic_per_seed():
    assert generated(11, 0) == generated(11, 0)


def test_repeats_and_seeds_get_new_inputs():
    base = generated(11, 0)
    for other in (generated(11, 1), generated(12, 0)):
        assert base[0][:3] == other[0][:3]  # the published presets
        assert not set(base[0][3:]) & set(other[0][3:])
        assert base[1] != other[1] and base[2] != other[2] and base[3] != other[3]


def test_perturbation_keeps_shape_and_size():
    for item in inputs.certify_batch(3, 0)[3:]:
        base = next(p for p in inputs.PRESETS if item.label.startswith(p.name + "~"))
        for new, old in zip(
            (item.scheme.f1, item.scheme.f1t, item.scheme.P), (base.scheme.f1, base.scheme.f1t, base.scheme.P)
        ):
            np.testing.assert_array_equal(new.exponents, old.exponents)
            assert np.all(np.abs(new.coeffs / old.coeffs - 1.0) <= inputs.PERTURB_REL)
        assert abs(item.scheme.r / base.scheme.r - 1.0) <= inputs.PERTURB_REL


def span(name, start, end, parent=-1):
    return [name, start, end, parent]


def test_self_time_subtracts_direct_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("leaf", 2.0, 3.0, 1),
        span("b", 5.0, 6.5, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])
    assert self_time(spans, "root") == pytest.approx(5.5)


def test_self_time_counts_overlapping_children_once():
    spans = [span("p", 0.0, 4.0), span("c", 1.0, 3.0, 0), span("c", 2.0, 3.5, 0), span("c", 3.8, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.5 - 0.2)


def test_busy_counts_nested_same_name_once_and_calls_filter_by_ancestor():
    spans = [
        span("outer", 0.0, 8.0),
        span("f", 1.0, 5.0, 0),
        span("f", 2.0, 3.0, 1),
        span("f", 6.0, 7.0),
    ]
    assert busy(spans, "f") == pytest.approx(4.0 + 1.0)
    assert calls(spans, "f") == 3
    assert calls(spans, "f", under="outer") == 2


class Owner:
    @staticmethod
    def leaf(x):
        time.sleep(0.002)
        return x + 1

    @staticmethod
    def top(x):
        return Owner.leaf(x) + Owner.leaf(x)


def test_tracer_records_parents_counts_and_restores():
    tracer = Tracer()
    original = Owner.__dict__["leaf"]
    targets = [
        (Owner, "top", "top", None),
        (Owner, "leaf", "leaf", lambda tr, args, result: tr.count("leaf.in", args[0])),
    ]
    with tracer.installed(targets):
        with tracer.installed(targets):  # re-entrant: no second layer of wrappers
            assert Owner.top(1) == 4
    assert Owner.__dict__["leaf"] is original
    assert [(s[0], s[3]) for s in tracer.spans] == [("top", -1), ("leaf", 0), ("leaf", 0)]
    assert tracer.counts == {"leaf.in": 2}
    assert self_time(tracer.spans, "top") + busy(tracer.spans, "leaf") == pytest.approx(
        busy(tracer.spans, "top")
    )


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        [w["name"] for w in bench["workloads"]],
    )


def test_benchmark_json_matches_the_runner():
    e2e, layers, workloads = declared()
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert workloads == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "certify", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = declared()[1 if trace else 0]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
