"""zetagaps benchmark: certify, optimize and oracle workloads.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout.  Each repeat of the workload runs
in a fresh process (perfbench/worker.py) with inputs drawn from
[seed, repeat], one process at a time, until the next repeat would end
after --seconds.  Every output is checked.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics (medians over the repeats), with --trace 1 the
per-layer metrics of traced repeats, each run right after an untraced
repeat on the same inputs so that their difference gives the tracing
overhead.  Machine context, raw per-repeat figures and spans are written
under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("certify", "optimize", "oracle")
CHILD_TIMEOUT_S = 170
OUT_DIR = ROOT / ".perfbench"

# name -> unit; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "crosscheck_s": "s",
    "c_star": "mean_gap",
    "peak_rss_mb": "MB",
}

# name -> unit of the per-layer metrics, in the order worker.layer_metrics
# builds them, plus the two the parent adds.
PER_LAYER = {
    **{
        f"fracpoly.{fn}.{kind}": unit
        for fn in ("mul", "convolve", "beta_convolve", "integrate_weighted")
        for kind, unit in (("calls", "count"), ("busy_s", "s"))
    },
    "fracpoly.merge_ratio": "terms/pair",
    "fracpoly.eval.calls": "count",
    "fracpoly.eval.busy_s": "s",
    **{
        f"hfunc.{fn}.{kind}": unit
        for fn in ("h_value", "denominator_terms", "numerator_terms")
        for kind, unit in (("calls", "count"), ("busy_s", "s"))
    },
    "hfunc.evals_per_scheme": "evals/scheme",
    **{
        f"optimizer.{fn}.{kind}": unit
        for fn in ("bracket_scan", "threshold_c")
        for kind, unit in (("calls", "count"), ("busy_s", "s"), ("h_calls", "count"))
    },
    "optimizer.nelder_mead.calls": "count",
    "optimizer.nelder_mead.iterations": "count",
    "optimizer.nelder_mead.self_s": "s",
    "optimizer.rounds_accepted": "count",
    "quadcheck.h_value_numeric.calls": "count",
    "quadcheck.h_value_numeric.busy_s": "s",
    "sieve.build_tables.busy_s": "s",
    "sieve.coeffs_ak.busy_s": "s",
    "sieve.finite_h_from_coeffs.busy_s": "s",
    "sieve.table_bytes_computed": "B",
    "cli.import_s": "s",
    "cli.verify_table.busy_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_child(workload: str, seed: int, repeat: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", workload, "--seed", str(seed), "--repeat", str(repeat),
        "--trace", str(trace), "--spawned-at", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repeat {repeat} exceeded {CHILD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repeat {repeat} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_repeats(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """Repeats until the next one would end after `seconds`; at least one.

    With trace, each repeat is an untraced and a traced process on the same
    inputs.
    """
    children: list[dict] = []
    start = time.perf_counter()
    repeat = 0
    while True:
        for traced in ((0, 1) if trace else (0,)):
            children.append(run_child(workload, seed, repeat, traced))
        repeat += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / repeat > seconds:
            return children


def end_to_end(children: list[dict]) -> dict:
    return {
        name: {"value": statistics.median(c[name] for c in children), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def per_layer(children: list[dict]) -> dict:
    traced = [c for c in children if "layers" in c]
    plain = [c for c in children if "layers" not in c]
    values = {
        name: statistics.median(c["layers"][name] for c in traced)
        for name in PER_LAYER
        if name in traced[0]["layers"]
    }
    values["cli.import_s"] = statistics.median(c["cli_import_s"] for c in traced)
    traced_s = statistics.median(c["job_s"] + c["crosscheck_s"] for c in traced)
    plain_s = statistics.median(c["job_s"] + c["crosscheck_s"] for c in plain)
    values["trace.overhead_s"] = traced_s - plain_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def machine_context(children: list[dict]) -> dict:
    def first_line(path: str, prefix: str = "") -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "l3_size": first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": children[0]["blas_threads"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zetagaps" / "__init__.py").is_file():
        print(f"error: no zetagaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        children = run_repeats(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    metrics = per_layer(children) if args.trace else end_to_end(children)
    context = machine_context(children)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"context": context, "repeats": children, "result": result}, fh, indent=1)
    print("context " + json.dumps(context))
    wall = {k: statistics.median(c["wall"][k] for c in children) for k in ("job_s", "crosscheck_s")}
    probe = statistics.median(p for c in children for p in c["probe_s"])
    print("unscaled medians " + json.dumps(wall) + f"; probe median {probe:.4f} s")
    print(f"repeats {sum('layers' not in c for c in children)} untraced, "
          f"{sum('layers' in c for c in children)} traced; record {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
