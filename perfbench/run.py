"""nfvlight benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload certify-path6 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Untraced runs (``--trace 0``) report the end-to-end metrics;
traced runs (``--trace 1``) record spans around the public calls into each
layer and report per-layer self times and size counts instead.  The last
line of standard output is the result as one JSON object; the line before
it holds details such as sample counts and machine facts.  Working files go
to ``.perfbench_run/`` in the checkout.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from tracing import Tracer, span_cost

ROOT = Path(__file__).resolve().parents[1]
# setup_s is the median of at least three set-ups, more while they total under a second
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS = 3, 1.0
MIN_OPS = 2  # a median needs at least two operations, whatever --seconds says


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["certify-path6", "oracle-barbell6", "solve-replay"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def fresh_workloads():
    """Import the program and the workloads module anew, so set-up can be timed
    again, import cost included."""
    for name in list(sys.modules):
        if name in ("nfvlight", "workloads") or name.startswith("nfvlight."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def machine_facts() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def check_counts(path: Path, counts: dict) -> str | None:
    """Compare with the counts an earlier run of this seed left in the checkout."""
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            return f"counts differ from an earlier run with this seed: {before} vs {counts}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nfvlight" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no nfvlight sources under {ROOT / 'src'}\n")
        return 2
    os.chdir(ROOT)
    os.environ.pop("NFVLIGHT_SOLVER", None)  # the oracle path and the replay adapter only
    sys.path.insert(0, str(ROOT / "src"))
    run_dir = Path(".perfbench_run")  # relative, so adapter command lines need no quoting
    workdir = run_dir / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    tempfile.tempdir = str(workdir / "tmp")  # the CLI's temporary files stay in the checkout
    Path(tempfile.tempdir).mkdir(parents=True)

    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        gc.collect()
        t0 = time.perf_counter()
        workloads = fresh_workloads()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    tracer = None
    if args.trace:
        cost = span_cost()
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        workloads.install_trace(tracer)
        workload.span = tracer.span

    durations: list[float] = []
    errors: list[str] = []
    failed = 0
    start = time.perf_counter()
    while len(durations) < MIN_OPS or (
        time.perf_counter() - start + statistics.median(durations) <= args.seconds
    ):
        index = len(durations)
        gc.collect()
        if tracer:
            tracer.op, tracer.counting = index, index == 0
        t0 = time.perf_counter()
        seconds = None
        try:
            with tracer.span("bench.op") if tracer else nullcontext():
                seconds, record = workload.run_op(index)
            op_errors = workload.check(record)
        except Exception:  # one broken operation is a failure, not the end of the run
            op_errors = [traceback.format_exc()]
        durations.append(time.perf_counter() - t0 if seconds is None else seconds)
        if op_errors:
            failed += 1
            errors += op_errors

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(durations)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "samples": n, "op_s": durations, "setup_s_samples": setup_times,
              "machine": machine_facts(), **workload.detail()}
    if tracer:
        tracer.restore()
        own = tracer.self_times()
        metrics = {name: {"value": own.get(span, 0.0) / n, "unit": "s"}
                   for name, span in workloads.LAYER_SPANS.items()}
        counts = {name: tracer.counts.get(name, 0) for name in workloads.COUNTS}
        metrics.update({name: {"value": value, "unit": "count"} for name, value in counts.items()})
        n_spans = sum(1 for s in tracer.spans if s["name"] != "trace.count")
        overhead = n_spans * cost + own.get("trace.count", 0.0)
        metrics["trace.op_s_p50"] = {"value": statistics.median(durations), "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / sum(durations), "unit": "%"}
        mismatch = check_counts(run_dir / "counts" / f"{args.workload}-seed{args.seed}.json",
                                counts)
        if mismatch:
            errors.append(mismatch)
            failed = max(failed, 1)
        trace_file = workdir / f"trace-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        detail["trace_file"] = str(trace_file)
    else:
        metrics = {
            "ops_per_s": {"value": n / sum(durations), "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(durations), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    detail["errors"] = errors[:10]
    for line in errors:
        sys.stderr.write(line.rstrip() + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
