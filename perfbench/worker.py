"""One benchmark process: import tapbound from the checkout, warm up, and
(in the measuring role) time verdicts in a closed loop.

    python3 perfbench/worker.py '<json spec>'

`run.py` starts this script and times it from process start to the READY
line, which it prints once tapbound is imported, the warm-up config is built
and the warm-up run has been verified. A setup-role process stops there. A
measure-role process then runs verdicts for `seconds` and prints one
RESULT line. Both lines are JSON after the tag.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import SEED_STRIDE, WARMUP_SEED, WORKLOADS  # noqa: E402


def import_harness(root: str):
    """Import tapbound from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import tapbound.harness as harness
    if not os.path.abspath(harness.__file__).startswith(src + os.sep):
        raise ImportError(f"tapbound imported from {harness.__file__}, not {src}")
    return harness


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def check_artifacts(out_dir: str, experiment: str) -> dict:
    """Read the written report back: every asserted criterion, the row
    count against the CSV, and the digest of the canonical bytes."""
    base = os.path.join(out_dir, experiment.replace("/", "-"))
    with open(base + ".report.json", "rb") as fh:
        report_bytes = fh.read()
    with open(base + ".rows.csv", "rb") as fh:
        rows_bytes = fh.read()
    report = json.loads(report_bytes)
    criteria = report["criteria"]
    failed = [c["name"] for c in criteria if not c["passed"]]
    csv_rows = sum(1 for _ in csv.reader(rows_bytes.decode().splitlines())) - 1
    consistent = (csv_rows == report["row_count"]
                  and report["passed"] == (not failed))
    return {"checked": len(criteria) + 1,
            "failed": len(failed) + (0 if consistent else 1),
            "failures": failed + ([] if consistent else ["artifacts"]),
            "digest": hashlib.sha256(report_bytes + b"\0" + rows_bytes).hexdigest()}


def verdict(harness, cfg) -> dict:
    """Time one run(cfg) until its report is written and checked."""
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        harness.run(cfg)
        result = check_artifacts(cfg.out, cfg.experiment)
    except Exception:  # a raising run is a failed verdict; keep measuring
        traceback.print_exc(file=sys.stderr)
        result = {"checked": 1, "failed": 1, "failures": ["raised"], "digest": None}
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = cpu_seconds() - cpu0
    result["seed"] = cfg.seed
    return result


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"host": platform.node(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def measure(harness, spec: dict) -> dict:
    wl = WORKLOADS[spec["workload"]]
    out = spec["out"]
    trace = bool(spec["trace"])
    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + spec["seconds"]
    i = 0
    while True:
        seed = spec["seed"] + i * SEED_STRIDE
        runs = [False, True] if trace else [False]
        if i % 2:  # alternate the order of a pair so warm-up effects cancel
            runs.reverse()
        for traced_now in runs:
            cfg = harness.build_config(wl.experiment, wl.config_overrides(
                seed, os.path.join(out, "traced" if traced_now else "untraced")))
            if traced_now:
                tracer.install()
                try:
                    traced.append(verdict(harness, cfg))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(verdict(harness, cfg))
        i += 1
        # Start another verdict only if it should end by the deadline.
        mean_s = sum(v["wall_s"] for v in untraced + traced) / i
        if time.perf_counter() + mean_s > deadline:
            break
    result = {"untraced": untraced, "traced": traced,
              "replicas_per_verdict": wl.replicas_per_verdict(),
              "environment": environment()}
    if trace:
        spans_path = os.path.join(out, "spans.csv")
        tracer.write_spans(spans_path)
        result["spans"] = spans_path
        result["per_layer"] = layer_metrics(
            tracer, len(traced),
            untraced_wall=sum(v["wall_s"] for v in untraced),
            traced_wall=sum(v["wall_s"] for v in traced),
            untraced_cpu=sum(v["cpu_s"] for v in untraced))
    else:
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = max(self_kb, child_kb) / 1024.0
    return result


def main(argv) -> int:
    spec = json.loads(argv[1])
    harness = import_harness(spec["root"])
    wl = WORKLOADS[spec["workload"]]
    cfg = harness.build_config(wl.experiment, wl.config_overrides(
        WARMUP_SEED, os.path.join(spec["out"], "warmup"), warmup=True))
    print("READY " + json.dumps(verdict(harness, cfg)), flush=True)
    if spec["role"] == "measure":
        print("RESULT " + json.dumps(measure(harness, spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
