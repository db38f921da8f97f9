"""tapbound benchmark: time to a verified verdict on four acceptance-shaped
workloads, plus per-layer numbers from a separate traced run.

    python3 perfbench/run.py --workload gap-ising --seed 1 --seconds 28 --trace 0

Run it in a checkout that has `src/tapbound` and `BENCHMARK.json`, which
names the metrics and their units; perfbench/README.md describes the
workloads and metrics. It prints the metrics with their units and, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics. Each result is also written, with the environment it was measured
in, under `.perfbench-out/results/` in the checkout. This script uses only
the standard library; tapbound is imported by the worker processes it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, SEED_STRIDE, WORKLOADS  # noqa: E402

# Every worker is killed this long after the benchmark started.
RUN_LIMIT_S = 170.0
# One closed-loop client; no matrix in these workloads is wider than 16.
BLAS_THREADS = "1"


class BenchmarkError(RuntimeError):
    pass


def run_worker(spec: dict, deadline: float):
    """Start a worker; return (seconds from start to its READY line, READY
    payload, RESULT payload or None). The worker is killed at the deadline
    and always waited for."""
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    argv = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready_line.startswith("READY "):
        raise BenchmarkError(f"{spec['role']} worker exited with {proc.returncode}")
    results = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    if spec["role"] == "measure" and not results:
        raise BenchmarkError("measuring worker printed no result")
    result = json.loads(results[-1][len("RESULT "):]) if results else None
    return ready_s, json.loads(ready_line[len("READY "):]), result


def git_state() -> dict:
    """Commit and dirty flag, when the checkout is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}
    try:
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, text=True, timeout=30,
                                  capture_output=True, check=True).stdout.strip()
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": git("status", "--porcelain", "--untracked-files=no") != ""}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def same_bytes(a: dict, b: dict, what: str) -> dict:
    """One check: two runs of the same code and seed wrote the same bytes."""
    same = a["digest"] is not None and a["digest"] == b["digest"]
    return {"checked": 1, "failed": int(not same),
            "failures": [] if same else [f"{what} bytes differ at seed {a['seed']}"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed, 0 <= seed < 2**32")
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="how long the verdict loop runs (at most 60)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < SEED_STRIDE:
        parser.error("--seed must lie in [0, 2**32)")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    return args


def load_metric_units() -> tuple:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def measure(args) -> tuple:
    """Run the workers; return (metrics, checks, record)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    out = os.path.join(ROOT, ".perfbench-out", args.workload)
    os.makedirs(out, exist_ok=True)
    spec = {"root": ROOT, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "out": out}
    # Set-up samples come before and after the measuring worker, which is one
    # of them, so a slow spell of a shared machine sways at most one. A
    # traced run reports no set-up time and starts only the measurer.
    roles = ["measure"] if args.trace else ["setup", "measure", "setup"]
    setup_times, warmups, result = [], [], None
    for role in roles:
        ready_s, warmup, measured = run_worker(dict(spec, role=role), deadline)
        setup_times.append(ready_s)
        warmups.append(warmup)
        result = measured or result

    # Runs of the same code and seed must write the same bytes: every warm-up
    # runs one config, and a traced verdict repeats an untraced one.
    checks = warmups + result["untraced"] + result["traced"]
    checks += [same_bytes(w, warmups[0], "warm-up") for w in warmups[1:]]
    checks += [same_bytes(t, u, "traced") for t, u in zip(result["traced"], result["untraced"])]
    walls = [v["wall_s"] for v in result["untraced"]]
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "verdict_s": sum(walls) / len(walls),
            "replicas_per_s": result["replicas_per_verdict"] * len(walls) / sum(walls),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    record = {"environment": dict(result["environment"], git=git_state()),
              "setup_samples_s": setup_times, "warmups": warmups,
              "untraced": result["untraced"], "traced": result["traced"],
              "replicas_per_verdict": result["replicas_per_verdict"],
              "spans": result.get("spans")}
    return metrics, checks, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tapbound", "__init__.py")):
        print(f"perfbench: no tapbound sources under {ROOT}/src", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metric_units()
    try:
        values, checks, record = measure(args)
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    units = per_layer if args.trace else end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    attempted = sum(c["checked"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    failures = sorted({f for c in checks for f in c["failures"]})

    walls = [v["wall_s"] for v in record["untraced"]]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"{len(walls)} verdicts of {record['replicas_per_verdict']} replicas; "
          f"verdict wall median {statistics.median(walls):.4f} s, "
          f"max {max(walls):.4f} s; set-up samples "
          + ", ".join(f"{t:.4f}" for t in record["setup_samples_s"]) + " s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"criteria_failed {failed} / criteria_checked {attempted}"
          + (f" ({'; '.join(failures)})" if failures else ""))
    if record["spans"]:
        print(f"spans written to {record['spans']}")

    results_dir = os.path.join(ROOT, ".perfbench-out", "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(record, args=vars(args), metrics=metrics,
                       attempted=attempted, failed=failed, failures=failures),
                  fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
