"""qecbatch benchmark: time to a cross-checked answer, per workload.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout. W is one of mc_counts, mc_locations,
exact_oracle, cli_sweep, or `all` for each in turn. Each workload runs in
its own process as a closed loop (one caller, one job at a time,
n_workers=1) with BLAS pinned to one thread; every job's answer is
cross-checked. --trace 0 reports the end-to-end metrics; set-up is
repeated in separate processes and its median reported. --trace 1 is the
separate traced run that reports per-layer metrics. Job times are scaled
to a nominal host speed by a reference computation timed between jobs
(see worker.py). The last line of standard output is one JSON object;
full results, per-job records and the trace go to perfbench/out/.
Workload reasoning and the layer map are in perfbench/reasoning.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
WORKLOADS = ("mc_counts", "mc_locations", "exact_oracle", "cli_sweep")
# Extra set-up-only processes; the measuring process is one more, and
# setup_s is the median of the three. Over five batches of five or ten
# runs per workload, the median's spread across runs (interquartile range
# over median) was below the single sample's in 15 of the 20 (workload,
# batch) pairs, e.g. 0.15 against 0.25 on cli_sweep; it was still above
# 0.25 in 7 of them.
SETUP_PROBES = 2
DEADLINE_S = 170.0  # per workload, inside the 180 s a run may take

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith("epochs") or name.endswith("grid_points"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    return "s"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(CHECKOUT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, deadline: float, probe: bool = False) -> dict:
    """Run one worker process to completion and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0)]
    if probe:
        cmd.append("--probe")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=CHECKOUT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {args.workload} ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(args, deadline, probe=True)["setup_s"])
    result = spawn(args, deadline)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": value, "unit": layer_unit(name)}
                for name, value in result["per_layer"].items()}
    timing = result["timing"]
    values = {
        "jobs_per_s": timing["jobs_per_s"],
        "job_s_p50": timing["job_s_p50"],
        "job_s_tail": timing["job_s_tail"],
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def report(workload: str, args, result: dict, metrics: dict) -> None:
    timing = result["timing"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload}: seed {args.seed}, {timing['elapsed_s']:.1f} s timed, "
          f"closed loop, 1 caller, trace {args.trace}; job times scaled to the nominal "
          f"host speed, which this host ran at {timing['host_speed']:.3f} times")
    wall = timing["wall"]
    notes = {
        "jobs_per_s": f"wall {wall['jobs_per_s']:.4g}",
        "job_s_p50": f"wall {wall['job_s_p50']:.4g}",
        "job_s_tail": f"p{timing['tail_percentile']} over the mix; wall "
                      f"{wall['job_s_tail']:.4g} with {wall['jobs_beyond_tail']} of "
                      f"{timing['jobs']} jobs beyond",
        "setup_s": "median of " + " ".join(f"{s:.4f}" for s in result["setup_samples"]),
    }
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:<14.6g} {metric['unit']:<6} {notes.get(name, '')}")
    print(f"  {'fail_frac':<44} {failed / attempted:<14.6g} {'ratio':<6} "
          f"{failed} failed of {attempted} attempted")
    for job in result["failures"]:
        print(f"  failed job {job['index']} ({job['label']}): {'; '.join(job['failures'])}")
    for label, kind_s in timing["kind_job_s"].items():
        print(f"  median scaled job time of {label:<18} {kind_s:<14.6g} s")
    print(f"  record: {json.dumps(result['record'], sort_keys=True)}")
    print(f"  full result: {result['result_file']}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (CHECKOUT / "src" / "qecbatch" / "__init__.py").is_file():
        print(f"no qecbatch sources under {CHECKOUT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
            metrics = metrics_of(result, args.trace)
            report(workload, args, result, metrics)
            summary["correct"] &= result["failed"] == 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = f"{workload}." if len(workloads) > 1 else ""
            summary["metrics"].update({prefix + name: m for name, m in metrics.items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
