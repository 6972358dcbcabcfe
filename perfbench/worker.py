"""One benchmark process: set up, run one workload as a closed loop, report.

Started by run.py with BLAS pinned to one thread. Prints one JSON line.

    worker.py --workload W --seed S --seconds T --trace 0|1 --t0 MONO [--probe]

--t0 is the launcher's time.monotonic() just before it started this
process, so set-up time counts from process start. --probe stops after
set-up and reports only that.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from record import run_record
from tracer import TRACED, NullTrace, Tracer
from workloads import MIXES, Context

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

# Timing metrics are normalised to a fixed host speed. The host this
# benchmark was tuned on is a 2-vCPU VM whose speed swings by up to 1.7x
# over seconds to tens of minutes with outside load (process CPU time grows
# with wall time, so it is on-CPU contention, not descheduling). Neither
# the median nor the fastest of raw job times kept every workload's
# run-to-run spread under 0.2 (see perfbench/reasoning.json). So a fixed
# reference computation, which never changes with the program, is
# timed after every job, and each job's wall time is scaled by
# REFERENCE_NOMINAL_S over the mean of the reference times just before and
# just after it. A job kind's time is the median of its scaled times;
# job_s_p50 and job_s_tail are percentiles over one cycle of the mix of
# those, and jobs_per_s is the cycle's length over their sum. Being
# percentiles over one value per mix entry, they move smoothly with job
# costs and cannot flip between two kinds of job as the job count changes.
# Raw wall-time figures and the host speed are reported beside them.
REFERENCE_NOMINAL_S = 0.035
_REF_SMALL = np.full((200, 200), 0.5)
_REF_BIG = np.full((1000, 1000), 0.5)
_REF_VEC = np.ones(1000)


def reference_s() -> float:
    """Wall time of the reference: about equal parts interpreter loop,
    in-cache BLAS and an 8 MB matrix-vector stream, like the workloads."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(40_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    for _ in range(30):
        _REF_SMALL @ _REF_SMALL
    for _ in range(30):
        _REF_BIG @ _REF_VEC
    return time.perf_counter() - t0


# job_s_tail is this percentile: the highest of 50, 75, 90, 95 and 99 that
# leaves at least ten jobs beyond it in a run of MIN_JOBS jobs. It stays
# fixed, so a faster program that fits more jobs in a run is not reported
# at a higher percentile. A run goes on past --seconds until it has
# MIN_JOBS jobs, so that each entry of a mix (four at most) is timed at
# least ten times.
TAIL_PERCENTILE = 75
MIN_JOBS = 40


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


def job_seed(seed: int, index: int) -> int:
    """master_seed of job `index` under workload seed `seed`; below 2**63."""
    digest = hashlib.sha256(f"qecbatch-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def run_cycles(mix, seed, seconds, ctx, first_index, min_jobs):
    """Closed loop, one caller: run whole cycles of the mix until `seconds`
    have passed and at least `min_jobs` jobs are done."""
    records = []
    index = first_index
    started = time.perf_counter()
    ref_before = reference_s()
    while True:
        for label, job in mix:
            master_seed = job_seed(seed, index)
            t0 = time.perf_counter()
            with ctx.trace.span("job", index=index, label=label):
                try:
                    outcome = job(master_seed, ctx)
                    failures, pvalues = outcome.failures, outcome.pvalues
                except Exception as exc:  # a job that raises counts as failed
                    failures, pvalues = [f"raised {type(exc).__name__}: {exc}"], {}
            job_s = time.perf_counter() - t0
            ref_after = reference_s()
            records.append({
                "index": index, "label": label, "master_seed": master_seed,
                "job_s": job_s, "ref_s": (ref_before + ref_after) / 2.0,
                "failures": failures, "pvalues": pvalues,
            })
            ref_before = ref_after
            index += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and len(records) >= min_jobs:
            return records, elapsed


def wall_metrics(records) -> dict:
    """Raw wall-time figures of a run, under whatever load the host had."""
    times = np.array([r["job_s"] for r in records])
    tail = float(np.percentile(times, TAIL_PERCENTILE))
    return {
        "jobs_per_s": len(records) / float(times.sum()),
        "job_s_p50": float(np.percentile(times, 50)),
        "job_s_tail": tail,
        "jobs_beyond_tail": int(np.sum(times > tail)),
    }


def timing_metrics(records, labels) -> dict:
    """Host-normalised timing metrics over one cycle of the mix `labels`;
    see REFERENCE_NOMINAL_S."""
    by_label: dict[str, list[float]] = {}
    for record in records:
        scaled = record["job_s"] * REFERENCE_NOMINAL_S / record["ref_s"]
        by_label.setdefault(record["label"], []).append(scaled)
    kind_s = {label: float(np.median(times)) for label, times in by_label.items()}
    cycle = np.array([kind_s[label] for label in labels])
    return {
        "jobs_per_s": len(cycle) / float(cycle.sum()),
        "job_s_p50": float(np.percentile(cycle, 50)),
        "job_s_tail": float(np.percentile(cycle, TAIL_PERCENTILE)),
        "tail_percentile": TAIL_PERCENTILE,
        "kind_job_s": kind_s,
        "host_speed": REFERENCE_NOMINAL_S / float(np.median([r["ref_s"] for r in records])),
        "wall": wall_metrics(records),
        "jobs": len(records),
    }


def layer_metrics(tracer, jobs: int) -> dict[str, float]:
    """Per-job means over whole cycles of the mix, so counts repeat exactly."""
    totals = tracer.layer_totals()
    counters = tracer.counters
    metrics: dict[str, float] = {}
    for name in (*TRACED, "bench.check"):
        calls, busy, self_time = totals.get(name, (0, 0.0, 0.0))
        if name != "bench.check":
            metrics[f"{name}.calls"] = calls / jobs
            metrics[f"{name}.self_s"] = self_time / jobs
        metrics[f"{name}.busy_s"] = busy / jobs

    def busy(*names):
        return sum(totals.get(name, (0, 0.0, 0.0))[1] for name in names)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    for key in ("montecarlo.traj_epochs", "montecarlo.location_traj_epochs",
                "montecarlo.pair_epochs", "exact.evolve.epochs", "exact.kernel_bytes",
                "cli.grid_points", "cli.bytes_written"):
        metrics[key] = counters.get(key, 0) / jobs
    metrics["montecarlo.traj_epochs_per_s"] = rate(
        counters.get("montecarlo.traj_epochs", 0),
        busy("montecarlo.run_batch", "montecarlo.steady_fraction"))
    metrics["montecarlo.location_traj_epochs_per_s"] = rate(
        counters.get("montecarlo.location_traj_epochs", 0), busy("montecarlo.location_counts"))
    metrics["montecarlo.pair_epochs_per_s"] = rate(
        counters.get("montecarlo.pair_epochs", 0), busy("montecarlo.run_coupled"))
    entries = counters.get("exact.kernel_entries", 0)
    metrics["exact.useful_entry_frac"] = (
        counters.get("exact.useful_entries", 0) / entries if entries else 0.0)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in MIXES:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(MIXES)}",
              file=sys.stderr)
        return 2
    mix = MIXES[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    # relative to the checkout, so that CLI outputs, which record their own
    # path, have the same size in every checkout
    workdir = Path(os.path.relpath(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)))
    try:
        ctx = Context(trace=NullTrace(), workdir=workdir)
        # untimed warm-up: the first entry of the mix under its own seed
        mix[0][1](job_seed(args.seed, -1), ctx)
        setup_s = time.monotonic() - args.t0
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run(args, mix, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    emit(args, result)
    return 0


def run(args, mix, ctx) -> dict:
    """The timed part. Untraced: one closed loop for --seconds. Traced: an
    untraced half, then a traced half whose per-layer numbers are kept."""
    labels = [label for label, _ in mix]
    if not args.trace:
        records, elapsed = run_cycles(mix, args.seed, args.seconds, ctx, 0, MIN_JOBS)
        timing = {**timing_metrics(records, labels), "elapsed_s": elapsed}
        result = {"timing": timing, "jobs": records}
    else:
        half = args.seconds / 2.0
        plain, plain_s = run_cycles(mix, args.seed, half, ctx, 0, len(mix))
        tracer = Tracer()
        tracer.install()
        try:
            traced_ctx = Context(trace=tracer, workdir=ctx.workdir)
            traced, traced_s = run_cycles(mix, args.seed, half, traced_ctx, len(plain), len(mix))
        finally:
            tracer.uninstall()
        untraced_timing = {**timing_metrics(plain, labels), "elapsed_s": plain_s}
        traced_timing = {**timing_metrics(traced, labels), "elapsed_s": traced_s}
        layers = layer_metrics(tracer, len(traced))
        layers["bench.job_s_p50.untraced"] = untraced_timing["job_s_p50"]
        layers["bench.job_s_p50.traced"] = traced_timing["job_s_p50"]
        layers["bench.trace_overhead_s"] = traced_timing["job_s_p50"] - untraced_timing["job_s_p50"]
        result = {
            "timing": untraced_timing, "traced_timing": traced_timing,
            "per_layer": layers, "trace": tracer.dump(), "jobs": plain + traced,
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def emit(args, result: dict) -> None:
    """Write the full result file and print its summary as one JSON line."""
    jobs = result["jobs"]
    failed = sum(1 for job in jobs if job["failures"])
    result["record"] = run_record(args.workload, args.seed, args.trace, len(jobs), failed)
    result["attempted"], result["failed"] = len(jobs), failed
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    summary = {key: value for key, value in result.items() if key not in ("jobs", "trace")}
    summary["failures"] = [
        {"index": job["index"], "label": job["label"], "failures": job["failures"]}
        for job in jobs if job["failures"]
    ]
    summary["result_file"] = str(path.relative_to(BENCH_DIR.parent))
    print(json.dumps(summary, default=str))


if __name__ == "__main__":
    sys.exit(main())
