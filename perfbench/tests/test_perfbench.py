"""Tests of the benchmark itself: every cross-check passes on real results
and flags a deliberately perturbed one, the tracer sees every binding,
traced counters repeat exactly, and BENCHMARK.json names what the runs
print.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import qecbatch
import run as launcher
import worker
import workloads as wl
from qecbatch import bounds, exact, meanfield, montecarlo
from qecbatch.chain import ModelParams
from tracer import TRACED, NullTrace, Tracer

CHECKOUT = launcher.CHECKOUT


@pytest.fixture
def ctx(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "work").mkdir()
    return wl.Context(trace=NullTrace(), workdir=wl.Path("work"))


# ---------------------------------------------------------------- checks


def test_curve_check():
    params = ModelParams(n=30, p=0.3, alpha=0.1, q=0.05, q_period=3)
    spec = montecarlo.TrajectoryBatch(params=params, n_traj=500, t_max=20, master_seed=5)
    est = montecarlo.run_batch(spec, 12.0)
    truth = wl.exact_tail_curve(params, 12.0, 20)
    assert wl.curve_failures(est.p_hat_by_t, truth, 500) == []
    shifted = est.p_hat_by_t.copy()
    shifted[10] += 0.05
    assert len(wl.curve_failures(shifted, truth, 500)) == 1
    early = est.p_hat_by_t.copy()
    early[0] = 1 / 500  # one trajectory above threshold where the truth is 0
    assert wl.curve_failures(early, truth, 500)
    assert wl.curve_failures(est.p_hat_by_t[:-1], truth, 500)


def test_curve_check_false_alarm_rate():
    """Correct curves drawn from the exact law are flagged about as rarely
    as the 5-sigma level promises."""
    rng = np.random.default_rng(0)
    truth = np.concatenate([[0.0, 1e-9, 1e-6, 2e-5], np.linspace(0.01, 0.99, 45), [1.0, 1.0]])
    n_traj = 2000
    alarms = sum(
        bool(wl.curve_failures(rng.binomial(n_traj, truth) / n_traj, truth, n_traj))
        for _ in range(2000)
    )
    assert alarms <= 1


def test_steady_check():
    assert wl.steady_failures(0.755, 0.2, 0.05) == []
    assert wl.steady_failures(0.75 + 0.011, 0.2, 0.05)
    assert wl.steady_failures(0.75 - 0.011, 0.2, 0.05)


def test_uniformity_check():
    spec = montecarlo.TrajectoryBatch(
        params=ModelParams(n=20, p=0.2, alpha=0.1), n_traj=100, t_max=10, master_seed=3,
        record=montecarlo.RecordMode.LOCATIONS,
    )
    result = montecarlo.uniformity_check(spec, 10)
    assert wl.uniformity_failures(result) == []
    assert wl.uniformity_failures(replace(result, pvalue=1e-7))
    assert wl.uniformity_failures(replace(result, degenerate=True))


def test_coupling_check():
    report = montecarlo.run_coupled(ModelParams(n=30, p=0.2, alpha=0.1), 0.01, 0.05, 40, 20, 7)
    assert wl.coupling_failures(report) == []
    assert wl.coupling_failures(replace(report, inclusion_violations=1))
    assert wl.coupling_failures(replace(report, count_violations=1))
    assert wl.coupling_failures(replace(report, pit_chi2_pvalue=1e-7))
    assert wl.coupling_failures(replace(report, pit_chi2_pvalue=None))


def test_exact_checks():
    n = 60
    params = ModelParams(n=n, p=wl.P, alpha=wl.ALPHA, q=0.02, q_period=wl.Q_PERIOD)
    kernel = exact.build_kernel(params)
    bound = bounds.hitting_prob_lb(n, wl.P, wl.ALPHA, wl.BETA)
    start = exact.StateDistribution.point_mass(n)
    tail = exact.tail_prob(exact.evolve(kernel, start, bound.T), n * wl.BETA)
    assert wl.tail_failures(tail, bound.value) == []
    assert wl.tail_failures(bound.value - 1e-9, bound.value)

    hitting = exact.hitting_time_distribution(kernel, n * wl.BETA, 30)
    assert wl.hitting_failures(hitting.pmf, hitting.survival) == []
    pmf = hitting.pmf.copy()
    pmf[3] += 1e-9
    assert wl.hitting_failures(pmf, hitting.survival)

    curve = exact.mean_curve(params, 5)
    means = [exact.evolve(kernel, start, t).mean() for t in range(6)]
    assert wl.mean_failures(curve, means, n) == []
    assert wl.mean_failures(curve + 2e-9 * n, means, n)

    assert wl.monotone_failures(exact.check_h_monotone(kernel, 5)) == []
    broken = exact.MonotonicityReport(m=1, tol=1e-10, violations=((3, 4),), max_decrease=1e-3)
    assert wl.monotone_failures(broken)


def _perturb_first_feasible(text: str, column: str, change) -> str:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names = lines[header].split(",")
    for i in range(header + 1, len(lines)):
        cells = lines[i].split(",")
        if cells[names.index("status")] == "ok":
            cells[names.index(column)] = change(cells[names.index(column)])
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise AssertionError("no feasible row")


def test_cli_checks(ctx):
    point = wl._CLI_POINTS[0]
    assert wl.cli_job(1, ctx, point).failures == []
    out = ctx.workdir
    text = (out / "sweep.csv").read_text()
    assert wl.sweep_failures(text, point.l, point.grid_points) == []
    off = _perturb_first_feasible(text, "n_min", lambda v: repr(float(v) * (1 + 1e-10)))
    assert len(wl.sweep_failures(off, point.l, point.grid_points)) == 1
    flipped = _perturb_first_feasible(text, "status", lambda v: "impossible")
    assert wl.sweep_failures(flipped, point.l, point.grid_points)
    assert wl.sweep_failures(text.rsplit("\n", 2)[0] + "\n", point.l, point.grid_points)

    doc = json.loads((out / "meanfield.json").read_text())
    assert wl.meanfield_failures(doc, point.p, point.alpha, point.beta) == []
    assert wl.meanfield_failures({**doc, "T": doc["T"] + 1}, point.p, point.alpha, point.beta)
    # a wrong default slack fails even when T is consistent with it
    assert wl.meanfield_failures({**doc, "delta": doc["delta"] * 0.9},
                                 point.p, point.alpha, point.beta)

    report = json.loads((out / "bounds.json").read_text())["report"]
    args = (point.l, point.p, point.alpha, point.theta)
    assert wl.bounds_failures(report, *args) == []
    for key in ("n_min", "baseline_full_parallel", "crossover_alpha", "alpha_threshold"):
        assert wl.bounds_failures({**report, key: report[key] * (1 + 1e-10)}, *args)

    surface = json.loads((out / "kappa.json").read_text())
    kargs = (point.kappa, point.t_g, point.kappa_alpha)
    assert wl.kappa_failures(surface, *kargs) == []
    assert wl.kappa_failures({**surface, "overhead": surface["overhead"] * (1 + 1e-10)}, *kargs)


def test_every_mix_entry_passes(ctx):
    for name, mix in wl.MIXES.items():
        for label, job in dict(mix).items():
            outcome = job(worker.job_seed(1, 0), ctx)
            assert outcome.failures == [], (name, label, outcome.failures)


# --------------------------------------------------------------- tracing


def test_tracer_patches_every_binding_and_restores_them():
    original = meanfield.epochs_to_cross
    tracer = Tracer()
    tracer.install()
    try:
        for module in (meanfield, bounds, qecbatch):
            assert module.epochs_to_cross.__wrapped__ is original
        assert qecbatch.run_batch is montecarlo.run_batch
        spec = montecarlo.TrajectoryBatch(ModelParams(n=20, p=0.2, alpha=0.1), 10, 5, 1)
        with tracer.span("job"):
            montecarlo.run_batch(spec, 5.0)
            with tracer.span("bench.check"):
                bounds.overhead_bound(100, 0.2, 0.15, 0.05)
    finally:
        tracer.uninstall()
    assert meanfield.epochs_to_cross is original and bounds.epochs_to_cross is original
    agg = tracer.aggregates
    assert agg[("chain.step_count", "montecarlo.run_batch", False)][0] == 50
    assert agg[("montecarlo.trajectory_rng", "montecarlo.run_batch", False)][0] == 10
    assert agg[("meanfield.epochs_to_cross", "bounds.overhead_bound", True)][0] == 1
    totals = tracer.layer_totals()
    assert "bounds.overhead_bound" not in totals  # made inside bench.check
    calls, busy, self_time = totals["montecarlo.run_batch"]
    assert calls == 1 and 0.0 < self_time < busy
    assert tracer.counters["montecarlo.traj_epochs"] == 50
    assert {s["name"] for s in tracer.spans} == {
        "job", "bench.check", "montecarlo.run_batch", "bounds.overhead_bound"}


def _traced_cycle_counts(workload: str, seed: int, ctx) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        mix = wl.MIXES[workload]
        traced_ctx = wl.Context(trace=tracer, workdir=ctx.workdir)
        records, _ = worker.run_cycles(mix, seed, 0.0, traced_ctx, 0, len(mix))
    finally:
        tracer.uninstall()
    assert all(not r["failures"] for r in records)
    metrics = worker.layer_metrics(tracer, len(records))
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", list(wl.MIXES))
def test_counters_repeat_exactly(workload, ctx):
    first = _traced_cycle_counts(workload, 1, ctx)
    assert _traced_cycle_counts(workload, 1, ctx) == first
    assert _traced_cycle_counts(workload, 2, ctx) == first
    assert any(first[k] for k in ("montecarlo.traj_epochs", "montecarlo.pair_epochs",
                                  "exact.kernel_bytes", "cli.grid_points"))


# ------------------------------------------------------------ the contract


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    reasoning = json.loads((launcher.BENCH_DIR / "reasoning.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(launcher.WORKLOADS) == list(wl.MIXES)
    assert set(reasoning["workloads"]) == set(wl.MIXES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == launcher.END_TO_END_UNITS
    layers = worker.layer_metrics(Tracer(), 1)
    layers.update({k: 0.0 for k in ("bench.job_s_p50.untraced", "bench.job_s_p50.traced",
                                    "bench.trace_overhead_s")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: launcher.layer_unit(name) for name in layers}
    for fn in TRACED:
        assert f"{fn}.busy_s" in layers and f"{fn}.self_s" in layers


def test_timing_scales_jobs_by_the_reference():
    labels = ["a", "b", "a", "c"]
    jobs = {"a": [(0.3, 3.0), (0.1, 1.0), (0.4, 1.0)], "b": [(0.5, 1.0), (0.4, 2.0)],
            "c": [(2.0, 2.0)]}
    records = [{"label": label, "job_s": job_s, "ref_s": ref_s * worker.REFERENCE_NOMINAL_S}
               for label, runs in jobs.items() for job_s, ref_s in runs]
    timing = worker.timing_metrics(records, labels)
    assert timing["kind_job_s"] == pytest.approx({"a": 0.1, "b": 0.35, "c": 1.0})
    cycle = [0.1, 0.35, 0.1, 1.0]
    assert timing["jobs_per_s"] == pytest.approx(4 / sum(cycle))
    assert timing["job_s_p50"] == pytest.approx(np.percentile(cycle, 50))
    assert timing["job_s_tail"] == pytest.approx(np.percentile(cycle, 75))
    assert timing["host_speed"] == pytest.approx(1 / 1.5)
    assert timing["wall"]["jobs_per_s"] == pytest.approx(6 / 3.7)
    # a host twice as slow doubles job and reference times alike
    slowed = [{**r, "job_s": 2 * r["job_s"], "ref_s": 2 * r["ref_s"]} for r in records]
    again = worker.timing_metrics(slowed, labels)
    for key in ("jobs_per_s", "job_s_p50", "job_s_tail"):
        assert again[key] == pytest.approx(timing[key])


def test_reference_takes_its_nominal_time_roughly():
    assert 0.2 < worker.reference_s() / worker.REFERENCE_NOMINAL_S < 5


def test_job_seeds():
    seeds = {worker.job_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000 and max(seeds) < 2**63
    assert worker.job_seed(7, 3) == worker.job_seed(7, 3) != worker.job_seed(8, 3)


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(launcher.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_counts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
