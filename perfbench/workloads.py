"""The four benchmark workloads: their job mixes, the jobs and their checks.

A job is one cross-checked answer. It calls into the qecbatch layers for
the answer, then checks it against an independent angle inside a
`bench.check` span, so that oracle and checking time is kept apart from
the layer it checks. Every check is a pure function that returns a list
of failure messages (empty means passed); the tests hand each one a
deliberately perturbed result.

Layer functions are always reached through their module attribute
(`exact.evolve`, never a name imported from the module), so the tracer's
patches see every call the benchmark makes.

Each workload cycles through a fixed mix of parameter points. Work per
job depends only on the mix entry, never on the seed, which is what makes
the traced counters repeat exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import binom, norm

from qecbatch import bounds, cli, exact, montecarlo
from qecbatch.chain import ModelParams

# Two-sided normal tail beyond 5 standard errors, 5.7e-7. Each epoch of a
# Monte Carlo exceedance curve gets an exact binomial test at this level,
# which stays calibrated where the curve is near 0 or 1 and the normal
# approximation is not; by the union bound a correct 51-epoch curve is
# flagged with probability at most 51 * 5.7e-7 = 2.9e-5.
FIVE_SIGMA = float(2.0 * norm.sf(5.0))
PVALUE_FLOOR = 1e-6
STEADY_TOL = 0.01
MASS_TOL = 1e-12
MEAN_TOL = 1e-9  # times n
CLI_REL_TOL = 1e-12

# Shared model point of the Monte Carlo count and exact workloads.
P, ALPHA, BETA = 0.2, 0.05, 0.5
Q_PERIOD = 5


@dataclass
class Outcome:
    """What one job reports: failed checks and the p-values it saw."""

    failures: list[str]
    pvalues: dict[str, float | None] = field(default_factory=dict)


@dataclass
class Context:
    """What a job may use besides its seed: the tracer and a scratch dir."""

    trace: object
    workdir: Path


# --------------------------------------------------------------- checks


def curve_failures(p_hat, truth, n_traj: int) -> list[str]:
    """Monte Carlo exceedance curve against the exact tail curve."""
    p_hat = np.asarray(p_hat, dtype=float)
    truth = np.clip(np.asarray(truth, dtype=float), 0.0, 1.0)
    if p_hat.shape != truth.shape:
        return [f"curve has {p_hat.size} epochs, exact oracle {truth.size}"]
    k = np.rint(p_hat * n_traj).astype(np.int64)
    below = binom.cdf(k, n_traj, truth)
    above = binom.sf(k - 1, n_traj, truth)
    bad = np.flatnonzero(np.minimum(below, above) < FIVE_SIGMA / 2.0)
    return [
        f"epoch {t}: p_hat {p_hat[t]:.6g} vs exact {truth[t]:.6g} beyond 5 sigma"
        for t in bad
    ]


def steady_failures(fraction: float, p: float, alpha: float) -> list[str]:
    target = (p - alpha) / p
    if abs(fraction - target) > STEADY_TOL:
        return [f"steady fraction {fraction:.6g} vs fixed point {target:.6g}"]
    return []


def pvalue_failures(name: str, pvalue: float | None) -> list[str]:
    if pvalue is None or not pvalue > PVALUE_FLOOR:
        return [f"{name} p-value {pvalue} not above {PVALUE_FLOOR:g}"]
    return []


def uniformity_failures(result: montecarlo.UniformityResult) -> list[str]:
    failures = pvalue_failures("chi-square uniformity", result.pvalue)
    if result.degenerate:
        failures.append("uniformity test saw no information (degenerate counts)")
    return failures


def coupling_failures(report: montecarlo.CouplingReport) -> list[str]:
    failures = pvalue_failures("coupled PIT chi-square", report.pit_chi2_pvalue)
    if report.inclusion_violations:
        failures.append(f"{report.inclusion_violations} error-set inclusion violations")
    if report.count_violations:
        failures.append(f"{report.count_violations} error-count violations")
    return failures


def tail_failures(tail: float, bound: float) -> list[str]:
    if tail < bound - MASS_TOL:
        return [f"exact tail {tail:.6g} below hitting_prob_lb {bound:.6g}"]
    return []


def hitting_failures(pmf, survival: float) -> list[str]:
    total = float(np.sum(pmf)) + survival
    if abs(total - 1.0) > MASS_TOL:
        return [f"hitting pmf plus survival is {total!r}, not 1"]
    return []


def mean_failures(curve, evolve_means, n: int) -> list[str]:
    gap = float(np.max(np.abs(np.asarray(curve) - np.asarray(evolve_means))))
    if not gap <= MEAN_TOL * n:
        return [f"mean_curve is {gap:.3g} from the evolve means (limit {MEAN_TOL * n:.3g})"]
    return []


def monotone_failures(report: exact.MonotonicityReport) -> list[str]:
    if report.violations:
        return [f"{len(report.violations)} tail monotonicity violations"]
    return []


def _rel_off(name: str, got, want: float) -> list[str]:
    if got is None or not abs(float(got) - want) <= CLI_REL_TOL * abs(want):
        return [f"{name}: got {got!r}, want {want!r}"]
    return []


def sweep_failures(text: str, l: int, expected_rows: int) -> list[str]:
    """Every sweep row is classified consistently, and every feasible row
    matches the erasure closed form l*p / (2*alpha - p + 2*p*theta)."""
    rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    failures = []
    if len(rows) != expected_rows:
        failures.append(f"sweep wrote {len(rows)} rows, want {expected_rows}")
    feasible = 0
    for i, row in enumerate(rows):
        p, alpha, theta = float(row["p"]), float(row["alpha"]), float(row["theta"])
        in_domain = alpha < p and 0.0 < theta < (p - alpha) / p
        want = ("ok" if alpha >= p / 2.0 else "impossible") if in_domain else "out-of-domain"
        if row["status"] != want:
            failures.append(f"row {i}: status {row['status']}, want {want}")
        elif want == "ok":
            feasible += 1
            failures += _rel_off(
                f"row {i} n_min", float(row["n_min"]),
                l * p / (2.0 * alpha - p + 2.0 * p * theta),
            )
    if not feasible:
        failures.append("sweep has no feasible row to check")
    return failures


def meanfield_failures(doc: dict, p: float, alpha: float, beta: float) -> list[str]:
    """Crossing epoch against explicit iteration of the recursion, at the
    default slack delta = (p - alpha/(1 - beta)) / 2 (the job passes no
    --delta), computed here rather than read from the output."""
    x, delta, crossed = 0.0, 0.5 * (p - alpha / (1.0 - beta)), None
    failures = _rel_off("delta", doc["delta"], delta)
    for k in range(1, 200_000):
        x = x + (1.0 - x) * (p - delta) - alpha
        if x > beta:
            crossed = k
            break
    if crossed != doc["T"]:
        failures.append(f"meanfield T={doc['T']}, iteration {crossed}")
    return failures + _rel_off("steady_fraction", doc["steady_fraction"], (p - alpha) / p)


def bounds_failures(report: dict, l: int, p: float, alpha: float, theta: float) -> list[str]:
    return (
        _rel_off("alpha_threshold", report["alpha_threshold"], p / 2.0)
        + _rel_off("noise_threshold", report["noise_threshold"], 2.0 * alpha)
        + _rel_off("crossover_alpha", report["crossover_alpha"], p * (1.0 - p))
        + _rel_off("baseline_full_parallel", report["baseline_full_parallel"], l / (1.0 - 2.0 * p))
        + _rel_off("n_min", report["n_min"], l * p / (2.0 * alpha - p + 2.0 * p * theta))
    )


def kappa_failures(doc: dict, kappa: float, t_g: float, alpha: float) -> list[str]:
    p = -math.expm1(-kappa * t_g)
    return _rel_off("kappa p", doc["p"], p) + _rel_off("kappa overhead", doc["overhead"], p / (2.0 * alpha - p))


# ----------------------------------------------------------------- jobs


def exact_tail_curve(params: ModelParams, threshold: float, t_max: int) -> np.ndarray:
    """Exact P[X_t > threshold] for t = 0..t_max, the Monte Carlo oracle."""
    kernel = exact.build_kernel(params)
    dist = exact.StateDistribution.point_mass(params.n)
    curve = [exact.tail_prob(dist, threshold)]
    for _ in range(t_max):
        dist = exact.evolve(kernel, dist, 1)
        curve.append(exact.tail_prob(dist, threshold))
    return np.array(curve)


def curve_job(seed: int, ctx: Context, q: float) -> Outcome:
    params = ModelParams(n=100, p=P, alpha=ALPHA, q=q, q_period=Q_PERIOD)
    spec = montecarlo.TrajectoryBatch(params=params, n_traj=2000, t_max=50, master_seed=seed)
    threshold = params.n * BETA
    est = montecarlo.run_batch(spec, threshold)
    with ctx.trace.span("bench.check"):
        truth = exact_tail_curve(params, threshold, spec.t_max)
        return Outcome(curve_failures(est.p_hat_by_t, truth, spec.n_traj))


def steady_job(seed: int, ctx: Context) -> Outcome:
    params = ModelParams(n=100_000, p=P, alpha=ALPHA)
    spec = montecarlo.TrajectoryBatch(params=params, n_traj=200, t_max=200, master_seed=seed)
    result = montecarlo.steady_fraction(spec)
    with ctx.trace.span("bench.check"):
        return Outcome(steady_failures(result.mean_fraction, P, ALPHA))


def uniformity_job(seed: int, ctx: Context, q: float) -> Outcome:
    params = ModelParams(n=50, p=P, alpha=ALPHA, q=q, q_period=Q_PERIOD)
    spec = montecarlo.TrajectoryBatch(
        params=params, n_traj=300, t_max=30, master_seed=seed,
        record=montecarlo.RecordMode.LOCATIONS,
    )
    result = montecarlo.uniformity_check(spec, 30)
    with ctx.trace.span("bench.check"):
        return Outcome(uniformity_failures(result), {"chi_square_p": result.pvalue})


def coupled_job(seed: int, ctx: Context) -> Outcome:
    params = ModelParams(n=100, p=P, alpha=0.1)
    report = montecarlo.run_coupled(
        params, q_low=0.01, q_high=0.05, n_traj=150, t_max=50, master_seed=seed
    )
    with ctx.trace.span("bench.check"):
        return Outcome(coupling_failures(report), {"pit_p": report.pit_chi2_pvalue})


def oracle_job(seed: int, ctx: Context, n: int, q: float) -> Outcome:
    """Dense-kernel work; deterministic, so the seed goes unused."""
    params = ModelParams(n=n, p=P, alpha=ALPHA, q=q, q_period=Q_PERIOD)
    kernel = exact.build_kernel(params)
    bound = bounds.hitting_prob_lb(n, P, ALPHA, BETA)
    start = exact.StateDistribution.point_mass(n)
    at_bound = exact.evolve(kernel, start, bound.T)
    hitting = exact.hitting_time_distribution(kernel, n * BETA, 60)
    curve = exact.mean_curve(params, 5)
    means, dist = [start.mean()], start
    for _ in range(5):
        dist = exact.evolve(kernel, dist, 1)
        means.append(dist.mean())
    mono = exact.check_h_monotone(exact.build_kernel(replace(params, n=100)), 5)
    with ctx.trace.span("bench.check"):
        return Outcome(
            tail_failures(exact.tail_prob(at_bound, n * BETA), bound.value)
            + hitting_failures(hitting.pmf, hitting.survival)
            + mean_failures(curve, means, n)
            + monotone_failures(mono)
        )


@dataclass(frozen=True)
class CliPoint:
    """One CLI parameter point: the bounds base point, the sweep grid,
    a meanfield target and a device for the kappa surface."""

    l: int
    p: float
    alpha: float
    theta: float
    grid: tuple[str, str, str]
    beta: float
    kappa: float
    t_g: float
    kappa_alpha: float

    @property
    def grid_points(self) -> int:
        return math.prod(int(axis.rsplit(":", 1)[1]) for axis in self.grid)


def _cli(argv: list[str]) -> list[str]:
    code = cli.main(argv)
    return [] if code == 0 else [f"qecbatch {argv[0]} exited {code}"]


def cli_job(seed: int, ctx: Context, point: CliPoint) -> Outcome:
    """Deterministic closed-form work; the seed goes unused."""
    out = ctx.workdir
    base = ["--l", str(point.l), "--p", str(point.p), "--alpha", str(point.alpha),
            "--theta", str(point.theta)]
    grid = [token for axis in point.grid for token in ("--grid", axis)]
    failures: list[str] = []
    with contextlib.redirect_stdout(io.StringIO()):
        failures += _cli(["sweep", *base, *grid, "--out", str(out / "sweep.csv")])
        failures += _cli(["meanfield", "--p", str(point.p), "--alpha", str(point.alpha),
                          "--beta", str(point.beta), "--out", str(out / "meanfield.json")])
        failures += _cli(["bounds", *base, "--out", str(out / "bounds.json")])
        failures += _cli(["bounds", "--kappa", str(point.kappa), "--t-g", str(point.t_g),
                          "--alpha", str(point.kappa_alpha), "--out", str(out / "kappa.json")])
    with ctx.trace.span("bench.check"):
        if failures:
            return Outcome(failures)
        return Outcome(
            sweep_failures((out / "sweep.csv").read_text(), point.l, point.grid_points)
            + meanfield_failures(json.loads((out / "meanfield.json").read_text()),
                                 point.p, point.alpha, point.beta)
            + bounds_failures(json.loads((out / "bounds.json").read_text())["report"],
                              point.l, point.p, point.alpha, point.theta)
            + kappa_failures(json.loads((out / "kappa.json").read_text()),
                             point.kappa, point.t_g, point.kappa_alpha)
        )


# ---------------------------------------------------------------- mixes

Job = Callable[[int, Context], Outcome]

_CLI_POINTS = (
    CliPoint(100, 0.2, 0.15, 0.05, ("p:0.05:0.5:20", "alpha:0.02:0.45:20", "theta:0.01:0.3:20"),
             0.125, 1000.0, 1e-4, 0.08),
    CliPoint(1000, 0.3, 0.2, 0.1, ("p:0.1:0.6:20", "alpha:0.05:0.55:20", "theta:0.01:0.2:20"),
             0.2, 500.0, 2e-4, 0.1),
    CliPoint(50, 0.1, 0.08, 0.05, ("p:0.02:0.3:20", "alpha:0.01:0.29:20", "theta:0.02:0.4:20"),
             0.1, 2000.0, 5e-5, 0.06),
)

# (label, job) in cycle order. A label that appears twice is one job kind
# given twice the weight.
MIXES: dict[str, tuple[tuple[str, Job], ...]] = {
    # The count path: chain.step_count, chain.inject_count and
    # montecarlo.trajectory_rng, whose cost does not depend on n. The q=0.02
    # entry makes inject_count run; exact only serves as the curves' oracle.
    "mc_counts": (
        ("run_batch q=0", partial(curve_job, q=0.0)),
        ("steady_fraction", steady_job),
        ("run_batch q=0.02", partial(curve_job, q=0.02)),
        ("steady_fraction", steady_job),
    ),
    # The location and per-qubit mask paths (chain.step,
    # chain.inject_static_noise, _correct_coupled), whose cost grows with n.
    "mc_locations": (
        ("uniformity q=0.02", partial(uniformity_job, q=0.02)),
        ("run_coupled", coupled_job),
        ("uniformity q=0", partial(uniformity_job, q=0.0)),
        ("run_coupled", coupled_job),
    ),
    "exact_oracle": (
        ("n=500 q=0", partial(oracle_job, n=500, q=0.0)),
        ("n=500 q=0.02", partial(oracle_job, n=500, q=0.02)),
        ("n=1000 q=0.02", partial(oracle_job, n=1000, q=0.02)),
        ("n=4000 q=0", partial(oracle_job, n=4000, q=0.0)),
    ),
    "cli_sweep": tuple(
        (f"cli l={point.l}", partial(cli_job, point=point)) for point in _CLI_POINTS
    ),
}
