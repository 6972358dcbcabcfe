"""Acceptance suite: nine end-to-end criteria with one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
without -s pytest still shows them for any failing criterion. Every
stochastic criterion runs under a frozen master seed, so the whole suite
is deterministic.
"""

import json

import numpy as np
import pytest

from qecbatch.chain import ModelParams
from qecbatch.checks import (
    closed_form_vs_recursion,
    crossing_formula_vs_iteration,
    exact_tail_dominates_bound,
    oracle_vs_monte_carlo,
)
from qecbatch.cli import main
from qecbatch.exact import (
    StateDistribution,
    build_kernel,
    check_h_monotone,
    evolve,
    hitting_time_distribution,
    tail_prob,
)
from qecbatch.meanfield import epochs_to_cross
from qecbatch.montecarlo import (
    RecordMode,
    TrajectoryBatch,
    chi_square_uniformity,
    run_batch,
    run_coupled,
    steady_fraction,
    trajectory_rng,
    uniformity_check,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_tail_dominates_bound():
    """The closed-form lower bound on P[X_T > n*beta] must never exceed the
    exact tail, across a 240-point parameter grid."""
    ok, detail = exact_tail_dominates_bound(
        ns=(50, 100, 300, 1000), ps=(0.1, 0.2, 0.3, 0.5), alpha_fracs=(0.25, 0.5, 0.75),
        beta_fracs=(0.2, 0.25, 0.5, 0.75, 0.9), tol=1e-12,
    )
    report(1, ok, detail)


def test_criterion_2_steady_fraction():
    """Monte Carlo long-run error fraction lands on (p - alpha)/p within
    0.01 for a large memory."""
    cases = [(0.2, 0.1), (0.3, 0.15), (0.5, 0.1)]
    worst = 0.0
    for p, alpha in cases:
        spec = TrajectoryBatch(
            params=ModelParams(n=100_000, p=p, alpha=alpha),
            n_traj=1000, t_max=200, master_seed=202,
        )
        result = steady_fraction(spec)
        target = (p - alpha) / p
        worst = max(worst, abs(result.mean_fraction - target))
    report(2, worst <= 0.01, f"max |fraction - target| = {worst:.5f} over {len(cases)} cases")


def test_criterion_3_median_hitting_time_is_size_free():
    """The median epoch for crossing half the memory's steady headroom must
    not move with n, and stays within the mean-field crossing count."""
    p, alpha, beta = 0.2, 0.05, 0.5
    T = epochs_to_cross(p, alpha, beta).T
    medians = {}
    for n in (1000, 10_000, 100_000):
        spec = TrajectoryBatch(
            params=ModelParams(n=n, p=p, alpha=alpha),
            n_traj=1000, t_max=20, master_seed=203,
        )
        medians[n] = run_batch(spec, n * beta).median_tau()
    kernel = build_kernel(ModelParams(n=1000, p=p, alpha=alpha))
    exact_median = hitting_time_distribution(kernel, 1000 * beta, 20).median()
    spread = max(medians.values()) - min(medians.values())
    ok = (
        spread <= 1.0
        and all(m <= T for m in medians.values())
        and abs(medians[1000] - exact_median) <= 1.0
    )
    report(3, ok, f"medians {medians}, exact(n=1000) {exact_median}, T={T}")


def test_criterion_4_monotonicity():
    """Reach probabilities are monotone in the start state for every kernel
    on the sweep, and exceedance curves never dip as t grows."""
    kernel_violations = 0
    kernels = 0
    for n in range(1, 101):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for fa in (0.0, 0.25, 0.5):
                kernel = build_kernel(ModelParams(n=n, p=p, alpha=fa * p))
                kernels += 1
                for m in (1, 2, 5):
                    if not check_h_monotone(kernel, m).ok:
                        kernel_violations += 1
    curve_violations = 0
    for p, alpha in ((0.2, 0.1), (0.5, 0.25)):
        kernel = build_kernel(ModelParams(n=100, p=p, alpha=alpha))
        threshold = 100 * 0.5 * (p - alpha) / p
        dist = StateDistribution.point_mass(100)
        last = tail_prob(dist, threshold)
        for _ in range(100):
            dist = evolve(kernel, dist, 1)
            now = tail_prob(dist, threshold)
            if now < last - 1e-10:
                curve_violations += 1
            last = now
    ok = kernel_violations == 0 and curve_violations == 0
    report(4, ok, f"{kernels} kernels x 3 horizons, {kernel_violations} kernel and "
                  f"{curve_violations} curve violations")


def test_criterion_5_monte_carlo_tracks_exact_curve():
    """With 1e5 trajectories the empirical exceedance curve must sit within
    three exact standard errors of the exact curve at every epoch."""
    ok, detail = oracle_vs_monte_carlo(
        ModelParams(n=100, p=0.2, alpha=0.05), beta=0.5, t_max=50, n_traj=100_000,
        seed=208, z=3.0, miss_frac=0.01,
    )
    report(5, ok, detail)


def test_criterion_6_coupled_dominance():
    """Under shared randomness the lower static rate's error set stays inside
    the higher one's on every epoch of every path, while its static-phase
    injections keep the exact Binomial(n - x, q_low) marginal."""
    params = ModelParams(n=100, p=0.2, alpha=0.1)
    rep = run_coupled(
        params, q_low=0.01, q_high=0.05, n_traj=10_000, t_max=50, master_seed=206
    )
    ok = (
        rep.inclusion_violations == 0
        and rep.count_violations == 0
        and rep.pit_chi2_pvalue is not None
        and rep.pit_chi2_pvalue >= 1e-3
    )
    report(6, ok, f"inclusion {rep.inclusion_fraction:.6%} of {rep.pairs_checked} pairs, "
                  f"PIT chi-square p = {rep.pit_chi2_pvalue:.4f}")


def test_criterion_7_closed_form_vs_iteration():
    """The closed-form iterate must match explicit recursion to 1e-9 * n on
    1000 random parameter draws, and the crossing-epoch formula must equal
    step-by-step iteration over a 20^3 grid."""
    draws_ok, draws = closed_form_vs_recursion(seed=207, draws=1000, k_max=500, tol=1e-9)
    grid_ok, grid = crossing_formula_vs_iteration(
        np.linspace(0.05, 0.95, 20), max_epochs=200_000
    )
    report(7, draws_ok and grid_ok, f"{draws}; {grid}")


def run_bounds_json(tmp_path, name, args):
    out = tmp_path / f"{name}.json"
    code = main(["bounds", *args, "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())["report"]


def test_criterion_8_bound_fixtures_via_cli(tmp_path):
    """The bounds command must reproduce hand-computed threshold, baseline
    and crossover values exactly."""
    checks = []

    for p in (0.1, 0.2, 0.5):
        rep = run_bounds_json(tmp_path, f"era{p}", [
            "--l", "100", "--p", str(p), "--alpha", str(0.6 * p), "--theta", "0.1"])
        checks.append(("alpha thr erasure", rep["alpha_threshold"], p / 2.0))
        dep = run_bounds_json(tmp_path, f"dep{p}", [
            "--l", "100", "--p", str(p), "--alpha", str(0.8 * p), "--theta", "0.05",
            "--noise", "depolarizing"])
        checks.append(("alpha thr depolarizing", dep["alpha_threshold"], 2.0 * p / 3.0))

    for alpha in (0.02, 0.1, 0.2):
        p = 2.5 * alpha
        rep = run_bounds_json(tmp_path, f"noise{alpha}", [
            "--l", "100", "--p", str(p), "--alpha", str(alpha), "--theta", "0.01"])
        checks.append(("noise thr erasure", rep["noise_threshold"], 2.0 * alpha))
        dep = run_bounds_json(tmp_path, f"noisedep{alpha}", [
            "--l", "100", "--p", str(p), "--alpha", str(alpha), "--theta", "0.01",
            "--noise", "depolarizing"])
        checks.append(("noise thr depolarizing", dep["noise_threshold"], 1.5 * alpha))

    # effective idle rate of one half: the reference memory has no finite size
    rep = run_bounds_json(tmp_path, "cap0", [
        "--l", "100", "--p", "0.5", "--alpha", "0.3", "--theta", "0.1"])
    baseline = rep["baseline_full_parallel"]
    checks.append(("baseline impossible flag", float(baseline["impossible"]), 1.0))
    checks.append(("baseline threshold", baseline["threshold_value"], 0.5))

    rep = run_bounds_json(tmp_path, "base1", [
        "--l", "1000", "--p", "0.2", "--alpha", "0.15", "--theta", "0.05"])
    checks.append(("baseline l/(1-2p)", rep["baseline_full_parallel"], 1666.6666666666667))
    checks.append(("crossover p(1-p)", rep["crossover_alpha"], 0.16))

    rep = run_bounds_json(tmp_path, "base2", [
        "--l", "100", "--p", "0.1", "--q", "0.05", "--alpha", "0.08", "--theta", "0.05"])
    checks.append(("baseline with q", rep["baseline_full_parallel"], 140.84507042253523))

    rep = run_bounds_json(tmp_path, "cross2", [
        "--l", "100", "--p", "0.1", "--q", "0.1", "--alpha", "0.06", "--theta", "0.1"])
    checks.append(("crossover with q", rep["crossover_alpha"], 0.081))
    rep = run_bounds_json(tmp_path, "cross3", [
        "--l", "100", "--p", "0.3", "--q", "0.05", "--alpha", "0.2", "--theta", "0.1"])
    checks.append(("crossover p=0.3 q=0.05", rep["crossover_alpha"], 0.1995))

    bad = [(name, got, want) for name, got, want in checks
           if got != pytest.approx(want, rel=1e-12)]
    report(8, not bad, f"{len(checks)} fixtures checked, {len(bad)} off: {bad}")


def test_criterion_9_uniform_error_locations():
    """Accumulated error locations must be uniform across qubits under the
    uniform correction rule, and a lowest-index-first rule must be caught."""
    params = ModelParams(n=50, p=0.2, alpha=0.05)
    spec = TrajectoryBatch(
        params=params, n_traj=10_000, t_max=30, master_seed=209,
        record=RecordMode.LOCATIONS,
    )
    fair = uniformity_check(spec, 30)

    # deliberately biased correction: always repair the lowest indices
    n, k, n_traj = params.n, params.k_batch, 2000
    counts = np.zeros(n, dtype=np.int64)
    errors = np.zeros(n_traj, dtype=np.int64)
    for i in range(n_traj):
        rng = trajectory_rng(209, i)
        mask = np.zeros(n, dtype=bool)
        for _ in range(30):
            healthy = np.flatnonzero(~mask)
            hits = rng.binomial(healthy.size, params.p)
            if hits:
                mask[rng.choice(healthy, size=hits, replace=False)] = True
            bad = np.flatnonzero(mask)
            mask[bad[:k]] = False
        counts += mask
        errors[i] = mask.sum()
    biased = chi_square_uniformity(counts, errors)

    ok = (
        not fair.degenerate
        and fair.pvalue >= 1e-3
        and biased.pvalue < 1e-3
    )
    report(9, ok, f"fair p = {fair.pvalue:.4f}, biased p = {biased.pvalue:.2e}")
