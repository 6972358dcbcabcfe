"""Cross-checks between the exact, Monte Carlo, mean-field and closed-form
answers, each returning (ok, one-line detail), and CHECKS, the one table
of them: a row per acceptance criterion except 8 (bounds fixtures run
through the command line), with arguments at two sizes. `qecbatch
verify` runs every row at verify size under its master seed, in
seconds; tests/test_acceptance.py runs them at acceptance size.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.stats import binom, norm

from .bounds import hitting_prob_lb
from .chain import ModelParams, correct
from .exact import (EXACT_N_CAP, StateDistribution, build_kernel, check_h_monotone, epochs,
                    evolve, hitting_time_distribution, tail_prob)
from .meanfield import epochs_to_cross, iterate_recursion, mf_iterate
from .montecarlo import (RecordMode, TrajectoryBatch, chi_square_uniformity, run_batch,
                         run_coupled, steady_fraction, trajectory_rng, uniformity_check)

__all__ = ["Check", "CHECKS", "binomial_misses", "closed_forms_vs_iteration",
           "crossing_formula_vs_iteration", "exact_tail_dominates_bound", "oracle_vs_monte_carlo"]


def binomial_misses(counts: np.ndarray, n_traj: int, truth: np.ndarray, z: float) -> int:
    """How many of the trajectory counts fail a two-sided exact binomial
    test against the exact probability of their event, at level 2 Phi(-z),
    the level of a z-sigma normal test.

    A normal test is wrong for a probability within a few 1/n_traj of 0 or
    1, where it scores one straggling trajectory as many sigma. The truth
    is clipped to [0, 1], as exact probabilities can sit an ulp outside.
    A z that is NaN, infinite or at most 0 is refused: no tail would fall
    below its level, or almost every one would.
    """
    if not 0.0 < z < math.inf:  # NaN fails too
        raise ValueError(f"z must be finite and > 0, got {z}")
    truth = np.clip(truth, 0.0, 1.0)
    tail = np.minimum(binom.cdf(counts, n_traj, truth), binom.sf(counts - 1, n_traj, truth))
    return int(np.count_nonzero(tail < norm.sf(z)))


def closed_forms_vs_iteration(
    seed: int, draws: int, k_max: int, tol: float, fractions: Sequence[float], max_epochs: int,
) -> tuple[bool, str]:
    """Closed-form iterate against the recursion, on random p, alpha <= 0.9 p,
    delta <= 0.95 (p - alpha), k < k_max and n in {1, 10^4}: the largest gap
    over n must be at most tol; crossing_formula_vs_iteration must hold too."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(draws):
        p = float(rng.uniform(0.02, 0.98))
        alpha = float(rng.uniform(0.0, 0.9)) * p
        delta = float(rng.uniform(0.0, 0.95)) * (p - alpha)
        k = int(rng.integers(0, k_max))
        n = float(rng.choice([1.0, 10_000.0]))
        points.append((n, p, alpha, delta, k))
    n, p, alpha, delta, k = np.array(points, dtype=float).reshape(draws, 5).T
    looped = np.array([iterate_recursion(*point) for point in points])
    gaps = np.abs(mf_iterate(n, p, alpha, delta, k) - looped) / n
    worst = float(gaps.max(initial=0.0))
    grid_ok, grid = crossing_formula_vs_iteration(fractions, max_epochs)
    return worst <= tol and grid_ok, (
        f"max |closed - recursion| / n = {worst:.3g} over {draws} draws; {grid}")


def crossing_formula_vs_iteration(
    fractions: Sequence[float], max_epochs: int
) -> tuple[bool, str]:
    """Crossing-epoch formula against explicit iteration (up to max_epochs)
    on the grid p, alpha / p, beta p / (p - alpha) each over `fractions`."""
    p, fa, fb = (g.ravel() for g in np.meshgrid(fractions, fractions, fractions, indexing="ij"))
    alpha = fa * p
    beta = fb * (p - alpha) / p
    crossing = epochs_to_cross(p, alpha, beta)
    iterated = [_iterated_crossing(*point, max_epochs) for point in zip(
        p.tolist(), alpha.tolist(), beta.tolist(), crossing.delta.tolist())]
    mismatches = sum(k != T for k, T in zip(iterated, crossing.T.tolist()))
    return mismatches == 0, f"{p.size} grid points, {mismatches} mismatches"


def _iterated_crossing(p: float, alpha: float, beta: float, delta: float,
                       max_epochs: int) -> int | None:
    """First k < max_epochs where k steps of g (n = 1) exceed beta, if any."""
    x = 0.0
    for k in range(1, max_epochs):
        x = x + (1.0 - x) * (p - delta) - alpha
        if x > beta:
            return k
    return None


def exact_tail_dominates_bound(
    ns: Sequence[int], ps: Sequence[float], alpha_fracs: Sequence[float],
    beta_fracs: Sequence[float], tol: float,
) -> tuple[bool, str]:
    """Exact P[X_T > n beta] against hitting_prob_lb, with alpha = fa p and
    beta = fb (p - alpha) / p; a point below bound - tol is a violation."""
    violations = 0
    checked = 0
    for p in ps:
        for fa in alpha_fracs:
            alpha = fa * p
            for n in ns:
                kernel = build_kernel(ModelParams(n=n, p=p, alpha=alpha))
                for fb in beta_fracs:
                    beta = fb * (p - alpha) / p
                    bound = hitting_prob_lb(n, p, alpha, beta)
                    dist = evolve(kernel, StateDistribution.point_mass(n), bound.T)
                    checked += 1
                    if tail_prob(dist, n * beta) < bound.value - tol:
                        violations += 1
    return violations == 0, f"{checked} grid points, {violations} bound violations"


def steady_fraction_matches_fixed_point(
    cases: Sequence[tuple[float, float]], n: int, n_traj: int, t_max: int, seed: int,
    tol: float,
) -> tuple[bool, str]:
    """Monte Carlo long-run error fraction of an n-qubit memory against the
    fixed point (p - alpha) / p, for each (p, alpha) in cases: the largest
    gap must be at most tol."""
    worst = max(abs(steady_fraction(TrajectoryBatch(
        params=ModelParams(n=n, p=p, alpha=alpha), n_traj=n_traj, t_max=t_max,
        master_seed=seed)).mean_fraction - (p - alpha) / p) for p, alpha in cases)
    return worst <= tol, f"max |fraction - target| = {worst:.5f} over {len(cases)} cases"


def median_hitting_time_is_size_free(
    p: float, alpha: float, beta: float, ns: Sequence[int], n_traj: int, t_max: int, seed: int,
    z: float,
) -> tuple[bool, str]:
    """Monte Carlo epoch tau at which X_t first exceeds n beta, for each n in
    ns: the medians may spread by at most one epoch, none may exceed the
    mean-field crossing epoch T, and the one at ns[0] must lie within one
    epoch of the exact median there. At ns[0] and every other n up to
    EXACT_N_CAP, the number of trajectories with tau = t must pass
    binomial_misses against the exact hitting pmf at every t <= t_max.

    The medians alone cannot see a defect that moves tau by one epoch,
    and a budget fixed at its value for one n shows only at the others.
    """
    T = epochs_to_cross(p, alpha, beta).T
    medians, exact_medians, misses = {}, {}, {}
    for n in ns:
        params = ModelParams(n=n, p=p, alpha=alpha)
        est = run_batch(TrajectoryBatch(params=params, n_traj=n_traj, t_max=t_max,
                                        master_seed=seed), n * beta)
        medians[n] = est.median_tau()
        if n == ns[0] or n <= EXACT_N_CAP:
            law = hitting_time_distribution(build_kernel(params), n * beta, t_max)
            misses[n] = binomial_misses(est.first_passage_by_t, n_traj, law.pmf, z)
            exact_medians[n] = law.median()
    exact_median = exact_medians[ns[0]]
    ok = (max(medians.values()) - min(medians.values()) <= 1.0
          and max(medians.values()) <= T and abs(medians[ns[0]] - exact_median) <= 1.0
          and not any(misses.values()))
    return ok, (f"medians {medians}, exact(n={ns[0]}) {exact_median}, T={T}; epochs failing "
                f"an exact binomial test of the hitting law at {z:g} sigma: {misses}")


def reach_probabilities_are_monotone(
    max_n: int, ps: Sequence[float], alpha_fracs: Sequence[float], horizons: Sequence[int],
    curves: Sequence[tuple[float, float]], t_max: int, tol: float,
) -> tuple[bool, str]:
    """check_h_monotone, to tol, at every horizon for every kernel with n <= max_n,
    p in ps and alpha = fa p; and for each (p, alpha) in curves, the exact
    tail of an n = max_n memory beyond half its steady headroom may not
    drop by more than tol from one epoch to the next, up to t_max."""
    kernels = [build_kernel(ModelParams(n=n, p=p, alpha=fa * p))
               for n in range(1, max_n + 1) for p in ps for fa in alpha_fracs]
    kernel_violations = sum(not check_h_monotone(k, m, tol).ok for k in kernels for m in horizons)
    curve_violations = 0
    for p, alpha in curves:
        threshold = max_n * 0.5 * (p - alpha) / p
        dists = epochs(build_kernel(ModelParams(n=max_n, p=p, alpha=alpha)),
                       StateDistribution.point_mass(max_n), t_max)
        tails = np.array([tail_prob(dist, threshold) for dist in dists])
        curve_violations += int(np.count_nonzero(tails[1:] < tails[:-1] - tol))
    ok = kernel_violations == 0 and curve_violations == 0
    return ok, (f"{len(kernels)} kernels x {len(horizons)} horizons, {kernel_violations} kernel "
                f"and {curve_violations} curve violations")


def oracle_vs_monte_carlo(
    params: ModelParams, beta: float, t_max: int, n_traj: int, seed: int,
    z: float, miss_frac: float,
) -> tuple[bool, str]:
    """Monte Carlo P[X_t > n beta] against the exact curve for t <= t_max.

    Each epoch's count of exceeding trajectories is tested against the
    exact tail by binomial_misses at the z-sigma level; at most
    floor(miss_frac * (t_max + 1)) epochs may fail.
    """
    n = params.n
    spec = TrajectoryBatch(params=params, n_traj=n_traj, t_max=t_max, master_seed=seed)
    est = run_batch(spec, n * beta)
    dists = epochs(build_kernel(params), StateDistribution.point_mass(n), t_max)
    truth = np.array([tail_prob(dist, n * beta) for dist in dists])
    misses = binomial_misses(np.rint(est.p_hat_by_t * n_traj), n_traj, truth, z)
    allowed = math.floor(miss_frac * (t_max + 1))
    return misses <= allowed, (f"{misses}/{t_max + 1} epochs fail an exact binomial test "
                               f"at the {z:g} sigma level, {allowed} allowed")


def coupled_dominance(
    params: ModelParams, q_low: float, q_high: float, n_traj: int, t_max: int, seed: int,
    pvalue_floor: float,
) -> tuple[bool, str]:
    """run_coupled at static rates q_low <= q_high: the low-rate memory's
    error set must stay inside the high-rate one's on every epoch of every
    path, and the PIT chi-square of its static injections against
    Binomial(n - x, q_low) must not fall below pvalue_floor."""
    rep = run_coupled(params, q_low=q_low, q_high=q_high, n_traj=n_traj, t_max=t_max,
                      master_seed=seed)
    pvalue = rep.pit_chi2_pvalue
    ok = (rep.inclusion_violations == 0 and rep.count_violations == 0
          and pvalue is not None and pvalue >= pvalue_floor)
    shown = "none" if pvalue is None else f"{pvalue:.4f}"
    return ok, (f"inclusion {rep.inclusion_fraction:.6%} of {rep.pairs_checked} pairs, "
                f"PIT chi-square p = {shown}")


def uniform_error_locations(
    params: ModelParams, n_traj: int, t_probe: int, n_biased: int, seed: int,
    pvalue_floor: float,
) -> tuple[bool, str]:
    """Chi-square uniformity of error locations at epoch t_probe. n_traj
    trajectories under the correction rule must not fall below
    pvalue_floor, while n_biased trajectories whose correction always
    repairs the lowest indices (chain.correct keyed by qubit index, static
    phases left out) must."""
    fair = uniformity_check(TrajectoryBatch(
        params=params, n_traj=n_traj, t_max=t_probe, master_seed=seed,
        record=RecordMode.LOCATIONS), t_probe)
    rng = trajectory_rng(seed, 0)
    mask = np.zeros((n_biased, params.n), dtype=bool)
    for _ in range(t_probe):
        mask = correct(mask | (rng.random(mask.shape) < params.p), np.arange(params.n),
                       params.k_batch)
    biased = chi_square_uniformity(mask.sum(axis=0),
                                   np.bincount(mask.sum(axis=1), minlength=params.n + 1))
    ok = not fair.degenerate and fair.pvalue >= pvalue_floor and biased.pvalue < pvalue_floor
    return ok, f"fair p = {fair.pvalue:.4f}, biased p = {biased.pvalue:.2e}"


class Check(NamedTuple):
    """One acceptance criterion: its check with every argument at verify size
    but the seed, and those that differ at acceptance size, with the frozen
    seed of a check that takes one."""

    criterion: int
    name: str
    check: Callable[..., tuple[bool, str]]
    verify: Mapping[str, object]
    acceptance: Mapping[str, object]

    def at_verify_size(self, master_seed: int) -> tuple[bool, str]:
        """The check at verify size; master_seed replaces a seed frozen at acceptance size."""
        seed = {"seed": master_seed} if "seed" in self.acceptance else {}
        return self.check(**self.verify, **seed)

    def at_acceptance_size(self) -> tuple[bool, str]:
        return self.check(**{**self.verify, **self.acceptance})


CHECKS: tuple[Check, ...] = (
    Check(1, "exact tail dominates closed-form bound", exact_tail_dominates_bound,
          verify=dict(ns=(50, 200), ps=(0.2, 0.5), alpha_fracs=(0.25, 0.5),
                      beta_fracs=(0.25, 0.75), tol=0.0),
          acceptance=dict(ns=(50, 100, 300, 1000), ps=(0.1, 0.2, 0.3, 0.5),
                          alpha_fracs=(0.25, 0.5, 0.75),
                          beta_fracs=(0.2, 0.25, 0.5, 0.75, 0.9), tol=1e-12)),
    Check(2, "steady fraction vs fixed point", steady_fraction_matches_fixed_point,
          verify=dict(cases=((0.2, 0.1), (0.3, 0.15), (0.5, 0.1)), n=10_000, n_traj=200,
                      t_max=100, tol=0.01),
          acceptance=dict(n=100_000, n_traj=1000, t_max=200, seed=202)),
    Check(3, "median hitting time is size-free", median_hitting_time_is_size_free,
          verify=dict(p=0.2, alpha=0.05, beta=0.5, ns=(1000, 10_000), n_traj=300, t_max=20,
                      z=5.0),
          acceptance=dict(ns=(1000, 10_000, 100_000), n_traj=1000, seed=203)),
    Check(4, "monotone reach probabilities and tails", reach_probabilities_are_monotone,
          verify=dict(max_n=30, ps=(0.1, 0.3, 0.5, 0.7, 0.9), alpha_fracs=(0.0, 0.25, 0.5),
                      horizons=(1, 2, 5), curves=((0.2, 0.1), (0.5, 0.25)), t_max=30,
                      tol=1e-10),
          acceptance=dict(max_n=100, t_max=100)),
    Check(5, "exact oracle vs Monte Carlo", oracle_vs_monte_carlo,
          verify=dict(params=ModelParams(n=60, p=0.2, alpha=0.05),
                      beta=0.5 * (0.2 - 0.05) / 0.2, t_max=40, n_traj=20_000, z=3.0,
                      miss_frac=0.01),
          acceptance=dict(params=ModelParams(n=100, p=0.2, alpha=0.05), beta=0.5, t_max=50,
                          n_traj=100_000, seed=208)),
    Check(6, "coupled dominance", coupled_dominance,
          verify=dict(params=ModelParams(n=100, p=0.2, alpha=0.1), q_low=0.01, q_high=0.05,
                      n_traj=1000, t_max=50, pvalue_floor=1e-3),
          acceptance=dict(n_traj=10_000, seed=206)),
    Check(7, "closed forms vs iteration", closed_forms_vs_iteration,
          verify=dict(draws=200, k_max=200, tol=1e-9, fractions=np.linspace(0.1, 0.9, 6),
                      max_epochs=100_000),
          acceptance=dict(seed=207, draws=1000, k_max=500,
                          fractions=np.linspace(0.05, 0.95, 20), max_epochs=200_000)),
    Check(9, "uniform error locations", uniform_error_locations,
          verify=dict(params=ModelParams(n=50, p=0.2, alpha=0.05), n_traj=2000, t_probe=30,
                      n_biased=300, pvalue_floor=1e-3),
          acceptance=dict(n_traj=10_000, n_biased=2000, seed=209)),
)
