"""Cross-checks between the exact, Monte Carlo, mean-field and closed-form
answers.

Each check takes its grid or sample, seed, tolerance and bound as
arguments and returns (ok, one-line detail). `qecbatch verify` runs them
on the small grids in VERIFY; the acceptance suite runs them on its own.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .bounds import hitting_prob_lb
from .chain import ModelParams
from .exact import StateDistribution, build_kernel, epochs, evolve, tail_prob
from .meanfield import epochs_to_cross, iterate_recursion, mf_iterate
from .montecarlo import TrajectoryBatch, run_batch

__all__ = ["closed_form_vs_recursion", "crossing_formula_vs_iteration",
           "exact_tail_dominates_bound", "oracle_vs_monte_carlo", "VERIFY"]


def closed_form_vs_recursion(seed: int, draws: int, k_max: int, tol: float) -> tuple[bool, str]:
    """Closed-form iterate against the recursion, on random p, alpha <= 0.9 p,
    delta <= 0.95 (p - alpha), k < k_max and n in {1, 10^4}: the largest gap
    over n must be at most tol."""
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
    return worst <= tol, f"max |closed - recursion| / n = {worst:.3g} over {draws} draws"


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


def oracle_vs_monte_carlo(
    params: ModelParams, beta: float, t_max: int, n_traj: int, seed: int,
    z: float, miss_frac: float,
) -> tuple[bool, str]:
    """Monte Carlo P[X_t > n beta] against the exact curve for t <= t_max:
    at most floor(miss_frac * (t_max + 1)) epochs may sit more than z exact
    standard errors away."""
    n = params.n
    spec = TrajectoryBatch(params=params, n_traj=n_traj, t_max=t_max, master_seed=seed)
    est = run_batch(spec, n * beta)
    dists = epochs(build_kernel(params), StateDistribution.point_mass(n), t_max)
    # a tail sum can round a few ulps above 1
    truth = np.clip([tail_prob(dist, n * beta) for dist in dists], 0.0, 1.0)
    se = np.sqrt(truth * (1.0 - truth) / n_traj)
    misses = int(np.count_nonzero(np.abs(est.p_hat_by_t - truth) > z * se))
    allowed = math.floor(miss_frac * (t_max + 1))
    return misses <= allowed, (
        f"{misses}/{t_max + 1} epochs beyond {z:g} standard errors, {allowed} allowed"
    )


# (name, check of the master seed) pairs small enough to run in seconds.
VERIFY: tuple[tuple[str, Callable[[int], tuple[bool, str]]], ...] = (
    ("closed-form vs recursion",
     lambda seed: closed_form_vs_recursion(seed, draws=200, k_max=200, tol=1e-9)),
    ("crossing-epoch formula vs iteration",
     lambda seed: crossing_formula_vs_iteration(np.linspace(0.1, 0.9, 6), max_epochs=100_000)),
    ("exact tail dominates closed-form bound",
     lambda seed: exact_tail_dominates_bound(
         ns=(50, 200), ps=(0.2, 0.5), alpha_fracs=(0.25, 0.5), beta_fracs=(0.25, 0.75),
         tol=0.0)),
    ("exact oracle vs Monte Carlo",
     lambda seed: oracle_vs_monte_carlo(
         ModelParams(n=60, p=0.2, alpha=0.05), beta=0.5 * (0.2 - 0.05) / 0.2, t_max=40,
         n_traj=20_000, seed=seed, z=3.0, miss_frac=0.01)),
)
