"""Monte Carlo engine for the error-accumulation chain.

Simulates fleets of independent memories, estimates threshold-exceedance
curves, steady-state error fractions and hitting times, and runs two
statistical self-checks: a shared-randomness coupling of two static
noise rates and a uniformity test of accumulated error locations.

Every trajectory owns a counter-based generator keyed by
(master_seed, trajectory_index), so results are identical for the same
master seed no matter how trajectories are scheduled across workers.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.stats import binom as binom_dist
from scipy.stats import chi2 as chi2_dist

from . import chain
from .chain import ChainState, ModelParams

__all__ = [
    "RecordMode",
    "TrajectoryBatch",
    "trajectory_rng",
    "HittingEstimate",
    "run_batch",
    "SteadyFraction",
    "steady_fraction",
    "CouplingReport",
    "run_coupled",
    "UniformityResult",
    "uniformity_check",
    "location_counts",
    "chi_square_uniformity",
]

# Two-sided 99% normal quantile, used for all confidence half-widths here.
Z_99 = 2.5758293035489004

_PIT_BINS = 20
_SEED_LIMIT = 1 << 64


class RecordMode(Enum):
    COUNTS = "counts"
    LOCATIONS = "locations"


@dataclass(frozen=True)
class TrajectoryBatch:
    """A fleet of independent trajectories of one memory."""

    params: ModelParams
    n_traj: int
    t_max: int
    master_seed: int
    record: RecordMode = RecordMode.COUNTS

    def __post_init__(self) -> None:
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream for one trajectory.

    Keys a Philox counter generator with the 128-bit word
    (master_seed << 64) | index; distinct (seed, index) pairs give
    independent streams regardless of worker layout. Both must lie in
    [0, 2^64), so that no two pairs share a stream.
    """
    # Python ints: a numpy integer would overflow in the shift below.
    master_seed, index = operator.index(master_seed), operator.index(index)
    if not 0 <= master_seed < _SEED_LIMIT:
        raise ValueError(f"master_seed must lie in [0, 2^64), got {master_seed}")
    if not 0 <= index < _SEED_LIMIT:
        raise ValueError(f"index must lie in [0, 2^64), got {index}")
    key = (master_seed << 64) | index
    return np.random.Generator(np.random.Philox(key=key))


def _count_path(params: ModelParams, t_max: int, rng: np.random.Generator) -> np.ndarray:
    """One trajectory of error counts X_0..X_t_max (X_0 = 0)."""
    path = np.empty(t_max + 1, dtype=np.int64)
    path[0] = 0
    x = 0
    for t in range(t_max):
        if chain.static_phase_due(t, params):
            x = chain.inject_count(x, params, rng)
        x = chain.step_count(x, params, rng)
        path[t + 1] = x
    return path


@dataclass(frozen=True, eq=False)
class HittingEstimate:
    """Empirical exceedance curve for one threshold.

    p_hat_by_t[t] estimates P[X_t > threshold] for t = 0..t_max, with
    99% normal-approximation half-widths alongside. tau_samples holds
    each trajectory's first exceedance epoch, -1 when it never crossed.
    """

    threshold: float
    n_traj: int
    master_seed: int
    p_hat_by_t: np.ndarray
    ci_halfwidth_by_t: np.ndarray
    tau_samples: np.ndarray

    def median_tau(self) -> float:
        """Median hitting epoch; never-crossed trajectories count as +inf."""
        taus = np.where(self.tau_samples < 0, np.inf, self.tau_samples.astype(float))
        return float(np.median(taus))


def _exceed_worker(args: tuple) -> tuple[np.ndarray, np.ndarray]:
    params, t_max, first_exceed, master_seed, lo, hi = args
    counts = np.zeros(t_max + 1, dtype=np.int64)
    taus = np.empty(hi - lo, dtype=np.int64)
    for i in range(lo, hi):
        path = _count_path(params, t_max, trajectory_rng(master_seed, i))
        above = path >= first_exceed
        counts += above
        taus[i - lo] = int(np.argmax(above)) if above.any() else -1
    return counts, taus


def run_batch(
    spec: TrajectoryBatch, threshold: float, n_workers: int = 1
) -> HittingEstimate:
    """Estimate P[X_t > threshold] for t = 0..t_max across the fleet.

    Exceedance only depends on counts, so trajectories always run in
    count mode. Aggregation is a sum of integer counters, hence the
    result is invariant to n_workers.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    first_exceed = int(math.floor(threshold)) + 1
    jobs = _split_ranges(spec.n_traj, n_workers)
    args = [
        (spec.params, spec.t_max, first_exceed, spec.master_seed, lo, hi)
        for lo, hi in jobs
    ]
    if len(args) == 1:
        results = [_exceed_worker(args[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(args)) as pool:
            results = list(pool.map(_exceed_worker, args))
    counts = np.zeros(spec.t_max + 1, dtype=np.int64)
    taus = np.concatenate([r[1] for r in results])
    for r in results:
        counts += r[0]
    p_hat = counts / spec.n_traj
    half = Z_99 * np.sqrt(p_hat * (1.0 - p_hat) / spec.n_traj)
    return HittingEstimate(
        threshold=threshold,
        n_traj=spec.n_traj,
        master_seed=spec.master_seed,
        p_hat_by_t=p_hat,
        ci_halfwidth_by_t=half,
        tau_samples=taus,
    )


def _split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    parts = min(parts, total)
    base, extra = divmod(total, parts)
    ranges = []
    lo = 0
    for j in range(parts):
        hi = lo + base + (1 if j < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass(frozen=True)
class SteadyFraction:
    """Time-averaged error fraction past burn-in, with a standard error."""

    mean_fraction: float
    stderr: float
    n_traj: int
    burn_in: int
    t_max: int


def steady_fraction(spec: TrajectoryBatch, burn_in: int | None = None) -> SteadyFraction:
    """Mean of X_t / n over t in (burn_in, t_max], averaged over trajectories.

    burn_in defaults to t_max // 2. The standard error comes from the
    spread of per-trajectory time averages; epochs within one trajectory
    are correlated, trajectories are not.
    """
    if burn_in is None:
        burn_in = spec.t_max // 2
    if not 0 <= burn_in < spec.t_max:
        raise ValueError(f"burn_in must lie in [0, t_max), got {burn_in}")
    n = spec.params.n
    per_traj = np.empty(spec.n_traj)
    for i in range(spec.n_traj):
        path = _count_path(spec.params, spec.t_max, trajectory_rng(spec.master_seed, i))
        per_traj[i] = path[burn_in + 1 :].mean() / n
    stderr = (
        float(per_traj.std(ddof=1) / math.sqrt(spec.n_traj)) if spec.n_traj > 1 else 0.0
    )
    return SteadyFraction(
        mean_fraction=float(per_traj.mean()),
        stderr=stderr,
        n_traj=spec.n_traj,
        burn_in=burn_in,
        t_max=spec.t_max,
    )


@dataclass(frozen=True)
class CouplingReport:
    """Outcome of the coupled two-rate simulation.

    Dominance is checked at the strongest level: after every epoch the
    low-rate memory's error set must be contained in the high-rate
    memory's. Marginal faithfulness of the low memory's static-phase
    error counts is scored by a chi-square on randomized
    probability-integral transforms pooled over all injections.
    """

    n: int
    q_low: float
    q_high: float
    n_traj: int
    t_max: int
    pairs_checked: int
    inclusion_violations: int
    count_violations: int
    injection_events: int
    pit_chi2_stat: float | None
    pit_chi2_pvalue: float | None
    pit_dof: int

    @property
    def inclusion_fraction(self) -> float:
        if self.pairs_checked == 0:
            return 1.0
        return 1.0 - self.inclusion_violations / self.pairs_checked

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q_low": self.q_low,
            "q_high": self.q_high,
            "n_traj": self.n_traj,
            "t_max": self.t_max,
            "pairs_checked": self.pairs_checked,
            "inclusion_violations": self.inclusion_violations,
            "inclusion_fraction": self.inclusion_fraction,
            "count_violations": self.count_violations,
            "injection_events": self.injection_events,
            "pit_chi2_stat": self.pit_chi2_stat,
            "pit_chi2_pvalue": self.pit_chi2_pvalue,
            "pit_dof": self.pit_dof,
        }


def run_coupled(
    params: ModelParams,
    q_low: float,
    q_high: float,
    n_traj: int,
    t_max: int,
    master_seed: int,
) -> CouplingReport:
    """Run two memories per path under shared randomness and compare them.

    Correction-phase noise arrives as one shared hit mask over all n
    qubits (hits on already-bad qubits change nothing), so both memories
    see the same fresh errors. Each static-phase hit of the high-rate
    memory is copied to the low-rate memory with probability
    q_low / q_high, which reproduces the Binomial(n - x, q_low) marginal
    exactly. Correction batches are coupled so that whatever the
    high-rate memory corrects inside the low-rate memory's error set is
    corrected there too, topped up uniformly to the low memory's own
    budget use; by symmetry the low memory still corrects a uniform
    subset, and set inclusion survives every epoch by construction.
    """
    if not 0.0 <= q_low <= q_high <= 1.0:
        raise ValueError(
            f"need 0 <= q_low <= q_high <= 1, got q_low={q_low}, q_high={q_high}"
        )
    if n_traj < 1 or t_max < 1:
        raise ValueError("n_traj and t_max must be >= 1")
    n, k, p = params.n, params.k_batch, params.p
    ratio = q_low / q_high if q_high > 0.0 else 0.0
    inclusion_violations = 0
    count_violations = 0
    pairs = 0
    # PIT inputs are collected and transformed in one vectorized pass at
    # the end; per-injection scipy calls would dominate the runtime.
    pit_fresh: list[int] = []
    pit_trials: list[int] = []
    pit_coins: list[float] = []
    for i in range(n_traj):
        rng = trajectory_rng(master_seed, i)
        e_low = np.zeros(n, dtype=bool)
        e_high = np.zeros(n, dtype=bool)
        for t in range(t_max):
            if q_high > 0.0 and t % params.q_period == 0:
                hits = rng.random(n) < q_high
                copied = hits & (rng.random(n) < ratio)
                pit_fresh.append(int((copied & ~e_low).sum()))
                pit_trials.append(int(n - e_low.sum()))
                pit_coins.append(float(rng.random()))
                e_high |= hits
                e_low |= copied
            shared = rng.random(n) < p
            e_high |= shared
            e_low |= shared
            _correct_coupled(e_low, e_high, k, rng)
            pairs += 1
            if np.any(e_low & ~e_high):
                inclusion_violations += 1
            if e_low.sum() > e_high.sum():
                count_violations += 1
    pit_values = _pit_batch(pit_fresh, pit_trials, q_low, pit_coins)
    stat, pvalue = _pit_chi2(pit_values)
    return CouplingReport(
        n=n,
        q_low=q_low,
        q_high=q_high,
        n_traj=n_traj,
        t_max=t_max,
        pairs_checked=pairs,
        inclusion_violations=inclusion_violations,
        count_violations=count_violations,
        injection_events=len(pit_values),
        pit_chi2_stat=stat,
        pit_chi2_pvalue=pvalue,
        pit_dof=_PIT_BINS - 1,
    )


def _pit_batch(
    fresh: list[int], trials: list[int], prob: float, coins: list[float]
) -> np.ndarray:
    """Randomized probability integral transforms of binomial draws.

    Each value is F(fresh - 1) + coin * f(fresh) for the Binomial(trials,
    prob) cdf F and pmf f: exactly Uniform(0, 1) when fresh follows that
    law, whatever trials is, which lets injections at different
    occupancies pool into one test.
    """
    if not fresh:
        return np.empty(0)
    values = np.asarray(fresh, dtype=np.int64)
    m = np.asarray(trials, dtype=np.int64)
    lower = binom_dist.cdf(values - 1, m, prob)
    return lower + np.asarray(coins) * binom_dist.pmf(values, m, prob)


def _correct_coupled(
    e_low: np.ndarray, e_high: np.ndarray, budget: int, rng: np.random.Generator
) -> None:
    """Correct both memories in place, preserving e_low <= e_high."""
    bad_high = np.flatnonzero(e_high)
    f_high = min(bad_high.size, budget)
    chosen_high = (
        rng.choice(bad_high, size=f_high, replace=False)
        if f_high
        else np.empty(0, dtype=np.int64)
    )
    mandatory = chosen_high[e_low[chosen_high]]
    f_low = min(int(e_low.sum()), budget)
    short = f_low - mandatory.size
    # structurally short >= 0: either the low memory clears everything, or
    # both budgets saturate at `budget`
    chosen_mask = np.zeros(e_low.size, dtype=bool)
    chosen_mask[chosen_high] = True
    pool = np.flatnonzero(e_low & ~chosen_mask)
    extra = (
        rng.choice(pool, size=short, replace=False)
        if short
        else np.empty(0, dtype=np.int64)
    )
    e_high[chosen_high] = False
    e_low[mandatory] = False
    e_low[extra] = False


def _pit_chi2(values: np.ndarray) -> tuple[float | None, float | None]:
    if len(values) == 0:
        return None, None
    observed, _ = np.histogram(values, bins=_PIT_BINS, range=(0.0, 1.0))
    expected = len(values) / _PIT_BINS
    stat = float(((observed - expected) ** 2 / expected).sum())
    return stat, float(chi2_dist.sf(stat, _PIT_BINS - 1))


@dataclass(frozen=True, eq=False)
class UniformityResult:
    """Chi-square verdict on whether errors sit uniformly across qubits."""

    statistic: float
    pvalue: float
    dof: int
    degenerate: bool
    counts: np.ndarray
    n_traj: int


def location_counts(spec: TrajectoryBatch, t_probe: int) -> np.ndarray:
    """Per-qubit error counts at epoch t_probe, summed over trajectories."""
    if spec.record is not RecordMode.LOCATIONS:
        raise ValueError("location_counts needs a batch with record=LOCATIONS")
    if not 0 <= t_probe <= spec.t_max:
        raise ValueError(f"t_probe must lie in [0, t_max], got {t_probe}")
    counts = np.zeros(spec.params.n, dtype=np.int64)
    for i in range(spec.n_traj):
        rng = trajectory_rng(spec.master_seed, i)
        state = chain.initial_state(track_locations=True)
        for t in range(t_probe):
            if chain.static_phase_due(t, spec.params):
                state = chain.inject_static_noise(state, spec.params, rng)
            state = chain.step(state, spec.params, rng)
        if state.error_set:
            counts[np.fromiter(state.error_set, dtype=np.int64)] += 1
    return counts


def chi_square_uniformity(counts: np.ndarray, n_traj: int) -> UniformityResult:
    """Equal-frequency chi-square over per-qubit error counts.

    dof = n - 1. Degenerate when no errors were seen at all or every
    qubit was erroneous in every trajectory; the test then carries no
    information and reports p-value 1.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    total = int(counts.sum())
    if total == 0 or total == n * n_traj:
        return UniformityResult(
            statistic=0.0, pvalue=1.0, dof=n - 1, degenerate=True,
            counts=counts, n_traj=n_traj,
        )
    expected = total / n
    stat = float(((counts - expected) ** 2 / expected).sum())
    pvalue = float(chi2_dist.sf(stat, n - 1))
    return UniformityResult(
        statistic=stat, pvalue=pvalue, dof=n - 1, degenerate=False,
        counts=counts, n_traj=n_traj,
    )


def uniformity_check(spec: TrajectoryBatch, t_probe: int) -> UniformityResult:
    """Test that accumulated error locations are exchangeable across qubits.

    Pools the error indicator of every qubit at epoch t_probe over the
    fleet and applies the equal-frequency chi-square. The uniform
    correction rule makes the null hold by symmetry, so rejections point
    at index bias in the decision rule or the location bookkeeping.
    """
    counts = location_counts(spec, t_probe)
    return chi_square_uniformity(counts, spec.n_traj)
