"""Monte Carlo engine for the error-accumulation chain.

Simulates fleets of independent memories, estimates threshold-exceedance
curves, steady-state error fractions and hitting times, and runs two
statistical self-checks: a shared-randomness coupling of two static
noise rates and a uniformity test of accumulated error locations.

All of them run on one block engine. A fleet is cut into blocks of a
fixed size that depends only on the fleet size, n and the mode; a block
advances together, as an array of error counts in count mode or as a
(block x n) boolean error mask in mask mode, and draws from its own
counter-based generator keyed by (master_seed, block_index). Results are
therefore identical for the same master seed no matter how blocks are
scheduled across workers.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Sequence

import numpy as np
from scipy.stats import binom as binom_dist
from scipy.stats import chi2 as chi2_dist

from . import chain
from .chain import ModelParams

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

# Trajectories per block: a fixed count in count mode, and about 64 KiB of
# mask (one byte per qubit) in mask mode, so a block stays small for any n.
_COUNT_BLOCK = 1 << 12
_MASK_CELLS = 1 << 16


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
    """Independent stream for one block of trajectories; `index` is the
    block index.

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


def _block_sizes(n_traj: int, n: int, masks: bool) -> list[int]:
    """Trajectories in each block of a fleet; block b draws from
    trajectory_rng(master_seed, b)."""
    size = max(1, _MASK_CELLS // n) if masks else _COUNT_BLOCK
    return [min(size, n_traj - lo) for lo in range(0, n_traj, size)]


def _epochs(params: ModelParams, state: np.ndarray, t_max: int,
            rng: np.random.Generator, inject=None) -> Iterator[np.ndarray]:
    """Yield one block's state at epochs 0..t_max.

    `state` starts as the block's error counts (int) or error masks
    (bool, qubits on the last axis), which picks the chain primitives.
    `inject` replaces the block's static phase, which runs whenever
    chain.static_phase_due says so.
    """
    masks = state.dtype == bool
    step = chain.step if masks else chain.step_count
    if inject is None:
        inject = chain.inject_static_noise if masks else chain.inject_count
    yield state
    for t in range(t_max):
        if chain.static_phase_due(t, params):
            state = inject(state, params, rng)
        state = step(state, params, rng)
        yield state


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
    spec, first_exceed, blocks = args
    counts = np.zeros(spec.t_max + 1, dtype=np.int64)
    taus = []
    for b, size in blocks:
        rng = trajectory_rng(spec.master_seed, b)
        tau = np.full(size, -1, dtype=np.int64)
        start = np.zeros(size, dtype=np.int64)
        for t, x in enumerate(_epochs(spec.params, start, spec.t_max, rng)):
            above = x >= first_exceed
            counts[t] += np.count_nonzero(above)
            tau[above & (tau < 0)] = t
        taus.append(tau)
    return counts, np.concatenate(taus)


def run_batch(
    spec: TrajectoryBatch, threshold: float, n_workers: int = 1
) -> HittingEstimate:
    """Estimate P[X_t > threshold] for t = 0..t_max across the fleet.

    Exceedance only depends on counts, so trajectories always run in
    count mode. Each worker gets whole blocks and aggregation is a sum of
    integer counters, hence the result is invariant to n_workers.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    first_exceed = int(math.floor(threshold)) + 1
    blocks = list(enumerate(_block_sizes(spec.n_traj, spec.params.n, masks=False)))
    args = [(spec, first_exceed, blocks[lo:hi])
            for lo, hi in _split_ranges(len(blocks), n_workers)]
    if len(args) == 1:
        results = [_exceed_worker(args[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(args)) as pool:
            results = list(pool.map(_exceed_worker, args))
    counts = sum(r[0] for r in results)
    taus = np.concatenate([r[1] for r in results])
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
    parts = []
    for b, size in enumerate(_block_sizes(spec.n_traj, spec.params.n, masks=False)):
        start = np.zeros(size, dtype=np.int64)
        total = np.zeros(size)
        rng = trajectory_rng(spec.master_seed, b)
        for t, x in enumerate(_epochs(spec.params, start, spec.t_max, rng)):
            if t > burn_in:
                total += x
        parts.append(total / ((spec.t_max - burn_in) * spec.params.n))
    per_traj = np.concatenate(parts)
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
    inclusion_fraction: float
    count_violations: int
    injection_events: int
    pit_chi2_stat: float | None
    pit_chi2_pvalue: float | None
    pit_dof: int


def run_coupled(
    params: ModelParams,
    q_low: float,
    q_high: float,
    n_traj: int,
    t_max: int,
    master_seed: int,
) -> CouplingReport:
    """Run two memories per path under shared randomness and compare them.

    The pair advances as one stacked (2 x block x n) mask, high-rate memory
    first, through chain.step: both memories see the same fresh errors and
    are corrected with the same keys, so each corrects a uniform subset of
    its own errors and set inclusion survives every epoch by construction.
    A static phase draws one uniform per qubit: below q_high it hits the
    high-rate memory, below q_low the low-rate one too. Each high hit is
    thus copied with probability q_low / q_high, which reproduces the
    Binomial(n - x, q_low) marginal exactly.
    """
    if not 0.0 <= q_low <= q_high <= 1.0:
        raise ValueError(
            f"need 0 <= q_low <= q_high <= 1, got q_low={q_low}, q_high={q_high}"
        )
    if n_traj < 1 or t_max < 1:
        raise ValueError("n_traj and t_max must be >= 1")
    n = params.n
    inclusion_violations = 0
    count_violations = 0
    # PIT inputs, one array per block and static phase: fresh low-memory
    # errors, its healthy qubits and a coin. They are transformed in one
    # vectorized pass at the end.
    pit_fresh: list[np.ndarray] = []
    pit_trials: list[np.ndarray] = []
    pit_coins: list[np.ndarray] = []

    def inject(pair, _params, rng):
        draws = rng.random(pair.shape[1:])
        hits, copied = draws < q_high, draws < q_low
        low = pair[1]
        pit_fresh.append((copied & ~low).sum(axis=1))
        pit_trials.append(n - low.sum(axis=1))
        pit_coins.append(rng.random(len(hits)))
        return pair | np.stack([hits, copied])

    static = replace(params, q=q_high)
    for b, size in enumerate(_block_sizes(n_traj, n, masks=True)):
        start = np.zeros((2, size, n), dtype=bool)
        pairs = _epochs(static, start, t_max, trajectory_rng(master_seed, b), inject)
        next(pairs)  # epoch 0: both memories are empty
        for high, low in pairs:
            inclusion_violations += int(np.any(low & ~high, axis=1).sum())
            count_violations += int((low.sum(axis=1) > high.sum(axis=1)).sum())
    fresh, trials, coins = (np.concatenate(part or [np.empty(0)])
                            for part in (pit_fresh, pit_trials, pit_coins))
    pit_values = _pit_batch(fresh, trials, q_low, coins)
    stat, pvalue = _pit_chi2(pit_values)
    return CouplingReport(
        n=n,
        q_low=q_low,
        q_high=q_high,
        n_traj=n_traj,
        t_max=t_max,
        pairs_checked=n_traj * t_max,
        inclusion_violations=inclusion_violations,
        inclusion_fraction=1.0 - inclusion_violations / (n_traj * t_max),
        count_violations=count_violations,
        injection_events=len(pit_values),
        pit_chi2_stat=stat,
        pit_chi2_pvalue=pvalue,
        pit_dof=_PIT_BINS - 1,
    )


def _pit_batch(
    fresh: Sequence[int], trials: Sequence[int], prob: float, coins: Sequence[float]
) -> np.ndarray:
    """Randomized probability integral transforms of binomial draws.

    Each value is F(fresh - 1) + coin * f(fresh) for the Binomial(trials,
    prob) cdf F and pmf f: exactly Uniform(0, 1) when fresh follows that
    law, whatever trials is, which lets injections at different
    occupancies pool into one test.
    """
    values = np.asarray(fresh, dtype=np.int64)
    if values.size == 0:
        return np.empty(0)
    m = np.asarray(trials, dtype=np.int64)
    lower = binom_dist.cdf(values - 1, m, prob)
    return lower + np.asarray(coins) * binom_dist.pmf(values, m, prob)


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


def location_counts(spec: TrajectoryBatch, t_probe: int) -> tuple[np.ndarray, np.ndarray]:
    """Error locations at epoch t_probe: per-qubit error counts summed over
    the fleet, and each trajectory's number of errors."""
    if spec.record is not RecordMode.LOCATIONS:
        raise ValueError("location_counts needs a batch with record=LOCATIONS")
    if not 0 <= t_probe <= spec.t_max:
        raise ValueError(f"t_probe must lie in [0, t_max], got {t_probe}")
    n = spec.params.n
    counts = np.zeros(n, dtype=np.int64)
    errors = []
    for b, size in enumerate(_block_sizes(spec.n_traj, n, masks=True)):
        start = np.zeros((size, n), dtype=bool)
        for mask in _epochs(spec.params, start, t_probe, trajectory_rng(spec.master_seed, b)):
            pass
        counts += mask.sum(axis=0)
        errors.append(mask.sum(axis=1))
    return counts, np.concatenate(errors)


def chi_square_uniformity(counts: np.ndarray, errors: np.ndarray) -> UniformityResult:
    """Chi-square over per-qubit error counts, given each trajectory's
    number of errors.

    A trajectory with x errors on a uniform subset of the n qubits adds
    x (n - x) / n to the expected sum of squared deviations
    sum_i (c_i - mean c)^2. Dividing that sum by
    sum_j x_j (n - x_j) / (n (n - 1)) gives a statistic that is
    approximately chi-square with dof = n - 1. Degenerate when every
    trajectory holds no error or only errors, where the test carries no
    information and reports p-value 1.
    """
    counts = np.asarray(counts, dtype=np.int64)
    errors = np.asarray(errors, dtype=np.int64)
    n = counts.size
    if errors.sum() != counts.sum():
        raise ValueError(
            f"trajectories hold {errors.sum()} errors but qubits {counts.sum()}"
        )
    spread = int((errors * (n - errors)).sum())
    if spread == 0:
        return UniformityResult(
            statistic=0.0, pvalue=1.0, dof=n - 1, degenerate=True,
            counts=counts, n_traj=errors.size,
        )
    stat = float(((counts - counts.mean()) ** 2).sum() * n * (n - 1) / spread)
    pvalue = float(chi2_dist.sf(stat, n - 1))
    return UniformityResult(
        statistic=stat, pvalue=pvalue, dof=n - 1, degenerate=False,
        counts=counts, n_traj=errors.size,
    )


def uniformity_check(spec: TrajectoryBatch, t_probe: int) -> UniformityResult:
    """Test that accumulated error locations are exchangeable across qubits.

    Pools the error indicator of every qubit at epoch t_probe over the
    fleet and applies the chi-square of `chi_square_uniformity`. The
    uniform correction rule makes the null hold by symmetry, so rejections
    point at index bias in the decision rule or the location bookkeeping.
    """
    return chi_square_uniformity(*location_counts(spec, t_probe))
