"""Monte Carlo engine for the error-accumulation chain.

Simulates fleets of independent memories, estimates threshold-exceedance
curves, steady-state error fractions and hitting times, and runs two
statistical self-checks: a shared-randomness coupling of two static
noise rates and a uniformity test of accumulated error locations.

All of them iterate one block engine, the generator `_fleet`. It cuts a
fleet into blocks of a fixed size that depends only on the fleet size, n
and the kind of state; a block advances together, as an array of error
counts, a (block x n) boolean error mask or a stacked pair of masks, and
draws from its own counter-based generator keyed by (master_seed,
block_index). Results are therefore identical for the same master seed
no matter how blocks are scheduled across workers.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.stats import beta as beta_dist
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

_PIT_BINS = 20
# Draws the coupled run's PIT test holds before it folds them into its
# histogram, so that its memory does not grow with t_max.
_PIT_CHUNK = 1 << 16

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
        chain.check_integer("n_traj", self.n_traj, least=1)
        chain.check_integer("t_max", self.t_max, least=1)
        chain.check_seed("master_seed", self.master_seed)


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream for one block of trajectories; `index` is the
    block index.

    Keys a Philox counter generator with the 128-bit word
    (master_seed << 64) | index; distinct (seed, index) pairs give
    independent streams regardless of worker layout. Both must lie in
    [0, 2^64), so that no two pairs share a stream.
    """
    chain.check_seed("master_seed", master_seed)
    chain.check_seed("index", index)
    # Python ints: a numpy integer would overflow in the shift.
    key = (operator.index(master_seed) << 64) | operator.index(index)
    return np.random.Generator(np.random.Philox(key=key))


def _fleet(params: ModelParams, n_traj: int, t_max: int, master_seed: int,
           kind: str = "counts", inject=None,
           blocks: Iterable[int] | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, state) for t = 0..t_max, block after block of the fleet.

    `kind` picks each block's empty start state and with it the chain
    primitives: "counts" (an int array of error counts, _COUNT_BLOCK
    trajectories a block), "masks" (a block x n bool error mask of about
    _MASK_CELLS cells) or "pairs" (a 2 x block x n stack of masks that
    advance under common randomness). Block b draws from
    trajectory_rng(master_seed, b); `blocks` picks the block indices to
    run, all of them by default. `inject` replaces the static phase,
    which runs whenever chain.static_phase_due says so.
    """
    masks = kind != "counts"
    size = max(1, _MASK_CELLS // params.n) if masks else _COUNT_BLOCK
    step = chain.step if masks else chain.step_count
    if inject is None:
        inject = chain.inject_static_noise if masks else chain.inject_count
    for b in range(-(-n_traj // size)) if blocks is None else blocks:
        rows = min(size, n_traj - b * size)
        shape = {"counts": (rows,), "masks": (rows, params.n), "pairs": (2, rows, params.n)}[kind]
        state = np.zeros(shape, dtype=bool if masks else np.int64)
        rng = trajectory_rng(master_seed, b)
        yield 0, state
        for t in range(t_max):
            if chain.static_phase_due(t, params):
                state = inject(state, params, rng)
            state = step(state, params, rng)
            yield t + 1, state


@dataclass(frozen=True, eq=False)
class HittingEstimate:
    """Empirical exceedance curve for one threshold.

    p_hat_by_t[t] estimates P[X_t > threshold] for t = 0..t_max, with
    99% Clopper-Pearson bounds ci_low_by_t[t] <= p_hat_by_t[t] <=
    ci_high_by_t[t] alongside. tau_samples holds each trajectory's first
    exceedance epoch, -1 when it never crossed.
    """

    threshold: float
    n_traj: int
    master_seed: int
    p_hat_by_t: np.ndarray
    ci_low_by_t: np.ndarray
    ci_high_by_t: np.ndarray
    tau_samples: np.ndarray

    def median_tau(self) -> float:
        """Median hitting epoch; never-crossed trajectories count as +inf."""
        taus = np.where(self.tau_samples < 0, np.inf, self.tau_samples.astype(float))
        return float(np.median(taus))


def _exceed_worker(args: tuple) -> tuple[np.ndarray, np.ndarray]:
    spec, first_exceed, blocks = args
    counts = np.zeros(spec.t_max + 1, dtype=np.int64)
    taus = []
    for t, x in _fleet(spec.params, spec.n_traj, spec.t_max, spec.master_seed, blocks=blocks):
        if t == 0:
            taus.append(np.full(len(x), -1, dtype=np.int64))
        above = x >= first_exceed
        counts[t] += np.count_nonzero(above)
        taus[-1][above & (taus[-1] < 0)] = t
    return counts, np.concatenate(taus)


def run_batch(
    spec: TrajectoryBatch, threshold: float, n_workers: int = 1
) -> HittingEstimate:
    """Estimate P[X_t > threshold] for t = 0..t_max across the fleet.

    Exceedance only depends on counts, so trajectories always run in
    count mode. Each worker gets whole blocks and aggregation is a sum of
    integer counters, hence the result is invariant to n_workers.
    """
    chain.check_integer("n_workers", n_workers, least=1)
    first_exceed = chain.first_above(threshold, spec.params.n)
    n_blocks = -(-spec.n_traj // _COUNT_BLOCK)
    args = [(spec, first_exceed, part)
            for part in np.array_split(np.arange(n_blocks), min(n_workers, n_blocks))]
    if len(args) == 1:
        results = [_exceed_worker(args[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(args)) as pool:
            results = list(pool.map(_exceed_worker, args))
    counts = sum(r[0] for r in results)
    taus = np.concatenate([r[1] for r in results])
    low, high = _clopper_pearson(counts, spec.n_traj)
    return HittingEstimate(
        threshold=threshold,
        n_traj=spec.n_traj,
        master_seed=spec.master_seed,
        p_hat_by_t=counts / spec.n_traj,
        ci_low_by_t=low,
        ci_high_by_t=high,
        tau_samples=taus,
    )


def _clopper_pearson(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided 99% Clopper-Pearson bounds for k successes in n trials. The
    low bound is exactly 0 at k = 0 and the high bound exactly 1 at k = n,
    where their beta quantiles are undefined."""
    low, high = np.zeros(k.shape), np.ones(k.shape)
    some, short = k > 0, k < n
    low[some] = beta_dist.ppf(0.005, k[some], n - k[some] + 1)
    high[short] = beta_dist.ppf(0.995, k[short] + 1, n - k[short])
    return low, high


@dataclass(frozen=True)
class SteadyFraction:
    """Time-averaged error fraction past burn-in, with a standard error."""

    mean_fraction: float
    stderr: float
    n_traj: int
    burn_in: int
    t_max: int


def steady_fraction(spec: TrajectoryBatch) -> SteadyFraction:
    """Mean of X_t / n over t in (burn_in, t_max], averaged over trajectories,
    with burn_in = t_max // 2.

    The standard error comes from the spread of per-trajectory time
    averages; epochs within one trajectory are correlated, trajectories
    are not.
    """
    burn_in = spec.t_max // 2
    parts = []
    for t, x in _fleet(spec.params, spec.n_traj, spec.t_max, spec.master_seed):
        if t == 0:
            parts.append(np.zeros(len(x)))
        elif t > burn_in:
            parts[-1] += x
    per_traj = np.concatenate(parts) / ((spec.t_max - burn_in) * spec.params.n)
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
    TrajectoryBatch(params, n_traj, t_max, master_seed)  # refuses a fleet it would reinterpret
    n = params.n
    inclusion_violations = 0
    count_violations = 0
    pit = _PitHistogram(q_low)

    def inject(pair, _params, rng):
        draws = rng.random(pair.shape[1:])
        hits, copied = draws < q_high, draws < q_low
        low = pair[1]
        pit.add((copied & ~low).sum(axis=1), n - low.sum(axis=1), rng.random(len(hits)))
        return pair | np.stack([hits, copied])

    for t, (high, low) in _fleet(replace(params, q=q_high), n_traj, t_max, master_seed,
                                 "pairs", inject):
        if t > 0:  # at epoch 0 both memories are empty
            inclusion_violations += int(np.any(low & ~high, axis=1).sum())
            count_violations += int((low.sum(axis=1) > high.sum(axis=1)).sum())
    stat, pvalue = pit.chi2()
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
        injection_events=pit.events,
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


class _PitHistogram:
    """Chi-square test of uniformity on the randomized PITs of binomial
    draws of one rate, each draw given with its trial count and coin.

    Draws wait until more than _PIT_CHUNK of them are pending; then they
    are transformed and counted into _PIT_BINS equal bins on [0, 1], so
    memory stays bounded however many draws arrive.
    """

    def __init__(self, prob: float):
        self.prob = prob
        self.observed = np.zeros(_PIT_BINS, dtype=np.int64)
        self.events = 0
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._size = 0

    def add(self, fresh: np.ndarray, trials: np.ndarray, coins: np.ndarray) -> None:
        self._pending.append((fresh, trials, coins))
        self._size += len(fresh)
        if self._size > _PIT_CHUNK:
            self._fold()

    def _fold(self) -> None:
        if self._pending:
            fresh, trials, coins = (np.concatenate(part) for part in zip(*self._pending))
            values = _pit_batch(fresh, trials, self.prob, coins)
            self.observed += np.histogram(values, bins=_PIT_BINS, range=(0.0, 1.0))[0]
            self.events += len(values)
            self._pending, self._size = [], 0

    def chi2(self) -> tuple[float | None, float | None]:
        """(statistic, p-value) over every draw added, None when there are none."""
        self._fold()
        if self.events == 0:
            return None, None
        expected = self.events / _PIT_BINS
        stat = float(((self.observed - expected) ** 2 / expected).sum())
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
    chain.check_integer("t_probe", t_probe, least=0, below=spec.t_max + 1)
    n = spec.params.n
    counts = np.zeros(n, dtype=np.int64)
    errors = []
    for t, mask in _fleet(spec.params, spec.n_traj, t_probe, spec.master_seed, "masks"):
        if t == t_probe:
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
