"""Exact distribution evolution for the error-accumulation chain.

Builds the one-epoch transition kernel of the error-count chain and
pushes state distributions through it, with no sampling involved. This
is the reference that the Monte Carlo engine, the mean-field iteration
and the closed-form bounds are checked against.

Each kernel row is stored as a band: row x keeps the Binomial(n - x, prob)
pmf of the fresh errors only between its two _TAIL_EPS / 2 tail quantiles,
so a kernel holds (n+1) x w numbers with w of order sqrt(n) rather than
(n+1)^2. The largest mass any row leaves out is carried as a certified
total-variation bound: every phase a distribution is pushed through adds
it to the distribution's `err`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator

import numpy as np
from scipy.sparse import csc_array
from scipy.special import bdtr, bdtrc, gammaln
from scipy.stats import binom

from .chain import ModelParams

__all__ = [
    "EXACT_N_CAP",
    "TransitionKernel",
    "StateDistribution",
    "build_kernel",
    "evolve",
    "epochs",
    "tail_prob",
    "MonotonicityReport",
    "check_h_monotone",
    "HittingTimeDistribution",
    "hitting_time_distribution",
    "mean_curve",
]

# Default ceiling on n for building a kernel. Band rows are w ~ 8.3 sqrt(n)
# entries wide at p = 1/2, the widest case: at n = 2 * 10^4 one phase's
# band is 20001 x 1176 float64 entries, 188 MB, plus 94 MB of int32 landing
# states. Raise explicitly via n_cap if you have the memory for it.
EXACT_N_CAP = 20_000

# Two-sided tail mass a band row may leave out before renormalization;
# each row drops below _TAIL_EPS / 2 on either side of its band.
_TAIL_EPS = 1e-16

# The band's raw log-space mass must match 1 minus the dropped tails to
# this tolerance before each row is renormalized.
_RAW_ROW_TOL = 1e-9

_ROW_SUM_TOL = 1e-12
_MASS_TOL = 1e-12


def _band(n: int, prob: float, budget: int) -> tuple[np.ndarray, np.ndarray, float]:
    """One phase of the chain as a band: (probs, offset, dropped).

    Row x draws y ~ Binomial(m = n - x, prob) fresh errors and lands on
    max(x + y - budget, 0). Only y in [lo, hi], between the two tail
    quantiles, is kept: entry j of row x is the renormalized pmf of
    y = lo + j and lands on clip(offset[x] + j, 0, n), with
    offset[x] = x + lo - budget. Entries past a row's own width are zero.
    `dropped` is the largest tail mass any row left out.
    """
    x = np.arange(n + 1)
    m = n - x
    if prob in (0.0, 1.0):
        lo = m if prob == 1.0 else np.zeros_like(m)
        return np.ones((n + 1, 1)), x + lo - budget, 0.0
    lo = binom.ppf(_TAIL_EPS / 2, m, prob).astype(np.int64)
    # binom.isf saturates at m for tails this small; count down from m instead
    hi = m - binom.ppf(_TAIL_EPS / 2, m, 1.0 - prob).astype(np.int64)
    width = hi - lo + 1
    w = int(width.max())
    # band[x, j] = ln pmf(lo + j) - ln pmf(lo), summed from the ratios
    # pmf(y + 1) / pmf(y) = (m - y) / (y + 1) * prob / (1 - prob)
    band = np.zeros((n + 1, w))
    ratios = band[:, 1:]
    y1 = lo[:, None] + np.arange(1.0, w)  # y + 1 for y = lo .. lo + w - 2
    np.subtract(m[:, None] + 1.0, y1, out=ratios)
    np.maximum(ratios, 1.0, out=ratios)  # padding past m, masked below
    np.log(ratios, out=ratios)
    ratios -= np.log(y1, out=y1)
    del y1
    ratios += math.log(prob) - math.log1p(-prob)
    np.cumsum(ratios, axis=1, out=ratios)
    band[np.arange(w) >= width[:, None]] = -np.inf
    peak = band.max(axis=1)
    band -= peak[:, None]
    np.exp(band, out=band)
    total = band.sum(axis=1)
    lf = gammaln(np.arange(1, n + 2, dtype=np.float64))  # lf[i] = ln(i!)
    log_first = lf[m] - lf[lo] - lf[m - lo] + lo * math.log(prob) + (m - lo) * math.log1p(-prob)
    dropped = np.where(lo > 0, bdtr(np.maximum(lo - 1, 0), m, prob), 0.0) + bdtrc(hi, m, prob)
    drift = np.abs(total * np.exp(log_first + peak) - (1.0 - dropped)).max()
    if drift > _RAW_ROW_TOL:
        raise ValueError(f"binomial band misses its mass by {drift}, construction is off")
    band /= total[:, None]
    return band, x + lo - budget, float(dropped.max())


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Banded one-epoch kernel, plus the static-phase kernel when q > 0.

    probs[x, j] is the probability that one correction epoch maps x
    uncorrected errors to clip(offset[x] + j, 0, n); offset defaults to 0,
    which makes an (n+1) x (n+1) probs a plain dense kernel. static_probs
    and static_offset, present only for q > 0, are the same for one static
    phase; evolve interleaves it every q_period correction epochs.
    truncation is the largest total-variation distance between a stored
    row and the true row, added once per phase a distribution goes through.
    """

    n: int
    k_batch: int
    probs: np.ndarray
    offset: np.ndarray | None = None
    static_probs: np.ndarray | None = None
    static_offset: np.ndarray | None = None
    q_period: int = 1
    truncation: float = 0.0
    _push: csc_array = field(init=False, repr=False)
    _static_push: csc_array | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.q_period < 1:
            raise ValueError(f"q_period must be >= 1, got {self.q_period}")
        if not self.truncation >= 0.0:
            raise ValueError(f"truncation must be >= 0, got {self.truncation}")
        object.__setattr__(self, "_push", self._operator("probs", "offset"))
        object.__setattr__(
            self, "_static_push",
            None if self.static_probs is None else self._operator("static_probs", "static_offset"),
        )

    def _operator(self, name: str, offset_name: str) -> csc_array:
        """Sparse P with P @ mass the push-forward of mass through band `name`.

        Column x holds row x's entries at their landing states; entries
        that clip onto the same state are summed by the product. P shares
        the band's data.
        """
        band, offset = getattr(self, name), getattr(self, offset_name)
        rows = self.n + 1
        if band.ndim != 2 or band.shape[0] != rows or band.shape[1] < 1:
            raise ValueError(f"{name} must have shape ({rows}, w), got {band.shape}")
        if offset is None:
            offset = np.zeros(rows, dtype=np.int64)
            object.__setattr__(self, offset_name, offset)
        if offset.shape != (rows,):
            raise ValueError(f"{offset_name} must have shape ({rows},), got {offset.shape}")
        if np.any(band < 0.0):
            raise ValueError(f"{name} has negative entries")
        drift = np.abs(band.sum(axis=1) - 1.0).max()
        if drift > _ROW_SUM_TOL:
            raise ValueError(f"{name} rows sum to 1 +/- {drift}, beyond tolerance")
        w = band.shape[1]
        itype = np.int32 if band.size < 2**31 else np.int64
        dest = offset.astype(itype)[:, None] + np.arange(w, dtype=itype)
        np.clip(dest, 0, self.n, out=dest)
        indptr = np.arange(0, band.size + 1, w, dtype=itype)
        return csc_array((band.reshape(-1), dest.reshape(-1), indptr), shape=(rows, rows))

    def dense(self, static: bool = False) -> np.ndarray:
        """The correction-epoch (or static-phase) kernel as an (n+1) x (n+1) matrix."""
        push = self._static_push if static else self._push
        if push is None:
            raise ValueError("kernel has no static phase")
        return push.T.toarray()

    def push(self, mass: np.ndarray, static: bool = False) -> np.ndarray:
        """mass pushed through one correction epoch (or one static phase)."""
        return (self._static_push if static else self._push) @ mass


def build_kernel(params: ModelParams, n_cap: int = EXACT_N_CAP) -> TransitionKernel:
    """Build the banded one-epoch kernel for these parameters.

    Row x spreads Binomial(n - x, p) fresh errors y over the landing
    states max(x + y - k_batch, 0), keeping y between the row's two tail
    quantiles; the static phase does the same with q and no correction.
    Refuses n beyond n_cap.
    """
    if params.n > n_cap:
        raise ValueError(
            f"n={params.n} exceeds the exact-mode cap of {n_cap}; "
            "pass a larger n_cap explicitly if the memory budget allows it"
        )
    n, k = params.n, params.k_batch
    probs, offset, truncation = _band(n, params.p, k)
    static = static_offset = None
    if params.q > 0.0:
        static, static_offset, dropped = _band(n, params.q, 0)
        truncation = max(truncation, dropped)
    return TransitionKernel(
        n=n, k_batch=k, probs=probs, offset=offset, static_probs=static,
        static_offset=static_offset, q_period=params.q_period, truncation=truncation,
    )


@dataclass(frozen=True, eq=False)
class StateDistribution:
    """Distribution over error counts after t correction epochs.

    err bounds the total-variation distance to the true law; evolve adds
    the kernel's truncation once per phase it applies.
    """

    t: int
    mass: np.ndarray
    err: float = 0.0

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if self.mass.ndim != 1 or self.mass.size < 1:
            raise ValueError("mass must be a nonempty 1-d array")
        if np.any(self.mass < 0.0):
            raise ValueError("mass has negative entries")
        total = float(self.mass.sum())
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"mass sums to {total}, not 1")
        if not self.err >= 0.0:
            raise ValueError(f"err must be >= 0, got {self.err}")

    @property
    def n(self) -> int:
        return self.mass.size - 1

    @classmethod
    def point_mass(cls, n: int, x: int = 0, t: int = 0) -> "StateDistribution":
        if not 0 <= x <= n:
            raise ValueError(f"x={x} outside [0, {n}]")
        mass = np.zeros(n + 1)
        mass[x] = 1.0
        return cls(t=t, mass=mass)

    def mean(self) -> float:
        return float(self.mass @ np.arange(self.mass.size))


def _pushes(
    kernel: TransitionKernel, mass: np.ndarray, t0: int, steps: int, first: int
) -> Iterator[tuple[np.ndarray, int]]:
    """Push mass through correction epochs t0 .. t0 + steps - 1.

    Yields (mass, phases) after each epoch, phases counting the phases
    applied so far. When the kernel carries a static phase, it runs before
    every epoch whose absolute index is a multiple of q_period, mirroring
    the simulator's schedule. After each epoch the states from `first` up
    are emptied; first = n + 1 empties none. This is the only code that
    pushes mass through a kernel.
    """
    phases = 0
    for t in range(t0, t0 + steps):
        if kernel.static_probs is not None and t % kernel.q_period == 0:
            mass = kernel.push(mass, static=True)
            phases += 1
        mass = kernel.push(mass)
        phases += 1
        mass[first:] = 0.0
        yield mass, phases


def epochs(
    kernel: TransitionKernel, dist0: StateDistribution, steps: int
) -> Iterator[StateDistribution]:
    """The distributions at epochs dist0.t .. dist0.t + steps, dist0 first.

    A static phase, when the kernel has one, precedes every epoch whose
    absolute index is a multiple of q_period. Each distribution's err is
    dist0.err plus the kernel's truncation once per phase since dist0.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if dist0.n != kernel.n:
        raise ValueError(f"distribution is over {dist0.n + 1} states, kernel over {kernel.n + 1}")
    pushes = _pushes(kernel, dist0.mass, dist0.t, steps, kernel.n + 1)
    return chain([dist0], (
        StateDistribution(t=t, mass=mass, err=dist0.err + phases * kernel.truncation)
        for t, (mass, phases) in enumerate(pushes, start=dist0.t + 1)
    ))


def evolve(kernel: TransitionKernel, dist0: StateDistribution, steps: int) -> StateDistribution:
    """Push a distribution through `steps` correction epochs: the last
    distribution `epochs` yields."""
    return deque(epochs(kernel, dist0, steps), maxlen=1)[0]


def tail_prob(dist: StateDistribution, threshold: float) -> float:
    """P[X > threshold] under this distribution (strictly above)."""
    first = int(math.floor(threshold)) + 1
    if first <= 0:
        return 1.0
    if first > dist.n:
        return 0.0
    return float(dist.mass[first:].sum())


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the m-step reach-probability monotonicity check."""

    m: int
    tol: float
    violations: tuple[tuple[int, int], ...]
    max_decrease: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_h_monotone(kernel: TransitionKernel, m: int, tol: float = 1e-10) -> MonotonicityReport:
    """Check that P[X_{t+m} >= k | X_t = x] is nondecreasing in x.

    Holds for every threshold k and step count m on this chain; a
    violation (reported as the pair (k, x) where the probability drops
    when moving from x to x+1 by more than tol) indicates a kernel bug.
    Uses the correction-epoch kernel alone, ignoring static phases.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    power = np.linalg.matrix_power(kernel.dense(), m)
    # tails[x, k] = P[X_{t+m} >= k | X_t = x]
    tails = np.cumsum(power[:, ::-1], axis=1)[:, ::-1]
    drops = tails[:-1, :] - tails[1:, :]
    bad = np.argwhere(drops > tol)
    violations = tuple((int(k), int(x)) for x, k in bad)
    max_decrease = float(drops.max(initial=0.0))
    return MonotonicityReport(m=m, tol=tol, violations=violations, max_decrease=max_decrease)


@dataclass(frozen=True, eq=False)
class HittingTimeDistribution:
    """Law of the first epoch at which the error count exceeds a threshold.

    pmf[t] = P[tau = t] for t = 0..t_max, survival = P[tau > t_max];
    together they account for all probability mass. err bounds the
    total-variation distance of (pmf, survival) to the true law.
    """

    threshold: float
    pmf: np.ndarray
    survival: float
    err: float = 0.0

    def median(self) -> float:
        """Smallest t with P[tau <= t] >= 1/2, or inf if beyond t_max."""
        cum = np.cumsum(self.pmf)
        idx = np.nonzero(cum >= 0.5)[0]
        return float(idx[0]) if idx.size else math.inf


def hitting_time_distribution(
    kernel: TransitionKernel, threshold: float, t_max: int
) -> HittingTimeDistribution:
    """Exact first-passage law via taboo evolution.

    The chain starts at zero errors and is observed at epoch boundaries,
    after correction; mass sitting above the threshold at the end of
    epoch t is credited to P[tau = t]. A static excursion that the same
    epoch's correction repairs therefore does not count as a hit, which
    matches what a sampled trajectory of post-correction counts sees.
    The remainder after t_max epochs is the survival probability.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    first = int(math.floor(threshold)) + 1
    pmf = np.zeros(t_max + 1)
    if first <= 0:
        # threshold below zero: the fresh memory already exceeds it
        pmf[0] = 1.0
        return HittingTimeDistribution(threshold=threshold, pmf=pmf, survival=0.0)
    start = StateDistribution.point_mass(kernel.n).mass
    sums, counts = zip(*((mass.sum(), phases) for mass, phases in _pushes(
        kernel, start, 0, t_max, first)))
    survival = np.array((1.0, *sums))  # survival[t] = P[tau > t]
    pmf[1:] = survival[:-1] - survival[1:]
    return HittingTimeDistribution(
        threshold=threshold, pmf=pmf, survival=float(survival[-1]),
        err=counts[-1] * kernel.truncation,
    )


def mean_curve(params: ModelParams, t_max: int) -> np.ndarray:
    """Exact E[X_t] for t = 0..t_max, starting from zero errors."""
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    dists = epochs(build_kernel(params), StateDistribution.point_mass(params.n), t_max)
    return np.array([dist.mean() for dist in dists])
