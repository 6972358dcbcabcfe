"""Exact distribution evolution for the error-accumulation chain.

Builds the one-epoch transition kernel of the error-count chain and
pushes state distributions through it, with no sampling involved. This
is the reference that the Monte Carlo engine, the mean-field iteration
and the closed-form bounds are checked against. `build_kernel(params)`
is the only way to get a kernel, and it refuses n beyond the fixed
EXACT_N_CAP.

Each kernel row is stored as a band: row x keeps the Binomial(n - x, prob)
pmf of the fresh errors only between its two _TAIL_EPS / 4 tail
quantiles, w of order sqrt(n) entries rather than n + 1. Rows come in
aligned blocks of _BLOCK states. A block is built, checked and stored as
its own sparse operator the first time a push carries mass into it, so a
distribution that sits on a few hundred states touches a few blocks, not
all of them. Each push also skips the leading and trailing blocks whose
combined mass is at most half the kernel's truncation. One phase thus
moves a distribution by at most the truncation, _TAIL_EPS, in total
variation: half for the row tails and half for the skipped blocks. Every
phase a distribution goes through adds it to the distribution's `err`.
Kernels alive at the same time share the rows of each phase they have in
common, so a block is built once however many of them reach it; the rows
go with the last kernel that holds them.
Static phases run on the schedule of `chain.static_phase_due`, the same
one the Monte Carlo fleet follows.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np
from scipy.sparse import csc_array
from scipy.special import bdtr
from scipy.stats import binom

from .chain import ModelParams, check_integer, first_above, static_phase_due

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

# Ceiling on n for building a kernel. Band rows are up to
# w ~ 8.4 sqrt(n) entries wide at p = 1/2, the widest case, and a built
# block stores each row's own width only. At n = 2 * 10^4 a phase whose
# every block has been built holds 15.8 million entries: 127 MB of float64
# plus 63 MB of int32 landing states, the worst case, held once however
# many live kernels share the phase. Blocks are built
# only where mass arrives: 60 epochs from zero errors at p = 0.2,
# alpha = 0.05 build 46 of the 79 blocks. Reading probs materialises the
# full 20001 x 1187 band, another 190 MB.
EXACT_N_CAP = 20_000

# Total-variation budget of one phase, build_kernel's truncation. Each
# band row leaves out at most _TAIL_EPS / 4 on either side, and each push
# skips blocks holding at most the other _TAIL_EPS / 2 of the mass.
_TAIL_EPS = 1e-16

# Kernel states per block; a block is built the first time it carries mass.
_BLOCK = 256

# Each band row's raw mass, its running product of pmf ratios scaled by
# scipy's pmf at the row's first entry, must match 1 minus the dropped tails
# to this tolerance before the row is renormalized.
_RAW_ROW_TOL = 1e-9

_ROW_SUM_TOL = 1e-12
_MASS_TOL = 1e-12


def _band(
    n: int, prob: float, budget: int, x0: int, x1: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows x0 .. x1 - 1 of one phase of the chain as a band: (probs,
    offset, width).

    Row x draws y ~ Binomial(m = n - x, prob) fresh errors and lands on
    max(x + y - budget, 0). Only y in [lo, hi], between the two tail
    quantiles, is kept: entry j of row x is the renormalized pmf of
    y = lo + j and lands on max(offset[x] + j, 0), with
    offset[x] = x + lo - budget. Entries past a row's own width, hi - lo + 1,
    are zero. A row is built as the running product of the pmf ratios
    pmf(y + 1) / pmf(y), with one zero ratio at its width, in one multiplicative
    pass with no log or exp. Raises if a row leaves out more than
    _TAIL_EPS / 4 on either side, or if its raw mass misses the exact one.
    """
    x = np.arange(x0, x1)
    m = n - x
    if prob in (0.0, 1.0):
        lo = m if prob == 1.0 else np.zeros_like(m)
        return np.ones((x.size, 1)), x + lo - budget, np.ones_like(x)
    # binom.isf saturates at m for tails this small, so the upper quantile
    # counts down from m; one ppf call finds both, as its overhead dominates
    both = binom.ppf(_TAIL_EPS / 4, np.concatenate([m, m]), np.repeat([prob, 1.0 - prob], m.size))
    lo, hi = both[: m.size].astype(np.int64), m - both[m.size :].astype(np.int64)
    # P[y < lo] and P[y > hi] = P[m - y < m - hi], as the quantiles were found
    left = np.where(lo > 0, bdtr(lo - 1, m, prob), 0.0)
    right = np.where(hi < m, bdtr(m - hi - 1, m, 1.0 - prob), 0.0)
    widest = max(left.max(), right.max())
    if widest > _TAIL_EPS / 4:
        raise ValueError(f"binomial band leaves out a tail of {widest}, beyond {_TAIL_EPS / 4}")
    width = hi - lo + 1
    w = int(width.max())
    # band[x, j] = pmf(lo + j) / pmf(lo), a running product of the ratios
    # pmf(y + 1) / pmf(y) = c (m - y) / (y + 1) with c = prob / (1 - prob).
    # Each is c ((m + 1) / (y + 1) - 1), or c / ((m + 1) / (m - y) - 1) when
    # prob > 1/2, so that the quotient lies away from 1 and subtracting 1
    # loses no digits on the side of the mean where the band lies.
    flip = prob > 0.5
    c = prob / (1.0 - prob)
    band = np.empty((x.size, w))
    band[:, 0] = 1.0
    ratios = band[:, 1:]
    j = np.arange(1.0, w)  # y = lo + j - 1
    if flip:
        np.subtract((m - lo + 1.0)[:, None], j, out=ratios)  # m - y
    else:
        np.add(lo[:, None], j, out=ratios)  # y + 1
    with np.errstate(divide="ignore"):  # m - y is 0 only past a row's width
        np.divide((m + 1.0)[:, None], ratios, out=ratios)
    ratios -= 1.0
    if flip:
        np.divide(c, ratios, out=ratios)
    else:
        ratios *= c
    short = np.flatnonzero(width < w)
    band[short, width[short]] = 0.0  # the product is zero from a row's own width on
    np.cumprod(band, axis=1, out=band)
    total = band.sum(axis=1)
    # scipy's pmf at lo is the reference that puts the band back on scale
    drift = np.abs(total * binom.pmf(lo, m, prob) - (1.0 - left - right)).max()
    if drift > _RAW_ROW_TOL:
        raise ValueError(f"binomial band misses its mass by {drift}, construction is off")
    band /= total[:, None]
    return band, x + lo - budget, width


class _Block(NamedTuple):
    """Some rows of a phase: a sparse operator from their mass to the
    landing states first .. first + op.shape[0] - 1, whose column x holds
    row x's own width of band entries."""

    op: csc_array
    first: int


class _Rows:
    """The rows of one phase, a correction epoch (budget k_batch, prob p)
    or a static phase (budget 0, prob q), built by _band in aligned blocks
    of _BLOCK states the first time a block is needed; each block is
    checked as it is built.
    """

    def __init__(self, n: int, prob: float, budget: int):
        self.n, self.prob, self.budget = n, prob, budget
        self._starts = np.arange(0, n + 1, _BLOCK)
        self._blocks: list[_Block | None] = [None] * self._starts.size

    def block(self, b: int) -> _Block:
        block = self._blocks[b]
        if block is None:
            x0 = b * _BLOCK
            band, offset, width = _band(self.n, self.prob, self.budget, x0,
                                        min(x0 + _BLOCK, self.n + 1))
            if band.min() < 0.0:
                raise ValueError("kernel rows have negative entries")
            drift = np.abs(band.sum(axis=1) - 1.0).max()
            if drift > _ROW_SUM_TOL:
                raise ValueError(f"kernel rows sum to 1 +/- {drift}, beyond tolerance")
            # entry k of the flat data, j into row x, lands on offset[x] + j,
            # at most n - budget; entries that clip onto 0 are summed by the product
            indptr = np.concatenate(([0], np.cumsum(width))).astype(np.int32)
            dest = np.arange(indptr[-1], dtype=np.int32)
            dest += np.repeat((offset - indptr[:-1]).astype(np.int32), width)
            np.maximum(dest, 0, out=dest)
            first, last = int(dest.min()), int(dest.max())
            dest -= first
            keep = np.arange(band.shape[1]) < width[:, None]
            op = csc_array((band[keep], dest, indptr), shape=(last - first + 1, offset.size))
            block = self._blocks[b] = _Block(op, first)
        return block

    def push(self, mass: np.ndarray, skip: float) -> np.ndarray:
        """mass pushed through this phase, leaving out the leading and
        trailing blocks whose combined mass is at most skip."""
        sums = np.add.reduceat(mass, self._starts).tolist()
        lead, stop = 0, len(sums)
        while lead < stop and sums[lead] <= skip:
            skip -= sums[lead]
            lead += 1
        while stop > lead and sums[stop - 1] <= skip:
            skip -= sums[stop - 1]
            stop -= 1
        out = np.zeros(mass.size)
        for b in range(lead, stop):
            op, first = self.block(b)
            out[first : first + op.shape[0]] += op @ mass[b * _BLOCK : (b + 1) * _BLOCK]
        return out

    def band(self) -> np.ndarray:
        """Every row as one (n+1) x w band, entries past a row's own width
        being zero."""
        blocks = [self.block(b) for b in range(len(self._blocks))]
        widths = [np.diff(block.op.indptr) for block in blocks]
        probs = np.zeros((self.n + 1, max(width.max() for width in widths)))
        for x0, block, width in zip(self._starts, blocks, widths):
            rows = probs[x0 : x0 + width.size]
            rows[np.arange(probs.shape[1]) < width[:, None]] = block.op.data
        return probs

    def dense(self) -> np.ndarray:
        dense = np.zeros((self.n + 1, self.n + 1))
        for b, x0 in enumerate(self._starts):
            op, first = self.block(b)
            dense[x0 : x0 + op.shape[1], first : first + op.shape[0]] = op.T.toarray()
        return dense


# The phases live kernels hold, keyed by (n, prob, budget), so that each
# block is built once however many kernels push through it. A phase leaves
# with its last kernel: nothing here outlives its callers.
_LIVE: weakref.WeakValueDictionary[tuple[int, float, int], _Rows] = weakref.WeakValueDictionary()


def _live_rows(n: int, prob: float, budget: int) -> _Rows:
    rows = _LIVE.get((n, prob, budget))
    if rows is None:
        rows = _LIVE[n, prob, budget] = _Rows(n, prob, budget)
    return rows


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Banded one-epoch kernel of `params`, plus the static-phase kernel
    when q > 0; build_kernel makes it.

    rows holds the correction epoch and static_rows, None when q = 0, one
    static phase; both build their blocks on first use. probs and
    static_probs read every row back as one band, building all blocks:
    entry j of row x is the probability of the j-th fresh-error count
    that row keeps.
    """

    params: ModelParams
    rows: _Rows = field(repr=False)
    static_rows: _Rows | None = field(repr=False)

    @property
    def truncation(self) -> float:
        """The one budget _TAIL_EPS: the total-variation distance one phase
        adds, row tails and skipped blocks together."""
        return _TAIL_EPS

    def _phase(self, static: bool) -> _Rows:
        rows = self.static_rows if static else self.rows
        if rows is None:
            raise ValueError("kernel has no static phase")
        return rows

    @property
    def probs(self) -> np.ndarray:
        """The correction-epoch rows as one band, every block built."""
        return self.rows.band()

    @property
    def static_probs(self) -> np.ndarray | None:
        return None if self.static_rows is None else self.static_rows.band()

    def dense(self, static: bool = False) -> np.ndarray:
        """The correction-epoch (or static-phase) kernel as an (n+1) x (n+1) matrix."""
        return self._phase(static).dense()

    def push(self, mass: np.ndarray, static: bool = False) -> np.ndarray:
        """mass pushed through one correction epoch (or one static phase),
        skipping blocks that hold at most half the truncation."""
        return self._phase(static).push(mass, self.truncation / 2)


def build_kernel(params: ModelParams) -> TransitionKernel:
    """Build the banded one-epoch kernel for these parameters.

    Row x spreads Binomial(n - x, p) fresh errors y over the landing
    states max(x + y - k_batch, 0), keeping y between the row's two tail
    quantiles; the static phase does the same with q and no correction.
    Rows are built block by block as pushes reach them, and a phase is
    shared with every live kernel that has it: equal params, or a kernel
    differing only in q or q_period for the correction rows. Refuses n
    beyond EXACT_N_CAP.
    """
    if params.n > EXACT_N_CAP:
        raise ValueError(f"n={params.n} exceeds the exact-mode cap of {EXACT_N_CAP}")
    static = _live_rows(params.n, params.q, 0) if params.q > 0.0 else None
    return TransitionKernel(params=params, rows=_live_rows(params.n, params.p, params.k_batch),
                            static_rows=static)


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
        check_integer("t", self.t, least=0)
        if self.mass.ndim != 1 or self.mass.size < 1:
            raise ValueError("mass must be a nonempty 1-d array")
        if (self.mass < 0.0).any():
            raise ValueError("mass has negative entries")
        total = float(self.mass.sum())
        if not abs(total - 1.0) <= _MASS_TOL:  # NaN mass fails too
            raise ValueError(f"mass sums to {total}, not 1")
        if not self.err >= 0.0:
            raise ValueError(f"err must be >= 0, got {self.err}")

    @property
    def n(self) -> int:
        return self.mass.size - 1

    @classmethod
    def point_mass(cls, n: int, x: int = 0, t: int = 0) -> "StateDistribution":
        check_integer("n", n, least=0)
        check_integer("x", x, least=0, below=n + 1)
        mass = np.zeros(n + 1)
        mass[x] = 1.0
        return cls(t=t, mass=mass)

    def mean(self) -> float:
        return float(self.mass @ np.arange(self.mass.size))


def _pushes(
    kernel: TransitionKernel, mass: np.ndarray, t0: int, steps: int, first: int
) -> Iterator[tuple[np.ndarray, int, float]]:
    """Push mass through correction epochs t0 .. t0 + steps - 1.

    Yields (mass, phases, cut) after each epoch, phases counting the
    phases applied so far. A static phase runs before every epoch t for
    which chain.static_phase_due(t, kernel.params) holds, the simulator's
    own schedule. After each epoch the states from `first` up are
    emptied, and cut is the mass they held; first = n + 1 empties none.
    This is the only code that pushes mass through a kernel, and each push
    builds only the blocks of rows that carry mass, so the cost follows
    the distribution's support.
    """
    phases = 0
    for t in range(t0, t0 + steps):
        if static_phase_due(t, kernel.params):
            mass = kernel.push(mass, static=True)
            phases += 1
        mass = kernel.push(mass)
        phases += 1
        cut = float(mass[first:].sum())
        mass[first:] = 0.0
        yield mass, phases, cut


def epochs(
    kernel: TransitionKernel, dist0: StateDistribution, steps: int
) -> Iterator[StateDistribution]:
    """The distributions at epochs dist0.t .. dist0.t + steps, dist0 first.

    A static phase precedes every epoch t for which
    chain.static_phase_due(t, kernel.params) holds. Each distribution's err is
    dist0.err plus the kernel's truncation once per phase since dist0.
    """
    check_integer("steps", steps, least=0)
    n = kernel.params.n
    if dist0.n != n:
        raise ValueError(f"distribution is over {dist0.n + 1} states, kernel over {n + 1}")
    pushes = _pushes(kernel, dist0.mass, dist0.t, steps, n + 1)
    return chain([dist0], (
        StateDistribution(t=t, mass=mass, err=dist0.err + phases * kernel.truncation)
        for t, (mass, phases, _) in enumerate(pushes, start=dist0.t + 1)
    ))


def evolve(kernel: TransitionKernel, dist0: StateDistribution, steps: int) -> StateDistribution:
    """Push a distribution through `steps` correction epochs: the last
    distribution `epochs` yields."""
    return deque(epochs(kernel, dist0, steps), maxlen=1)[0]


def tail_prob(dist: StateDistribution, threshold: float) -> float:
    """P[X > threshold] under this distribution (strictly above)."""
    first = first_above(threshold, dist.n)
    if first == 0:
        return 1.0
    if first > dist.n:
        return 0.0
    # the pushed mass can sum a few ulps above 1
    return min(1.0, float(dist.mass[first:].sum()))


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
    check_integer("m", m, least=1)
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
    after correction; the mass cut above the threshold at the end of
    epoch t is P[tau = t], never negative. A static excursion that the
    same epoch's correction repairs therefore does not count as a hit,
    which matches what a sampled trajectory of post-correction counts
    sees. The mass left after t_max epochs is the survival probability.
    """
    check_integer("t_max", t_max, least=1)
    n = kernel.params.n
    first = first_above(threshold, n)
    pmf = np.zeros(t_max + 1)
    if first == 0:
        # threshold below zero: the fresh memory already exceeds it
        pmf[0] = 1.0
        return HittingTimeDistribution(threshold=threshold, pmf=pmf, survival=0.0)
    pushes = _pushes(kernel, StateDistribution.point_mass(n).mass, 0, t_max, first)
    for t, (mass, phases, cut) in enumerate(pushes, start=1):
        pmf[t] = cut
    # the pushed mass can sum a few ulps above 1, as in tail_prob
    return HittingTimeDistribution(
        threshold=threshold, pmf=pmf, survival=min(1.0, float(mass.sum())),
        err=phases * kernel.truncation,
    )


def mean_curve(params: ModelParams, t_max: int) -> np.ndarray:
    """Exact E[X_t] for t = 0..t_max, starting from zero errors.

    Its kernel shares the blocks of any live kernel of the same params, so
    a caller that holds one pays only for blocks it has not built yet.
    """
    check_integer("t_max", t_max, least=0)
    dists = epochs(build_kernel(params), StateDistribution.point_mass(params.n), t_max)
    return np.array([dist.mean() for dist in dists])
