"""Exact distribution evolution for the error-accumulation chain.

Builds the one-epoch transition kernel of the error-count chain and
pushes state distributions through it, with no sampling involved. This
is the reference that the Monte Carlo engine, the mean-field iteration
and the closed-form bounds are checked against. `build_kernel(params)`
is the only way to get a kernel, and it refuses n beyond the fixed
EXACT_N_CAP.

Each kernel row is stored as a band: row x keeps the Binomial(n - x, prob)
pmf of the fresh errors only between two cuts that each leave out at most
_ROW_TAIL, as scipy's bdtr confirms, w of order sqrt(n) entries
rather than n + 1. The cuts come from a closed-form guess that keeps at
most two counts more than the tail quantiles on either side, with no
quantile search. A row is the running product of its pmf ratios, whose
operands for a whole block are gathered as each row's window of one
counting sequence, and its raw mass is checked against scipy's binomial
pmf kernel, binom._pmf, at its lower cut. Rows come in aligned blocks of
_BLOCK states. Each push leaves out the leading rows whose mass fits
_SKIP_TAIL, then the trailing rows whose mass fits what is left of it. A
block is built, checked and stored as its own sparse operator, every row
padded with zeros to the block's widest, the first time a push keeps two
of its rows, so a distribution that sits on a few hundred states touches
a few blocks, not all of them. A push that keeps one state of a block not
yet built, as a run from a point mass starts, reads that state's row
alone, built and checked once; a phase of one block builds it at once.
Each push multiplies every block or row on its kept rows alone through
scipy's CSC product kernel. One phase thus moves
a distribution by at most _TAIL_EPS in total variation, and every phase a
distribution goes through adds it to the distribution's `err`; a hitting
law stops pushing once no taboo mass is left, and still counts every
phase. Kernels alive at the same time share the rows of each phase they
have in common, so a block or single row is built once however many of
them reach it; the rows go with the last kernel that holds them.
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
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse import _sparsetools, csc_array
from scipy.special import bdtr, ndtri
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
# block pads each row with zeros to the block's widest row. At n = 2 * 10^4
# a phase whose every block has been built holds 16.0 million entries:
# 128 MB of float64 plus 64 MB of int32 landing states, the worst case,
# held once however many live kernels share the phase. Blocks are built
# only where a push keeps two of their rows: 60 epochs from zero errors at
# p = 0.2, alpha = 0.05 read row 0 alone and build 46 of the 79 blocks,
# never block 0. Reading probs materialises the full 20001 x 1188 band,
# another 190 MB.
EXACT_N_CAP = 20_000

# Total-variation budget of one phase, build_kernel's truncation, split
# once: each band row leaves out at most _ROW_TAIL on either side, and each
# push leaves out leading and trailing rows holding at most _SKIP_TAIL of
# the mass.
_TAIL_EPS = 1e-16
_ROW_TAIL = _TAIL_EPS / 4
_SKIP_TAIL = _TAIL_EPS / 2

# Kernel states per block; a block is built the first time a push keeps two
# of its rows.
_BLOCK = 256

# Each band row's raw mass, its running product of pmf ratios scaled by
# scipy's pmf at the row's first entry, must match 1 minus the dropped tails
# to this tolerance before the row is renormalized.
_RAW_ROW_TOL = 1e-9

_ROW_SUM_TOL = 1e-12
_MASS_TOL = 1e-12

# A row's cuts are guessed from the normal quantile _Z of _ROW_TAIL
# and the Cornish-Fisher terms (z^2 - 1) / 6, (z^3 - 3 z) / 24 and
# (2 z^3 - 5 z) / 36 of its skew, its kurtosis and its squared skew, while
# the smaller of its two means is at least _SMALL_MEAN.
_Z = float(ndtri(_ROW_TAIL))
_CORNISH_FISHER = ((_Z * _Z - 1.0) / 6.0, (_Z**3 - 3.0 * _Z) / 24.0, (2.0 * _Z**3 - 5.0 * _Z) / 36.0)
_SMALL_MEAN = 30.0


def _upper_cut(m: np.ndarray, s: float) -> np.ndarray:
    """The least h with P[z > h] <= _ROW_TAIL for z ~ Binomial(m, s),
    for rows whose mean m s is below _SMALL_MEAN.

    pmf(k) / pmf(0) is the running product of the pmf ratios, taken far
    enough that the counts left off hold far less than the tail, and each
    tail is summed from its small end; pmf(0) = (1 - s)^m scales the bound
    instead of the products."""
    mean = float(m.max()) * s
    k = np.arange(1.0, min(m.max() + 1.0, mean + 10.0 * math.sqrt(mean) + 20.0))
    ratios = np.subtract.outer(m + 1.0, k)  # pmf(k) / pmf(k - 1) = c (m + 1 - k) / k
    ratios *= s / (1.0 - s) / k  # the product is 0 from k = m + 1 on
    np.cumprod(ratios, axis=1, out=ratios)
    tails = np.cumsum(ratios[:, ::-1], axis=1)  # P[h < z <= k_max] / pmf(0), h from k_max - 1 down
    bound = _ROW_TAIL / np.exp(m * math.log1p(-s))
    return np.count_nonzero(tails > bound[:, None], axis=1)


def _guess(m: np.ndarray, prob: float) -> np.ndarray:
    """A lower cut for each row's Binomial(m, prob) law, at or up to two
    counts below the largest lo with P[y < lo] <= _ROW_TAIL.

    Where the smaller of the means m prob and m (1 - prob) is at least
    _SMALL_MEAN, it is the Cornish-Fisher quantile to the kurtosis term,
    floored. Below that mean the long side, prob > 1/2, gets the exact cut
    from _upper_cut, and the short side gets 0, where the cut is 0 or 1.
    """
    lo = np.zeros(m.size, dtype=np.int64)
    small = m * min(prob, 1.0 - prob) < _SMALL_MEAN
    if not small.all():
        big = ~small
        sd = np.sqrt(m[big] * (prob * (1.0 - prob)))
        skew = 1.0 - 2.0 * prob
        kurt = 1.0 - 6.0 * prob * (1.0 - prob)
        a, b, c = _CORNISH_FISHER
        quantile = m[big] * prob + sd * _Z + a * skew + (b * kurt - c * skew * skew) / sd
        lo[big] = np.clip(np.floor(quantile), 0, m[big])
    if prob > 0.5 and small.any():
        lo[small] = m[small] - _upper_cut(m[small], 1.0 - prob)
    return lo


def _cut(m: np.ndarray, prob: float) -> tuple[np.ndarray, np.ndarray]:
    """The lower cut lo of each row's Binomial(m, prob) law and its left
    tail P[y < lo] = bdtr(lo - 1, m, prob), at most _ROW_TAIL.

    lo starts from _guess, and each row whose tail is too large steps down
    one count until it fits, so a row costs one bdtr unless the guess was
    too high.
    """
    lo = _guess(m, prob)
    tail = np.where(lo > 0, bdtr(lo - 1, m, prob), 0.0)
    over = np.flatnonzero(tail > _ROW_TAIL)
    while over.size:
        lo[over] -= 1
        tail[over] = np.where(lo[over] > 0, bdtr(lo[over] - 1, m[over], prob), 0.0)
        over = over[tail[over] > _ROW_TAIL]
    return lo, tail


def _band(
    n: int, prob: float, budget: int, x0: int, x1: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows x0 .. x1 - 1 of one phase of the chain as a band: (probs,
    offset, width).

    Row x draws y ~ Binomial(m = n - x, prob) fresh errors and lands on
    max(x + y - budget, 0). Only y in [lo, hi], between the two cuts of
    _cut, is kept: entry j of row x is the renormalized pmf of
    y = lo + j and lands on max(offset[x] + j, 0), with
    offset[x] = x + lo - budget. Entries past a row's own width, hi - lo + 1,
    are zero. A row is built as the running product of the pmf ratios
    pmf(y + 1) / pmf(y), with one zero ratio at its width, in one multiplicative
    pass with no log or exp. The ratios' operands are gathered over the
    whole contiguous band, each row as its window of one float counting
    sequence, and column 0 is reset to 1 after the ratio passes. Raises if
    a row leaves out more than _ROW_TAIL on either side, or if its raw
    mass, scaled by binom._pmf at lo, misses 1 minus its dropped tails.
    """
    x = np.arange(x0, x1)
    m = n - x
    if prob in (0.0, 1.0):
        lo = m if prob == 1.0 else np.zeros_like(m)
        return np.ones((x.size, 1)), x + lo - budget, np.ones_like(x)
    # the upper cut through the mirrored law: P[y > hi] = P[m - y < m - hi]
    lo, left = _cut(m, prob)
    mirrored, right = _cut(m, 1.0 - prob)
    hi = m - mirrored
    widest = np.maximum(left, right).max()
    if not widest <= _ROW_TAIL:  # NaN fails too
        raise ValueError(f"binomial band leaves out a tail of {widest}, beyond {_ROW_TAIL}")
    width = hi - lo + 1
    w = int(width.max())
    # band[x, j] = pmf(lo + j) / pmf(lo), a running product of the ratios
    # pmf(y + 1) / pmf(y) = c (m - y) / (y + 1) with c = prob / (1 - prob).
    # Each is c ((m + 1) / (y + 1) - 1), or c / ((m + 1) / (m - y) - 1) when
    # prob > 1/2, so that the quotient lies away from 1 and subtracting 1
    # loses no digits on the side of the mean where the band lies.
    # Column j's operand, y + 1 = lo + j or, flipped, m - y = m - lo + 1 - j,
    # is row x's window of a float sequence counting up or down.
    flip = prob > 0.5
    c = prob / (1.0 - prob)
    if flip:
        top = m - lo + 1
        band = sliding_window_view(np.arange(top.max(), top.min() - w, -1.0), w)[top.max() - top]
    else:
        band = sliding_window_view(np.arange(lo.min(), lo.max() + w, 1.0), w)[lo - lo.min()]
    # column 0, reset to 1 below, divides by lo = 0, or flipped by
    # (m + 1) / (m + 1) - 1 = 0 where lo = 0; m - y is 0 only past a row's width
    with np.errstate(divide="ignore"):
        np.divide((m + 1.0)[:, None], band, out=band)
        band -= 1.0
        if flip:
            np.divide(c, band, out=band)
        else:
            band *= c
    band[:, 0] = 1.0
    short = np.flatnonzero(width < w)
    band[short, width[short]] = 0.0  # the product is zero from a row's own width on
    np.cumprod(band, axis=1, out=band)
    total = band.sum(axis=1)
    # scipy's pmf at lo is the reference that puts the band back on scale; its
    # kernel _pmf, as lo is in [0, m] and prob in (0, 1) pass binom.pmf's checks
    drift = np.abs(total * binom._pmf(lo, m, prob) - (1.0 - left - right)).max()
    if not drift <= _RAW_ROW_TOL:
        raise ValueError(f"binomial band misses its mass by {drift}, construction is off")
    band /= total[:, None]
    return band, x + lo - budget, width


class _Block(NamedTuple):
    """Some rows of a phase: a sparse operator from their mass to the
    landing states first .. first + op.shape[0] - 1, whose column x holds
    the block's w band entries of row x, zero past the row's own width."""

    op: csc_array
    first: int


def _product(op: csc_array, mass: np.ndarray, a: int, z: int) -> np.ndarray:
    """op[:, a:z] @ mass[a:z], with no copy of op: scipy's CSC kernel, the
    one op @ mass runs, on the column pointers of columns a .. z - 1 alone.
    Over all columns it gives the bits of op @ mass."""
    out = np.zeros(op.shape[0])
    _sparsetools.csc_matvec(op.shape[0], z - a, op.indptr[a : z + 1], op.indices, op.data,
                            mass[a:z], out)
    return out


class _Rows:
    """The rows of one phase, a correction epoch (budget k_batch, prob p)
    or a static phase (budget 0, prob q), built by _band in aligned blocks
    of _BLOCK states the first time a push keeps two rows of a block; a
    push that keeps one state of a block not yet built reads that state's
    row alone, built once. Each block and row is checked as it is built.
    """

    def __init__(self, n: int, prob: float, budget: int):
        self.n, self.prob, self.budget = n, prob, budget
        self._blocks: list[_Block | None] = [None] * (n // _BLOCK + 1)
        self._rows: dict[int, _Block] = {}

    def _operator(self, x0: int, x1: int) -> _Block:
        """Rows x0 .. x1 - 1 as one checked operator."""
        band, offset, _ = _band(self.n, self.prob, self.budget, x0, x1)
        least = band.min()
        if not least >= 0.0:  # NaN fails too
            raise ValueError(f"kernel rows have negative entries, the least {least}")
        drift = np.abs(band.sum(axis=1) - 1.0).max()
        if not drift <= _ROW_SUM_TOL:
            raise ValueError(f"kernel rows sum to 1 +/- {drift}, beyond tolerance")
        # column x holds the w entries of row x's band, j into it landing on
        # offset[x] + j clipped into 0 .. n: entries clipped onto 0 are summed
        # by the product, and those past the row's width are zeros
        rows, w = band.shape
        low = int(offset.min())
        first = max(low, 0)
        last = min(int(offset.max()) + w - 1, self.n)
        # row x's dest is its window of one landing sequence, clipped once
        lands = np.arange(low - first, int(offset.max()) - first + w, dtype=np.int32)
        np.clip(lands, 0, last - first, out=lands)
        dest = sliding_window_view(lands, w)[offset - low]
        indptr = np.arange(0, rows * w + 1, w, dtype=np.int32)
        return _Block(csc_array((band.ravel(), dest.ravel(), indptr),
                                shape=(last - first + 1, rows)), first)

    def block(self, b: int) -> _Block:
        block = self._blocks[b]
        if block is None:
            x0 = b * _BLOCK
            block = self._blocks[b] = self._operator(x0, min(x0 + _BLOCK, self.n + 1))
        return block

    def kept(self, mass: np.ndarray) -> tuple[int, int]:
        """The states start .. end - 1 that a push of mass multiplies, (0, 0)
        when it multiplies none; the rest hold at most _SKIP_TAIL.

        start is the number of leading rows whose cumulative mass fits the
        budget, and the trailing rows are left out while they fit what those
        rows left of it. The kept states are one run, so a far tail that the
        budget cannot cover is multiplied with every state between it and
        the bulk. A NaN stops both cumulative searches, so it is multiplied.
        """
        lead = mass.cumsum()
        start = int(lead.searchsorted(_SKIP_TAIL, "right"))
        if start == mass.size:
            return 0, 0
        left = _SKIP_TAIL - (lead[start - 1] if start else 0.0)
        trail = mass[:start:-1].cumsum()  # rows n down to start + 1: row start is kept
        return start, mass.size - int(trail.searchsorted(left, "right"))

    def push(self, mass: np.ndarray) -> np.ndarray:
        """mass pushed through this phase, multiplying only the states that
        kept() returns: each block they reach is pushed on its kept columns
        alone, and no other block is built. A push that keeps one state x
        whose block is not built multiplies x's row alone, unless the phase
        is one block, which its next push would build anyway."""
        start, end = self.kept(mass)
        out = np.zeros(mass.size)
        lead = start // _BLOCK
        if end - start == 1 and self._blocks[lead] is None and len(self._blocks) > 1:
            row = self._rows.get(start)
            if row is None:
                row = self._rows[start] = self._operator(start, end)
            spans = [(row, start)]
        else:
            spans = [(self.block(b), b * _BLOCK) for b in range(lead, -(-end // _BLOCK))]
        for (op, first), x0 in spans:
            out[first : first + op.shape[0]] += _product(
                op, mass[x0 : x0 + op.shape[1]], max(start - x0, 0), min(end - x0, op.shape[1]))
        return out

    def band(self) -> np.ndarray:
        """Every row as one (n+1) x w band, entries past a row's own width
        being zero."""
        blocks = [self.block(b).op for b in range(len(self._blocks))]
        probs = np.zeros((self.n + 1, max(op.nnz // op.shape[1] for op in blocks)))
        for b, op in enumerate(blocks):
            x0 = b * _BLOCK
            rows = op.data.reshape(op.shape[1], -1)
            probs[x0 : x0 + rows.shape[0], : rows.shape[1]] = rows
        return probs

    def dense(self) -> np.ndarray:
        dense = np.zeros((self.n + 1, self.n + 1))
        for b in range(len(self._blocks)):
            op, first = self.block(b)
            x0 = b * _BLOCK
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

    A plain record: rows holds the correction epoch and static_rows, None
    when q = 0, one static phase; both build their blocks on first use,
    and _pushes pushes mass through them. probs and static_probs read
    every row back as one band, building all blocks: entry j of row x is
    the probability of the j-th fresh-error count that row keeps.
    """

    params: ModelParams
    rows: _Rows = field(repr=False)
    static_rows: _Rows | None = field(repr=False)

    @property
    def truncation(self) -> float:
        """_TAIL_EPS, the total-variation distance one phase adds."""
        return _TAIL_EPS

    @property
    def probs(self) -> np.ndarray:
        """The correction-epoch rows as one band, every block built."""
        return self.rows.band()

    @property
    def static_probs(self) -> np.ndarray | None:
        return None if self.static_rows is None else self.static_rows.band()

    def dense(self) -> np.ndarray:
        """The correction-epoch kernel as an (n+1) x (n+1) matrix."""
        return self.rows.dense()


def build_kernel(params: ModelParams) -> TransitionKernel:
    """Build the banded one-epoch kernel for these parameters.

    Row x spreads Binomial(n - x, p) fresh errors y over the landing
    states max(x + y - k_batch, 0), keeping y between the row's two tail
    quantiles; the static phase does the same with q and no correction.
    Rows are built block by block as pushes keep two rows of a block, or
    one row alone where a push keeps one state, and a phase is shared with
    every live kernel that has it: equal params, or a kernel differing
    only in q or q_period for the correction rows. Refuses n beyond
    EXACT_N_CAP.
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
    def point_mass(cls, n: int, x: int = 0) -> "StateDistribution":
        """All mass on x errors at epoch 0."""
        check_integer("n", n, least=0)
        check_integer("x", x, least=0, below=n + 1)
        mass = np.zeros(n + 1)
        mass[x] = 1.0
        return cls(t=0, mass=mass)

    def mean(self) -> float:
        return float(self.mass @ np.arange(self.mass.size))


def _pushes(
    kernel: TransitionKernel, mass: np.ndarray, t0: int, steps: int, first: int
) -> Iterator[tuple[np.ndarray, int, float]]:
    """Push mass through correction epochs t0 .. t0 + steps - 1.

    Yields (mass, err, cut) after each epoch, err being _TAIL_EPS times
    the phases applied so far. A static phase runs before every epoch t
    for which chain.static_phase_due(t, kernel.params) holds, the
    simulator's own schedule. After each epoch the states from `first` up
    are emptied, and cut is the mass they held; first = n + 1 empties
    none. This is the only code that pushes mass through a kernel's rows.
    Each push builds only the blocks where it keeps two rows or more, and
    a push that keeps one state reads that state's row alone, so the cost
    follows the distribution's support.
    """
    phases = 0
    for t in range(t0, t0 + steps):
        if static_phase_due(t, kernel.params):
            mass = kernel.static_rows.push(mass)
            phases += 1
        mass = kernel.rows.push(mass)
        phases += 1
        cut = float(mass[first:].sum())
        mass[first:] = 0.0
        yield mass, phases * _TAIL_EPS, cut


def epochs(
    kernel: TransitionKernel, dist0: StateDistribution, steps: int
) -> Iterator[StateDistribution]:
    """The distributions at epochs dist0.t .. dist0.t + steps, dist0 first.

    A static phase precedes every epoch t for which
    chain.static_phase_due(t, kernel.params) holds. Each distribution's err is
    dist0.err plus _TAIL_EPS once per phase since dist0.
    """
    check_integer("steps", steps, least=0)
    n = kernel.params.n
    if dist0.n != n:
        raise ValueError(f"distribution is over {dist0.n + 1} states, kernel over {n + 1}")
    pushes = _pushes(kernel, dist0.mass, dist0.t, steps, n + 1)
    return chain([dist0], (
        StateDistribution(t=t, mass=mass, err=dist0.err + err)
        for t, (mass, err, _) in enumerate(pushes, start=dist0.t + 1)
    ))


def evolve(kernel: TransitionKernel, dist0: StateDistribution, steps: int) -> StateDistribution:
    """Push a distribution through `steps` correction epochs: the last
    distribution `epochs` yields."""
    return deque(epochs(kernel, dist0, steps), maxlen=1)[0]


def tail_prob(dist: StateDistribution, threshold: float) -> float:
    """P[X > threshold] under this distribution (strictly above).

    Where the mass at or below the threshold is under 1/2, the tail is 1
    minus that mass: the smaller side's sum keeps the digits that a sum
    near 1 rounds away, so a tail curve of a q = 0 run from zero errors,
    which in exact arithmetic never falls, does not dip by an ulp near 1.
    With static phases a tail may truly fall.
    """
    first = first_above(threshold, dist.n)
    if first == 0:
        return 1.0
    if first > dist.n:
        return 0.0
    # the mass is nonnegative and sums to 1 within _MASS_TOL, so either side
    # lies in [0, 1] even where the pushed mass sums a few ulps off 1
    below = float(dist.mass[:first].sum())
    return 1.0 - below if below < 0.5 else float(dist.mass[first:].sum())


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
    Uses the correction-epoch kernel alone, ignoring static phases. A tol
    that is NaN, infinite or negative is refused: no drop would exceed it.
    """
    check_integer("m", m, least=1)
    if not 0.0 <= tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
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

    Pushing stops once no taboo mass is left: the later epochs keep pmf 0,
    and err still counts every phase through t_max on the static-phase
    schedule.
    """
    check_integer("t_max", t_max, least=1)
    params = kernel.params
    first = first_above(threshold, params.n)
    pmf = np.zeros(t_max + 1)
    if first == 0:
        # threshold below zero: the fresh memory already exceeds it
        pmf[0] = 1.0
        return HittingTimeDistribution(threshold=threshold, pmf=pmf, survival=0.0)
    pushes = _pushes(kernel, StateDistribution.point_mass(params.n).mass, 0, t_max, first)
    for t, (mass, _, cut) in enumerate(pushes, start=1):
        pmf[t] = cut
        if not mass.any():  # a NaN counts as mass
            break
    phases = t_max + sum(static_phase_due(t, params) for t in range(t_max))
    # the pushed mass can sum a few ulps above 1, as in tail_prob; unlike
    # min(1.0, x), np.minimum keeps a NaN
    return HittingTimeDistribution(
        threshold=threshold, pmf=pmf, survival=float(np.minimum(mass.sum(), 1.0)),
        err=phases * _TAIL_EPS,
    )


def mean_curve(params: ModelParams, t_max: int) -> np.ndarray:
    """Exact E[X_t] for t = 0..t_max, starting from zero errors.

    It is never below meanfield.mf_iterate(n, p, k / n, 0, t), with
    k = params.k_batch, the mean of the chain without its clamp at n clean
    qubits, and equals it to rounding wherever the clamp carries no mass.
    The budget is k/n, not alpha.

    Its kernel shares the blocks and rows of any live kernel of the same
    params, so a caller that holds one pays only for what it has not built
    yet.
    """
    check_integer("t_max", t_max, least=0)
    dists = epochs(build_kernel(params), StateDistribution.point_mass(params.n), t_max)
    return np.array([dist.mean() for dist in dists])
