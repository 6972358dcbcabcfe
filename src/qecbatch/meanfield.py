"""Deterministic mean-field iteration for the error-accumulation chain.

Replacing the binomial draw by a pessimistic mean (decoherence rate
p - delta) and the correction batch by its full budget n * alpha gives
the recursion

    g(x) = x + (n - x) * (p - delta) - n * alpha,

whose iterates from 0 admit a closed form and converge geometrically to
a fixed point below n * (p - alpha) / p. These iterates lower-bound
where the stochastic chain concentrates and yield an explicit epoch
count by which the error fraction first exceeds a target beta.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "InfeasibleThresholdError",
    "mf_iterate",
    "iterate_recursion",
    "epochs_to_cross",
    "CrossingTime",
]


class InfeasibleThresholdError(ValueError):
    """The target fraction is not reachable by the mean-field construction."""


# Formulas here run on 1-d float arrays; a scalar call is a one-point call,
# so it gives bit for bit what the same point gives inside a larger array.
# A domain rule pairs the mask of points that break it with the error
# raised for point i. A call checks its points in order and raises, for the
# first point that breaks a rule, the error of the first rule it breaks.
Rule = tuple[np.ndarray, Callable[[int], ValueError]]


def _points(*values) -> list[np.ndarray]:
    """Scalars or arrays broadcast to 1-d float arrays of one length."""
    return np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in values))


def _broken(rules: tuple[Rule, ...]) -> np.ndarray:
    """Mask of the points that break at least one rule."""
    return functools.reduce(operator.or_, (bad for bad, _ in rules))


def _raise_first(rules: tuple[Rule, ...]) -> None:
    """At the first point that breaks a rule, if any, raise the error of
    the first rule it breaks."""
    broken = _broken(rules)
    if broken.any():
        i = int(broken.argmax())
        raise next(error(i) for bad, error in rules if bad[i])


def _rate_rules(p: np.ndarray, alpha: np.ndarray) -> tuple[Rule, ...]:
    return (
        (~((0.0 < p) & (p <= 1.0)), lambda i: ValueError(f"p must lie in (0, 1], got {p[i]}")),
        (~((0.0 <= alpha) & (alpha < p)), lambda i: ValueError(
            f"alpha must lie in [0, p), got alpha={alpha[i]}, p={p[i]}")),
    )


# Crossing epochs must lie below this, so that stepping past one stays in int64.
_LAST_EPOCH = 2**62


def _room(p, alpha, beta):
    """Largest slack p - alpha/(1 - beta) that keeps the fixed point above beta."""
    return p - alpha / (1.0 - beta)


def _iterate_rules(p, alpha, delta, k) -> tuple[Rule, ...]:
    """What mf_iterate requires of its arguments."""
    return _rate_rules(p, alpha) + (
        (~((0.0 <= delta) & (delta < p - alpha)), lambda i: ValueError(
            f"delta must lie in [0, p - alpha), got delta={delta[i]}, "
            f"p - alpha={p[i] - alpha[i]}")),
        ((k.dtype == bool) | ~(np.isfinite(k) & (np.floor(k) == k)),
         lambda i: ValueError(f"k must be an integer, got {k[i]}")),
        (k < 0, lambda i: ValueError(f"k must be >= 0, got {k[i]}")),
    )


def _crossing_rules(p, alpha, beta, delta) -> tuple[Rule, ...]:
    """What epochs_to_cross requires of the rates, the target and the slack."""
    with np.errstate(divide="ignore", invalid="ignore"):
        limit = (p - alpha) / p
        room = _room(p, alpha, beta)
    return _rate_rules(p, alpha) + (
        (~((0.0 < beta) & (beta < limit)), lambda i: InfeasibleThresholdError(
            f"beta must lie in (0, {limit[i]}) for p={p[i]}, alpha={alpha[i]}; "
            f"got beta={beta[i]}")),
        # identical to beta >= limit in exact arithmetic; rounding can let
        # a boundary beta through the check above
        (room <= 0.0, lambda i: InfeasibleThresholdError(
            f"no positive slack exists below the fixed point for beta={beta[i]}")),
        (~((0.0 < delta) & (delta < room)), lambda i: ValueError(
            f"delta must lie in (0, {room[i]}) for these rates, got {delta[i]}")),
    )


def _fixed_point(n, rate, alpha):
    """Limit n * (rate - alpha) / rate of the iterates, with rate = p - delta."""
    return n * (rate - alpha) / rate


def _closed_form(fixed, rate, k):
    """The k-th iterate, fixed_point * (1 - (1 - rate)**k), without rounding 1 - rate."""
    return fixed * -np.expm1(k * np.log1p(-rate))


def mf_iterate(n, p, alpha, delta, k) -> float | np.ndarray:
    """Closed form for the k-th mean-field iterate started at zero.

    Equals k applications of g(x) = x + (n - x)(p - delta) - n * alpha:

        x_k = n * (p - delta - alpha) / (p - delta) * (1 - (1 - p + delta)**k)

    Requires 0 <= delta < p - alpha so the sequence is increasing, and
    an integer k >= 0 (a bool is refused, an integral float taken). Takes
    scalars or 1-d arrays broadcast to one length; returns a float when
    all are scalars and an array otherwise. A point outside the domain
    raises its first rule's error.

    With delta = 0 and the budget k/n, k = ModelParams.k_batch,
    mf_iterate(n, p, k / n, 0, t) is E[X_t] of the unclamped chain from
    zero errors: in clean qubits C = n - X, one epoch is
    C' = Bin(C, 1 - p) + k, whose mean is (1 - p) E[C] + k. The real chain
    clamps C' at n, which only adds errors, so exact.mean_curve is never
    below this iterate, and equals it to rounding wherever the clamp
    carries no mass. The budget is k/n = floor(n * alpha)/n, not alpha.
    """
    n_, p_, alpha_, delta_, k_ = np.broadcast_arrays(*_points(n, p, alpha, delta),
                                                      np.atleast_1d(k))
    _raise_first(_iterate_rules(p_, alpha_, delta_, k_))
    rate = p_ - delta_
    x = _closed_form(_fixed_point(n_, rate, alpha_), rate, k_)
    return x if any(np.ndim(v) for v in (n, p, alpha, delta, k)) else float(x[0])


def iterate_recursion(n: float, p: float, alpha: float, delta: float, k: int) -> float:
    """k explicit applications of g, the cross-check route for mf_iterate;
    it refuses what mf_iterate refuses."""
    _raise_first(_iterate_rules(*_points(p, alpha, delta), np.atleast_1d(k)))
    x = 0.0
    for _ in range(int(k)):
        x = x + (n - x) * (p - delta) - n * alpha
    return x


@dataclass(frozen=True)
class CrossingTime:
    """Epoch count returned by epochs_to_cross, with the slack delta used;
    an array of each for array input."""

    T: int | np.ndarray
    delta: float | np.ndarray


def _crossings(p, alpha, beta, delta=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Crossing epochs T, the smallest k with x_k > beta (n = 1), over 1-d
    arrays; the slack used (half the room unless given); and the mask of
    points where epochs_to_cross raises: a broken rule, or no crossing
    epoch below _LAST_EPOCH. T = 0 there.

    From x_0 = 0 <= beta, hi doubles from 1 until the evaluated closed form
    passes beta, lo keeping the last k that did not; bisecting (lo, hi]
    then gives T exactly, in at most 2 * 62 passes of the closed form.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if delta is None:
            delta = 0.5 * _room(p, alpha, beta)
        broken = _broken(_crossing_rules(p, alpha, beta, delta))
        rate = p - delta
        fixed = _fixed_point(1.0, rate, alpha)
    live = (~broken).nonzero()[0]

    def crossed(idx: np.ndarray, at: np.ndarray) -> np.ndarray:
        point = live[idx]
        return _closed_form(fixed[point], rate[point], at) > beta[point]

    lo, hi = np.zeros(live.size, dtype=np.int64), np.ones(live.size, dtype=np.int64)
    short = np.arange(live.size)
    while short.size:
        short = short[~crossed(short, hi[short])]
        lo[short] = hi[short]  # lo = hi where x stays at or below beta up to _LAST_EPOCH
        short = short[hi[short] < _LAST_EPOCH]
        hi[short] = np.minimum(2 * hi[short], _LAST_EPOCH)
    wide = (hi - lo > 1).nonzero()[0]
    while wide.size:
        mid = lo[wide] + (hi[wide] - lo[wide]) // 2
        below = crossed(wide, mid)
        hi[wide[below]], lo[wide[~below]] = mid[below], mid[~below]
        wide = wide[hi[wide] - lo[wide] > 1]
    broken[live[hi >= _LAST_EPOCH]] = True
    T = np.zeros(p.shape, dtype=np.int64)
    T[live] = hi
    T[broken] = 0
    return T, delta, broken


def epochs_to_cross(p, alpha, beta, delta=None) -> CrossingTime:
    """Epochs for the mean-field iterates to exceed the fraction beta.

    delta defaults to half the available room, (p - alpha/(1-beta)) / 2.
    The count depends only on the rates, not on the memory size: the
    first epoch whose closed form, as evaluated, exceeds beta, found in a
    bounded number of passes. Raises InfeasibleThresholdError when
    beta >= (p - alpha) / p, where the fixed point itself sits at or below
    the target, and ValueError where that holds only after rounding or
    the epoch lies at or past 2^62. Takes scalars or 1-d arrays broadcast
    to one length, like mf_iterate; a point outside the domain raises its
    first rule's error.
    """
    values = (p, alpha, beta) if delta is None else (p, alpha, beta, delta)
    p_, alpha_, beta_, *given = _points(*values)
    T, delta_, broken = _crossings(p_, alpha_, beta_, *given)
    if broken.any():
        _raise_first(_crossing_rules(p_, alpha_, beta_, delta_) + ((broken, lambda i: ValueError(
            f"no crossing epoch is representable in floating point for p={p_[i]}, "
            f"alpha={alpha_[i]}, beta={beta_[i]}, delta={delta_[i]}")),))
    if any(np.ndim(v) for v in values):
        return CrossingTime(T=T, delta=delta_)
    return CrossingTime(T=int(T[0]), delta=float(delta_[0]))
