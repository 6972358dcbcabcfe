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
    "MeanFieldSequence",
    "mf_iterate",
    "iterate_recursion",
    "epochs_to_cross",
    "CrossingTime",
    "sketch_phase_bound",
]


class InfeasibleThresholdError(ValueError):
    """The target fraction is not reachable by the mean-field construction."""


# Formulas here run on 1-d float arrays; a scalar call is a one-point call,
# so it gives bit for bit what the same point gives inside a larger array.
# A domain rule pairs the mask of points that break it with the error a
# one-point call raises for point i; a function's rules are listed in the
# order its scalar form checks them.
Rule = tuple[np.ndarray, Callable[[int], ValueError]]


def _points(*values) -> list[np.ndarray]:
    """Scalars or arrays broadcast to 1-d float arrays of one length."""
    if not any(isinstance(v, np.ndarray) for v in values):
        return list(np.array(values, dtype=float).reshape(len(values), 1))
    return np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in values))


def _broken(rules: tuple[Rule, ...]) -> np.ndarray:
    """Mask of the points that break at least one rule."""
    return functools.reduce(operator.or_, (bad for bad, _ in rules))


def _raise_first(rules: tuple[Rule, ...], i: int = 0) -> None:
    """Raise the error of the first rule that point i breaks, if any."""
    for bad, error in rules:
        if bad[i]:
            raise error(i)


def _rate_rules(p: np.ndarray, alpha: np.ndarray) -> tuple[Rule, ...]:
    return (
        (~((0.0 < p) & (p <= 1.0)), lambda i: ValueError(f"p must lie in (0, 1], got {p[i]}")),
        (~((0.0 <= alpha) & (alpha < p)), lambda i: ValueError(
            f"alpha must lie in [0, p), got alpha={alpha[i]}, p={p[i]}")),
    )


def _validate_rates(p: float, alpha: float) -> None:
    _raise_first(_rate_rules(*_points(p, alpha)))


def _room(p, alpha, beta):
    """Largest slack p - alpha/(1 - beta) that keeps the fixed point above beta."""
    return p - alpha / (1.0 - beta)


def _default_delta(p, alpha, beta):
    """Half the room, the slack epochs_to_cross uses unless given one."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * _room(p, alpha, beta)


def _sequence_rules(p, alpha, beta, delta, n) -> tuple[Rule, ...]:
    """What MeanFieldSequence requires of its fields."""
    with np.errstate(divide="ignore", invalid="ignore"):
        limit = (p - alpha) / p
        room = _room(p, alpha, beta)
    return _rate_rules(p, alpha) + (
        (n <= 0, lambda i: ValueError(f"n must be positive, got {n[i]}")),
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
    """The k-th iterate, fixed_point * (1 - (1 - rate)**k)."""
    return fixed * (1.0 - (1.0 - rate) ** k)


def mf_iterate(n: float, p: float, alpha: float, delta: float, k: int) -> float:
    """Closed form for the k-th mean-field iterate started at zero.

    Equals k applications of g(x) = x + (n - x)(p - delta) - n * alpha:

        x_k = n * (p - delta - alpha) / (p - delta) * (1 - (1 - p + delta)**k)

    Requires 0 <= delta < p - alpha so the sequence is increasing.
    """
    _validate_rates(p, alpha)
    if not 0.0 <= delta < p - alpha:
        raise ValueError(
            f"delta must lie in [0, p - alpha), got delta={delta}, p - alpha={p - alpha}"
        )
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n_, p_, alpha_, delta_ = _points(n, p, alpha, delta)
    rate = p_ - delta_
    return float(_closed_form(_fixed_point(n_, rate, alpha_), rate, np.atleast_1d(k))[0])


def iterate_recursion(n: float, p: float, alpha: float, delta: float, k: int) -> float:
    """k explicit applications of g, the cross-check route for mf_iterate."""
    _validate_rates(p, alpha)
    x = 0.0
    for _ in range(k):
        x = x + (n - x) * (p - delta) - n * alpha
    return x


@dataclass(frozen=True)
class MeanFieldSequence:
    """Mean-field iterates aimed at a target error fraction beta.

    delta must leave room below the fixed point, 0 < delta < p - alpha/(1-beta),
    which guarantees the iterates cross n * beta after finitely many epochs.
    """

    p: float
    alpha: float
    beta: float
    delta: float
    n: float = 1.0

    def __post_init__(self) -> None:
        _raise_first(_sequence_rules(*_points(self.p, self.alpha, self.beta, self.delta, self.n)))

    @property
    def fixed_point(self) -> float:
        """Limit of the iterates, n * (p - delta - alpha) / (p - delta)."""
        return _fixed_point(self.n, self.p - self.delta, self.alpha)

    def x(self, k: int) -> float:
        """The k-th iterate (closed form)."""
        return mf_iterate(self.n, self.p, self.alpha, self.delta, k)

    @property
    def crossing_epoch(self) -> int:
        """Smallest k with x(k) > n * beta."""
        point = _points(self.p, self.alpha, self.beta, self.delta, self.n)
        k, unreachable = _crossing_epoch(*point)
        if unreachable[0]:
            raise ValueError(
                f"no crossing epoch is representable in floating point for p={self.p}, "
                f"alpha={self.alpha}, beta={self.beta}, delta={self.delta}"
            )
        return int(k[0])


@dataclass(frozen=True)
class CrossingTime:
    """Epoch count returned by epochs_to_cross, with the slack delta used."""

    T: int
    delta: float


def _crossing_epoch(p, alpha, beta, delta, n) -> tuple[np.ndarray, np.ndarray]:
    """Smallest k with x_k > n * beta at each point of valid sequences, and
    the mask of points where floating point has no such k (k = 0 there).

    The candidate comes from the logarithm of the closed form. It can
    straddle an integer by a rounding error, so each point is nudged in
    masked steps against closed-form evaluations of x_k. The result is
    exact for the strict crossing x_k > n * beta.
    """
    rate = p - delta
    fixed = _fixed_point(n, rate, alpha)
    target = n * beta
    with np.errstate(divide="ignore", invalid="ignore"):
        numerator = (np.log(p - alpha - p * beta - delta * (1.0 - beta))
                     - np.log(p - alpha - delta))
        guess = np.ceil(numerator / np.log(1.0 - p + delta))
    # no candidate (a log of a non-positive number or a zero divisor), or
    # iterates that stay put or never exceed the target in floating point
    unreachable = ~(np.isfinite(guess) & (guess < 2.0**62) & (1.0 - rate < 1.0)
                    & (fixed > target))
    k = np.where(unreachable, 0, np.maximum(guess, 1.0)).astype(np.int64)

    def crossed(idx: np.ndarray, at: np.ndarray) -> np.ndarray:
        return _closed_form(fixed[idx], rate[idx], at) > target[idx]

    down = (k > 1).nonzero()[0]
    while down.size:
        down = down[crossed(down, k[down] - 1)]
        k[down] -= 1
        down = down[k[down] > 1]
    up = (~unreachable).nonzero()[0]
    while up.size:
        up = up[~crossed(up, k[up])]
        k[up] += 1
    return k, unreachable


def _crossings(p, alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """epochs_to_cross(p, alpha, beta).T over 1-d arrays, and the mask of
    points where epochs_to_cross raises (T = 0 there)."""
    delta = _default_delta(p, alpha, beta)
    broken = _broken(_sequence_rules(p, alpha, beta, delta, np.ones_like(p)))
    valid = (~broken).nonzero()[0]
    T = np.zeros(p.shape, dtype=np.int64)
    epochs, unreachable = _crossing_epoch(p[valid], alpha[valid], beta[valid], delta[valid], 1.0)
    T[valid] = epochs
    broken[valid[unreachable]] = True
    return T, broken


def epochs_to_cross(
    p: float, alpha: float, beta: float, delta: float | None = None
) -> CrossingTime:
    """Epochs for the mean-field iterates to exceed the fraction beta.

    delta defaults to half the available room, (p - alpha/(1-beta)) / 2.
    The count depends only on the rates, not on the memory size. Raises
    InfeasibleThresholdError when beta >= (p - alpha) / p, where the
    fixed point itself sits at or below the target, and ValueError where
    that holds only after rounding, so that no epoch crosses.
    """
    if delta is None:
        delta = float(_default_delta(*_points(p, alpha, beta))[0])
    seq = MeanFieldSequence(p=p, alpha=alpha, beta=beta, delta=delta)
    return CrossingTime(T=seq.crossing_epoch, delta=delta)


def sketch_phase_bound(p: float, alpha: float, epsilon: float) -> float:
    """Coarse epoch bound (p - alpha) / (epsilon * p^2).

    Crude count of growth phases needed to climb within epsilon of the
    steady fraction (p - alpha) / p: while the fraction is more than
    epsilon below it, each epoch gains at least epsilon * p per qubit.
    Requires 0 < epsilon < (p - alpha) / p.
    """
    _validate_rates(p, alpha)
    if not 0.0 < epsilon < (p - alpha) / p:
        raise ValueError(
            f"epsilon must lie in (0, {(p - alpha) / p}), got {epsilon}"
        )
    return (p - alpha) / (epsilon * p * p)
