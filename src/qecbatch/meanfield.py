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
    if not any(isinstance(v, np.ndarray) for v in values):
        return list(np.array(values, dtype=float).reshape(len(values), 1))
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


def _room(p, alpha, beta):
    """Largest slack p - alpha/(1 - beta) that keeps the fixed point above beta."""
    return p - alpha / (1.0 - beta)


def _iterate_rules(p, alpha, delta, k) -> tuple[Rule, ...]:
    """What mf_iterate requires of its arguments."""
    return _rate_rules(p, alpha) + (
        (~((0.0 <= delta) & (delta < p - alpha)), lambda i: ValueError(
            f"delta must lie in [0, p - alpha), got delta={delta[i]}, "
            f"p - alpha={p[i] - alpha[i]}")),
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
    """The k-th iterate, fixed_point * (1 - (1 - rate)**k)."""
    return fixed * (1.0 - (1.0 - rate) ** k)


def mf_iterate(n, p, alpha, delta, k) -> float | np.ndarray:
    """Closed form for the k-th mean-field iterate started at zero.

    Equals k applications of g(x) = x + (n - x)(p - delta) - n * alpha:

        x_k = n * (p - delta - alpha) / (p - delta) * (1 - (1 - p + delta)**k)

    Requires 0 <= delta < p - alpha so the sequence is increasing, and
    k >= 0. Takes scalars or 1-d arrays broadcast to one length; returns a
    float when all are scalars and an array otherwise. A point outside
    the domain raises its first rule's error.
    """
    n_, p_, alpha_, delta_, k_ = np.broadcast_arrays(*_points(n, p, alpha, delta),
                                                      np.atleast_1d(k))
    _raise_first(_iterate_rules(p_, alpha_, delta_, k_))
    rate = p_ - delta_
    x = _closed_form(_fixed_point(n_, rate, alpha_), rate, k_)
    return x if any(isinstance(v, np.ndarray) for v in (n, p, alpha, delta, k)) else float(x[0])


def iterate_recursion(n: float, p: float, alpha: float, delta: float, k: int) -> float:
    """k explicit applications of g, the cross-check route for mf_iterate."""
    _raise_first(_rate_rules(*_points(p, alpha)))
    x = 0.0
    for _ in range(k):
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
    epoch representable in floating point. T = 0 there.

    The candidate comes from the logarithm of the closed form. It can
    straddle an integer by a rounding error, so each point is nudged in
    masked steps against closed-form evaluations of x_k. The result is
    exact for the strict crossing x_k > beta.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if delta is None:
            delta = 0.5 * _room(p, alpha, beta)
        broken = _broken(_crossing_rules(p, alpha, beta, delta))
        rate = p - delta
        fixed = _fixed_point(1.0, rate, alpha)
        numerator = (np.log(p - alpha - p * beta - delta * (1.0 - beta))
                     - np.log(p - alpha - delta))
        guess = np.ceil(numerator / np.log(1.0 - p + delta))
    # no candidate (a log of a non-positive number or a zero divisor), or
    # iterates that stay put or never exceed the target in floating point
    broken |= ~(np.isfinite(guess) & (guess < 2.0**62) & (1.0 - rate < 1.0) & (fixed > beta))
    T = np.where(broken, 0, np.maximum(guess, 1.0)).astype(np.int64)

    def crossed(idx: np.ndarray, at: np.ndarray) -> np.ndarray:
        return _closed_form(fixed[idx], rate[idx], at) > beta[idx]

    down = (T > 1).nonzero()[0]
    while down.size:
        down = down[crossed(down, T[down] - 1)]
        T[down] -= 1
        down = down[T[down] > 1]
    up = (~broken).nonzero()[0]
    while up.size:
        up = up[~crossed(up, T[up])]
        T[up] += 1
    return T, delta, broken


def epochs_to_cross(p, alpha, beta, delta=None) -> CrossingTime:
    """Epochs for the mean-field iterates to exceed the fraction beta.

    delta defaults to half the available room, (p - alpha/(1-beta)) / 2.
    The count depends only on the rates, not on the memory size. Raises
    InfeasibleThresholdError when beta >= (p - alpha) / p, where the
    fixed point itself sits at or below the target, and ValueError where
    that holds only after rounding, so that no epoch crosses. Takes
    scalars or 1-d arrays broadcast to one length, like mf_iterate; a
    point outside the domain raises its first rule's error.
    """
    values = (p, alpha, beta) if delta is None else (p, alpha, beta, delta)
    p_, alpha_, beta_, *given = _points(*values)
    T, delta_, broken = _crossings(p_, alpha_, beta_, *given)
    if broken.any():
        _raise_first(_crossing_rules(p_, alpha_, beta_, delta_) + ((broken, lambda i: ValueError(
            f"no crossing epoch is representable in floating point for p={p_[i]}, "
            f"alpha={alpha_[i]}, beta={beta_[i]}, delta={delta_[i]}")),))
    if any(isinstance(v, np.ndarray) for v in values):
        return CrossingTime(T=T, delta=delta_)
    return CrossingTime(T=int(T[0]), delta=float(delta_[0]))
