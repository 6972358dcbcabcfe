"""Closed-form concentration, capacity and space-overhead calculators.

Everything here is arithmetic on the model rates, no simulation. The
overhead results are lower bounds on the number of physical qubits a
batch-limited memory needs per stored logical qubit; parameter regions
where no finite bound exists come back as explicit impossibility
verdicts rather than sentinel infinities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .chain import Noise, check_integer
from .meanfield import (
    Rule, _broken, _crossings, _points, _raise_first, _rate_rules, epochs_to_cross,
)

__all__ = [
    "HittingBound",
    "hitting_prob_lb",
    "CapacityKind",
    "Impossibility",
    "BoundReport",
    "overhead_bound",
    "BoundColumns",
    "overhead_columns",
    "KappaSurface",
    "SmallBudgetCheck",
    "kappa_surface",
]

_LOG2_3 = math.log2(3.0)


@dataclass(frozen=True)
class HittingBound:
    """Lower bound on P[X_t > n*beta], valid at every t >= T."""

    value: float
    T: int
    delta: float


def hitting_prob_lb(n: int, p: float, alpha: float, beta: float) -> HittingBound:
    """High-probability bound for crossing the fraction beta.

    After T = epochs_to_cross(p, alpha, beta) epochs the chain has
    exceeded n*beta with probability at least
    (1 - exp(-2 n (1-beta) delta^2))^T, and stays above it in the same
    sense forever after. Requires beta below (p - alpha)/p.
    """
    check_integer("n", n, least=1)
    crossing = epochs_to_cross(p, alpha, beta)
    per_epoch = -math.expm1(-2.0 * n * (1.0 - beta) * crossing.delta**2)
    return HittingBound(value=per_epoch**crossing.T, T=crossing.T, delta=crossing.delta)


def _entropy2(x: np.ndarray) -> np.ndarray:
    """Binary entropy in bits; 0 log 0 = 0."""
    inner = (x > 0.0) & (x < 1.0)
    y = np.where(inner, x, 0.5)
    return np.where(inner, -y * np.log2(y) - (1.0 - y) * np.log2(1.0 - y), 0.0)


def _hashing_rate(gamma: np.ndarray) -> np.ndarray:
    # Depolarizing convention: the state is replaced by I/2 with
    # probability gamma, i.e. X, Y, Z each hit with probability gamma/4.
    u = 0.75 * gamma
    return np.maximum(0.0, 1.0 - _entropy2(u) - u * _LOG2_3)


class CapacityKind(Enum):
    """Quantum capacity per channel use as a function of the error rate.

    One member per noise: the exact erasure capacity 1 - 2*gamma, and the
    depolarizing hashing rate, which is zero from gamma near 0.2524 on.
    Rates are clamped at zero; a member's value is its mode name in
    reports.
    """

    ERASURE_EXACT = "erasure-exact"
    DEPOLARIZING_HASHING = "hashing"

    def eval(self, gamma: float | np.ndarray) -> float | np.ndarray:
        """Capacity at gamma: a float for a float, an array for an array.

        A float is a one-point array evaluation, so it equals the same
        point evaluated inside an array.
        """
        g = np.atleast_1d(np.asarray(gamma, dtype=float))
        outside = ~((0.0 <= g) & (g <= 1.0))
        if outside.any():
            raise ValueError(f"gamma must lie in [0, 1], got {g[outside][0]}")
        if self is CapacityKind.ERASURE_EXACT:
            rate = np.maximum(0.0, 1.0 - 2.0 * g)
        else:
            rate = _hashing_rate(g)
        return float(rate[0]) if np.ndim(gamma) == 0 else rate.reshape(np.shape(gamma))


# The capacity the bound divides by under each noise.
_CAPACITY = {Noise.ERASURE: CapacityKind.ERASURE_EXACT,
             Noise.DEPOLARIZING: CapacityKind.DEPOLARIZING_HASHING}


@dataclass(frozen=True)
class Impossibility:
    """A parameter point where no finite bound (or memory) exists.

    Returned instead of a number so serialized outputs never carry
    sentinel infinities; names the violated threshold. The constant
    `impossible` field marks a verdict in serialized outputs.
    """

    reason: str
    threshold_name: str
    threshold_value: float
    actual: float
    impossible: bool = field(default=True, init=False)


@dataclass(frozen=True)
class BoundReport:
    """Space-overhead lower bound for one parameter point.

    feasible=False carries the verdict naming the violated threshold;
    n_min, overhead_lb and crossing_epochs are then None. The
    full-parallel baseline and the crossover budget are reported either
    way, since they only depend on the rates.
    """

    l: int
    p: float
    alpha: float
    theta: float
    q: float
    noise: Noise
    capacity_mode: str
    alpha_threshold: float
    noise_threshold: float
    residual_rate: float
    crossover_alpha: float
    baseline_full_parallel: float | Impossibility
    feasible: bool
    verdict: Impossibility | None
    n_min: float | None
    overhead_lb: float | None
    crossing_epochs: int | None


def _alpha_threshold(p, noise: Noise):
    return p / 2.0 if noise is Noise.ERASURE else 2.0 * p / 3.0


def _noise_threshold(alpha, noise: Noise):
    return 2.0 * alpha if noise is Noise.ERASURE else 1.5 * alpha


def _effective_rate(p, q):
    """Combined idle error rate 1 - (1-p)(1-q) of the fully parallel memory."""
    return 1.0 - (1.0 - p) * (1.0 - q)


def _capacity_where(capacity: CapacityKind, gamma: np.ndarray, where: np.ndarray) -> np.ndarray:
    """capacity at the points `where` selects, zero elsewhere."""
    rate = np.zeros_like(gamma)
    rate[where] = capacity.eval(gamma[where])
    return rate


@functools.cache
def _capacity_zero_hint(capacity: CapacityKind) -> float:
    """The least gamma where the capacity is zero, found once per process."""
    if capacity is CapacityKind.ERASURE_EXACT:
        return 0.5
    # the hashing rate only falls on [0, 1]; it crosses zero near 0.2524
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if capacity.eval(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _domain_rules(l, p, alpha, theta, q) -> tuple[Rule, ...]:
    """What overhead_bound requires of its arguments, in the order it checks."""
    with np.errstate(divide="ignore", invalid="ignore"):
        residual_cap = (p - alpha) / p
    return (
        ((l < 1), lambda i: ValueError(f"l must be >= 1, got {l[i]:g}")),
        *_rate_rules(p, alpha),
        (~((0.0 <= q) & (q <= 1.0)), lambda i: ValueError(f"q must lie in [0, 1], got {q[i]}")),
        (~((0.0 < theta) & (theta < residual_cap)), lambda i: ValueError(
            f"theta must lie in (0, (p - alpha)/p = {residual_cap[i]}), got {theta[i]}")),
    )


@dataclass(frozen=True)
class BoundColumns:
    """overhead_bound at every point of equal-length 1-d arrays: the one
    table of the overhead answer, which overhead_bound and the sweep read.

    status is "out-of-domain" where overhead_bound raises, "ok" where the
    bound is finite and "impossible" where it gives a verdict. A figure is
    NaN wherever it does not apply: each one out of the domain, n_min,
    overhead_lb and crossing_epochs unless the status is ok, and the
    baseline where the capacity vanishes at the effective idle rate.
    crossing_epochs holds the exact int64 counts as Python ints, as an
    int64 has no NaN. capacity_mode, the capacity of the bound and the
    baseline alike, is empty out of the domain.
    """

    capacity_mode: np.ndarray
    status: np.ndarray
    n_min: np.ndarray
    overhead_lb: np.ndarray
    crossing_epochs: np.ndarray
    alpha_threshold: np.ndarray
    noise_threshold: np.ndarray
    residual_rate: np.ndarray
    crossover_alpha: np.ndarray
    baseline_full_parallel: np.ndarray


def overhead_columns(l, p, alpha, theta, noise: Noise = Noise.ERASURE, q=0.0) -> BoundColumns:
    """overhead_bound over scalars or arrays, broadcast to one 1-d length.

    Points where overhead_bound would raise come back out-of-domain
    instead. The capacity is evaluated only at the points where
    overhead_bound evaluates it.
    """
    l, p, alpha, theta, q = _points(l, p, alpha, theta, q)
    capacity = _CAPACITY[noise]
    inside = ~_broken(_domain_rules(l, p, alpha, theta, q))
    alpha_thr = _alpha_threshold(p, noise)
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = (p - alpha) / p - theta
    rated = inside & (alpha >= alpha_thr)
    rate = _capacity_where(capacity, residual, rated)
    live = (rated & (rate > 0.0)).nonzero()[0]
    epochs, _, unreachable = _crossings(p[live], alpha[live], residual[live])
    inside[live[unreachable]] = False
    ok = live[~unreachable]
    crossing_epochs = np.full(p.shape, np.nan, dtype=object)
    crossing_epochs[ok] = epochs[~unreachable]
    status = np.where(inside, "impossible", "out-of-domain")
    status[ok] = "ok"
    n_min = np.divide(l, rate, out=np.full(p.shape, np.nan), where=status == "ok")
    base_rate = _capacity_where(capacity, _effective_rate(p, q), inside)
    alpha_thr, noise_thr, residual, crossover = (np.where(inside, v, np.nan) for v in (
        alpha_thr, _noise_threshold(alpha, noise), residual, p * (1.0 - p) * (1.0 - q)))
    return BoundColumns(
        capacity_mode=np.where(inside, capacity.value, ""), status=status,
        n_min=n_min, overhead_lb=n_min / l, crossing_epochs=crossing_epochs,
        alpha_threshold=alpha_thr, noise_threshold=noise_thr, residual_rate=residual,
        crossover_alpha=crossover,
        baseline_full_parallel=np.divide(l, base_rate, out=np.full(p.shape, np.nan),
                                         where=base_rate > 0.0),
    )


def overhead_bound(
    l: int,
    p: float,
    alpha: float,
    theta: float,
    noise: Noise = Noise.ERASURE,
    q: float = 0.0,
) -> BoundReport:
    """Physical qubits needed to hold l logical qubits, lower bound.

    The error fraction reliably exceeds (p - alpha)/p - theta within a
    size-independent number of epochs, so the code must operate at that
    residual rate: n_min = l / capacity((p - alpha)/p - theta). For
    erasure noise this is the closed form l*p / (2*alpha - p + 2*p*theta).
    Budgets at or below the threshold fraction of p (one half for
    erasure, two thirds for depolarizing) admit no finite bound and
    yield an impossibility verdict. The bound is evaluated at q = 0 and
    only tightens for q > 0; q enters the reported baseline and
    crossover directly. The noise picks the capacity: the exact one for
    erasure, the hashing rate for depolarizing. This is row 0 of
    overhead_columns, with each NaN as None.
    """
    check_integer("l", l)  # its range is a domain rule, shared with overhead_columns
    columns = overhead_columns(l, p, alpha, theta, noise, q)
    row = {f.name: getattr(columns, f.name).item(0) for f in fields(columns)}
    status = row.pop("status")
    if status == "out-of-domain":
        _raise_first(_domain_rules(*_points(l, p, alpha, theta, q)))
        # inside the domain, only the crossing epoch can be missing
        epochs_to_cross(p, alpha, (p - alpha) / p - theta)
    # each NaN, the one value unequal to itself, becomes None
    row = {name: None if value != value else value for name, value in row.items()}
    capacity = _CAPACITY[noise]
    if row["baseline_full_parallel"] is None:
        row["baseline_full_parallel"] = Impossibility(
            reason="capacity vanishes at the effective idle error rate",
            threshold_name="effective_error_rate",
            threshold_value=_capacity_zero_hint(capacity),
            actual=_effective_rate(p, q),
        )
    verdict = None
    if alpha < row["alpha_threshold"]:
        verdict = Impossibility(
            reason="correction budget below the fraction of p where any finite memory survives",
            threshold_name="alpha_threshold",
            threshold_value=row["alpha_threshold"],
            actual=alpha,
        )
    elif status == "impossible":
        verdict = Impossibility(
            reason=f"capacity mode '{capacity.value}' vanishes at the residual error rate",
            threshold_name="capacity_zero",
            threshold_value=_capacity_zero_hint(capacity),
            actual=row["residual_rate"],
        )
    return BoundReport(l=l, p=p, alpha=alpha, theta=theta, q=q, noise=noise,
                       feasible=status == "ok", verdict=verdict, **row)


@dataclass(frozen=True)
class SmallBudgetCheck:
    """Exact overhead fraction against its small-kappa*t_g approximation.

    displayed_ratio is 2*alpha/(kappa*t_g) - 1, the budget-to-decoherence
    ratio form; the approximation to the overhead itself is its
    reciprocal, and rel_error compares that against the exact fraction.
    """

    exact: float
    approx: float
    displayed_ratio: float
    rel_error: float


@dataclass(frozen=True)
class KappaSurface:
    """The overhead lower bound at one correction budget on a device whose
    qubits decohere at rate kappa and take t_g per correction batch.

    p is the per-batch idle error probability and alpha_min the minimum
    survivable budget fraction. overhead is a number, or an impossibility
    verdict where none is finite. small_budget_check is None where the
    kappa*t_g << 1 form does not apply: depolarizing noise, kappa*t_g = 0
    or 2*alpha <= kappa*t_g.
    """

    p: float
    alpha_min: float
    overhead: float | Impossibility
    small_budget_check: SmallBudgetCheck | None


def kappa_surface(
    kappa: float, t_g: float, alpha: float, noise: Noise = Noise.ERASURE,
) -> KappaSurface:
    """Overhead at budget fraction alpha for a device with decoherence rate
    kappa and batch duration t_g.

    The per-batch idle error probability is p = 1 - exp(-kappa * t_g).
    Budgets at or below alpha_min (p/2 for erasure, 2p/3 for depolarizing
    noise) have no finite overhead; above it the overhead is p/(2 alpha - p)
    for erasure and 1 / hashing_rate((p - alpha)/p) for depolarizing noise.
    The erasure overhead is compared with its kappa*t_g << 1 form
    1 / (2*alpha/(kappa*t_g) - 1), whose ratio 2*alpha/(kappa*t_g) > 1 is
    exactly the survivability condition.
    """
    for name, value in (("kappa", kappa), ("t_g", t_g), ("kappa * t_g", kappa * t_g)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if kappa < 0.0 or t_g < 0.0:
        raise ValueError("kappa and t_g must be >= 0")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    product = kappa * t_g
    p = -math.expm1(-product)
    alpha_min = _alpha_threshold(p, noise)
    hashing = CapacityKind.DEPOLARIZING_HASHING
    if alpha <= alpha_min:
        overhead = Impossibility(
            reason="correction budget at or below the survivable minimum for this device",
            threshold_name="alpha_min", threshold_value=alpha_min, actual=alpha,
        )
    elif noise is Noise.ERASURE:
        overhead = p / (2.0 * alpha - p)
    elif (rate := hashing.eval(max(0.0, (p - alpha) / p) if p > 0 else 0.0)) > 0.0:
        overhead = 1.0 / rate
    else:
        overhead = Impossibility(
            reason="hashing rate vanishes at the residual error rate",
            threshold_name="capacity_zero", threshold_value=_capacity_zero_hint(hashing),
            actual=(p - alpha) / p,
        )
    # an impossible erasure budget has 2*alpha <= p < kappa*t_g, so ratio <= 0
    ratio = 2.0 * alpha / product - 1.0 if product > 0.0 else 0.0
    check = None
    if noise is Noise.ERASURE and ratio > 0.0:
        check = SmallBudgetCheck(exact=overhead, approx=1.0 / ratio, displayed_ratio=ratio,
                                 rel_error=abs(overhead - 1.0 / ratio) / overhead)
    return KappaSurface(p=p, alpha_min=alpha_min, overhead=overhead, small_budget_check=check)
