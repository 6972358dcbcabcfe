"""Closed-form concentration, capacity and space-overhead calculators.

Everything here is arithmetic on the model rates, no simulation. The
overhead results are lower bounds on the number of physical qubits a
batch-limited memory needs per stored logical qubit; parameter regions
where no finite bound exists come back as explicit impossibility
verdicts rather than sentinel infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .chain import Noise
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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

    Members: the exact erasure capacity 1 - 2*gamma, the depolarizing
    hashing rate, or the hashing rate with a hard zero from gamma = 1/3 on
    (where the depolarizing capacity is known to vanish). Rates are
    clamped at zero; a member's value is its mode name in reports.
    """

    ERASURE_EXACT = "erasure-exact"
    DEPOLARIZING_HASHING = "hashing"
    DEPOLARIZING_HASHING_CUTOFF = "hashing-cutoff"

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
        elif self is CapacityKind.DEPOLARIZING_HASHING:
            rate = _hashing_rate(g)
        else:
            rate = np.where(g >= 1.0 / 3.0, 0.0, _hashing_rate(g))
        return float(rate[0]) if np.ndim(gamma) == 0 else rate.reshape(np.shape(gamma))


def _capacity_for(noise: Noise, capacity: CapacityKind | None) -> CapacityKind:
    """The capacity the bound divides by under this noise.

    Erasure noise has its exact capacity. Depolarizing noise takes the
    given hashing mode, plain hashing if none is given. A mode of the
    other noise is an error.
    """
    if noise is Noise.ERASURE:
        modes = (CapacityKind.ERASURE_EXACT,)
    else:
        modes = (CapacityKind.DEPOLARIZING_HASHING, CapacityKind.DEPOLARIZING_HASHING_CUTOFF)
    if capacity is None:
        return modes[0]
    if capacity not in modes:
        raise ValueError(f"capacity mode '{capacity.value}' does not apply to {noise.value} noise")
    return capacity


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


def _capacity_zero_hint(capacity: CapacityKind) -> float:
    if capacity is CapacityKind.ERASURE_EXACT:
        return 0.5
    if capacity is CapacityKind.DEPOLARIZING_HASHING_CUTOFF:
        return 1.0 / 3.0
    # hashing rate crosses zero near 0.2524; report the cutoff actually used
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
    """overhead_bound at every point of equal-length 1-d arrays.

    out_of_domain marks the points where overhead_bound raises, feasible
    those with a finite bound; the rest of the domain holds impossibility
    verdicts. Values that do not apply to a point are nan, or 0 for
    crossing_epochs. capacity is the capacity actually used, by the bound
    and the full-parallel baseline alike.
    """

    capacity: CapacityKind
    out_of_domain: np.ndarray
    feasible: np.ndarray
    alpha_threshold: np.ndarray
    noise_threshold: np.ndarray
    residual_rate: np.ndarray
    crossover_alpha: np.ndarray
    baseline_full_parallel: np.ndarray
    n_min: np.ndarray
    overhead_lb: np.ndarray
    crossing_epochs: np.ndarray


def overhead_columns(
    l, p, alpha, theta, noise: Noise = Noise.ERASURE, q=0.0,
    capacity: CapacityKind | None = None,
) -> BoundColumns:
    """overhead_bound over scalars or arrays, broadcast to one 1-d length.

    Points where overhead_bound would raise come back marked
    out_of_domain instead. The capacity is evaluated only at the points
    where overhead_bound evaluates it.
    """
    l, p, alpha, theta, q = _points(l, p, alpha, theta, q)
    capacity = _capacity_for(noise, capacity)
    out_of_domain = _broken(_domain_rules(l, p, alpha, theta, q))
    inside = ~out_of_domain
    alpha_thr = _alpha_threshold(p, noise)
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = (p - alpha) / p - theta
    base_rate = _capacity_where(capacity, _effective_rate(p, q), inside)
    rated = inside & (alpha >= alpha_thr)
    rate = _capacity_where(capacity, residual, rated)
    live = (rated & (rate > 0.0)).nonzero()[0]
    crossing_epochs = np.zeros(p.shape, dtype=np.int64)
    crossing_epochs[live], _, unreachable = _crossings(p[live], alpha[live], residual[live])
    out_of_domain[live[unreachable]] = True
    feasible = np.zeros(p.shape, dtype=bool)
    feasible[live[~unreachable]] = True
    n_min = np.divide(l, rate, out=np.full(p.shape, np.nan), where=feasible)
    return BoundColumns(
        capacity=capacity, out_of_domain=out_of_domain, feasible=feasible,
        alpha_threshold=alpha_thr, noise_threshold=_noise_threshold(alpha, noise),
        residual_rate=residual, crossover_alpha=p * (1.0 - p) * (1.0 - q),
        baseline_full_parallel=np.divide(l, base_rate, out=np.full(p.shape, np.nan),
                                         where=base_rate > 0.0),
        n_min=n_min, overhead_lb=n_min / l, crossing_epochs=crossing_epochs,
    )


def overhead_bound(
    l: int,
    p: float,
    alpha: float,
    theta: float,
    noise: Noise = Noise.ERASURE,
    q: float = 0.0,
    capacity: CapacityKind | None = None,
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
    crossover directly. capacity picks the depolarizing mode (hashing by
    default); erasure noise takes its exact capacity. This is the
    one-point case of overhead_columns.
    """
    columns = overhead_columns(l, p, alpha, theta, noise, q, capacity)
    values = {name: float(getattr(columns, name)[0]) for name in (
        "alpha_threshold", "noise_threshold", "residual_rate", "crossover_alpha",
        "baseline_full_parallel", "n_min", "overhead_lb")}
    if columns.out_of_domain[0]:
        _raise_first(_domain_rules(*_points(l, p, alpha, theta, q)))
        # inside the domain, only the crossing epoch can be missing
        epochs_to_cross(p, alpha, values["residual_rate"])
    capacity = columns.capacity
    if math.isnan(values["baseline_full_parallel"]):
        values["baseline_full_parallel"] = Impossibility(
            reason="capacity vanishes at the effective idle error rate",
            threshold_name="effective_error_rate",
            threshold_value=_capacity_zero_hint(capacity),
            actual=_effective_rate(p, q),
        )
    feasible = bool(columns.feasible[0])
    verdict = None
    if alpha < values["alpha_threshold"]:
        verdict = Impossibility(
            reason="correction budget below the fraction of p where any finite memory survives",
            threshold_name="alpha_threshold",
            threshold_value=values["alpha_threshold"],
            actual=alpha,
        )
    elif not feasible:
        verdict = Impossibility(
            reason=f"capacity mode '{capacity.value}' vanishes at the residual error rate",
            threshold_name="capacity_zero",
            threshold_value=_capacity_zero_hint(capacity),
            actual=values["residual_rate"],
        )
    if not feasible:
        values.update(n_min=None, overhead_lb=None)
    return BoundReport(
        l=l, p=p, alpha=alpha, theta=theta, q=q, noise=noise,
        capacity_mode=capacity.value, feasible=feasible, verdict=verdict,
        crossing_epochs=int(columns.crossing_epochs[0]) if feasible else None, **values,
    )


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
    """Overhead as a function of the correction budget on a device whose
    qubits decohere at rate kappa and take t_g per correction batch."""

    kappa: float
    t_g: float
    noise: Noise
    p: float
    alpha_min: float

    def overhead(self, alpha: float) -> float | Impossibility:
        """Exact overhead lower bound at budget fraction alpha.

        Erasure: (1 - exp(-kappa t_g)) / (2 alpha - 1 + exp(-kappa t_g)).
        Depolarizing: 1 / hashing_rate((p - alpha)/p). Budgets at or
        below alpha_min have no finite overhead.
        """
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        if alpha <= self.alpha_min:
            return Impossibility(
                reason="correction budget at or below the survivable minimum for this device",
                threshold_name="alpha_min",
                threshold_value=self.alpha_min,
                actual=alpha,
            )
        if self.noise is Noise.ERASURE:
            return self.p / (2.0 * alpha - self.p)
        hashing = CapacityKind.DEPOLARIZING_HASHING
        rate = hashing.eval(max(0.0, (self.p - alpha) / self.p) if self.p > 0 else 0.0)
        if rate <= 0.0:
            return Impossibility(
                reason="hashing rate vanishes at the residual error rate",
                threshold_name="capacity_zero",
                threshold_value=_capacity_zero_hint(hashing),
                actual=(self.p - alpha) / self.p,
            )
        return 1.0 / rate

    def small_budget_check(self, alpha: float) -> SmallBudgetCheck:
        """Compare the exact erasure fraction with its kappa*t_g << 1 form.

        For small kappa*t_g the overhead approaches
        1 / (2*alpha/(kappa*t_g) - 1); the ratio form itself is reported
        too, since 2*alpha/(kappa*t_g) > 1 is exactly the survivability
        condition.
        """
        if self.noise is not Noise.ERASURE:
            raise ValueError("the closed small-budget form applies to erasure noise")
        product = self.kappa * self.t_g
        if product <= 0.0:
            raise ValueError("kappa * t_g must be positive for the approximation")
        ratio = 2.0 * alpha / product - 1.0
        if ratio <= 0.0:
            raise ValueError(
                f"budget ratio 2*alpha/(kappa*t_g) must exceed 1, got {ratio + 1.0}"
            )
        exact = self.overhead(alpha)
        if isinstance(exact, Impossibility):
            raise ValueError("alpha sits below alpha_min, no exact overhead to compare")
        approx = 1.0 / ratio
        return SmallBudgetCheck(
            exact=exact,
            approx=approx,
            displayed_ratio=ratio,
            rel_error=abs(exact - approx) / exact,
        )


def kappa_surface(kappa: float, t_g: float, noise: Noise = Noise.ERASURE) -> KappaSurface:
    """Overhead surface for a device with decoherence rate kappa and batch
    duration t_g.

    The per-batch idle error probability is p = 1 - exp(-kappa * t_g);
    the minimum survivable budget fraction is p/2 for erasure and 2p/3
    for depolarizing noise.
    """
    for name, value in (("kappa", kappa), ("t_g", t_g), ("kappa * t_g", kappa * t_g)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if kappa < 0.0 or t_g < 0.0:
        raise ValueError("kappa and t_g must be >= 0")
    p = -math.expm1(-kappa * t_g)
    return KappaSurface(kappa=kappa, t_g=t_g, noise=noise, p=p,
                        alpha_min=_alpha_threshold(p, noise))
