"""Closed-form concentration, capacity and space-overhead calculators.

Everything here is arithmetic on the model rates, no simulation. The
overhead results are lower bounds on the number of physical qubits a
batch-limited memory needs per stored logical qubit; parameter regions
where no finite bound exists come back as explicit impossibility
verdicts rather than sentinel infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar

import numpy as np

from .chain import Noise, check_integer
from .meanfield import (
    Rule, _broken, _crossings, _points, _raise_first, _rate_rules, epochs_to_cross,
)

__all__ = [
    "HittingBound",
    "hitting_prob_lb",
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


@dataclass(frozen=True)
class _Law:
    """Everything the bound takes from the noise.

    rate is the capacity per channel use on an array of error rates
    gamma, clamped at zero, zero the least gamma where it is zero, and
    mode its name in reports. num/den is one minus the error rate where
    the channel's quantum capacity vanishes (Bennett, DiVincenzo & Smolin
    1997): a budget alpha below p * num / den leaves a steady error
    fraction (p - alpha)/p that no code survives. That is the budget
    threshold, and alpha * den / num is the noise threshold of a budget.
    """

    mode: str
    rate: Callable[[np.ndarray], np.ndarray]
    zero: float
    num: int
    den: int


# Erasure: the exact capacity, zero from gamma = 1/2 on. Depolarizing:
# the hashing rate, zero from gamma near 0.2524 on, although the quantum
# capacity only vanishes at gamma = 1/3.
_LAWS = {
    Noise.ERASURE: _Law("erasure-exact", lambda gamma: np.maximum(0.0, 1.0 - 2.0 * gamma),
                        0.5, 1, 2),
    Noise.DEPOLARIZING: _Law("hashing", _hashing_rate, 0.2523861665536424, 2, 3),
}


# The labels that BoundColumns.status and capacity_mode hold as one code a
# point: an index into these tables.
_STATUSES = ("ok", "impossible", "out-of-domain")
_OK, _IMPOSSIBLE, _OUT_OF_DOMAIN = range(len(_STATUSES))
_CAPACITY_MODES = ("", *(law.mode for law in _LAWS.values()))


def _law(noise: Noise) -> _Law:
    """The law of a Noise member; any other value, its string included, is refused."""
    if not isinstance(noise, Noise):
        raise ValueError(f"noise must be a Noise member, got {noise!r}")
    return _LAWS[noise]


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


def _effective_rate(p, q):
    """Combined idle error rate 1 - (1-p)(1-q) of the fully parallel memory."""
    return 1.0 - (1.0 - p) * (1.0 - q)


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
    bound is finite and "impossible" where it gives a verdict.
    capacity_mode names the noise's capacity, which both the bound and the
    baseline divide by; it is empty out of the domain. These two are label
    columns, one uint8 code a point into the column's table in LABELS. A
    figure is NaN wherever it does not apply: each one out of the domain,
    n_min, overhead_lb and crossing_epochs unless the status is ok, and the
    baseline where the capacity vanishes at the effective idle rate.
    crossing_epochs holds the exact int64 counts as Python ints, as an
    int64 has no NaN.
    """

    LABELS: ClassVar[dict[str, tuple[str, ...]]] = {
        "capacity_mode": _CAPACITY_MODES, "status": _STATUSES}

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
    instead.
    """
    law = _law(noise)
    l, p, alpha, theta, q = _points(l, p, alpha, theta, q)
    inside = ~_broken(_domain_rules(l, p, alpha, theta, q))
    alpha_thr = p * law.num / law.den
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = (p - alpha) / p - theta
    rated = inside & (alpha >= alpha_thr)
    rate = np.where(rated, law.rate(np.where(rated, residual, 0.0)), 0.0)
    live = (rated & (rate > 0.0)).nonzero()[0]
    epochs, _, unreachable = _crossings(p[live], alpha[live], residual[live])
    inside[live[unreachable]] = False
    ok = live[~unreachable]
    crossing_epochs = np.full(p.shape, np.nan, dtype=object)
    crossing_epochs[ok] = epochs[~unreachable]
    status = np.where(inside, np.uint8(_IMPOSSIBLE), np.uint8(_OUT_OF_DOMAIN))
    status[ok] = _OK
    n_min = np.divide(l, rate, out=np.full(p.shape, np.nan), where=status == _OK)
    base_rate = np.where(inside, law.rate(np.where(inside, _effective_rate(p, q), 0.0)), 0.0)
    alpha_thr, noise_thr, residual, crossover = (np.where(inside, v, np.nan) for v in (
        alpha_thr, alpha * law.den / law.num, residual, p * (1.0 - p) * (1.0 - q)))
    return BoundColumns(
        capacity_mode=np.where(inside, np.uint8(_CAPACITY_MODES.index(law.mode)), np.uint8(0)),
        status=status, n_min=n_min, overhead_lb=n_min / l, crossing_epochs=crossing_epochs,
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
    The noise fixes one law: the capacity (exact for erasure, the hashing
    rate for depolarizing), the error rate where it is zero, and the
    fraction of p (one half for erasure, two thirds for depolarizing)
    below which a budget admits no finite bound and yields an
    impossibility verdict; the noise threshold is the budget over that
    fraction. The bound is evaluated at q = 0 and only tightens for
    q > 0; q enters the reported baseline and crossover directly. This
    is row 0 of overhead_columns, with each NaN as None.
    """
    check_integer("l", l, below=2**63)  # its least value is a domain rule of overhead_columns
    columns = overhead_columns(l, p, alpha, theta, noise, q)
    row = {f.name: getattr(columns, f.name).item(0) for f in fields(columns)}
    row.update((name, labels[row[name]]) for name, labels in columns.LABELS.items())
    status = row.pop("status")
    if status == "out-of-domain":
        _raise_first(_domain_rules(*_points(l, p, alpha, theta, q)))
        # inside the domain, only the crossing epoch can be missing
        epochs_to_cross(p, alpha, (p - alpha) / p - theta)
    # each NaN, the one value unequal to itself, becomes None
    row = {name: None if value != value else value for name, value in row.items()}
    law = _law(noise)
    if row["baseline_full_parallel"] is None:
        row["baseline_full_parallel"] = Impossibility(
            reason="capacity vanishes at the effective idle error rate",
            threshold_name="effective_error_rate",
            threshold_value=law.zero,
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
            reason=f"capacity mode '{law.mode}' vanishes at the residual error rate",
            threshold_name="capacity_zero",
            threshold_value=law.zero,
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

    The laws, not the paper's abstract, set the domain alpha_min < alpha < p,
    where (p - alpha)/p > 0. At alpha >= p that rate is clamped at 0, so
    erasure gives p/(2 alpha - p) <= 1 (0 at kappa*t_g = 0), depolarizing 1.
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
    law = _law(noise)
    alpha_min = p * law.num / law.den
    rate = law.rate(np.array([max(0.0, (p - alpha) / p) if p > 0 else 0.0])).item()
    if alpha <= alpha_min:
        overhead = Impossibility(
            reason="correction budget at or below the survivable minimum for this device",
            threshold_name="alpha_min", threshold_value=alpha_min, actual=alpha,
        )
    elif noise is Noise.ERASURE:
        overhead = p / (2.0 * alpha - p)
    elif rate > 0.0:
        overhead = 1.0 / rate
    else:
        overhead = Impossibility(
            reason=f"{law.mode} rate vanishes at the residual error rate",
            threshold_name="capacity_zero", threshold_value=law.zero,
            actual=(p - alpha) / p,
        )
    # an impossible erasure budget has 2*alpha <= p < kappa*t_g, so ratio <= 0
    ratio = 2.0 * alpha / product - 1.0 if product > 0.0 else 0.0
    check = None
    if noise is Noise.ERASURE and ratio > 0.0:
        check = SmallBudgetCheck(exact=overhead, approx=1.0 / ratio, displayed_ratio=ratio,
                                 rel_error=abs(overhead - 1.0 / ratio) / overhead)
    return KappaSurface(p=p, alpha_min=alpha_min, overhead=overhead, small_budget_check=check)
