"""Closed-form concentration, capacity and space-overhead calculators.

Everything here is arithmetic on the model rates, no simulation. The
overhead results are lower bounds on the number of physical qubits a
batch-limited memory needs per stored logical qubit; parameter regions
where no finite bound exists come back as explicit impossibility
verdicts rather than sentinel infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .chain import Noise
from .meanfield import epochs_to_cross

__all__ = [
    "conc_bound",
    "HittingBound",
    "hitting_prob_lb",
    "CapacityKind",
    "CapacityFn",
    "ERASURE_EXACT",
    "DEPOLARIZING_HASHING",
    "DEPOLARIZING_HASHING_CUTOFF",
    "user_capacity",
    "default_capacity",
    "capacity",
    "Impossibility",
    "BoundReport",
    "overhead_bound",
    "full_parallel_baseline",
    "crossover_alpha",
    "KappaSurface",
    "SmallBudgetCheck",
    "kappa_surface",
]

_LOG2_3 = math.log2(3.0)


def conc_bound(n: int, epsilon: float) -> float:
    """Two-sided binomial concentration envelope exp(-2 n epsilon^2).

    Upper-bounds P[X >= m(p + eps)] for X ~ Binomial(m, p) with m <= n,
    and is vacuous (1.0) at epsilon = 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return math.exp(-2.0 * n * epsilon * epsilon)


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


class CapacityKind(Enum):
    ERASURE_EXACT = "erasure-exact"
    DEPOLARIZING_HASHING = "hashing"
    DEPOLARIZING_HASHING_CUTOFF = "hashing-cutoff"
    USER_SUPPLIED = "user"


def _entropy2(x: float) -> float:
    """Binary entropy in bits; 0 log 0 = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _hashing_rate(gamma: float) -> float:
    # Depolarizing convention: the state is replaced by I/2 with
    # probability gamma, i.e. X, Y, Z each hit with probability gamma/4.
    u = 0.75 * gamma
    return max(0.0, 1.0 - _entropy2(u) - u * _LOG2_3)


@dataclass(frozen=True)
class CapacityFn:
    """Quantum capacity per channel use as a function of the error rate.

    Kinds: the exact erasure capacity 1 - 2*gamma, the depolarizing
    hashing rate, the hashing rate with a hard zero from gamma = 1/3 on
    (where the depolarizing capacity is known to vanish), or any
    user-supplied callable. Values are clamped at zero.
    """

    kind: CapacityKind
    user_eval: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        if (self.kind is CapacityKind.USER_SUPPLIED) != (self.user_eval is not None):
            raise ValueError("user_eval is required exactly for USER_SUPPLIED kind")

    def eval(self, gamma: float) -> float:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        if self.kind is CapacityKind.ERASURE_EXACT:
            return max(0.0, 1.0 - 2.0 * gamma)
        if self.kind is CapacityKind.DEPOLARIZING_HASHING:
            return _hashing_rate(gamma)
        if self.kind is CapacityKind.DEPOLARIZING_HASHING_CUTOFF:
            return 0.0 if gamma >= 1.0 / 3.0 else _hashing_rate(gamma)
        return max(0.0, float(self.user_eval(gamma)))


ERASURE_EXACT = CapacityFn(CapacityKind.ERASURE_EXACT)
DEPOLARIZING_HASHING = CapacityFn(CapacityKind.DEPOLARIZING_HASHING)
DEPOLARIZING_HASHING_CUTOFF = CapacityFn(CapacityKind.DEPOLARIZING_HASHING_CUTOFF)


def user_capacity(fn: Callable[[float], float]) -> CapacityFn:
    return CapacityFn(kind=CapacityKind.USER_SUPPLIED, user_eval=fn)


def default_capacity(noise: Noise) -> CapacityFn:
    return ERASURE_EXACT if noise is Noise.ERASURE else DEPOLARIZING_HASHING


@dataclass(frozen=True)
class Impossibility:
    """A parameter point where no finite bound (or memory) exists.

    Returned instead of a number so serialized outputs never carry
    sentinel infinities; names the violated threshold.
    """

    reason: str
    threshold_name: str
    threshold_value: float
    actual: float

    def to_dict(self) -> dict:
        return {
            "impossible": True,
            "reason": self.reason,
            "threshold_name": self.threshold_name,
            "threshold_value": self.threshold_value,
            "actual": self.actual,
        }


def _serialize(value: float | int | Impossibility | None):
    if isinstance(value, Impossibility):
        return value.to_dict()
    return value


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

    def to_dict(self) -> dict:
        return {
            "l": self.l,
            "p": self.p,
            "alpha": self.alpha,
            "theta": self.theta,
            "q": self.q,
            "noise": self.noise.value,
            "capacity_mode": self.capacity_mode,
            "alpha_threshold": self.alpha_threshold,
            "noise_threshold": self.noise_threshold,
            "residual_rate": self.residual_rate,
            "crossover_alpha": self.crossover_alpha,
            "baseline_full_parallel": _serialize(self.baseline_full_parallel),
            "feasible": self.feasible,
            "verdict": _serialize(self.verdict),
            "n_min": self.n_min,
            "overhead_lb": self.overhead_lb,
            "crossing_epochs": self.crossing_epochs,
        }


def _alpha_threshold(p: float, noise: Noise) -> float:
    return p / 2.0 if noise is Noise.ERASURE else 2.0 * p / 3.0


def _noise_threshold(alpha: float, noise: Noise) -> float:
    return 2.0 * alpha if noise is Noise.ERASURE else 1.5 * alpha


def _baseline(l: int, p: float, q: float, cap_fn: CapacityFn) -> float | Impossibility:
    effective = 1.0 - (1.0 - p) * (1.0 - q)
    rate = cap_fn.eval(effective)
    if rate <= 0.0:
        return Impossibility(
            reason="capacity vanishes at the effective idle error rate",
            threshold_name="effective_error_rate",
            threshold_value=_capacity_zero_hint(cap_fn),
            actual=effective,
        )
    return l / rate


def _capacity_zero_hint(cap_fn: CapacityFn) -> float:
    if cap_fn.kind is CapacityKind.ERASURE_EXACT:
        return 0.5
    if cap_fn.kind is CapacityKind.DEPOLARIZING_HASHING_CUTOFF:
        return 1.0 / 3.0
    # hashing rate crosses zero near 0.2524; report the cutoff actually used
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cap_fn.eval(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def full_parallel_baseline(l: int, p: float, q: float = 0.0) -> float | Impossibility:
    """Qubit count of the fully parallel erasure-coded reference memory.

    Every qubit is touched each cycle, so only the combined idle rate
    matters: l / (1 - 2 * (1 - (1-p)(1-q))). Once that effective rate
    reaches one half there is no finite memory at all, which comes back
    as an impossibility verdict.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    for name, value in (("p", p), ("q", q)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return _baseline(l, p, q, ERASURE_EXACT)


def crossover_alpha(p: float, q: float = 0.0) -> float:
    """Budget fraction p(1-p)(1-q) where batch-limited correction starts
    needing more qubits than the fully parallel reference."""
    for name, value in (("p", p), ("q", q)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return p * (1.0 - p) * (1.0 - q)


def overhead_bound(
    l: int,
    p: float,
    alpha: float,
    theta: float,
    noise: Noise = Noise.ERASURE,
    q: float = 0.0,
    capacity_fn: CapacityFn | None = None,
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
    crossover directly.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if not 0.0 <= alpha < p:
        raise ValueError(f"alpha must lie in [0, p), got alpha={alpha}, p={p}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    residual_cap = (p - alpha) / p
    if not 0.0 < theta < residual_cap:
        raise ValueError(
            f"theta must lie in (0, (p - alpha)/p = {residual_cap}), got {theta}"
        )
    if capacity_fn is None:
        capacity_fn = default_capacity(noise)
    alpha_thr = _alpha_threshold(p, noise)
    noise_thr = _noise_threshold(alpha, noise)
    residual = residual_cap - theta
    base = _baseline(l, p, q, capacity_fn if noise is Noise.DEPOLARIZING else ERASURE_EXACT)
    common = {
        "l": l,
        "p": p,
        "alpha": alpha,
        "theta": theta,
        "q": q,
        "noise": noise,
        "capacity_mode": capacity_fn.kind.value,
        "alpha_threshold": alpha_thr,
        "noise_threshold": noise_thr,
        "residual_rate": residual,
        "crossover_alpha": crossover_alpha(p, q),
        "baseline_full_parallel": base,
    }
    if alpha < alpha_thr:
        verdict = Impossibility(
            reason="correction budget below the fraction of p where any finite memory survives",
            threshold_name="alpha_threshold",
            threshold_value=alpha_thr,
            actual=alpha,
        )
        return BoundReport(
            feasible=False, verdict=verdict,
            n_min=None, overhead_lb=None, crossing_epochs=None, **common,
        )
    rate = capacity_fn.eval(residual)
    if rate <= 0.0:
        verdict = Impossibility(
            reason=f"capacity mode '{capacity_fn.kind.value}' vanishes at the residual error rate",
            threshold_name="capacity_zero",
            threshold_value=_capacity_zero_hint(capacity_fn),
            actual=residual,
        )
        return BoundReport(
            feasible=False, verdict=verdict,
            n_min=None, overhead_lb=None, crossing_epochs=None, **common,
        )
    crossing = epochs_to_cross(p, alpha, residual)
    n_min = l / rate
    return BoundReport(
        feasible=True, verdict=None,
        n_min=n_min, overhead_lb=n_min / l, crossing_epochs=crossing.T, **common,
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
        rate = DEPOLARIZING_HASHING.eval(max(0.0, (self.p - alpha) / self.p) if self.p > 0 else 0.0)
        if rate <= 0.0:
            return Impossibility(
                reason="hashing rate vanishes at the residual error rate",
                threshold_name="capacity_zero",
                threshold_value=_capacity_zero_hint(DEPOLARIZING_HASHING),
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
    the minimum survivable budget fraction is p/2 for erasure and p/1.5
    for depolarizing noise.
    """
    if kappa < 0.0 or t_g < 0.0:
        raise ValueError("kappa and t_g must be >= 0")
    p = -math.expm1(-kappa * t_g)
    alpha_min = p / 2.0 if noise is Noise.ERASURE else p / 1.5
    return KappaSurface(kappa=kappa, t_g=t_g, noise=noise, p=p, alpha_min=alpha_min)
