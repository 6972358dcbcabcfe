"""Markov chain of uncorrected errors in a batch-limited quantum memory.

One chain epoch covers one correction batch: every healthy qubit may
decohere first, then at most the batch gate budget of erroneous qubits
is corrected, with no prioritization among them. Both supported noise
kinds are absorbing on a single qubit (a second hit changes nothing),
so the memory is fully described by how many, and optionally which,
qubits currently carry an error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Noise",
    "ModelParams",
    "ChainState",
    "initial_state",
    "step",
    "step_count",
    "inject_static_noise",
    "inject_count",
    "static_phase_due",
]

# Absolute slack when flooring n * alpha, so that decimal inputs such as
# 0.3 * 10 land on 3 rather than 2. The relative term covers rounding of
# large products; it is far below any physically distinct budget.
_BUDGET_SLACK = 1e-9
_BUDGET_REL_SLACK = 1e-12


class Noise(Enum):
    """Supported single-qubit noise kinds. Both are absorbing per qubit."""

    ERASURE = "erasure"
    DEPOLARIZING = "depolarizing"


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class ModelParams:
    """One memory instance: size, error rates and the correction budget.

    n        : number of physical qubits.
    p        : per-qubit decoherence probability during one correction batch.
    alpha    : correction budget as a fraction of n; floor(n * alpha) qubits
               can be corrected per batch.
    q        : per-qubit decoherence probability during one static phase
               (0 disables static phases entirely).
    q_period : one static phase is injected per q_period correction epochs.
    noise    : noise kind; it never changes the chain dynamics, only which
               capacity formulas apply downstream.
    """

    n: int
    p: float
    alpha: float
    q: float = 0.0
    q_period: int = 1
    noise: Noise = Noise.ERASURE

    def __post_init__(self) -> None:
        for name in ("n", "q_period"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        _check_prob("p", self.p)
        _check_prob("q", self.q)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.q_period < 1:
            raise ValueError(f"q_period must be >= 1, got {self.q_period}")
        if not isinstance(self.noise, Noise):
            raise ValueError(f"noise must be a Noise member, got {self.noise!r}")

    @property
    def k_batch(self) -> int:
        """Gate budget per batch, floor(n * alpha)."""
        product = self.n * self.alpha
        return int(math.floor(product + _BUDGET_SLACK + _BUDGET_REL_SLACK * product))


@dataclass(frozen=True)
class ChainState:
    """Chain state after t correction epochs.

    x is the number of uncorrected errors; error_set optionally records
    which qubits carry them (len(error_set) == x when present).
    """

    t: int
    x: int
    error_set: frozenset[int] | None = None

    def validate(self, params: ModelParams) -> None:
        if not 0 <= self.x <= params.n:
            raise ValueError(f"x={self.x} outside [0, n={params.n}]")
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if self.error_set is not None:
            if len(self.error_set) != self.x:
                raise ValueError(
                    f"error_set has {len(self.error_set)} entries but x={self.x}"
                )
            if self.error_set and not all(0 <= j < params.n for j in self.error_set):
                raise ValueError("error_set contains indices outside range(n)")


def initial_state(track_locations: bool = False) -> ChainState:
    """Fresh memory: no errors at epoch zero."""
    return ChainState(t=0, x=0, error_set=frozenset() if track_locations else None)


def static_phase_due(epoch: int, params: ModelParams) -> bool:
    """Whether a static phase precedes correction epoch `epoch` (0-based).

    The memory idles before being corrected, so with q > 0 an injection
    happens before epochs 0, q_period, 2*q_period, ...
    """
    return params.q > 0.0 and epoch % params.q_period == 0


def _draw_new_errors(
    mask: np.ndarray, prob: float, rng: np.random.Generator
) -> np.ndarray:
    """Mark a Binomial(#healthy, prob) uniform subset of healthy qubits bad."""
    healthy = np.flatnonzero(~mask)
    hits = int(rng.binomial(healthy.size, prob))
    out = mask.copy()
    if hits:
        out[rng.choice(healthy, size=hits, replace=False)] = True
    return out


def _correct_batch(
    mask: np.ndarray, budget: int, rng: np.random.Generator
) -> np.ndarray:
    """Clear a uniform subset of erroneous qubits, at most `budget` of them."""
    bad = np.flatnonzero(mask)
    fixed = min(bad.size, budget)
    out = mask.copy()
    if fixed:
        out[rng.choice(bad, size=fixed, replace=False)] = False
    return out


def _mask_from_state(state: ChainState, params: ModelParams) -> np.ndarray:
    mask = np.zeros(params.n, dtype=bool)
    if state.error_set:
        mask[np.fromiter(state.error_set, dtype=np.int64)] = True
    return mask


def step_count(x: int, params: ModelParams, rng: np.random.Generator) -> int:
    """Count-only correction epoch: x plus Binomial(n - x, p) fresh errors,
    minus the min(total, k_batch) that get corrected."""
    fresh = int(rng.binomial(params.n - x, params.p))
    total = x + fresh
    return total - min(total, params.k_batch)


def inject_count(x: int, params: ModelParams, rng: np.random.Generator) -> int:
    """Count-only static phase: x plus Binomial(n - x, q) fresh errors."""
    if params.q == 0.0:
        return x
    return x + int(rng.binomial(params.n - x, params.q))


def step(state: ChainState, params: ModelParams, rng: np.random.Generator) -> ChainState:
    """Advance one correction epoch.

    Draws Y ~ Binomial(n - x, p) fresh errors, then corrects
    min(x + Y, k_batch) erroneous qubits chosen uniformly at random.
    When error locations are tracked, new errors land on a uniform
    random subset of the currently healthy qubits.
    """
    state.validate(params)
    if state.error_set is None:
        return ChainState(t=state.t + 1, x=step_count(state.x, params, rng))
    mask = _mask_from_state(state, params)
    mask = _draw_new_errors(mask, params.p, rng)
    mask = _correct_batch(mask, params.k_batch, rng)
    remaining = np.flatnonzero(mask)
    return ChainState(
        t=state.t + 1, x=int(remaining.size), error_set=frozenset(remaining.tolist())
    )


def inject_static_noise(
    state: ChainState, params: ModelParams, rng: np.random.Generator
) -> ChainState:
    """Apply one static phase: healthy qubits decohere with probability q.

    Does not advance the epoch counter; with q == 0 the state is returned
    unchanged and the generator is left untouched.
    """
    state.validate(params)
    if params.q == 0.0:
        return state
    if state.error_set is None:
        return ChainState(t=state.t, x=inject_count(state.x, params, rng))
    mask = _draw_new_errors(_mask_from_state(state, params), params.q, rng)
    bad = np.flatnonzero(mask)
    return ChainState(
        t=state.t, x=int(bad.size), error_set=frozenset(bad.tolist())
    )
