"""Markov chain of uncorrected errors in a batch-limited quantum memory.

One chain epoch covers one correction batch: every healthy qubit may
decohere first, then at most the batch gate budget of erroneous qubits
is corrected, with no prioritization among them. Both supported noise
kinds are absorbing on a single qubit (a second hit changes nothing),
so the memory is fully described by how many, or which, qubits
currently carry an error: count mode advances arrays of error counts,
mask mode boolean error masks. `correct` is the one written correction
rule: it refuses keys it cannot rank and runs the rule body, which sorts
each row's ranks in place. `step` passes its own fresh keys, which lie in
[0, 1), to that body directly. The check_* functions and `first_above`
are the one written rule for each scalar input.
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
    "correct",
    "step",
    "step_count",
    "inject_static_noise",
    "inject_count",
    "static_phase_due",
    "check_integer",
    "check_seed",
    "check_fraction",
    "first_above",
]

# Absolute slack when flooring n * alpha, so that decimal inputs such as
# 0.3 * 10 land on 3 rather than 2. The relative term covers rounding of
# large products; it is far below any physically distinct budget.
_BUDGET_SLACK = 1e-9
_BUDGET_REL_SLACK = 1e-12


class Noise(Enum):
    """Supported single-qubit noise kinds. Both are absorbing per qubit, so the
    chain is the same for both; only the bound's law in `qecbatch.bounds`
    (capacity, its zero and the thresholds) differs."""

    ERASURE = "erasure"
    DEPOLARIZING = "depolarizing"


def check_integer(name: str, value: object, least: int | None = None,
                  below: int | None = None) -> None:
    """Refuse a value that is not an integer, bools included, rather than
    let it be rounded or read as 0 or 1; with bounds, refuse one below
    `least` or at or above `below`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if below is not None and value >= below:
        shown = "2^63" if below == 2**63 else below  # the int64 limit of n
        raise ValueError(f"{name} must be below {shown}, got {value}")


def check_seed(name: str, value: object) -> None:
    """Refuse anything but an integer in [0, 2^64), one generator key word."""
    check_integer(name, value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {value}")


def check_fraction(name: str, value: float) -> None:
    """Refuse a probability or fraction outside [0, 1], nan included."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def first_above(threshold: float, n: int) -> int:
    """The least error count strictly above `threshold`, clamped to
    0 .. n + 1: states from it up exceed the threshold, and n + 1 means
    none does. Defined at +-inf; nan is refused."""
    if math.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold}")
    return math.floor(min(max(threshold, -1), n)) + 1


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
    """

    n: int
    p: float
    alpha: float
    q: float = 0.0
    q_period: int = 1

    def __post_init__(self) -> None:
        check_integer("n", self.n, least=1, below=2**63)
        check_integer("q_period", self.q_period, least=1)
        for name in ("p", "alpha", "q"):
            check_fraction(name, getattr(self, name))

    @property
    def k_batch(self) -> int:
        """Gate budget per batch, floor(n * alpha)."""
        product = self.n * self.alpha
        return int(math.floor(product + _BUDGET_SLACK + _BUDGET_REL_SLACK * product))


def static_phase_due(epoch: int, params: ModelParams) -> bool:
    """Whether a static phase precedes correction epoch `epoch` (0-based).

    The memory idles before being corrected, so with q > 0 an injection
    happens before epochs 0, q_period, 2*q_period, ...
    """
    return params.q > 0.0 and epoch % params.q_period == 0


def correct(mask: np.ndarray, keys: np.ndarray, budget: int) -> np.ndarray:
    """The correction rule: in each row of `mask` (qubits on the last axis,
    True marks an error), clear the min(#errors, budget) erroneous qubits
    with the smallest keys. Keys must be finite and non-negative; others
    are refused before the rule runs.

    With i.i.d. uniform keys drawn independently of the mask, the cleared
    qubits form a uniform subset of the errors. Keys broadcast against the
    mask, so memories that share keys keep nested error sets nested: a
    qubit cleared from the larger set ranks among the first `budget` of the
    smaller one too.

    Each row is ranked as keys / mask: an error keeps its key, and a healthy
    qubit gets inf (nan for a zero key), which sorts after every error. The
    ranks are sorted in place, which gives the budget-th smallest rank of
    each row, and the errors whose key is at or below it are cleared; a row
    with fewer errors than the budget has no finite threshold and is cleared
    whole. A row whose budget-th and next ranks are equal and finite ties at
    the boundary, and only such rows are corrected by argpartition over
    their keys, so that every row clears exactly min(#errors, budget).
    """
    if not (keys.min(initial=0) >= 0 and keys.max(initial=0) < np.inf):
        raise ValueError("correction keys must be finite and non-negative")
    return _correct(mask, keys, budget)


def _correct(mask: np.ndarray, keys: np.ndarray, budget: int) -> np.ndarray:
    """The body of `correct`, for keys already known to be finite and
    non-negative."""
    n = mask.shape[-1]
    if budget >= n:
        return np.zeros_like(mask)
    if budget == 0:
        return mask
    with np.errstate(divide="ignore", invalid="ignore"):
        ordered = keys / mask
    # an error's rank is its key and a healthy qubit is never in the mask,
    # so the ranks need not outlive their sort
    ordered.sort(axis=-1)
    kth = ordered[..., budget - 1:budget]
    out = mask & (keys > kth)
    tied = np.flatnonzero((kth == ordered[..., budget:budget + 1]) & (kth < np.inf))
    if tied.size:
        held = mask.reshape(-1, n)[tied]
        ranked = np.where(held, np.broadcast_to(keys, mask.shape).reshape(-1, n)[tied], np.inf)
        chosen = np.argpartition(ranked, budget - 1, axis=-1)[:, :budget]
        np.put_along_axis(held, chosen, False, axis=-1)
        out.reshape(-1, n)[tied] = held
    return out


def step_count(x: np.ndarray, params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Count-mode correction epoch for an array of error counts: each x gains
    Binomial(n - x, p) fresh errors, then min(total, k_batch) are corrected."""
    total = x + rng.binomial(params.n - x, params.p)
    return np.maximum(total - params.k_batch, 0)


def inject_count(x: np.ndarray, params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Count-mode static phase: each x gains Binomial(n - x, q) fresh errors."""
    if params.q == 0.0:
        return x
    return x + rng.binomial(params.n - x, params.q)


def step(mask: np.ndarray, params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Advance error masks (one memory per row, qubits on the last axis) by
    one correction epoch.

    Every qubit is hit with probability p; a hit on an erroneous qubit
    changes nothing, so the fresh errors are a uniform Binomial(#healthy, p)
    subset of the healthy qubits. The correction rule then clears
    min(#errors, k_batch) errors by fresh uniform keys; they come straight
    from rng.random and lie in [0, 1), so they go to the rule body without
    the key check of `correct`. Hits and keys are drawn over the last two
    axes and shared by any axes in front of them, which advances stacked
    memories under common randomness.
    """
    shape = mask.shape[-2:]
    mask = mask | (rng.random(shape) < params.p)
    return _correct(mask, rng.random(shape), params.k_batch)


def inject_static_noise(
    mask: np.ndarray, params: ModelParams, rng: np.random.Generator
) -> np.ndarray:
    """Apply one static phase to error masks: healthy qubits decohere with
    probability q. With q == 0 the mask is returned unchanged and the
    generator is left untouched."""
    if params.q == 0.0:
        return mask
    return mask | (rng.random(mask.shape[-2:]) < params.q)
