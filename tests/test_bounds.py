import math
import re
from dataclasses import fields

import numpy as np
import pytest

from qecbatch.bounds import (
    BoundColumns,
    Impossibility,
    hitting_prob_lb,
    kappa_surface,
    overhead_bound,
    overhead_columns,
    _LAWS,
)
from qecbatch.chain import Noise


def test_hitting_prob_lb_frozen_case():
    bound = hitting_prob_lb(100, 0.2, 0.05, 0.5)
    assert bound.T == 9
    assert bound.delta == pytest.approx(0.05, rel=1e-14)
    # (1 - exp(-2 * 100 * 0.5 * 0.05^2))^9, frozen from a hand computation
    assert bound.value == pytest.approx(1.2678044348761867e-06, rel=1e-12)


def test_hitting_prob_lb_grows_with_n():
    small = hitting_prob_lb(100, 0.2, 0.05, 0.5)
    large = hitting_prob_lb(10_000, 0.2, 0.05, 0.5)
    assert large.T == small.T  # the epoch count is size-free
    assert large.value > small.value
    assert 0.0 <= small.value <= 1.0


def _rate(noise: Noise, gamma: float) -> float:
    """The noise's capacity at one error rate."""
    return _LAWS[noise].rate(np.array([gamma])).item()


def test_erasure_capacity():
    assert _rate(Noise.ERASURE, 0.0) == 1.0
    assert _rate(Noise.ERASURE, 0.25) == pytest.approx(0.5)
    assert _rate(Noise.ERASURE, 0.5) == 0.0
    assert _rate(Noise.ERASURE, 0.8) == 0.0  # clamped, not negative


def test_hashing_capacity_frozen_values():
    # frozen from an independent evaluation of 1 - H2(3g/4) - (3g/4) log2 3
    assert _rate(Noise.DEPOLARIZING, 0.1) == pytest.approx(0.4968162683194162, rel=1e-12)
    assert _rate(Noise.DEPOLARIZING, 0.2) == pytest.approx(0.15241532017542606, rel=1e-12)
    assert _rate(Noise.DEPOLARIZING, 0.0) == 1.0
    # the rate crosses zero near 0.25239
    assert _rate(Noise.DEPOLARIZING, 0.2523) > 0.0
    assert _rate(Noise.DEPOLARIZING, 0.2525) == 0.0


def test_capacity_mode_follows_the_noise():
    """Erasure noise has its exact capacity, depolarizing noise the hashing
    rate; neither function takes a capacity of its own."""
    assert [(noise, law.mode) for noise, law in _LAWS.items()] == [
        (Noise.ERASURE, "erasure-exact"), (Noise.DEPOLARIZING, "hashing")]
    assert overhead_bound(100, 0.2, 0.15, 0.1).capacity_mode == "erasure-exact"
    depolarizing = (100, 0.2, 0.18, 0.05, Noise.DEPOLARIZING)
    assert overhead_bound(*depolarizing).capacity_mode == "hashing"
    columns = overhead_columns(*depolarizing)
    assert [BoundColumns.LABELS["capacity_mode"][code] for code in columns.capacity_mode] == [
        "hashing"]
    for function in (overhead_bound, overhead_columns):
        with pytest.raises(TypeError, match="capacity"):
            function(*depolarizing, capacity="hashing")


@pytest.mark.parametrize("noise", list(Noise))
def test_law_zero_is_where_the_rate_vanishes(noise):
    """The threshold a capacity_zero verdict names is the least gamma where
    the noise's capacity is zero: zero there, positive one ulp below."""
    zero = _LAWS[noise].zero
    assert _rate(noise, zero) == 0.0
    assert _rate(noise, math.nextafter(zero, 0.0)) > 0.0


@pytest.mark.parametrize("noise, alpha_threshold, noise_threshold", [
    (Noise.ERASURE, lambda p: p / 2.0, lambda alpha: 2.0 * alpha),
    (Noise.DEPOLARIZING, lambda p: 2.0 * p / 3.0, lambda alpha: 1.5 * alpha),
], ids=["erasure", "depolarizing"])
def test_thresholds_are_the_fraction_of_p_bit_for_bit(noise, alpha_threshold, noise_threshold):
    """The law's fraction num/den gives the budget threshold p/2 or 2p/3 and
    the noise threshold 2*alpha or 1.5*alpha exactly, not just nearly."""
    rng = np.random.default_rng(19)
    p = np.concatenate([rng.uniform(0.0, 1.0, 3000), 10.0 ** rng.uniform(-300, 0, 1000)])
    alpha = p * rng.uniform(0.0, 1.0, p.size)
    columns = overhead_columns(7, p, alpha, 0.5 * (p - alpha) / p, noise)
    # a crossing epoch past 2^62 puts some of the tiniest p out of the domain
    inside = columns.status != BoundColumns.LABELS["status"].index("out-of-domain")
    assert inside.sum() > 3500
    assert columns.alpha_threshold[inside].tolist() == alpha_threshold(p[inside]).tolist()
    assert columns.noise_threshold[inside].tolist() == noise_threshold(alpha[inside]).tolist()


@pytest.mark.parametrize("function, args", [
    (overhead_bound, (100, 0.2, 0.15, 0.1)),
    (overhead_columns, (100, 0.2, 0.15, 0.1)),
    (kappa_surface, (0.001, 10.0, 0.01)),
], ids=["overhead_bound", "overhead_columns", "kappa_surface"])
@pytest.mark.parametrize("noise", ["erasure", None, 1])
def test_noise_must_be_a_member(function, args, noise):
    """A noise that is not a Noise member, its string value included, is
    refused by name rather than read as some other noise."""
    with pytest.raises(ValueError, match=re.escape(f"noise must be a Noise member, got {noise!r}")):
        function(*args, noise)


def test_baseline_frozen_values():
    assert overhead_bound(100, 0.1, 0.06, 0.1, q=0.05).baseline_full_parallel == pytest.approx(
        140.84507042253523, rel=1e-12
    )
    assert overhead_bound(1000, 0.2, 0.15, 0.1).baseline_full_parallel == pytest.approx(
        1666.6666666666667, rel=1e-12
    )


def test_baseline_impossible():
    verdict = overhead_bound(100, 0.5, 0.3, 0.1).baseline_full_parallel
    assert isinstance(verdict, Impossibility)
    assert verdict.threshold_name == "effective_error_rate"
    assert verdict.threshold_value == pytest.approx(0.5)
    assert verdict.impossible is True
    # combined idle rate 1 - 0.7*0.6 = 0.58 also sits past one half
    assert isinstance(overhead_bound(100, 0.3, 0.2, 0.1, q=0.4).baseline_full_parallel,
                      Impossibility)


def test_crossover_alpha_frozen_values():
    assert overhead_bound(100, 0.2, 0.15, 0.1).crossover_alpha == pytest.approx(0.16, rel=1e-12)
    assert overhead_bound(100, 0.1, 0.06, 0.1, q=0.1).crossover_alpha == pytest.approx(
        0.081, rel=1e-12)
    assert overhead_bound(100, 0.3, 0.2, 0.1, q=0.05).crossover_alpha == pytest.approx(
        0.1995, rel=1e-12)


def test_crossover_is_where_bound_meets_baseline():
    """At alpha = p(1-p) the overhead bound (theta -> 0) equals the
    full-parallel baseline; above it the batch memory is cheaper."""
    l, p = 1000, 0.2
    cross = overhead_bound(l, p, 0.15, theta=1e-12).crossover_alpha
    at_cross = overhead_bound(l, p, cross, theta=1e-12)
    baseline = at_cross.baseline_full_parallel
    assert at_cross.n_min == pytest.approx(baseline, rel=1e-6)
    cheaper = overhead_bound(l, p, cross + 0.01, theta=1e-12).n_min
    dearer = overhead_bound(l, p, cross - 0.01, theta=1e-12).n_min
    assert cheaper < baseline < dearer


def test_overhead_bound_erasure_frozen_case():
    report = overhead_bound(100, 0.2, 0.12, 0.1)
    assert report.feasible
    assert report.n_min == pytest.approx(250.0, rel=1e-12)
    assert report.overhead_lb == pytest.approx(2.5, rel=1e-12)
    assert report.crossing_epochs == 10
    assert report.capacity_mode == "erasure-exact"
    assert report.alpha_threshold == pytest.approx(0.1)
    assert report.noise_threshold == pytest.approx(0.24)
    assert report.residual_rate == pytest.approx(0.3)
    # closed erasure form l*p / (2*alpha - p + 2*p*theta)
    closed = 100 * 0.2 / (2 * 0.12 - 0.2 + 2 * 0.2 * 0.1)
    assert report.n_min == pytest.approx(closed, rel=1e-9)


def test_overhead_bound_impossible_below_half_p():
    report = overhead_bound(100, 0.2, 0.05, 0.1)
    assert not report.feasible
    assert report.n_min is None and report.overhead_lb is None
    assert report.verdict.threshold_name == "alpha_threshold"
    assert report.verdict.threshold_value == pytest.approx(0.1)
    assert report.verdict.actual == pytest.approx(0.05)
    # the baseline is still reported: it does not depend on alpha
    assert report.baseline_full_parallel == pytest.approx(1000.0 / 6.0, rel=1e-9)


def test_overhead_bound_boundary_alpha_proceeds():
    # alpha exactly at p/2 is not below the threshold, so a bound exists
    report = overhead_bound(100, 0.2, 0.1, 0.1)
    assert report.feasible
    assert report.n_min == pytest.approx(100 / 0.2, rel=1e-9)


def test_overhead_bound_depolarizing_frozen_case():
    report = overhead_bound(100, 0.2, 0.15, 0.05, noise=Noise.DEPOLARIZING)
    assert report.feasible
    assert report.capacity_mode == "hashing"
    assert report.alpha_threshold == pytest.approx(2 * 0.2 / 3)
    assert report.noise_threshold == pytest.approx(0.225)
    assert report.n_min == pytest.approx(656.102023634518, rel=1e-9)


def test_overhead_bound_depolarizing_capacity_zero():
    report = overhead_bound(100, 0.2, 0.14, 0.01, noise=Noise.DEPOLARIZING)
    assert not report.feasible
    assert report.verdict.threshold_name == "capacity_zero"
    assert report.verdict.threshold_value == 0.2523861665536424
    assert report.verdict.threshold_value < report.verdict.actual


def test_overhead_bound_q_only_moves_baseline():
    quiet = overhead_bound(100, 0.2, 0.12, 0.1, q=0.0)
    noisy = overhead_bound(100, 0.2, 0.12, 0.1, q=0.3)
    assert noisy.n_min == quiet.n_min
    assert noisy.crossing_epochs == quiet.crossing_epochs
    assert noisy.baseline_full_parallel > quiet.baseline_full_parallel
    assert noisy.crossover_alpha < quiet.crossover_alpha


def test_bound_columns_leave_empty_what_does_not_apply():
    """Out of the domain every figure is NaN and the capacity mode empty; an
    impossible point has no n_min, overhead or crossing epoch; the baseline
    is NaN where the capacity vanishes at the effective idle rate."""
    columns = overhead_columns(100, 0.2, np.array([0.25, 0.05, 0.12, 0.12]), 0.1,
                               q=np.array([0.0, 0.0, 0.0, 1.0]))
    labels = {name: [table[code] for code in getattr(columns, name)]
              for name, table in BoundColumns.LABELS.items()}
    assert labels == {"status": ["out-of-domain", "impossible", "ok", "ok"],
                      "capacity_mode": ["", *["erasure-exact"] * 3]}
    assert {getattr(columns, name).dtype for name in labels} == {np.dtype(np.uint8)}
    figures = [f.name for f in fields(BoundColumns) if f.name not in ("status", "capacity_mode")]
    empty = {name: [value != value for value in getattr(columns, name).tolist()]
             for name in figures}
    for name in ("n_min", "overhead_lb", "crossing_epochs"):
        assert empty.pop(name) == [True, True, False, False], name
    assert empty.pop("baseline_full_parallel") == [True, False, False, True]
    for name, flags in empty.items():
        assert flags == [True, False, False, False], name
    assert [type(value) for value in columns.crossing_epochs[2:]] == [int, int]


def test_overhead_bound_validation():
    with pytest.raises(ValueError):
        overhead_bound(0, 0.2, 0.12, 0.1)
    with pytest.raises(ValueError):
        overhead_bound(100, 0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        overhead_bound(100, 0.2, 0.25, 0.1)  # alpha >= p
    with pytest.raises(ValueError):
        overhead_bound(100, 0.2, 0.12, 0.45)  # theta above (p - alpha)/p
    with pytest.raises(ValueError):
        overhead_bound(100, 0.2, 0.12, 0.0)
    # n and l are counts: a float or a bool is refused, not read as a number
    for l in (2.5, True):
        with pytest.raises(ValueError, match="l must be an integer"):
            overhead_bound(l, 0.2, 0.15, 0.05)
    for n in (True, 100.5):
        with pytest.raises(ValueError, match="n must be an integer"):
            hitting_prob_lb(n, 0.2, 0.05, 0.5)


def test_kappa_surface_frozen_case():
    surface = kappa_surface(10.0, 1e-4, 0.01)
    assert surface.p == pytest.approx(0.0009995001666250085, rel=1e-12)
    assert surface.alpha_min == pytest.approx(surface.p / 2.0, rel=1e-14)
    assert surface.overhead == pytest.approx(0.052603888076110196, rel=1e-12)


def test_kappa_surface_small_budget_check():
    check = kappa_surface(10.0, 1e-4, 0.01).small_budget_check
    assert check.displayed_ratio == pytest.approx(19.0, rel=1e-12)
    assert check.approx == pytest.approx(1.0 / 19.0, rel=1e-12)
    assert check.rel_error == pytest.approx(5.264035087702547e-4, rel=1e-9)
    assert check.rel_error <= 0.01


def test_kappa_surface_impossible_budget():
    alpha_min = kappa_surface(10.0, 1e-4, 0.01).alpha_min
    surface = kappa_surface(10.0, 1e-4, alpha_min)
    verdict = surface.overhead
    assert isinstance(verdict, Impossibility)
    assert verdict.threshold_name == "alpha_min"
    assert surface.small_budget_check is None
    with pytest.raises(ValueError):
        kappa_surface(10.0, 1e-4, 0.0)


def test_kappa_surface_depolarizing():
    p = -math.expm1(-0.05)
    surface = kappa_surface(5.0, 0.01, 0.9 * p, noise=Noise.DEPOLARIZING)
    assert surface.p == pytest.approx(p, rel=1e-12)
    assert surface.alpha_min == pytest.approx(p / 1.5, rel=1e-12)
    over = surface.overhead
    assert over == pytest.approx(1.0 / _rate(Noise.DEPOLARIZING, 0.1), rel=1e-12)
    assert surface.small_budget_check is None


def test_kappa_surface_ratio_guard():
    # with kappa*t_g = 1 there are budgets that clear p/2 but not the
    # ratio condition 2*alpha > kappa*t_g
    surface = kappa_surface(1.0, 1.0, 0.45)
    assert not isinstance(surface.overhead, Impossibility)
    assert surface.small_budget_check is None


def test_kappa_surface_validation():
    with pytest.raises(ValueError):
        kappa_surface(-1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        kappa_surface(1.0, -0.1, 0.1)
    # nan gets past a sign check, and inf * 0 is nan
    for kappa, t_g, key in [(math.nan, 1.0, "kappa"), (0.001, math.nan, "t_g"),
                            (math.inf, 0.0, "kappa"), (1.0, math.inf, "t_g"),
                            (1e200, 1e200, "kappa * t_g")]:
        with pytest.raises(ValueError, match=re.escape(f"{key} must be finite")):
            kappa_surface(kappa, t_g, 0.1)
