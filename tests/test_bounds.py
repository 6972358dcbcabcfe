import math
import re

import numpy as np
import pytest

from qecbatch.bounds import (
    CapacityKind,
    Impossibility,
    hitting_prob_lb,
    kappa_surface,
    overhead_bound,
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


def test_erasure_capacity():
    erasure = CapacityKind.ERASURE_EXACT
    assert erasure.eval(0.0) == 1.0
    assert erasure.eval(0.25) == pytest.approx(0.5)
    assert erasure.eval(0.5) == 0.0
    assert erasure.eval(0.8) == 0.0  # clamped, not negative
    with pytest.raises(ValueError):
        erasure.eval(1.2)
    with pytest.raises(ValueError):
        erasure.eval(-0.1)


def test_hashing_capacity_frozen_values():
    hashing = CapacityKind.DEPOLARIZING_HASHING
    # frozen from an independent evaluation of 1 - H2(3g/4) - (3g/4) log2 3
    assert hashing.eval(0.1) == pytest.approx(0.4968162683194162, rel=1e-12)
    assert hashing.eval(0.2) == pytest.approx(0.15241532017542606, rel=1e-12)
    assert hashing.eval(0.0) == 1.0
    # the rate crosses zero near 0.25239
    assert hashing.eval(0.2523) > 0.0
    assert hashing.eval(0.2525) == 0.0


def test_cutoff_capacity():
    cutoff = CapacityKind.DEPOLARIZING_HASHING_CUTOFF
    assert cutoff.eval(0.2) == CapacityKind.DEPOLARIZING_HASHING.eval(0.2)
    assert cutoff.eval(1.0 / 3.0) == 0.0
    assert cutoff.eval(0.5) == 0.0


@pytest.mark.parametrize("capacity", list(CapacityKind))
def test_capacity_on_arrays_equals_pointwise(capacity):
    """An array evaluation gives bit for bit the scalar value at each element
    and keeps the input's shape."""
    gammas = np.concatenate([
        np.linspace(0.0, 1.0, 1001), [0.2523, 0.2525, 1.0 / 3.0, 0.5, 5e-324],
        np.random.default_rng(11).uniform(0.0, 1.0, 2000),
    ])
    values = capacity.eval(gammas)
    assert values.shape == gammas.shape
    assert values.tolist() == [capacity.eval(g) for g in gammas.tolist()]
    assert capacity.eval(gammas.reshape(-1, 3)).tolist() == values.reshape(-1, 3).tolist()
    with pytest.raises(ValueError, match="gamma must lie in"):
        capacity.eval(np.array([0.2, 1.5]))


def test_capacity_mode_follows_the_noise():
    """Erasure noise has its exact capacity, depolarizing noise the given
    hashing mode (plain hashing by default); another noise's mode is refused."""
    assert overhead_bound(100, 0.2, 0.15, 0.1).capacity_mode == "erasure-exact"
    depolarizing = (100, 0.2, 0.18, 0.05, Noise.DEPOLARIZING)
    assert overhead_bound(*depolarizing).capacity_mode == "hashing"
    cutoff = CapacityKind.DEPOLARIZING_HASHING_CUTOFF
    assert overhead_bound(*depolarizing, capacity=cutoff).capacity_mode == "hashing-cutoff"
    with pytest.raises(ValueError, match="'hashing-cutoff' does not apply to erasure noise"):
        overhead_bound(100, 0.2, 0.15, 0.1, capacity=cutoff)
    with pytest.raises(ValueError, match="'erasure-exact' does not apply to depolarizing noise"):
        overhead_bound(*depolarizing, capacity=CapacityKind.ERASURE_EXACT)


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
    assert report.verdict.threshold_value == pytest.approx(0.2524, abs=1e-3)
    cutoff = overhead_bound(
        100, 0.2, 0.14, 0.01, noise=Noise.DEPOLARIZING,
        capacity=CapacityKind.DEPOLARIZING_HASHING_CUTOFF,
    )
    assert cutoff.verdict.threshold_value == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_overhead_bound_q_only_moves_baseline():
    quiet = overhead_bound(100, 0.2, 0.12, 0.1, q=0.0)
    noisy = overhead_bound(100, 0.2, 0.12, 0.1, q=0.3)
    assert noisy.n_min == quiet.n_min
    assert noisy.crossing_epochs == quiet.crossing_epochs
    assert noisy.baseline_full_parallel > quiet.baseline_full_parallel
    assert noisy.crossover_alpha < quiet.crossover_alpha


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


def test_kappa_surface_frozen_case():
    surface = kappa_surface(10.0, 1e-4)
    assert surface.p == pytest.approx(0.0009995001666250085, rel=1e-12)
    assert surface.alpha_min == pytest.approx(surface.p / 2.0, rel=1e-14)
    over = surface.overhead(0.01)
    assert over == pytest.approx(0.052603888076110196, rel=1e-12)


def test_kappa_surface_small_budget_check():
    check = kappa_surface(10.0, 1e-4).small_budget_check(0.01)
    assert check.displayed_ratio == pytest.approx(19.0, rel=1e-12)
    assert check.approx == pytest.approx(1.0 / 19.0, rel=1e-12)
    assert check.rel_error == pytest.approx(5.264035087702547e-4, rel=1e-9)
    assert check.rel_error <= 0.01


def test_kappa_surface_impossible_budget():
    surface = kappa_surface(10.0, 1e-4)
    verdict = surface.overhead(surface.alpha_min)
    assert isinstance(verdict, Impossibility)
    assert verdict.threshold_name == "alpha_min"
    with pytest.raises(ValueError):
        surface.overhead(0.0)


def test_kappa_surface_depolarizing():
    surface = kappa_surface(5.0, 0.01, noise=Noise.DEPOLARIZING)
    p = -math.expm1(-0.05)
    assert surface.p == pytest.approx(p, rel=1e-12)
    assert surface.alpha_min == pytest.approx(p / 1.5, rel=1e-12)
    over = surface.overhead(0.9 * p)
    assert over == pytest.approx(1.0 / CapacityKind.DEPOLARIZING_HASHING.eval(0.1), rel=1e-12)
    with pytest.raises(ValueError):
        surface.small_budget_check(0.9 * p)


def test_kappa_surface_ratio_guard():
    # with kappa*t_g = 1 there are budgets that clear p/2 but not the
    # ratio condition 2*alpha > kappa*t_g
    surface = kappa_surface(1.0, 1.0)
    assert not isinstance(surface.overhead(0.45), Impossibility)
    with pytest.raises(ValueError):
        surface.small_budget_check(0.45)


def test_kappa_surface_validation():
    with pytest.raises(ValueError):
        kappa_surface(-1.0, 0.1)
    with pytest.raises(ValueError):
        kappa_surface(1.0, -0.1)
    # nan gets past a sign check, and inf * 0 is nan
    for kappa, t_g, key in [(math.nan, 1.0, "kappa"), (0.001, math.nan, "t_g"),
                            (math.inf, 0.0, "kappa"), (1.0, math.inf, "t_g"),
                            (1e200, 1e200, "kappa * t_g")]:
        with pytest.raises(ValueError, match=re.escape(f"{key} must be finite")):
            kappa_surface(kappa, t_g)
