import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecbatch import meanfield
from qecbatch.checks import crossing_formula_vs_iteration
from qecbatch.meanfield import (
    CrossingTime,
    InfeasibleThresholdError,
    _crossings,
    _fixed_point,
    epochs_to_cross,
    iterate_recursion,
    mf_iterate,
)


def test_closed_form_frozen_value():
    # hand calculation: (0.1/0.15) * (1 - 0.85^3) = 0.25725
    assert mf_iterate(1.0, 0.2, 0.05, 0.05, 3) == pytest.approx(0.25725, rel=1e-12)
    assert mf_iterate(100.0, 0.2, 0.05, 0.05, 3) == pytest.approx(25.725, rel=1e-12)


def test_iterates_start_at_zero_and_grow():
    values = [mf_iterate(1.0, 0.3, 0.1, 0.02, k) for k in range(12)]
    assert values[0] == 0.0
    assert all(b > a for a, b in zip(values, values[1:]))


def test_iterates_converge_to_fixed_point():
    n, p, alpha, delta = 50.0, 0.3, 0.1, 0.02
    fixed_point = _fixed_point(n, p - delta, alpha)
    assert mf_iterate(n, p, alpha, delta, 4000) == pytest.approx(fixed_point, rel=1e-12)
    # the fixed point sits strictly below the steady fraction
    assert fixed_point / n < (p - alpha) / p


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(0.02, 0.98),
    alpha_frac=st.floats(0.0, 0.9),
    delta_frac=st.floats(0.0, 0.95),
    k=st.integers(0, 300),
    n=st.sampled_from([1.0, 50.0]),
)
def test_closed_form_equals_recursion(p, alpha_frac, delta_frac, k, n):
    alpha = alpha_frac * p
    delta = delta_frac * (p - alpha)
    closed = mf_iterate(n, p, alpha, delta, k)
    looped = iterate_recursion(n, p, alpha, delta, k)
    assert abs(closed - looped) <= 1e-9 * n
    # an array call gives each point's one-point value bit for bit
    ks = np.arange(0, k + 1, max(1, k // 8))
    on_array = mf_iterate(n, p, alpha, delta, ks)
    one_point = np.array([mf_iterate(n, p, alpha, delta, j) for j in ks.tolist()])
    assert on_array.view(np.int64).tolist() == one_point.view(np.int64).tolist()


def test_validation():
    """The closed form and its cross-check refuse the same inputs."""
    for args in [
        (1.0, 0.0, 0.0, 0.0, 1),  # p = 0
        (1.0, 0.2, 0.3, 0.0, 1),  # alpha above p
        (1.0, 0.2, 0.1, 0.1, 1),  # delta not below p - alpha
        (1.0, 0.2, 0.05, 0.3, 3),  # delta past p - alpha, where the loop goes negative
        (1.0, 0.2, 0.1, 0.05, -1),
        (1.0, 0.2, 0.05, 0.0, 2.5),
        (1.0, 0.2, 0.05, 0.0, True),
        (1.0, 0.2, 0.05, 0.0, math.inf),
        (1.0, 0.2, 0.05, 0.0, math.nan),
    ]:
        for route in (mf_iterate, iterate_recursion):
            with pytest.raises(ValueError):
                route(*args)


def test_integral_float_epochs_are_taken():
    k = np.array([0.0, 3.0, 7.0])
    assert mf_iterate(1.0, 0.2, 0.05, 0.05, k).tolist() == mf_iterate(
        1.0, 0.2, 0.05, 0.05, k.astype(np.int64)).tolist()
    assert iterate_recursion(1.0, 0.2, 0.05, 0.05, 3.0) == iterate_recursion(
        1.0, 0.2, 0.05, 0.05, 3)


def test_crossing_frozen_case():
    crossing = epochs_to_cross(0.2, 0.05, 0.5)
    assert crossing == CrossingTime(T=9, delta=0.05)
    # same delta passed explicitly gives the same count
    assert epochs_to_cross(0.2, 0.05, 0.5, 0.05).T == 9


def test_crossing_is_strict():
    for p, alpha, beta in [(0.2, 0.05, 0.5), (0.4, 0.1, 0.6), (0.85, 0.2, 0.5)]:
        crossing = epochs_to_cross(p, alpha, beta)
        assert mf_iterate(1.0, p, alpha, crossing.delta, crossing.T) > beta
        assert mf_iterate(1.0, p, alpha, crossing.delta, crossing.T - 1) <= beta
        assert epochs_to_cross(p, alpha, beta, crossing.delta).T == crossing.T


def test_crossing_matches_explicit_iteration_on_grid():
    ok, detail = crossing_formula_vs_iteration([0.1, 0.3, 0.5, 0.7, 0.9], max_epochs=100_000)
    assert ok, detail


def test_crossing_epochs_on_arrays_equal_pointwise():
    """An array epochs_to_cross call equals its one-point calls, for given
    slacks and at the default one, where the mask of _crossings marks
    exactly the points epochs_to_cross rejects."""
    fractions = np.linspace(0.02, 0.98, 10)
    p, fa, fb, fd = (g.ravel() for g in np.meshgrid(fractions, fractions, fractions,
                                                     [0.1, 0.5, 0.9], indexing="ij"))
    alpha = fa * p
    beta = fb * (p - alpha) / p
    delta = fd * (p - alpha / (1.0 - beta))
    crossing = epochs_to_cross(p, alpha, beta, delta)
    assert crossing.delta.tolist() == delta.tolist()
    assert crossing.T.tolist() == [
        epochs_to_cross(a, b, c, d).T
        for a, b, c, d in zip(p.tolist(), alpha.tolist(), beta.tolist(), delta.tolist())
    ]

    # the default slack, where beta past the steady fraction, alpha past p
    # and p = 0 are rejected
    default = epochs_to_cross(p, alpha, beta)
    beta = np.concatenate([beta, [0.8, 0.1, 0.1]])
    alpha = np.concatenate([alpha, [0.05, 0.3, 0.0]])
    p = np.concatenate([p, [0.2, 0.2, 0.0]])
    T, delta, broken = _crossings(p, alpha, beta)
    assert broken[-3:].all() and not broken[:-3].any()
    assert T[:-3].tolist() == default.T.tolist()
    assert delta[:-3].tolist() == default.delta.tolist()
    for a, b, c, t, d, bad in zip(p.tolist(), alpha.tolist(), beta.tolist(), T.tolist(),
                                  delta.tolist(), broken):
        if bad:
            with pytest.raises(ValueError):
                epochs_to_cross(a, b, c)
        else:
            assert epochs_to_cross(a, b, c) == CrossingTime(T=t, delta=d)
    # an array call raises the error of its first rejected point
    with pytest.raises(InfeasibleThresholdError, match="beta must lie in"):
        epochs_to_cross(p, alpha, beta)


def test_crossing_without_a_representable_epoch_raises():
    # the fixed point rounds onto the target, so the iterates never pass it
    p, alpha, theta = 0.1, 0.05, 1.6667500000000002e-16
    beta = (p - alpha) / p - theta
    with pytest.raises(ValueError, match="no crossing epoch is representable"):
        epochs_to_cross(p, alpha, beta)
    assert _crossings(*np.array([[p], [alpha], [beta]]))[2].tolist() == [True]


def test_crossing_refused_by_a_rounded_log_is_found():
    """Here beta sits so near the steady fraction that p - alpha - p beta
    - delta (1 - beta) rounds below zero, so the closed form has no finite
    logarithm; the iterates still pass beta first at 313."""
    p, alpha, beta = 0.10820247847978931, 0.09484695583258711, 0.12343083850613294
    crossing = epochs_to_cross(p, alpha, beta)
    assert crossing.T == 313
    assert mf_iterate(1.0, p, alpha, crossing.delta, 312) <= beta
    assert mf_iterate(1.0, p, alpha, crossing.delta, 313) > beta


def _counting_closed_form(monkeypatch) -> list[int]:
    """Count the passes of the closed form, each over an array of points."""
    calls = [0]
    closed_form = meanfield._closed_form

    def counted(fixed, rate, k):
        calls[0] += 1
        return closed_form(fixed, rate, k)

    monkeypatch.setattr(meanfield, "_closed_form", counted)
    return calls


def test_crossing_near_9e15_is_found_or_refused_in_bounded_passes(monkeypatch):
    """At p = 3e-16, alpha = 1.65e-16, beta = 0.35 the iterates first pass
    beta at 7.26e15. Doubling from k = 1 and bisecting find that epoch in at
    most 2 * 62 + 2 passes; with the last epoch below it, the point is
    refused in as few."""
    p, alpha, beta = 3e-16, 1.65e-16, 0.35
    calls = _counting_closed_form(monkeypatch)
    crossing = epochs_to_cross(p, alpha, beta)
    assert 0 < calls[0] <= 2 * 62 + 2
    assert crossing.T == 7257472520428883
    assert mf_iterate(1.0, p, alpha, crossing.delta, crossing.T) > beta
    assert mf_iterate(1.0, p, alpha, crossing.delta, crossing.T - 1) <= beta
    monkeypatch.setattr(meanfield, "_LAST_EPOCH", 7 * 10**15)
    calls[0] = 0
    with pytest.raises(ValueError, match="no crossing epoch is representable"):
        epochs_to_cross(p, alpha, beta)
    assert 0 < calls[0] <= 2 * 62 + 2


def test_crossing_size_independent():
    k = np.arange(50)
    big = mf_iterate(1e6, 0.2, 0.05, 0.05, k)
    small = mf_iterate(1.0, 0.2, 0.05, 0.05, k)
    T = epochs_to_cross(0.2, 0.05, 0.5, 0.05).T
    assert np.argmax(big > 1e6 * 0.5) == np.argmax(small > 0.5) == T


def test_infeasible_targets():
    with pytest.raises(InfeasibleThresholdError):
        epochs_to_cross(0.2, 0.05, 0.75)  # at the steady fraction
    with pytest.raises(InfeasibleThresholdError):
        epochs_to_cross(0.2, 0.05, 0.9)
    with pytest.raises(InfeasibleThresholdError):
        epochs_to_cross(0.2, 0.05, 0.0)
    assert issubclass(InfeasibleThresholdError, ValueError)


def test_delta_room_validation():
    # room is p - alpha/(1-beta) = 0.1; delta must stay inside it
    with pytest.raises(ValueError):
        epochs_to_cross(0.2, 0.05, 0.5, 0.1)
    epochs_to_cross(0.2, 0.05, 0.5, 0.0999)
    with pytest.raises(ValueError):
        epochs_to_cross(0.2, 0.05, 0.5, 0.0)


def test_recursion_tracks_exact_chain_mean():
    """The slack-free recursion stays within 5% of n of the true E[X_t] up
    to the crossing epoch, at a size where concentration has kicked in."""
    from qecbatch.chain import ModelParams
    from qecbatch.exact import mean_curve

    n, p, alpha = 10_000, 0.2, 0.05
    crossing = epochs_to_cross(p, alpha, 0.5)
    means = mean_curve(ModelParams(n=n, p=p, alpha=alpha), crossing.T)
    x = 0.0
    for t in range(crossing.T + 1):
        assert abs(means[t] - x) <= 0.05 * n
        x = x + (n - x) * p - n * alpha


def test_default_delta_is_half_the_room():
    crossing = epochs_to_cross(0.3, 0.06, 0.4)
    assert crossing.delta == pytest.approx(0.5 * (0.3 - 0.06 / 0.6), rel=1e-12)


@pytest.mark.parametrize("p, alpha, beta", [
    (0.2, 0.05, 0.5),
    (1.7e-9, 4.2e-10, 0.46),
    (3.1e-12, 2.2e-12, 0.238),
    (2.95566408e-15, 9.39653480e-16, 0.444),
    (3e-16, 1.65e-16, 0.35),
    (3e-16, 2.1e-16, 0.2),
    (1e-16, 5.5e-17, 0.35),
])
def test_crossing_epoch_is_that_of_exact_arithmetic(p, alpha, beta):
    """The evaluated crossing epoch is the one of the stored rate, fixed point
    and beta in exact arithmetic, up to the few units of 2^-52 by which the
    product k * log1p(-rate) rounds. Through 1 - rate, the epochs at
    p = 1.7e-9 sat 6e-9 of T away, and those near p = 3e-16 about 20%."""
    crossing = epochs_to_cross(p, alpha, beta)
    rate = p - crossing.delta
    fixed = _fixed_point(1.0, rate, alpha)
    with localcontext() as ctx:
        ctx.prec = 60
        k = (1 - Decimal(beta) / Decimal(fixed)).ln() / (1 - Decimal(rate)).ln()
    exact = int(k) + 1
    assert abs(crossing.T - exact) <= 1 + 4 * 2**-52 * exact


def test_sequences_are_taken_as_arrays():
    """A list holds one value per point, like an array; a 0-d array is a scalar."""
    T = epochs_to_cross([0.2, 0.3], 0.05, 0.5).T
    assert T.tolist() == epochs_to_cross(np.array([0.2, 0.3]), 0.05, 0.5).T.tolist()
    iterates = mf_iterate(1.0, 0.2, 0.05, 0.01, [1, 2, 3])
    assert iterates.tolist() == mf_iterate(1.0, 0.2, 0.05, 0.01, np.arange(1, 4)).tolist()
    assert type(mf_iterate(1.0, np.array(0.2), 0.05, 0.01, 3)) is float
