import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecbatch.checks import crossing_formula_vs_iteration
from qecbatch.meanfield import (
    CrossingTime,
    InfeasibleThresholdError,
    MeanFieldSequence,
    _crossing_epoch,
    _crossings,
    epochs_to_cross,
    iterate_recursion,
    mf_iterate,
    sketch_phase_bound,
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
    seq = MeanFieldSequence(p=0.3, alpha=0.1, beta=0.3, delta=0.02, n=50.0)
    assert seq.x(4000) == pytest.approx(seq.fixed_point, rel=1e-12)
    # the fixed point sits strictly below the steady fraction
    assert seq.fixed_point / seq.n < (seq.p - seq.alpha) / seq.p


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


def test_validation():
    with pytest.raises(ValueError):
        mf_iterate(1.0, 0.0, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        mf_iterate(1.0, 0.2, 0.3, 0.0, 1)  # alpha above p
    with pytest.raises(ValueError):
        mf_iterate(1.0, 0.2, 0.1, 0.1, 1)  # delta not below p - alpha
    with pytest.raises(ValueError):
        mf_iterate(1.0, 0.2, 0.1, 0.05, -1)


def test_crossing_frozen_case():
    crossing = epochs_to_cross(0.2, 0.05, 0.5)
    assert crossing == CrossingTime(T=9, delta=0.05)
    # same delta passed explicitly gives the same count
    assert epochs_to_cross(0.2, 0.05, 0.5, 0.05).T == 9


def test_crossing_is_strict():
    for p, alpha, beta in [(0.2, 0.05, 0.5), (0.4, 0.1, 0.6), (0.85, 0.2, 0.5)]:
        crossing = epochs_to_cross(p, alpha, beta)
        seq = MeanFieldSequence(p=p, alpha=alpha, beta=beta, delta=crossing.delta)
        assert seq.x(crossing.T) > beta
        assert seq.x(crossing.T - 1) <= beta
        assert seq.crossing_epoch == crossing.T


def test_crossing_matches_explicit_iteration_on_grid():
    ok, detail = crossing_formula_vs_iteration([0.1, 0.3, 0.5, 0.7, 0.9], max_epochs=100_000)
    assert ok, detail


def test_crossing_epochs_on_arrays_equal_pointwise():
    """The array crossing epoch equals MeanFieldSequence.crossing_epoch at
    every point, for given slacks and at the default one, where the mask
    marks exactly the points epochs_to_cross rejects."""
    fractions = np.linspace(0.02, 0.98, 10)
    p, fa, fb, fd = (g.ravel() for g in np.meshgrid(fractions, fractions, fractions,
                                                     [0.1, 0.5, 0.9], indexing="ij"))
    alpha = fa * p
    beta = fb * (p - alpha) / p
    delta = fd * (p - alpha / (1.0 - beta))
    n = np.where(np.arange(p.size) % 2 == 0, 1.0, 1e4)
    epochs, unreachable = _crossing_epoch(p, alpha, beta, delta, n)
    assert not unreachable.any()
    assert epochs.tolist() == [
        MeanFieldSequence(p=a, alpha=b, beta=c, delta=d, n=e).crossing_epoch
        for a, b, c, d, e in zip(p.tolist(), alpha.tolist(), beta.tolist(),
                                 delta.tolist(), n.tolist())
    ]

    # beta past the steady fraction, alpha past p and p = 0 are rejected
    beta = np.concatenate([beta, [0.8, 0.1, 0.1]])
    alpha = np.concatenate([alpha, [0.05, 0.3, 0.0]])
    p = np.concatenate([p, [0.2, 0.2, 0.0]])
    T, broken = _crossings(p, alpha, beta)
    assert broken[-3:].all() and not broken[:-3].any()
    for a, b, c, t, bad in zip(p.tolist(), alpha.tolist(), beta.tolist(), T.tolist(), broken):
        if bad:
            with pytest.raises(ValueError):
                epochs_to_cross(a, b, c)
        else:
            assert epochs_to_cross(a, b, c).T == t


def test_crossing_without_a_representable_epoch_raises():
    # the fixed point rounds onto the target, so the iterates never pass it
    p, alpha, theta = 0.1, 0.05, 1.6667500000000002e-16
    beta = (p - alpha) / p - theta
    with pytest.raises(ValueError, match="no crossing epoch is representable"):
        epochs_to_cross(p, alpha, beta)
    assert _crossings(*np.array([[p], [alpha], [beta]]))[1].tolist() == [True]


def test_crossing_size_independent():
    big = MeanFieldSequence(p=0.2, alpha=0.05, beta=0.5, delta=0.05, n=1e6)
    small = MeanFieldSequence(p=0.2, alpha=0.05, beta=0.5, delta=0.05, n=1.0)
    assert big.crossing_epoch == small.crossing_epoch


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
        MeanFieldSequence(p=0.2, alpha=0.05, beta=0.5, delta=0.1)
    MeanFieldSequence(p=0.2, alpha=0.05, beta=0.5, delta=0.0999)
    with pytest.raises(ValueError):
        MeanFieldSequence(p=0.2, alpha=0.05, beta=0.5, delta=0.0)


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


def test_sketch_phase_bound_frozen_value():
    assert sketch_phase_bound(0.2, 0.1, 0.1) == pytest.approx(25.0, rel=1e-12)


def test_sketch_phase_bound_validation():
    with pytest.raises(ValueError):
        sketch_phase_bound(0.2, 0.1, 0.5)  # epsilon at (p - alpha)/p
    with pytest.raises(ValueError):
        sketch_phase_bound(0.2, 0.1, 0.0)


def test_sketch_phase_bound_dominates_iteration():
    """The coarse bound must cover the number of zero-slack iterations it
    takes to climb within epsilon of the steady fraction."""
    for p in (0.2, 0.5, 0.8):
        for fa in (0.1, 0.4):
            alpha = fa * p
            limit = (p - alpha) / p
            for fe in (0.1, 0.3):
                epsilon = fe * limit
                bound = sketch_phase_bound(p, alpha, epsilon)
                target = limit - epsilon
                x, steps = 0.0, 0
                while x <= target:
                    x = x + (1.0 - x) * p - alpha
                    steps += 1
                    assert steps < 10_000_000
                assert steps <= bound, (p, alpha, epsilon, steps, bound)


def test_default_delta_is_half_the_room():
    crossing = epochs_to_cross(0.3, 0.06, 0.4)
    assert crossing.delta == pytest.approx(0.5 * (0.3 - 0.06 / 0.6), rel=1e-12)
