import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecbatch.chain import (
    ChainState,
    ModelParams,
    Noise,
    initial_state,
    inject_count,
    inject_static_noise,
    static_phase_due,
    step,
    step_count,
)


def test_k_batch_floor():
    assert ModelParams(n=100, p=0.2, alpha=0.05).k_batch == 5
    assert ModelParams(n=10, p=0.2, alpha=0.0).k_batch == 0
    assert ModelParams(n=50, p=0.2, alpha=0.09).k_batch == 4
    assert ModelParams(n=3, p=0.2, alpha=1.0).k_batch == 3
    assert ModelParams(n=np.int64(10), p=0.2, alpha=0.3, q_period=np.uint8(2)).k_batch == 3


def test_k_batch_decimal_products():
    # 10 * 0.3 is 2.9999999999999996 in binary; the budget must still be 3
    assert ModelParams(n=10, p=0.5, alpha=0.3).k_batch == 3
    assert ModelParams(n=3, p=0.4, alpha=1.0 / 3.0).k_batch == 1
    assert ModelParams(n=1000, p=0.2, alpha=0.07).k_batch == 70


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, p=0.2, alpha=0.1),
        dict(n=10, p=-0.1, alpha=0.1),
        dict(n=10, p=1.5, alpha=0.1),
        dict(n=10, p=0.2, alpha=-0.01),
        dict(n=10, p=0.2, alpha=1.01),
        dict(n=10, p=0.2, alpha=0.1, q=-0.2),
        dict(n=10, p=0.2, alpha=0.1, q_period=0),
        dict(n=10, p=0.2, alpha=0.1, noise="erasure"),
        dict(n=10.5, p=0.2, alpha=0.1),
        dict(n=True, p=0.2, alpha=0.1),
        dict(n=10, p=0.2, alpha=0.1, q_period=2.5),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_initial_state():
    state = initial_state()
    assert (state.t, state.x, state.error_set) == (0, 0, None)
    tracked = initial_state(track_locations=True)
    assert tracked.error_set == frozenset()


def test_state_validation():
    params = ModelParams(n=5, p=0.2, alpha=0.2)
    ChainState(t=0, x=3, error_set=frozenset({0, 2, 4})).validate(params)
    with pytest.raises(ValueError):
        ChainState(t=0, x=6).validate(params)
    with pytest.raises(ValueError):
        ChainState(t=-1, x=0).validate(params)
    with pytest.raises(ValueError):
        ChainState(t=0, x=2, error_set=frozenset({1})).validate(params)
    with pytest.raises(ValueError):
        ChainState(t=0, x=1, error_set=frozenset({5})).validate(params)


def test_static_phase_schedule():
    quiet = ModelParams(n=10, p=0.2, alpha=0.1, q=0.0, q_period=1)
    assert not any(static_phase_due(t, quiet) for t in range(10))
    every = ModelParams(n=10, p=0.2, alpha=0.1, q=0.05, q_period=1)
    assert all(static_phase_due(t, every) for t in range(10))
    third = ModelParams(n=10, p=0.2, alpha=0.1, q=0.05, q_period=3)
    due = [t for t in range(10) if static_phase_due(t, third)]
    assert due == [0, 3, 6, 9]


def test_step_count_deterministic_edges():
    rng = np.random.default_rng(0)
    # p = 1: everything decoheres, budget removes exactly k_batch
    full = ModelParams(n=8, p=1.0, alpha=0.25)
    assert step_count(3, full, rng) == 8 - 2
    # p = 0: nothing new, correction clears min(x, k_batch)
    none = ModelParams(n=8, p=0.0, alpha=0.25)
    assert step_count(5, none, rng) == 3
    assert step_count(1, none, rng) == 0


def test_inject_count_edges():
    rng = np.random.default_rng(0)
    params = ModelParams(n=8, p=0.2, alpha=0.25, q=0.0)
    assert inject_count(4, params, rng) == 4
    saturating = ModelParams(n=8, p=0.2, alpha=0.25, q=1.0)
    assert inject_count(4, saturating, rng) == 8


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    p=st.floats(0.0, 1.0),
    alpha=st.floats(0.0, 1.0),
    x_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_count_stays_in_range(n, p, alpha, x_frac, seed):
    """One epoch can never leave [max(0, x - k_batch), n]."""
    params = ModelParams(n=n, p=p, alpha=alpha)
    x = int(round(x_frac * n))
    rng = np.random.default_rng(seed)
    x1 = step_count(x, params, rng)
    assert max(0, x - params.k_batch) <= x1 <= n


def test_step_counts_mode():
    params = ModelParams(n=20, p=0.3, alpha=0.1)
    rng = np.random.default_rng(1)
    state = initial_state()
    for _ in range(15):
        state = step(state, params, rng)
        assert 0 <= state.x <= params.n
        assert state.error_set is None
    assert state.t == 15


def test_step_locations_mode_invariants():
    params = ModelParams(n=20, p=0.3, alpha=0.1)
    rng = np.random.default_rng(2)
    state = initial_state(track_locations=True)
    for _ in range(25):
        state = step(state, params, rng)
        assert len(state.error_set) == state.x
        assert all(0 <= j < params.n for j in state.error_set)


def test_step_locations_deterministic_edges():
    rng = np.random.default_rng(3)
    # p = 0 with budget 2: exactly two of the tracked errors disappear
    params = ModelParams(n=10, p=0.0, alpha=0.2)
    state = ChainState(t=0, x=4, error_set=frozenset({1, 3, 5, 7}))
    after = step(state, params, rng)
    assert after.x == 2
    assert after.error_set < state.error_set
    # p = 1: every qubit is hit, k_batch corrected
    flood = ModelParams(n=10, p=1.0, alpha=0.2)
    after = step(initial_state(track_locations=True), flood, rng)
    assert after.x == 8
    assert len(after.error_set) == 8


def test_inject_static_noise():
    rng = np.random.default_rng(4)
    quiet = ModelParams(n=10, p=0.2, alpha=0.1, q=0.0)
    state = ChainState(t=3, x=2, error_set=frozenset({0, 9}))
    assert inject_static_noise(state, quiet, rng) is state

    flood = ModelParams(n=10, p=0.2, alpha=0.1, q=1.0)
    after = inject_static_noise(state, flood, rng)
    assert after.t == 3  # static phases do not advance the epoch counter
    assert after.x == 10
    assert after.error_set == frozenset(range(10))


def test_errors_are_absorbing():
    """A hit on an already-bad qubit changes nothing: with q = 1 the error
    set is all of range(n) no matter what it was before."""
    rng = np.random.default_rng(5)
    params = ModelParams(n=6, p=0.2, alpha=0.1, q=1.0)
    for pre in [frozenset(), frozenset({2}), frozenset(range(6))]:
        state = ChainState(t=0, x=len(pre), error_set=pre)
        assert inject_static_noise(state, params, rng).x == 6
