import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qecbatch
from qecbatch.chain import (
    ModelParams,
    Noise,
    correct,
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
        dict(n=10.5, p=0.2, alpha=0.1),
        dict(n=True, p=0.2, alpha=0.1),
        dict(n=10, p=0.2, alpha=0.1, q_period=2.5),
        dict(n=2**63, p=0.2, alpha=0.1),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


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
    x = np.zeros(50, dtype=np.int64)
    for _ in range(15):
        x = step_count(x, params, rng)
        assert x.shape == (50,)
        assert np.all((0 <= x) & (x <= params.n))


def test_step_locations_mode_invariants():
    params = ModelParams(n=20, p=0.3, alpha=0.1)
    rng = np.random.default_rng(2)
    mask = np.zeros((50, params.n), dtype=bool)
    for _ in range(25):
        before = mask.sum(axis=1)
        mask = step(mask, params, rng)
        assert mask.shape == (50, params.n) and mask.dtype == bool
        assert np.all(mask.sum(axis=1) >= before - params.k_batch)


def test_step_locations_deterministic_edges():
    rng = np.random.default_rng(3)
    # p = 0 with budget 2: exactly two of the tracked errors disappear
    params = ModelParams(n=10, p=0.0, alpha=0.2)
    mask = np.zeros(10, dtype=bool)
    mask[[1, 3, 5, 7]] = True
    after = step(mask, params, rng)
    assert after.sum() == 2
    assert not np.any(after & ~mask)
    # p = 1: every qubit is hit, k_batch corrected, in every row
    flood = ModelParams(n=10, p=1.0, alpha=0.2)
    after = step(np.zeros((4, 10), dtype=bool), flood, rng)
    np.testing.assert_array_equal(after.sum(axis=1), 8)


def test_inject_static_noise():
    rng = np.random.default_rng(4)
    quiet = ModelParams(n=10, p=0.2, alpha=0.1, q=0.0)
    mask = np.zeros((3, 10), dtype=bool)
    mask[:, [0, 9]] = True
    assert inject_static_noise(mask, quiet, rng) is mask

    flood = ModelParams(n=10, p=0.2, alpha=0.1, q=1.0)
    after = inject_static_noise(mask, flood, rng)
    assert after.all()  # q = 1 saturates the mask
    assert mask.sum() == 6  # the input is left as it was


def test_errors_are_absorbing():
    """A hit on an already-bad qubit changes nothing: with q = 1 every qubit
    is erroneous afterwards no matter what the mask was before."""
    rng = np.random.default_rng(5)
    params = ModelParams(n=6, p=0.2, alpha=0.1, q=1.0)
    masks = np.zeros((3, 6), dtype=bool)
    masks[1, 2] = True
    masks[2] = True
    np.testing.assert_array_equal(inject_static_noise(masks, params, rng).sum(axis=1), 6)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 5), n=st.integers(1, 12))
def test_correct_clears_the_smallest_keys(data, rows, n):
    """For any masks, keys and budget, `correct` clears exactly min(x, k)
    erroneous qubits per row, those with the smallest keys; with shared keys
    a nested pair of error sets stays nested."""
    high = data.draw(arrays(bool, (rows, n)))
    low = high & data.draw(arrays(bool, (rows, n)))
    keys = np.reshape(data.draw(st.permutations(range(rows * n))), (rows, n)) / (rows * n)
    budget = data.draw(st.integers(0, n + 2))
    for before in (high, low):
        after = correct(before, keys, budget)
        cleared = before & ~after
        assert not np.any(after & ~before)
        np.testing.assert_array_equal(
            cleared.sum(axis=1), np.minimum(before.sum(axis=1), budget)
        )
        for r in range(rows):
            if cleared[r].any() and after[r].any():
                assert keys[r, cleared[r]].max() < keys[r, after[r]].min()
    assert not np.any(correct(low, keys, budget) & ~correct(high, keys, budget))


def _reference_correct(mask, keys, budget):
    """Per row, clear the errors whose keys come first in a stable argsort."""
    keys = np.broadcast_to(keys, mask.shape)
    out = mask.copy()
    for row in np.ndindex(mask.shape[:-1]):
        errors = np.flatnonzero(mask[row])
        out[row][errors[np.argsort(keys[row][errors], kind="stable")][:budget]] = False
    return out


# (mask shape, keys shape): a 1-D row, 2-D blocks, and a stacked pair of
# blocks that share (rows, n) keys
_LAYOUTS = [((9,), (9,)), ((7, 30), (7, 30)), ((2, 5, 16), (5, 16)), ((1, 3), (1, 3))]


@pytest.mark.parametrize("mask_shape, key_shape", _LAYOUTS)
def test_correct_matches_a_reference_rule(mask_shape, key_shape):
    """With distinct keys `correct` clears what a stable per-row argsort
    names, for every budget from 0 past the row length."""
    rng = np.random.default_rng(sum(mask_shape))
    for _ in range(60):
        mask = rng.random(mask_shape) < rng.random()
        keys = rng.random(key_shape)
        budget = int(rng.integers(0, mask_shape[-1] + 3))
        np.testing.assert_array_equal(correct(mask, keys, budget),
                                      _reference_correct(mask, keys, budget))


@pytest.mark.parametrize("mask_shape, key_shape", _LAYOUTS)
def test_correct_breaks_ties_within_the_budget(mask_shape, key_shape):
    """With keys tied in threes, `correct` still clears exactly min(x, k)
    errors per row, and none with a key above one it keeps."""
    rng = np.random.default_rng(sum(mask_shape))
    for _ in range(60):
        mask = rng.random(mask_shape) < rng.random()
        keys = np.floor(rng.random(key_shape) * 3) / 3
        budget = int(rng.integers(0, mask_shape[-1] + 3))
        after = correct(mask, keys, budget)
        cleared = mask & ~after
        assert not np.any(after & ~mask)
        np.testing.assert_array_equal(cleared.sum(axis=-1),
                                      np.minimum(mask.sum(axis=-1), budget))
        keys = np.broadcast_to(keys, mask_shape)
        for row in np.ndindex(mask_shape[:-1]):
            if cleared[row].any() and after[row].any():
                assert keys[row][cleared[row]].max() <= keys[row][after[row]].min()


@pytest.mark.parametrize("bad", [-1e-300, np.nan, np.inf])
def test_correct_refuses_keys_it_cannot_rank(bad):
    keys = np.linspace(0.0, 1.0, 8)
    keys[3] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        correct(np.ones(8, dtype=bool), keys, 2)


def test_input_rules_have_one_home():
    """The seed range and the strict-crossing cut are written in chain alone
    (check_seed, first_above); a copy elsewhere can drift from them."""
    copy = re.compile(r"2\s*\*\*\s*64|1\s*<<\s*64|floor\(threshold\)")
    found = [f"{path.name}:{lineno}: {line.strip()}"
             for path in sorted(Path(qecbatch.__file__).parent.glob("*.py"))
             if path.name != "chain.py"
             for lineno, line in enumerate(path.read_text().splitlines(), start=1)
             if copy.search(line)]
    assert found == []
