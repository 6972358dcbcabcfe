import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_array
from scipy.special import bdtr
from scipy.stats import binom

from qecbatch import exact
from qecbatch.bounds import hitting_prob_lb
from qecbatch.chain import ModelParams
from qecbatch.exact import (
    EXACT_N_CAP,
    HittingTimeDistribution,
    StateDistribution,
    build_kernel,
    check_h_monotone,
    epochs,
    evolve,
    hitting_time_distribution,
    mean_curve,
    tail_prob,
)
from qecbatch.meanfield import mf_iterate

# Hand-computed rows for n=2, p=0.5, budget 1:
# from 0: Y~Bin(2,.5) -> lands on 0 with 0.25+0.5, on 1 with 0.25
# from 1: Y~Bin(1,.5) -> lands on 0 or 1, half each
# from 2: no healthy qubits, one correction -> lands on 1 surely
HAND_ROWS_N2 = np.array([
    [0.75, 0.25, 0.0],
    [0.50, 0.50, 0.0],
    [0.00, 1.00, 0.0],
])


def kernel_n2():
    return build_kernel(ModelParams(n=2, p=0.5, alpha=0.5))


def test_kernel_hand_rows_n2():
    kernel = kernel_n2()
    assert kernel.params.k_batch == 1
    np.testing.assert_allclose(kernel.dense(), HAND_ROWS_N2, atol=1e-15)


def test_kernel_hand_rows_no_budget():
    kernel = build_kernel(ModelParams(n=1, p=0.3, alpha=0.0))
    np.testing.assert_allclose(kernel.dense(), [[0.7, 0.3], [0.0, 1.0]], atol=1e-15)


def test_evolve_matches_bruteforce_enumeration():
    """Distribution after 3 epochs for n=3, p=0.4, budget 1, frozen from an
    independent pure-python enumeration of the recursion."""
    kernel = build_kernel(ModelParams(n=3, p=0.4, alpha=1.0 / 3.0))
    dist = evolve(kernel, StateDistribution.point_mass(3), 3)
    expected = [0.470057472, 0.393050112, 0.136892416, 0.0]
    np.testing.assert_allclose(dist.mass, expected, atol=1e-12)
    assert dist.mean() == pytest.approx(0.666834944, abs=1e-12)
    assert dist.t == 3


def test_evolve_two_epochs_n2():
    dist = evolve(kernel_n2(), StateDistribution.point_mass(2), 2)
    np.testing.assert_allclose(dist.mass, [0.6875, 0.3125, 0.0], atol=1e-15)


def test_rows_stochastic_across_sizes():
    for n, p, alpha in [(1, 0.5, 0.0), (17, 0.05, 0.1), (240, 0.35, 0.12), (500, 0.9, 0.5)]:
        dense = build_kernel(ModelParams(n=n, p=p, alpha=alpha)).dense()
        sums = dense.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12
        assert dense.min() >= 0.0


def test_kernel_cannot_drop_below_budget_floor():
    # one batch removes at most k errors, so P[x -> x'] = 0 for x' < x - k
    for n, p, alpha in [(12, 0.3, 0.25), (40, 0.7, 0.1), (7, 0.5, 0.0)]:
        kernel = build_kernel(ModelParams(n=n, p=p, alpha=alpha))
        dense = kernel.dense()
        for x in range(n + 1):
            floor = max(0, x - kernel.params.k_batch)
            assert not dense[x, :floor].any()


def test_kernel_full_budget_resets_every_state():
    dense = build_kernel(ModelParams(n=6, p=0.8, alpha=1.0)).dense()
    np.testing.assert_array_equal(dense[:, 0], np.ones(7))
    assert not dense[:, 1:].any()


def test_size_cap():
    assert EXACT_N_CAP == 20_000
    with pytest.raises(ValueError, match="n=20001 exceeds the exact-mode cap of 20000$"):
        build_kernel(ModelParams(n=EXACT_N_CAP + 1, p=0.2, alpha=0.1))
    # blocks are built on first use, so a kernel at the cap costs nothing yet
    assert build_kernel(ModelParams(n=EXACT_N_CAP, p=0.2, alpha=0.1)).params.n == EXACT_N_CAP


def test_static_kernel_only_adds_errors():
    kernel = build_kernel(ModelParams(n=6, p=0.2, alpha=0.3, q=0.15))
    static = kernel.static_rows.dense()
    assert np.abs(static.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.allclose(np.tril(static, -1), 0.0)  # the count never drops
    no_static = build_kernel(ModelParams(n=6, p=0.2, alpha=0.3))
    assert no_static.static_probs is None


def test_evolve_interleaves_static_phases():
    """evolve and every distribution epochs yields must reproduce an explicit
    matrix composition with the static kernel applied before epochs 0 and 2
    (q_period 2), from t = 0 and from t = 1, where the schedule is offset;
    err grows by the truncation once per phase."""
    params = ModelParams(n=3, p=0.4, alpha=1.0 / 3.0, q=0.3, q_period=2)
    kernel = build_kernel(params)
    with pytest.raises(TypeError):  # the one budget cannot be swapped for another
        replace(kernel, truncation=0.0)
    static, probs = kernel.static_rows.dense(), kernel.dense()
    masses = [StateDistribution.point_mass(3).mass]
    masses.append(masses[-1] @ static @ probs)                # epoch 0
    masses.append(masses[-1] @ probs)                         # epoch 1
    masses.append(masses[-1] @ static @ probs)                # epoch 2
    masses.append(masses[-1] @ probs)                         # epoch 3
    phases = [0, 2, 3, 5, 6]  # phases[t]: phases applied in the first t epochs
    dist = evolve(kernel, StateDistribution.point_mass(3), 4)
    np.testing.assert_allclose(dist.mass, masses[4], atol=1e-14)
    for t0, dist0 in ((0, StateDistribution.point_mass(3)),
                      (1, StateDistribution(t=1, mass=masses[1], err=1e-15))):
        stream = list(epochs(kernel, dist0, 4 - t0))
        assert [d.t for d in stream] == list(range(t0, 5))
        for d in stream:
            np.testing.assert_allclose(d.mass, masses[d.t], atol=1e-14)
            assert d.err == dist0.err + (phases[d.t] - phases[t0]) * kernel.truncation
        assert stream[-1].err == evolve(kernel, dist0, 4 - t0).err


def test_evolve_zero_steps_is_identity():
    start = StateDistribution(t=4, mass=np.array([0.1, 0.6, 0.3]))
    dist = evolve(kernel_n2(), start, 0)
    np.testing.assert_array_equal(dist.mass, start.mass)
    assert dist.t == 4


def test_evolve_saturates_without_budget():
    kernel = build_kernel(ModelParams(n=5, p=1.0, alpha=0.0))
    dist = evolve(kernel, StateDistribution.point_mass(5), 1)
    np.testing.assert_array_equal(dist.mass, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0])


def test_evolve_composes():
    params = ModelParams(n=10, p=0.3, alpha=0.1, q=0.1, q_period=3)
    kernel = build_kernel(params)
    start = StateDistribution.point_mass(10)
    oneshot = evolve(kernel, start, 7)
    split = evolve(kernel, evolve(kernel, start, 3), 4)
    np.testing.assert_allclose(oneshot.mass, split.mass, atol=1e-14)
    assert split.t == 7


def test_evolve_validation():
    kernel = kernel_n2()
    with pytest.raises(ValueError):
        evolve(kernel, StateDistribution.point_mass(3), 1)
    with pytest.raises(ValueError):
        evolve(kernel, StateDistribution.point_mass(2), -1)


@pytest.mark.parametrize("call", [
    lambda kernel, start: evolve(kernel, start, True),
    lambda kernel, start: evolve(kernel, start, 2.5),
    lambda kernel, start: epochs(kernel, start, 2.0),
    lambda kernel, start: hitting_time_distribution(kernel, 1, True),
    lambda kernel, start: hitting_time_distribution(kernel, 1, 2.0),
    lambda kernel, start: mean_curve(kernel.params, 2.0),
    lambda kernel, start: mean_curve(kernel.params, True),
    lambda kernel, start: check_h_monotone(kernel, True),
    lambda kernel, start: check_h_monotone(kernel, 1.5),
    lambda kernel, start: StateDistribution(t=2.5, mass=start.mass),
    lambda kernel, start: StateDistribution(t=True, mass=start.mass),
    lambda kernel, start: StateDistribution.point_mass(2, x=1.5),
    lambda kernel, start: StateDistribution.point_mass(2, x=True),
    lambda kernel, start: StateDistribution.point_mass(True),
    lambda kernel, start: StateDistribution.point_mass(2.5),
], ids=["evolve True", "evolve 2.5", "epochs 2.0", "hitting True", "hitting 2.0",
        "mean_curve 2.0", "mean_curve True", "monotone True", "monotone 1.5",
        "t 2.5", "t True", "x 1.5", "x True", "n True", "n 2.5"])
def test_epoch_counts_take_integers_only(call):
    """True would run one epoch and a float would die inside range; as a
    start state, 1.5 would fail to index and True would fill every state.
    As a size, True would give two states and 2.5 would die inside numpy."""
    with pytest.raises(ValueError, match="must be an integer"):
        call(kernel_n2(), StateDistribution.point_mass(2))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-10])
def test_monotone_check_refuses_a_tol_it_cannot_hold(tol):
    """drops > nan is false everywhere, so a NaN tol would pass any kernel
    unchecked, as would an infinite one; a negative one fails every kernel."""
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        check_h_monotone(kernel_n2(), 1, tol)


def test_monotone_check_takes_a_zero_tol():
    assert check_h_monotone(kernel_n2(), 1, 0.0).tol == 0.0


def test_tail_prob_is_strict():
    dist = StateDistribution(t=0, mass=np.array([0.2, 0.3, 0.5]))
    assert tail_prob(dist, 1) == pytest.approx(0.5)
    assert tail_prob(dist, 0.999) == pytest.approx(0.8)
    assert tail_prob(dist, 1.0001) == pytest.approx(0.5)
    assert tail_prob(dist, -0.5) == 1.0
    assert tail_prob(dist, 2) == 0.0


@pytest.mark.parametrize("params, beta", [
    (ModelParams(n=300, p=0.2, alpha=0.05), 0.5),
    (ModelParams(n=60, p=0.2, alpha=0.05, q=0.05, q_period=3), 0.375),
])
def test_tail_prob_never_exceeds_one(params, beta):
    """Pushed mass can sum a few ulps above or below 1, so whether these
    saturating tails reach the clamp depends on rounding; they never pass 1."""
    dists = epochs(build_kernel(params), StateDistribution.point_mass(params.n), 40)
    tails = [tail_prob(dist, params.n * beta) for dist in dists]
    assert max(tails) <= 1.0


def test_tail_prob_clamps_a_sum_above_one():
    """A mass that sums to 1 + 9e-16, within _MASS_TOL, has a tail sum above
    1 that tail_prob reads as 1."""
    dist = StateDistribution(t=0, mass=np.array([0.0, 0.5, 0.5 + 8e-16]))
    assert dist.mass[1:].sum() > 1.0
    assert tail_prob(dist, 0.5) == 1.0


def test_distribution_validation():
    with pytest.raises(ValueError):
        StateDistribution(t=0, mass=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        StateDistribution(t=0, mass=np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="mass sums to nan"):
        StateDistribution(t=0, mass=np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        StateDistribution.point_mass(3, x=4)


def no_live_phase(params):
    """params, once no live kernel holds its correction phase: a fault test
    must build its blocks itself, not borrow blocks another kernel built."""
    assert (params.n, params.p, params.k_batch) not in exact._LIVE, (
        f"a live kernel, perhaps held by an earlier failure's traceback, already "
        f"shares the blocks of {params}")
    return params


class NanRowSums(np.ndarray):
    """A band whose entries pass but whose row sums come out NaN."""

    def sum(self, *args, **kwargs):
        return np.full(self.shape[0], np.nan)


@pytest.mark.parametrize("defect, match", [
    ("negative entry", "negative entries"),
    ("rows sum to 1 + 1e-9", "rows sum to 1"),
    ("NaN entry", "negative entries, the least nan"),
    # a NaN entry meets the negative-entry check first
    ("NaN row sums", "rows sum to 1 \\+/- nan"),
])
def test_blocks_are_checked_as_they_are_built(monkeypatch, defect, match):
    """A block whose rows hold a negative or NaN entry, or sum to 1 + 1e-9
    or to NaN, must not be built: the first push that reaches it raises."""
    band = exact._band

    def broken_band(*args):
        probs, offset, width = band(*args)
        if defect == "negative entry":
            probs[0, :2] += [-0.1, 0.1]  # the row still sums to 1
        elif defect == "NaN entry":
            probs[0, 0] = np.nan
        elif defect == "NaN row sums":
            probs = probs.view(NanRowSums)
        else:
            probs *= 1.0 + 1e-9
        return probs, offset, width

    monkeypatch.setattr(exact, "_band", broken_band)
    kernel = build_kernel(no_live_phase(ModelParams(n=300, p=0.2, alpha=0.05)))
    with pytest.raises(ValueError, match=match):
        evolve(kernel, StateDistribution.point_mass(300), 1)


@pytest.fixture
def band_calls(monkeypatch):
    """The (n, prob, budget, x0, x1) of every block built from here on."""
    calls = []
    band = exact._band

    def counted(*args):
        calls.append(args)
        return band(*args)

    monkeypatch.setattr(exact, "_band", counted)
    return calls


def test_live_kernels_share_their_blocks(band_calls):
    params = ModelParams(n=600, p=0.2, alpha=0.05, q=0.02, q_period=3)
    start = StateDistribution.point_mass(600)
    kernel = build_kernel(params)
    alone = evolve(kernel, start, 5)
    built = len(band_calls)
    assert built > 0
    again = evolve(build_kernel(params), start, 5)
    means = mean_curve(params, 5)
    assert len(band_calls) == built
    np.testing.assert_array_equal(again.mass, alone.mass)
    assert means[-1] == alone.mean()


def test_blocks_leave_with_the_last_kernel(band_calls):
    params = ModelParams(n=600, p=0.2, alpha=0.05)
    start = StateDistribution.point_mass(600)
    kernel = build_kernel(params)
    evolve(kernel, start, 5)
    built = len(band_calls)
    del kernel
    # only this phase: a kernel an earlier failure left alive must not count
    assert (params.n, params.p, params.k_batch) not in exact._LIVE
    evolve(build_kernel(params), start, 5)
    assert len(band_calls) == 2 * built


def test_kernels_with_other_budgets_share_nothing(band_calls):
    kernels = [build_kernel(ModelParams(n=300, p=0.2, alpha=alpha)) for alpha in (0.05, 0.1)]
    for kernel in kernels:
        kernel.dense()
    assert kernels[0].rows is not kernels[1].rows
    assert sorted(call[2] for call in band_calls) == [15, 15, 30, 30]


def test_static_kernel_shares_the_correction_blocks(band_calls):
    params = ModelParams(n=300, p=0.2, alpha=0.05)
    plain, static = build_kernel(params), build_kernel(replace(params, q=0.02))
    plain.dense()
    assert len(band_calls) == 2
    static.dense()
    assert len(band_calls) == 2
    static.static_rows.dense()
    assert [call[1:3] for call in band_calls[2:]] == [(0.02, 0), (0.02, 0)]


def test_monotonicity_holds_on_model_kernels():
    for alpha in (0.0, 0.1, 0.25):
        kernel = build_kernel(ModelParams(n=30, p=0.3, alpha=alpha))
        for m in (1, 2, 5):
            report = check_h_monotone(kernel, m)
            assert report.ok, report.violations[:5]
            assert report.max_decrease <= report.tol


def test_monotonicity_detects_violation():
    # a swap chain: from 0 always to 1, from 1 always to 0; reaching
    # state >= 1 in one step is certain from 0 and impossible from 1
    flip = SimpleNamespace(dense=lambda: np.array([[0.0, 1.0], [1.0, 0.0]]))
    report = check_h_monotone(flip, 1)
    assert not report.ok
    assert (1, 0) in report.violations
    assert report.max_decrease == pytest.approx(1.0)


def test_hitting_time_geometric():
    """With n=1, p=0.3, no budget, the first epoch with X > 0 is geometric."""
    kernel = build_kernel(ModelParams(n=1, p=0.3, alpha=0.0))
    law = hitting_time_distribution(kernel, 0, t_max=6)
    assert law.pmf[0] == 0.0
    for t in range(1, 7):
        assert law.pmf[t] == pytest.approx(0.3 * 0.7 ** (t - 1), rel=1e-12)
    assert law.survival == pytest.approx(0.7**6, rel=1e-12)


def test_hitting_time_n2():
    law = hitting_time_distribution(kernel_n2(), 0.5, t_max=3)
    np.testing.assert_allclose(
        law.pmf, [0.0, 0.25, 0.1875, 0.140625], atol=1e-15
    )
    assert law.survival == pytest.approx(0.75**3, rel=1e-12)


def test_hitting_time_edge_thresholds():
    kernel = kernel_n2()
    below = hitting_time_distribution(kernel, -0.5, t_max=4)
    assert below.pmf[0] == 1.0 and below.survival == 0.0
    unreachable = hitting_time_distribution(kernel, 2, t_max=4)
    assert unreachable.pmf.sum() == pytest.approx(0.0, abs=1e-15)
    assert unreachable.survival == pytest.approx(1.0)


def test_hitting_time_mass_accounting():
    """Each pmf entry is the mass cut above the threshold, never negative,
    and the survival is at most 1. As a difference of rounded survival
    sums, the n = 500 point and the unreachable n = 20 one had
    pmf[1] = -2.2e-16; unclamped, the n = 20 survival is 1 + 1.3e-15."""
    for params, threshold, t_max in (
        (ModelParams(n=25, p=0.3, alpha=0.1, q=0.05, q_period=2), 6, 40),
        (ModelParams(n=500, p=0.2, alpha=0.05), 250, 60),
        (ModelParams(n=20, p=0.2, alpha=0.1), 19.5, 40),
    ):
        law = hitting_time_distribution(build_kernel(params), threshold, t_max=t_max)
        assert law.pmf.sum() + law.survival == pytest.approx(1.0, abs=1e-12)
        assert law.pmf.min() >= 0.0
        assert law.survival <= 1.0


def test_hitting_time_first_epoch_matches_direct_calc():
    params = ModelParams(n=5, p=0.3, alpha=0.2, q=0.1)
    kernel = build_kernel(params)
    law = hitting_time_distribution(kernel, 1, t_max=3)
    mass = StateDistribution.point_mass(5).mass @ kernel.static_rows.dense() @ kernel.dense()
    assert law.pmf[1] == pytest.approx(mass[2:].sum(), abs=1e-14)


def test_hitting_median():
    law = HittingTimeDistribution(
        threshold=0, pmf=np.array([0.0, 0.6, 0.4]), survival=0.0
    )
    assert law.median() == 1.0
    open_ended = HittingTimeDistribution(
        threshold=0, pmf=np.array([0.0, 0.2, 0.2]), survival=0.6
    )
    assert math.isinf(open_ended.median())


def test_mean_curve_matches_dense_evolution():
    params = ModelParams(n=40, p=0.3, alpha=0.1)
    kernel = build_kernel(params)
    means = mean_curve(params, 20)
    dist = StateDistribution.point_mass(40)
    for t in range(21):
        assert means[t] == pytest.approx(dist.mean(), abs=1e-10)
        dist = evolve(kernel, dist, 1)


def test_mean_curve_with_static_phases():
    params = ModelParams(n=30, p=0.25, alpha=0.1, q=0.1, q_period=2)
    kernel = build_kernel(params)
    means = mean_curve(params, 12)
    dist = StateDistribution.point_mass(30)
    for t in range(13):
        assert means[t] == pytest.approx(dist.mean(), abs=1e-10)
        dist = evolve(kernel, dist, 1)


def test_exact_mean_is_never_below_the_iterate_at_budget_k_over_n():
    """mf_iterate(n, p, k/n, 0, t) is E[X_t] of the chain without its clamp
    at n clean qubits, and the clamp only adds errors (rows of the ROADMAP's
    table)."""
    def curves(n, p, alpha, t_max):
        params = ModelParams(n=n, p=p, alpha=alpha)
        dists = list(epochs(build_kernel(params), StateDistribution.point_mass(n), t_max))
        t = np.arange(t_max + 1)
        return (np.array([dist.mean() for dist in dists]), np.array([dist.err for dist in dists]),
                mf_iterate(n, p, params.k_batch / n, 0.0, t), mf_iterate(n, p, alpha, 0.0, t))

    # the clamp carries no mass: equal to rounding
    means, _, iterate, _ = curves(1000, 0.2, 0.1, 30)
    assert np.all(np.abs(means - iterate) <= 1e-13 * iterate)
    # k = 99 while n * alpha = 100.0: the iterate at k/n holds, the one at alpha does not
    means, _, iterate, at_alpha = curves(997, 0.3, 0.1003, 30)
    assert np.all(np.abs(means - iterate) <= 1e-13 * iterate)
    assert np.abs(means - at_alpha).max() > 1.0
    # the clamp binds: the exact mean is above the iterate, by up to 10.1 qubits
    means, err, iterate, _ = curves(1000, 0.2, 0.199, 60)
    assert np.all(means >= iterate - 1000 * err)
    assert (means - iterate).max() > 10.0


def test_band_raw_mass_is_checked_against_the_exact_pmf():
    """The raw band mass is put back on scale by scipy's pmf at the lower
    quantile. A sum of log-gamma terms drifted by 3.5e-9 at n = 10^6, past
    _RAW_ROW_TOL, and refused these correct blocks."""
    n = 10**6
    for x0 in (0, n // 2 // exact._BLOCK * exact._BLOCK):
        probs, _, _ = exact._band(n, 0.2, 0, x0, x0 + exact._BLOCK)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def check_band_rows_against_pmf(n, prob, x0, x1):
    """Each kept row of _band is scipy's pmf over the same window,
    renormalized, to 1e-12 of its peak; entries past a row's width are 0."""
    probs, offset, width = exact._band(n, prob, 0, x0, x1)
    x = np.arange(x0, x1)
    y = (offset - x)[:, None] + np.arange(probs.shape[1])
    keep = np.arange(probs.shape[1]) < width[:, None]
    ref = np.where(keep, binom.pmf(y, (n - x)[:, None], prob), 0.0)
    ref /= ref.sum(axis=1, keepdims=True)
    gap = np.abs(probs - ref).max(axis=1) / ref.max(axis=1)
    assert gap.max() <= 1e-12
    assert (probs[~keep] == 0.0).all()


@pytest.mark.parametrize("prob", [1e-9, 0.02, 0.2, 0.5, 0.98, 0.999])
@pytest.mark.parametrize("n", [30, 4000])
def test_band_rows_match_the_binomial_pmf(n, prob):
    for x0 in range(0, n + 1, exact._BLOCK):
        check_band_rows_against_pmf(n, prob, x0, min(x0 + exact._BLOCK, n + 1))


def test_band_rows_match_the_binomial_pmf_at_scale():
    n = 10**6
    for x0 in (0, n // 2 // exact._BLOCK * exact._BLOCK):
        check_band_rows_against_pmf(n, 0.2, x0, x0 + exact._BLOCK)


def test_band_refuses_rows_that_leave_out_too_much(monkeypatch):
    """Cuts one count inside the ones _cut finds leave more than
    _TAIL_EPS / 4 out on a side; the block that holds such rows must not be
    built."""
    cut = exact._cut

    def inward(m, prob):
        lo, _ = cut(m, prob)
        return lo + 1, bdtr(lo, m, prob)

    monkeypatch.setattr(exact, "_cut", inward)
    kernel = build_kernel(no_live_phase(ModelParams(n=300, p=0.2, alpha=0.05)))
    with pytest.raises(ValueError, match="leaves out a tail"):
        evolve(kernel, StateDistribution.point_mass(300), 1)


@pytest.mark.parametrize("prob", [1e-12, 1e-9, 1e-3, 0.02, 0.2, 0.5, 0.8, 0.98, 0.999, 1 - 1e-9])
@pytest.mark.parametrize("n", [30, 1000, 4000, 10**6])
def test_cuts_keep_the_quantiles_and_at_most_two_more(n, prob):
    """Every row keeps y from scipy's lower _TAIL_EPS / 4 quantile to m
    minus the mirrored one, and at most two counts more on either side."""
    blocks = (0, n // 2 // exact._BLOCK) if n == 10**6 else range(n // exact._BLOCK + 1)
    eps = exact._TAIL_EPS / 4
    for b in blocks:
        m = n - np.arange(b * exact._BLOCK, min((b + 1) * exact._BLOCK, n + 1))
        _, offset, width = exact._band(n, prob, 0, n - m[0], n - m[-1] + 1)
        lo = offset - (n - m)
        below = binom.ppf(eps, m, prob) - lo
        above = (lo + width - 1) - (m - binom.ppf(eps, m, 1.0 - prob))
        assert below.min() >= 0 and above.min() >= 0
        assert below.max() <= 2 and above.max() <= 2


@pytest.mark.parametrize("prob", [1e-9, 0.02, 0.2, 0.5, 0.98])
def test_cuts_step_down_from_a_guess_too_high(monkeypatch, prob):
    """A guess five counts too high steps down to the largest cut whose
    tail fits, scipy's quantile, with that cut's own tail."""
    guess = exact._guess
    monkeypatch.setattr(exact, "_guess", lambda m, prob: np.minimum(guess(m, prob) + 5, m))
    m = np.arange(4000, 3000, -7)
    lo, tail = exact._cut(m, prob)
    np.testing.assert_array_equal(lo, binom.ppf(exact._TAIL_EPS / 4, m, prob))
    np.testing.assert_array_equal(tail, np.where(lo > 0, bdtr(lo - 1, m, prob), 0.0))


def test_blocks_build_without_a_quantile_call(monkeypatch):
    """The phases of the benchmark's exact_oracle jobs (p 0.2, alpha 0.05,
    q 0.02 static phases at n 500 and 1000, and the n = 100 kernel of its
    monotonicity check) build every block with scipy's binom.ppf unused."""

    def refuse(*args, **kwargs):
        raise AssertionError("binom.ppf was called")

    monkeypatch.setattr(binom, "ppf", refuse)
    for n, q in [(100, 0.0), (500, 0.02), (1000, 0.02), (4000, 0.0)]:
        kernel = build_kernel(no_live_phase(ModelParams(n=n, p=0.2, alpha=0.05, q=q, q_period=5)))
        assert kernel.probs.shape[0] == n + 1
        if q > 0.0:
            assert kernel.static_probs.shape[0] == n + 1


# The phases of the benchmark's exact_oracle jobs: p 0.2, alpha 0.05 at
# n 100 (its monotonicity check), 500, 1000 and 4000, and q 0.02 static
# phases at n 500 and 1000; then the flipped and p = 1/2 phases of the tests
# below.
PMF_PHASES = [(100, 0.2), (500, 0.2), (1000, 0.2), (4000, 0.2), (500, 0.02), (1000, 0.02),
              (2000, 0.5), (20_000, 0.5), (300, 0.7), (8000, 0.98), (300, 0.999)]


@pytest.mark.parametrize("n, prob", PMF_PHASES + [(10**6, 0.2)])
def test_raw_mass_reference_is_binom_pmf_bit_for_bit(n, prob):
    """_band scales a row's raw mass by binom._pmf, the kernel binom.pmf
    calls once its argument checks pass; at the lower cut of every row of
    these phases, and of two n = 10^6 blocks, the two agree to the bit. A
    scipy release that changes _pmf fails here first."""
    if n == 10**6:
        x = np.r_[0 : exact._BLOCK, n // 2 : n // 2 + exact._BLOCK]
    else:
        x = np.arange(n + 1)
    m = n - x
    lo, _ = exact._cut(m, prob)
    assert binom._pmf(lo, m, prob).tobytes() == binom.pmf(lo, m, prob).tobytes()


def strided_block(n, prob, budget, b):
    """Block b of a phase as the builder made it before its operands and
    landing states were windows of counting sequences: the ratio passes on
    the strided view band[:, 1:], and dest a broadcast add clipped over the
    whole block. Returns the block and the rows' lower cuts."""
    x = np.arange(b * exact._BLOCK, min((b + 1) * exact._BLOCK, n + 1))
    m = n - x
    lo, _ = exact._cut(m, prob)
    mirrored, _ = exact._cut(m, 1.0 - prob)
    width = m - mirrored - lo + 1
    w = int(width.max())
    flip = prob > 0.5
    c = prob / (1.0 - prob)
    band = np.empty((x.size, w))
    band[:, 0] = 1.0
    ratios = band[:, 1:]
    j = np.arange(1.0, w)
    if flip:
        np.subtract((m - lo + 1.0)[:, None], j, out=ratios)
    else:
        np.add(lo[:, None], j, out=ratios)
    with np.errstate(divide="ignore"):
        np.divide((m + 1.0)[:, None], ratios, out=ratios)
    ratios -= 1.0
    if flip:
        np.divide(c, ratios, out=ratios)
    else:
        ratios *= c
    short = np.flatnonzero(width < w)
    band[short, width[short]] = 0.0
    np.cumprod(band, axis=1, out=band)
    band /= band.sum(axis=1)[:, None]
    offset = x + lo - budget
    first = max(int(offset.min()), 0)
    last = min(int(offset.max()) + w - 1, n)
    dest = (offset - first).astype(np.int32)[:, None] + np.arange(w, dtype=np.int32)
    np.clip(dest, 0, last - first, out=dest)
    indptr = np.arange(0, x.size * w + 1, w, dtype=np.int32)
    op = csc_array((band.ravel(), dest.ravel(), indptr), shape=(last - first + 1, x.size))
    return exact._Block(op, first), lo


def block_bytes(block):
    op, first = block
    return [op.data.tobytes(), op.indices.tobytes(), op.indptr.tobytes(), first, op.shape]


@pytest.mark.parametrize("n, prob, budget, blocks, clamps", [
    (300, 0.7, 15, None, False),
    (8000, 0.98, 400, None, False),
    (300, 0.999, 15, None, False),
    (1000, 0.02, 0, None, False),
    (100, 0.2, 5, [0], True),
    (6, 0.2, 6, None, True),
    (20_000, 0.5, 1000, [0, 39, 78], False),
])
def test_blocks_are_byte_identical_to_the_strided_build(n, prob, budget, blocks, clamps):
    """Every stored bit of a block, its data, landing states, column
    pointers, first landing state and shape, equals the strided build's:
    flipped laws with rows at lo = 0, a static phase, blocks whose landing
    states clamp at 0, and n = 2 * 10^4 at p = 1/2."""
    rows = exact._Rows(n, prob, budget)
    for b in range(len(rows._blocks)) if blocks is None else blocks:
        reference, lo = strided_block(n, prob, budget, b)
        assert block_bytes(rows.block(b)) == block_bytes(reference)
        if prob > 0.5 and b == len(rows._blocks) - 1:
            assert lo[-1] == 0  # row m = 0 divides by 0 before column 0 is reset
        if clamps and b == 0:
            assert lo[0] < budget  # row 0's first entries land below 0


def nan_tail(monkeypatch):
    cut = exact._cut

    def broken(m, prob):
        lo, tail = cut(m, prob)
        if prob > 0.5:  # the upper cut alone, through the mirrored law
            tail[0] = np.nan
        return lo, tail

    monkeypatch.setattr(exact, "_cut", broken)


def nan_reference_pmf(monkeypatch):
    def broken(k, m, prob):
        pmf = binom._pmf(k, m, prob)
        pmf[0] = np.nan
        return pmf

    monkeypatch.setattr(exact, "binom", SimpleNamespace(_pmf=broken))


@pytest.mark.parametrize("defect, match", [
    (nan_tail, "leaves out a tail of nan"),
    (nan_reference_pmf, "misses its mass by nan"),
])
def test_band_checks_refuse_a_nan(monkeypatch, defect, match):
    """_band's tail and raw-mass checks refuse a NaN as they would a value
    past their tolerance, each with its own message; the row checks are in
    test_blocks_are_checked_as_they_are_built."""
    defect(monkeypatch)
    kernel = build_kernel(no_live_phase(ModelParams(n=300, p=0.2, alpha=0.05)))
    with pytest.raises(ValueError, match=match):
        hitting_time_distribution(kernel, 150, 10)


def test_budget_shares_add_up_to_one_phase():
    assert 2 * exact._ROW_TAIL + exact._SKIP_TAIL == exact._TAIL_EPS


@pytest.mark.parametrize("low, pushed", [(6e-17, True), (4e-17, False)])
def test_push_skips_at_most_its_share(low, pushed):
    """Block 0 holds `low` and block 1 the rest. Above _SKIP_TAIL, 5e-17,
    block 0 is pushed, and only it lands below state 200; at or below, it
    is skipped and nothing lands there."""
    mass = np.zeros(601)
    mass[10], mass[300] = low, 1.0 - low
    dist = evolve(build_kernel(ModelParams(n=600, p=0.2, alpha=0.05)),
                  StateDistribution(t=0, mass=mass), 1)
    below = dist.mass[:200].sum()
    assert below > 0.0 if pushed else below == 0.0


@pytest.mark.parametrize("n, prob, budget", [(4000, 0.2, 200), (1000, 0.02, 0)])
def test_ranged_product_is_scipys_product(n, prob, budget):
    """_product calls scipy's private CSC kernel on a slice of the column
    pointers. On real blocks of a correction phase and of a static phase
    whose rows have small means, it equals scipy's public product of the
    column slice bit for bit over random ranges, and of the whole operator
    over all columns. A scipy release that renames or changes the kernel
    fails here first."""
    rng = np.random.default_rng(29)
    rows = exact._Rows(n, prob, budget)
    for b in (0, len(rows._blocks) // 2, len(rows._blocks) - 1):
        op = rows.block(b).op
        mass = rng.random(op.shape[1])
        assert exact._product(op, mass, 0, op.shape[1]).tobytes() == (op @ mass).tobytes()
        for _ in range(20):
            a, z = np.sort(rng.choice(op.shape[1] + 1, 2, replace=False))
            assert exact._product(op, mass, a, z).tobytes() == (op[:, a:z] @ mass[a:z]).tobytes()


@pytest.fixture
def products(monkeypatch):
    """The (op, a, z) of every block product from here on: columns
    a .. z - 1 of the block operator op."""
    calls = []
    product = exact._product

    def counted(op, mass, a, z):
        calls.append((op, a, z))
        return product(op, mass, a, z)

    monkeypatch.setattr(exact, "_product", counted)
    return calls


def multiplied(rows, products):
    """The states that the products of rows' blocks and single rows
    multiplied, as (start, end) spans in the order of the products."""
    x0 = {id(block.op): b * exact._BLOCK for b, block in enumerate(rows._blocks) if block}
    x0.update((id(row.op), x) for x, row in rows._rows.items())
    return [(x0[id(op)] + a, x0[id(op)] + z) for op, a, z in products if id(op) in x0]


def test_point_mass_push_multiplies_one_column(products):
    """A push from zero errors builds no block: it multiplies row 0 alone,
    the widest row of block 0, and returns the bytes that a push through
    the built block returns, in a correction phase, a static phase with
    small row means and a phase at p = 1/2 and n = 2 * 10^4."""
    for n, prob, budget in ((4000, 0.2, 200), (1000, 0.02, 0), (20_000, 0.5, 1000)):
        products.clear()
        rows = exact._Rows(n, prob, budget)
        mass = StateDistribution.point_mass(n).mass
        out = rows.push(mass)
        assert rows._blocks == [None] * len(rows._blocks)
        assert [(op.shape[1], a, z) for op, a, z in products] == [(1, 0, 1)]
        assert multiplied(rows, products) == [(0, 1)]
        built = exact._Rows(n, prob, budget)
        built.block(0)
        assert out.tobytes() == built.push(mass).tobytes()
        assert out.sum() == pytest.approx(1.0, abs=1e-15)


def test_a_state_inside_its_block_pushes_its_row_alone():
    """State 255 is not the widest row of block 0 at n = 300, so its row
    alone is summed over fewer padded zeros than the block's: the two
    pushes agree to rounding, and each keeps all the mass."""
    mass = StateDistribution.point_mass(300, 255).mass
    rows, built = exact._Rows(300, 0.2, 15), exact._Rows(300, 0.2, 15)
    built.block(0)
    alone, blocked = rows.push(mass), built.push(mass)
    assert rows._blocks == [None, None]
    assert np.abs(alone - blocked).max() <= 3e-17
    for out in (alone, blocked):
        assert out.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n, prob, budget, x", [
    (300, 0.02, 15, 0),  # row 0's first 16 counts land on state 0
    (300, 0.02, 15, 7),
    (300, 0.2, 15, 255),
    (300, 0.7, 15, 0),
    (4000, 0.2, 200, 1000),
])
def test_a_single_row_push_is_the_binomial_law(n, prob, budget, x):
    """From x errors, a push that reads x's row alone puts on each state
    the Binomial(n - x, prob) mass of the counts landing there, those
    landing below 0 summed onto state 0, within the row's two tails."""
    out = exact._Rows(n, prob, budget).push(StateDistribution.point_mass(n, x).mass)
    y = np.arange(n - x + 1)
    reference = np.bincount(np.maximum(x + y - budget, 0), binom.pmf(y, n - x, prob),
                            minlength=n + 1)
    assert np.abs(out - reference).sum() <= 2 * exact._ROW_TAIL + 1e-14


def test_a_run_from_one_start_builds_its_row_once(band_calls):
    """evolve, the hitting law and mean_curve from zero errors over live
    kernels of one params read the same row 0 of the correction phase. At
    n = 4000 the first epoch carries the mass past block 0, which is never
    built."""
    params = no_live_phase(ModelParams(n=4000, p=0.2, alpha=0.05))
    kernel = build_kernel(params)
    evolve(kernel, StateDistribution.point_mass(4000), 5)
    hitting_time_distribution(kernel, 2000, 10)
    mean_curve(params, 5)
    assert [args for args in band_calls if args[4] - args[3] == 1] == [(4000, 0.2, 200, 0, 1)]
    assert kernel.rows._blocks[0] is None


def test_a_one_block_phase_builds_its_block(band_calls):
    """At n = 100 a phase is one block, which the next push would build:
    a point-mass push builds it at once and reads no single row."""
    rows = exact._Rows(100, 0.2, 5)
    rows.push(StateDistribution.point_mass(100).mass)
    assert band_calls == [(100, 0.2, 5, 0, 101)]
    assert rows._rows == {}


def test_a_push_that_keeps_two_rows_builds_the_block(band_calls, products):
    """A point mass reads its row alone; a later push that keeps two rows of
    that block builds the block and multiplies both of its columns."""
    rows = exact._Rows(600, 0.2, 30)
    rows.push(StateDistribution.point_mass(600, 3).mass)
    assert rows._blocks == [None, None, None]
    mass = np.zeros(601)
    mass[3:5] = 0.5
    out = rows.push(mass)
    assert band_calls == [(600, 0.2, 30, 3, 4), (600, 0.2, 30, 0, 256)]
    assert multiplied(rows, products) == [(3, 4), (3, 5)]
    assert rows._blocks[0] is not None and rows._blocks[1] is None
    assert out.sum() == pytest.approx(1.0, abs=1e-15)


def skip_grid():
    """Distributions that reach the budget in different ways: point masses
    at block edges, a run's epochs, a spread start whose tails fall to
    1e-30, and runs of 1e-19 that fill whole blocks and then rows."""
    n = 2000
    for x in (0, 255, 256, 1000, n):
        yield StateDistribution.point_mass(n, x).mass
    params = ModelParams(n=n, p=0.2, alpha=0.05, q=0.02, q_period=2)
    for dist in epochs(build_kernel(params), StateDistribution.point_mass(n), 30):
        yield dist.mass
    x = np.arange(n + 1)
    spread = np.exp(-math.log(1e30) * ((x - 1000) / 1000) ** 2)
    yield spread / spread.sum()
    for lead, trail in ((300, 0), (0, 300), (100, 200), (600, 0)):
        mass = np.zeros(n + 1)
        mass[:lead] = 1e-19
        mass[n + 1 - trail :] = 1e-19
        mass[1000] = 1.0 - mass.sum()
        yield mass


def test_push_leaves_out_at_most_its_share(products):
    """The skipped blocks and the rows a push does not multiply hold at
    most _SKIP_TAIL together, in both phases of every distribution of the
    grid; the multiplied rows are one run of states."""
    kernel = build_kernel(ModelParams(n=2000, p=0.2, alpha=0.05, q=0.02, q_period=2))
    trimmed = 0
    for mass in skip_grid():
        for rows in (kernel.rows, kernel.static_rows):
            products.clear()
            rows.push(mass)
            starts, ends = zip(*multiplied(rows, products))
            assert list(starts[1:]) == list(ends[:-1])
            left = math.fsum(mass[: starts[0]]) + math.fsum(mass[ends[-1] :])
            assert left <= exact._SKIP_TAIL
            trimmed += sum(z - a for _, a, z in products) < sum(op.shape[1] for op, _, _ in products)
    assert trimmed > 10  # pushes that leave out rows of the blocks they multiply


def test_push_trims_the_leading_rows_first(products):
    """The leading rows up to the bulk at state 400 hold 2.44e-17 and the
    last block 3e-17: each fits _SKIP_TAIL, 5e-17, but not both. The push
    leaves out the leading rows, then the 178 trailing rows that fit the
    2.56e-17 left, rather than whole trailing blocks first."""
    n = 2000
    rows = build_kernel(ModelParams(n=n, p=0.2, alpha=0.05)).rows
    mass = np.zeros(n + 1)
    mass[:256] = 1e-17 / 256
    mass[256:456] = 2e-17 / 200
    mass[1792:] = 3e-17 / (n + 1 - 1792)
    mass[400] += 1.0 - mass.sum()
    rows.push(mass)
    spans = multiplied(rows, products)
    assert (spans[0][0], spans[-1][1]) == (400, 1823)


@pytest.mark.parametrize("x", [0, 1000, 2000])
def test_push_multiplies_a_nan(x):
    """A NaN in the first, a middle or the last row of a mass reaches the
    pushed output rather than being left out with the tails."""
    kernel = build_kernel(ModelParams(n=2000, p=0.2, alpha=0.05, q=0.02))
    mass = StateDistribution.point_mass(2000, 700).mass
    mass[x] = np.nan
    for rows in (kernel.rows, kernel.static_rows):
        assert np.isnan(rows.push(mass)).any()


def test_hitting_law_stops_once_no_mass_is_left(monkeypatch):
    """The n = 4000 law of test_hitting_law_after_taboo_mass_dies_out has no
    taboo mass left after epoch 8: it pushes at most 9 times, not 60."""
    calls = [0]
    push = exact._Rows.push

    def counted(self, mass):
        calls[0] += 1
        return push(self, mass)

    monkeypatch.setattr(exact._Rows, "push", counted)
    law = hitting_time_distribution(build_kernel(ModelParams(n=4000, p=0.2, alpha=0.05)), 2000, 60)
    assert calls[0] <= 9
    assert law.survival == 0.0 and not law.pmf[calls[0] + 1 :].any()


@pytest.mark.parametrize("params, beta", [
    (ModelParams(n=300, p=0.2, alpha=0.05), 0.5),  # README's exact example
    (ModelParams(n=100, p=0.5, alpha=0.2), 0.3),
    (ModelParams(n=1000, p=0.2, alpha=0.05), 0.3),
    (ModelParams(n=4000, p=0.5, alpha=0.2), 0.5),
])
def test_tail_curves_without_static_phases_never_fall(params, beta):
    """From zero errors with q = 0 the tail is nondecreasing in time, and
    the computed curve must not dip by an ulp once it passes 1/2."""
    dists = epochs(build_kernel(params), StateDistribution.point_mass(params.n), 60)
    tails = np.array([tail_prob(dist, params.n * beta) for dist in dists])
    assert tails[-1] > 0.5
    assert (np.diff(tails) >= 0.0).all()


def test_hitting_err_counts_static_phases():
    """10 correction epochs and the static phases before epochs 0, 3, 6
    and 9 add _TAIL_EPS each, as evolve counts them."""
    kernel = build_kernel(ModelParams(n=300, p=0.2, alpha=0.05, q=0.05, q_period=3))
    law = hitting_time_distribution(kernel, 150, 10)
    assert law.err == 14 * exact._TAIL_EPS
    assert law.err == evolve(kernel, StateDistribution.point_mass(300), 10).err


def test_hitting_survival_keeps_a_nan(monkeypatch):
    """The clamp that keeps the survival at most 1 lets a NaN mass through
    rather than reading it as 1."""
    monkeypatch.setattr(exact._Rows, "push", lambda self, mass: np.full(mass.size, np.nan))
    law = hitting_time_distribution(build_kernel(ModelParams(n=300, p=0.2, alpha=0.05)), 150, 10)
    assert math.isnan(law.survival)


# ---------------------------------------------------------------- banded
# engine against a dense reference built from scipy.stats.binom.pmf

# Reference rows holding less mass than this are left out; the mass they
# held is added to every comparison's tolerance.
REF_SKIP = 1e-20
# Floating-point slack on top of the certified bounds.
ROUNDING = 1e-12


class DenseReference:
    """Pushes mass through full Binomial rows, (n+1) landing states each.

    A row is evaluated with scipy.stats.binom.pmf the first time it
    carries mass and is kept for later epochs.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        size = params.n + 1
        self.rows = {phase: np.zeros((size, size)) for phase in (False, True)}
        self.filled = {phase: np.zeros(size, dtype=bool) for phase in (False, True)}
        self.skipped = 0.0

    def push(self, mass, static):
        n = self.params.n
        prob, budget = (self.params.q, 0) if static else (self.params.p, self.params.k_batch)
        live = mass >= REF_SKIP
        self.skipped += float(mass[~live].sum())
        rows = self.rows[static]
        new = np.flatnonzero(live & ~self.filled[static])
        for start in range(0, new.size, 256):
            chunk = new[start : start + 256]
            x, y = chunk[:, None], np.arange(n - chunk[0] + 1)
            pmf = binom.pmf(y, n - x, prob)  # zero for y > n - x
            dest = np.clip(x + y - budget, 0, n) + np.arange(chunk.size)[:, None] * (n + 1)
            flat = np.bincount(dest.ravel(), pmf.ravel(), minlength=chunk.size * (n + 1))
            rows[chunk] = flat.reshape(chunk.size, n + 1)
        self.filled[static][new] = True
        return mass[live] @ rows[live]

    def run(self, steps, threshold, start=None):
        """Mass after `steps` epochs from `start` (default zero errors), and
        the hitting law of `threshold` over those epochs as (pmf, survival)."""
        first = math.floor(threshold) + 1
        mass = StateDistribution.point_mass(self.params.n).mass if start is None else start
        alive = mass.copy()
        pmf = np.zeros(steps + 1)
        for t in range(steps):
            if self.params.q > 0.0 and t % self.params.q_period == 0:
                mass, alive = self.push(mass, True), self.push(alive, True)
            mass, alive = self.push(mass, False), self.push(alive, False)
            pmf[t + 1] = alive[first:].sum()
            alive[first:] = 0.0
        return mass, pmf, float(alive.sum())


def check_band_against_reference(params, steps, beta):
    n = params.n
    kernel = build_kernel(params)
    for band in (kernel.probs, kernel.static_probs):
        if band is not None:
            assert np.abs(band.sum(axis=1) - 1.0).max() <= 1e-12
    reference = DenseReference(params)
    ref_mass, ref_pmf, ref_survival = reference.run(steps, n * beta)
    dist = evolve(kernel, StateDistribution.point_mass(n), steps)
    law = hitting_time_distribution(kernel, n * beta, steps)
    tol = dist.err + reference.skipped + ROUNDING
    first = math.floor(n * beta) + 1
    assert abs(tail_prob(dist, n * beta) - ref_mass[first:].sum()) <= tol
    # a mean over states 0..n moves by at most n times the distance
    assert abs(dist.mean() - ref_mass @ np.arange(n + 1)) <= n * tol
    law_tol = law.err + reference.skipped + ROUNDING
    assert law.err == dist.err
    assert np.abs(law.pmf - ref_pmf).max() <= law_tol
    assert abs(law.survival - ref_survival) <= law_tol


def check_tail_dominates_bound(params, beta_frac):
    alpha = params.alpha
    beta = beta_frac * (params.p - alpha) / params.p
    bound = hitting_prob_lb(params.n, params.p, alpha, beta)
    dist = evolve(build_kernel(params), StateDistribution.point_mass(params.n), bound.T)
    assert tail_prob(dist, params.n * beta) >= bound.value - dist.err - ROUNDING


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.floats(0.01, 0.99),
    alpha_frac=st.floats(0.0, 0.95),
    q=st.one_of(st.just(0.0), st.floats(0.001, 0.5)),
    q_period=st.integers(1, 5),
    steps=st.integers(1, 30),
    beta_frac=st.floats(0.05, 0.95),
)
def test_band_matches_dense_reference(n, p, alpha_frac, q, q_period, steps, beta_frac):
    params = ModelParams(n=n, p=p, alpha=alpha_frac * p, q=q, q_period=q_period)
    check_band_against_reference(params, steps, beta_frac * (1.0 - alpha_frac))
    check_tail_dominates_bound(params, beta_frac)


@pytest.mark.parametrize("n", [255, 256, 257, 1000, 5000])
def test_band_matches_dense_reference_at_scale(n):
    params = ModelParams(n=n, p=0.2, alpha=0.05, q=0.02, q_period=5)
    steps = hitting_prob_lb(n, 0.2, 0.05, 0.5).T
    check_band_against_reference(params, steps, 0.5)
    check_tail_dominates_bound(params, 0.5 / 0.75)


def test_spread_start_matches_dense_reference():
    """A start distribution on every state, its tails falling to 1e-30 at
    the ends, reaches every block of rows; the engine skips the outer
    blocks, which hold about 1e-17 each, and must stay within err of the
    full push."""
    params = ModelParams(n=2000, p=0.2, alpha=0.05, q=0.02, q_period=2)
    x = np.arange(params.n + 1)
    start = np.exp(-math.log(1e30) * ((x - 1000) / 1000) ** 2)
    start /= start.sum()
    assert start.min() < 1e-29 and start[:256].sum() < 1e-16
    reference = DenseReference(params)
    ref_mass, _, _ = reference.run(5, params.n, start)
    dist = evolve(build_kernel(params), StateDistribution(t=0, mass=start), 5)
    # total variation err on each side: L1 at most twice the sum
    assert np.abs(dist.mass - ref_mass).sum() <= 2 * (dist.err + reference.skipped) + ROUNDING


def test_hitting_law_after_taboo_mass_dies_out():
    """After epoch 8 the mass left below n / 2 is about 1e-32, under the
    5e-17 a push may leave out, so the next push multiplies no row and the
    law stops there; it still accounts for all mass and err still counts
    every phase."""
    kernel = build_kernel(ModelParams(n=4000, p=0.2, alpha=0.05))
    law = hitting_time_distribution(kernel, 2000, t_max=60)
    assert law.survival == 0.0
    assert law.pmf.sum() + law.survival == pytest.approx(1.0, abs=1e-12)
    assert law.err == 60 * kernel.truncation
