import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    static = kernel.dense(static=True)
    assert np.abs(static.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.allclose(np.tril(static, -1), 0.0)  # the count never drops
    no_static = build_kernel(ModelParams(n=6, p=0.2, alpha=0.3))
    assert no_static.static_probs is None
    with pytest.raises(ValueError, match="no static phase"):
        no_static.dense(static=True)


def test_evolve_interleaves_static_phases():
    """evolve and every distribution epochs yields must reproduce an explicit
    matrix composition with the static kernel applied before epochs 0 and 2
    (q_period 2), from t = 0 and from t = 1, where the schedule is offset;
    err grows by the truncation once per phase."""
    params = ModelParams(n=3, p=0.4, alpha=1.0 / 3.0, q=0.3, q_period=2)
    kernel = build_kernel(params)
    with pytest.raises(TypeError):  # the one budget cannot be swapped for another
        replace(kernel, truncation=0.0)
    static, probs = kernel.dense(static=True), kernel.dense()
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


@pytest.mark.parametrize("defect, match", [
    ("negative entry", "negative entries"),
    ("rows sum to 1 + 1e-9", "rows sum to 1"),
])
def test_blocks_are_checked_as_they_are_built(monkeypatch, defect, match):
    """A block whose rows hold a negative entry, or sum to 1 + 1e-9, must
    not be built: the first push that reaches it raises."""
    band = exact._band

    def broken_band(*args):
        probs, offset, width = band(*args)
        if defect == "negative entry":
            probs[0, :2] += [-0.1, 0.1]  # the row still sums to 1
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
    static.dense(static=True)
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
    mass = StateDistribution.point_mass(5).mass @ kernel.dense(static=True) @ kernel.dense()
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
    """Quantiles one step inside the true ones leave more than _TAIL_EPS / 4
    out on a side; the block that holds such rows must not be built."""
    ppf = exact.binom.ppf
    monkeypatch.setattr(exact, "binom", SimpleNamespace(ppf=lambda q, m, p: ppf(q, m, p) + 1))
    kernel = build_kernel(no_live_phase(ModelParams(n=300, p=0.2, alpha=0.05)))
    with pytest.raises(ValueError, match="leaves out a tail"):
        evolve(kernel, StateDistribution.point_mass(300), 1)


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
    5e-17 a push may skip, so the pushes skip every block; the law still
    accounts for all mass and err still counts every phase."""
    kernel = build_kernel(ModelParams(n=4000, p=0.2, alpha=0.05))
    law = hitting_time_distribution(kernel, 2000, t_max=60)
    assert law.survival == 0.0
    assert law.pmf.sum() + law.survival == pytest.approx(1.0, abs=1e-12)
    assert law.err == 60 * kernel.truncation
