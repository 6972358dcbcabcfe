import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from qecbatch.bounds import hitting_prob_lb
from qecbatch.chain import ModelParams
from qecbatch.exact import (
    EXACT_N_CAP,
    HittingTimeDistribution,
    StateDistribution,
    TransitionKernel,
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
    assert kernel.k_batch == 1
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
            floor = max(0, x - kernel.k_batch)
            assert not dense[x, :floor].any()


def test_kernel_full_budget_resets_every_state():
    dense = build_kernel(ModelParams(n=6, p=0.8, alpha=1.0)).dense()
    np.testing.assert_array_equal(dense[:, 0], np.ones(7))
    assert not dense[:, 1:].any()


def test_size_cap():
    with pytest.raises(ValueError, match="exceeds the exact-mode cap"):
        build_kernel(ModelParams(n=101, p=0.2, alpha=0.1), n_cap=100)
    build_kernel(ModelParams(n=101, p=0.2, alpha=0.1), n_cap=101)
    assert EXACT_N_CAP == 20_000


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
    # rows this short keep every entry; a declared truncation makes err move
    kernel = replace(build_kernel(params), truncation=3e-17)
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
    """Pushed mass can sum a few ulps above 1; at these points unclamped
    tail sums reach 1 + 4e-16 and 1 + 7e-16."""
    dists = epochs(build_kernel(params), StateDistribution.point_mass(params.n), 40)
    tails = [tail_prob(dist, params.n * beta) for dist in dists]
    assert max(tails) <= 1.0
    assert max(tails) == 1.0  # the tail saturates, so the clamp is reached


def test_distribution_validation():
    with pytest.raises(ValueError):
        StateDistribution(t=0, mass=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        StateDistribution(t=0, mass=np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        StateDistribution.point_mass(3, x=4)


def test_kernel_validation():
    bad = np.array([[0.5, 0.4], [0.0, 1.0]])
    with pytest.raises(ValueError, match="rows sum"):
        TransitionKernel(n=1, k_batch=0, probs=bad)
    with pytest.raises(ValueError, match="shape"):
        TransitionKernel(n=2, k_batch=0, probs=np.eye(2))


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
    flip = TransitionKernel(n=1, k_batch=0, probs=np.array([[0.0, 1.0], [1.0, 0.0]]))
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
    params = ModelParams(n=25, p=0.3, alpha=0.1, q=0.05, q_period=2)
    kernel = build_kernel(params)
    law = hitting_time_distribution(kernel, 6, t_max=40)
    assert law.pmf.sum() + law.survival == pytest.approx(1.0, abs=1e-12)
    assert law.pmf.min() >= 0.0


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

    def run(self, steps, threshold):
        """Mass after `steps` epochs from zero errors, and the hitting law
        of `threshold` over those epochs as (pmf, survival)."""
        first = math.floor(threshold) + 1
        mass = StateDistribution.point_mass(self.params.n).mass
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


@pytest.mark.parametrize("n", [1000, 5000])
def test_band_matches_dense_reference_at_scale(n):
    params = ModelParams(n=n, p=0.2, alpha=0.05, q=0.02, q_period=5)
    steps = hitting_prob_lb(n, 0.2, 0.05, 0.5).T
    check_band_against_reference(params, steps, 0.5)
    check_tail_dominates_bound(params, 0.5 / 0.75)
