import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom, chi2, kstest

from qecbatch import checks, montecarlo
from qecbatch.chain import ModelParams, correct
from qecbatch.checks import oracle_vs_monte_carlo
from qecbatch.exact import (
    StateDistribution, build_kernel, epochs, evolve, hitting_time_distribution, tail_prob,
)
from qecbatch.montecarlo import (
    RecordMode,
    TrajectoryBatch,
    chi_square_uniformity,
    location_counts,
    run_batch,
    run_coupled,
    steady_fraction,
    trajectory_rng,
    uniformity_check,
    _pit_batch,
)

PARAMS = ModelParams(n=30, p=0.3, alpha=0.1)
ORACLE = next(row for row in checks.CHECKS if row.criterion == 5)


def test_trajectory_rng_reproducible():
    a = trajectory_rng(123, 7).random(5)
    b = trajectory_rng(123, 7).random(5)
    np.testing.assert_array_equal(a, b)


def test_trajectory_rng_streams_differ():
    draws = {float(trajectory_rng(123, i).random()) for i in range(50)}
    assert len(draws) == 50
    assert trajectory_rng(1, 0).random() != trajectory_rng(2, 0).random()
    with pytest.raises(ValueError):
        trajectory_rng(1, -1)
    for seed in (-3, 2**64, 2**64 + 5):  # these used to wrap modulo 2^64
        with pytest.raises(ValueError, match="master_seed"):
            trajectory_rng(seed, 0)


def test_run_batch_worker_invariance():
    """The same master seed must give bit-identical results no matter how
    trajectories are split across processes."""
    spec = TrajectoryBatch(params=PARAMS, n_traj=200, t_max=15, master_seed=42)
    serial = run_batch(spec, 5.0, n_workers=1)
    pooled = run_batch(spec, 5.0, n_workers=3)
    np.testing.assert_array_equal(serial.p_hat_by_t, pooled.p_hat_by_t)
    np.testing.assert_array_equal(serial.tau_samples, pooled.tau_samples)


def test_run_batch_worker_invariance_across_blocks():
    """A fleet of several blocks, split unevenly across workers, gives the
    same answer as one serial pass."""
    spec = TrajectoryBatch(params=PARAMS, n_traj=3 * 4096 + 17, t_max=6, master_seed=8)
    serial = run_batch(spec, 3.0, n_workers=1)
    for workers in (2, 3):
        pooled = run_batch(spec, 3.0, n_workers=workers)
        np.testing.assert_array_equal(serial.p_hat_by_t, pooled.p_hat_by_t)
        np.testing.assert_array_equal(serial.tau_samples, pooled.tau_samples)


def test_run_batch_basics():
    spec = TrajectoryBatch(params=PARAMS, n_traj=300, t_max=12, master_seed=3)
    est = run_batch(spec, 4.0)
    assert est.p_hat_by_t[0] == 0.0  # the chain starts at zero errors
    assert est.p_hat_by_t.shape == (13,)
    assert np.all((0.0 <= est.p_hat_by_t) & (est.p_hat_by_t <= 1.0))
    assert np.all((est.ci_low_by_t <= est.p_hat_by_t) & (est.p_hat_by_t <= est.ci_high_by_t))
    crossed = est.tau_samples[est.tau_samples >= 0]
    assert crossed.min() >= 1


def test_run_batch_quiet_and_saturated_corners():
    quiet = ModelParams(n=30, p=0.0, alpha=0.1)
    est = run_batch(TrajectoryBatch(params=quiet, n_traj=20, t_max=6, master_seed=1), 0.5)
    assert np.all(est.p_hat_by_t == 0.0)

    saturated = ModelParams(n=30, p=1.0, alpha=0.0)
    est = run_batch(TrajectoryBatch(params=saturated, n_traj=20, t_max=6, master_seed=1), 29.5)
    assert est.p_hat_by_t[0] == 0.0
    assert np.all(est.p_hat_by_t[1:] == 1.0)
    assert np.all(est.tau_samples == 1)


def test_run_batch_unreachable_threshold():
    spec = TrajectoryBatch(params=PARAMS, n_traj=50, t_max=10, master_seed=5)
    est = run_batch(spec, PARAMS.n)  # X > n never happens
    assert np.all(est.p_hat_by_t == 0.0)
    assert np.all(est.tau_samples == -1)
    assert math.isinf(est.median_tau())


def test_p_hat_curve_is_monotone_within_noise():
    params = ModelParams(n=50, p=0.2, alpha=0.05)
    spec = TrajectoryBatch(params=params, n_traj=2000, t_max=30, master_seed=11)
    est = run_batch(spec, 0.375 * params.n)
    # twice the sum of the two epochs' 99% Wald half-widths
    half = 2.5758293035489004 * np.sqrt(est.p_hat_by_t * (1.0 - est.p_hat_by_t) / spec.n_traj)
    for t in range(30):
        slack = 2.0 * (half[t] + half[t + 1])
        assert est.p_hat_by_t[t + 1] >= est.p_hat_by_t[t] - slack


def test_interval_brackets_p_hat_with_positive_width_at_zero_and_one():
    """The 99% interval holds p_hat and stays open where p_hat is 0 or 1."""
    saturated = ModelParams(n=30, p=1.0, alpha=0.0)
    est = run_batch(TrajectoryBatch(params=saturated, n_traj=20, t_max=3, master_seed=1), 29.5)
    assert est.p_hat_by_t.tolist() == [0.0, 1.0, 1.0, 1.0]
    assert np.all((est.ci_low_by_t <= est.p_hat_by_t) & (est.p_hat_by_t <= est.ci_high_by_t))
    assert est.ci_low_by_t[0] == 0.0 and est.ci_high_by_t[0] > 0.0
    assert np.all(est.ci_high_by_t[1:] == 1.0) and np.all(est.ci_low_by_t[1:] < 1.0)
    # Clopper-Pearson at k = 0 and k = N: 1 - 0.005^(1/N) and 0.005^(1/N)
    assert est.ci_high_by_t[0] == pytest.approx(1.0 - 0.005 ** (1 / 20), rel=1e-12)
    assert est.ci_low_by_t[1] == pytest.approx(0.005 ** (1 / 20), rel=1e-12)


def test_interval_covers_the_exact_tail_over_seeds():
    """Over 200 seeds x 41 epochs, the 99% interval misses the exact tail in
    at most 1% of the cells, the saturated epochs included."""
    params = ModelParams(n=60, p=0.2, alpha=0.05)
    threshold, t_max = 22.5, 40
    kernel = build_kernel(params)
    truth = np.array([tail_prob(dist, threshold) for dist in
                      epochs(kernel, StateDistribution.point_mass(params.n), t_max)])
    misses = 0
    for seed in range(200):
        spec = TrajectoryBatch(params=params, n_traj=200, t_max=t_max, master_seed=seed)
        est = run_batch(spec, threshold)
        misses += np.count_nonzero((truth < est.ci_low_by_t) | (truth > est.ci_high_by_t))
    assert misses <= 0.01 * 200 * (t_max + 1), misses


def test_run_batch_agrees_with_exact_oracle():
    ok, detail = oracle_vs_monte_carlo(
        ModelParams(n=20, p=0.5, alpha=0.1), beta=0.5, t_max=8, n_traj=4000, seed=17,
        z=4.0, miss_frac=0.0,
    )
    assert ok, detail
    # from epoch 25 on, this exact tail sums to a few ulps above 1
    ok, detail = oracle_vs_monte_carlo(
        ModelParams(n=60, p=0.2, alpha=0.05, q=0.05, q_period=3), beta=0.375, t_max=40,
        n_traj=2000, seed=17, z=4.0, miss_frac=0.0,
    )
    assert ok, detail


@pytest.mark.parametrize("seed, defect", [
    (3, None), (34, None), (0, {"alpha": 0.04}), (0, {"p": 0.21})])
def test_oracle_check_at_verify_size(monkeypatch, seed, defect):
    """Seeds 3 and 34 sit one trajectory short of an exact tail within 1e-4
    of 1, which a normal z-test scored beyond 6 sigma; Monte Carlo with
    budget 2 instead of 3, or p = 0.21 instead of 0.2, must be rejected."""
    if defect:
        real = checks.run_batch
        monkeypatch.setattr(checks, "run_batch", lambda spec, threshold: real(
            replace(spec, params=replace(spec.params, **defect)), threshold))
    ok, detail = ORACLE.at_verify_size(seed)
    assert ok == (defect is None), detail


def test_binomial_misses_is_exact_at_the_edges():
    truth = np.array([0.5, 0.5, -1e-17, -1e-17, 1.0 + 2e-16, 1e-9])
    counts = np.array([500, 700, 0, 1, 1000, 1])
    # 700 of 1000 is 12.6 sigma out; one hit of a 1e-17 (clipped to 0)
    # event is impossible; one hit at 1e-9 has probability 1e-6
    assert checks.binomial_misses(counts, 1000, truth, 5.0) == 2
    assert checks.binomial_misses(counts, 1000, truth, 4.0) == 3


HITTING = next(row for row in checks.CHECKS if row.criterion == 3)


@pytest.mark.parametrize("defect", ["none", "no correction", "budget of n = 1000"])
def test_hitting_law_check_at_verify_size(monkeypatch, defect):
    """Criterion 3 passes as it is and rejects Monte Carlo that skips the
    correction, or that corrects floor(1000 alpha) at every n. Each moves
    a median by one epoch, which the median conditions allow."""
    alphas = {"none": lambda params: params.alpha, "no correction": lambda params: 0.0,
              "budget of n = 1000": lambda params: params.alpha * 1000 / params.n}
    real = checks.run_batch
    monkeypatch.setattr(checks, "run_batch", lambda spec, threshold: real(replace(
        spec, params=replace(spec.params, alpha=alphas[defect](spec.params))), threshold))
    ok, detail = HITTING.at_verify_size(11)
    assert ok == (defect == "none"), detail


def test_steady_fraction_converges():
    params = ModelParams(n=2000, p=0.2, alpha=0.1)
    spec = TrajectoryBatch(params=params, n_traj=60, t_max=60, master_seed=23)
    result = steady_fraction(spec)
    assert result.burn_in == 30
    assert result.mean_fraction == pytest.approx(0.5, abs=0.02)
    assert result.stderr > 0.0


def test_steady_fraction_over_corrected():
    # with alpha above p the budget outruns new errors and the memory
    # empties every epoch instead of settling at a positive fraction
    params = ModelParams(n=10_000, p=0.2, alpha=0.3)
    spec = TrajectoryBatch(params=params, n_traj=40, t_max=40, master_seed=7)
    result = steady_fraction(spec)
    assert result.burn_in == 20
    assert result.mean_fraction < 0.01


def test_steady_fraction_averages_past_half_the_horizon():
    """With t_max = 11 the burn-in is 5, and every trajectory of the fleet
    is averaged over epochs 6..11."""
    spec = TrajectoryBatch(params=PARAMS, n_traj=5, t_max=11, master_seed=1)
    result = steady_fraction(spec)
    assert result.burn_in == 5
    counts = np.array([x for t, x in montecarlo._fleet(PARAMS, 5, 11, 1) if t > 5])
    assert result.mean_fraction == pytest.approx(counts.mean() / PARAMS.n, rel=1e-12)


def test_coupled_dominance_healthy():
    params = ModelParams(n=60, p=0.2, alpha=0.05)
    report = run_coupled(params, 0.01, 0.05, n_traj=400, t_max=30, master_seed=31)
    assert report.inclusion_violations == 0
    assert report.count_violations == 0
    assert report.inclusion_fraction == 1.0
    assert report.pairs_checked == 400 * 30
    assert report.injection_events == 400 * 30
    assert report.pit_chi2_pvalue > 1e-3
    assert report.pit_dof == 19


def test_coupled_equal_rates():
    params = ModelParams(n=40, p=0.3, alpha=0.1)
    report = run_coupled(params, 0.04, 0.04, n_traj=200, t_max=20, master_seed=37)
    assert report.inclusion_violations == 0
    assert report.count_violations == 0


def test_coupled_zero_low_rate():
    params = ModelParams(n=40, p=0.3, alpha=0.1)
    report = run_coupled(params, 0.0, 0.05, n_traj=200, t_max=20, master_seed=41)
    assert report.inclusion_violations == 0
    assert report.pit_chi2_pvalue > 1e-3  # all-zero counts are still uniform PITs


def test_coupled_respects_q_period():
    params = ModelParams(n=40, p=0.3, alpha=0.1, q_period=5)
    report = run_coupled(params, 0.01, 0.05, n_traj=50, t_max=20, master_seed=43)
    assert report.injection_events == 50 * 4


def test_coupled_pit_folds_give_the_unchunked_report(monkeypatch):
    """Folding the pending PIT draws into the histogram every few draws
    changes nothing in the report, the statistic and p-value included."""
    params = ModelParams(n=40, p=0.3, alpha=0.1, q_period=2)
    args = (params, 0.01, 0.05, 300, 25, 47)
    monkeypatch.setattr(montecarlo, "_PIT_CHUNK", 10**12)
    whole = run_coupled(*args)
    monkeypatch.setattr(montecarlo, "_PIT_CHUNK", 5)
    folded = run_coupled(*args)
    assert folded == whole
    assert whole.injection_events == 300 * 13
    assert whole.pit_chi2_stat is not None


def test_coupled_validation():
    with pytest.raises(ValueError):
        run_coupled(PARAMS, 0.06, 0.05, n_traj=10, t_max=5, master_seed=1)
    with pytest.raises(ValueError):
        run_coupled(PARAMS, -0.01, 0.05, n_traj=10, t_max=5, master_seed=1)
    with pytest.raises(ValueError):
        run_coupled(PARAMS, 0.01, 1.05, n_traj=10, t_max=5, master_seed=1)
    with pytest.raises(ValueError):
        run_coupled(PARAMS, 0.01, 0.05, n_traj=0, t_max=5, master_seed=1)
    for seed in (-3, 2**64 + 5):
        with pytest.raises(ValueError, match="master_seed"):
            run_coupled(PARAMS, 0.01, 0.05, n_traj=10, t_max=5, master_seed=seed)
    # by the batch's integer rule: True would run one pair of trajectories,
    # and 2.5 epochs would die inside range
    for name, value in (("n_traj", True), ("t_max", 2.5), ("master_seed", 1.0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            run_coupled(PARAMS, 0.01, 0.05, **{"n_traj": 10, "t_max": 5, "master_seed": 1,
                                               name: value})


def _randomized_pit(value, trials, prob, rng):
    """Scalar randomized PIT of one Binomial(trials, prob) draw."""
    lower = float(binom.cdf(value - 1, trials, prob)) if value > 0 else 0.0
    return lower + rng.random() * float(binom.pmf(value, trials, prob))


def test_pit_batch_matches_scalar_reference():
    fresh = [0, 1, 3, 0, 2]
    trials = [10, 12, 40, 7, 25]
    coins = [0.1, 0.9, 0.5, 0.0, 0.77]
    batch = _pit_batch(fresh, trials, 0.08, coins)

    class FixedCoin:
        def __init__(self, value):
            self.value = value

        def random(self):
            return self.value

    for i in range(5):
        scalar = _randomized_pit(fresh[i], trials[i], 0.08, FixedCoin(coins[i]))
        assert batch[i] == pytest.approx(scalar, rel=1e-12)


def test_randomized_pit_is_uniform():
    rng = np.random.default_rng(7)
    draws = rng.binomial(9, 0.3, size=4000)
    coins = rng.random(4000)
    values = _pit_batch(list(draws), [9] * 4000, 0.3, list(coins))
    observed, _ = np.histogram(values, bins=20, range=(0.0, 1.0))
    stat = ((observed - 200.0) ** 2 / 200.0).sum()
    # chi-square with 19 dof: far from the 1e-3 tail
    assert stat < 43.82


def test_location_counts_requires_location_mode():
    spec = TrajectoryBatch(params=PARAMS, n_traj=5, t_max=5, master_seed=1)
    with pytest.raises(ValueError):
        location_counts(spec, 3)
    tracked = TrajectoryBatch(
        params=PARAMS, n_traj=5, t_max=5, master_seed=1, record=RecordMode.LOCATIONS
    )
    with pytest.raises(ValueError):
        location_counts(tracked, 6)
    counts, errors = location_counts(tracked, 3)
    assert counts.shape == (PARAMS.n,) and errors.shape == (5,)
    assert counts.min() >= 0 and counts.max() <= 5
    assert counts.sum() == errors.sum()
    counts, errors = location_counts(tracked, 0)
    assert counts.sum() == 0 and errors.sum() == 0


def test_location_counts_track_the_exact_mean():
    """The mean error count of the mask engine matches the exact chain at
    the probe epoch within four standard errors, static phases included;
    a rule that corrected the wrong number of errors would miss it."""
    params = ModelParams(n=30, p=0.3, alpha=0.1, q=0.05, q_period=3)
    n_traj, t_probe = 4000, 10
    spec = TrajectoryBatch(
        params=params, n_traj=n_traj, t_max=t_probe, master_seed=13,
        record=RecordMode.LOCATIONS,
    )
    counts, errors = location_counts(spec, t_probe)
    dist = evolve(build_kernel(params), StateDistribution.point_mass(params.n), t_probe)
    states = np.arange(params.n + 1)
    var = float(dist.mass @ states**2) - dist.mean() ** 2
    assert abs(counts.sum() / n_traj - dist.mean()) <= 4.0 * np.sqrt(var / n_traj)


def test_uniformity_check_healthy():
    params = ModelParams(n=30, p=0.3, alpha=0.1)
    spec = TrajectoryBatch(
        params=params, n_traj=400, t_max=12, master_seed=47,
        record=RecordMode.LOCATIONS,
    )
    result = uniformity_check(spec, 10)
    assert not result.degenerate
    assert result.dof == 29
    assert result.pvalue > 1e-3


@pytest.mark.parametrize("t_probe", [True, 2.5])
def test_probe_epoch_takes_integers_only(t_probe):
    spec = TrajectoryBatch(params=PARAMS, n_traj=5, t_max=3, master_seed=1,
                           record=RecordMode.LOCATIONS)
    with pytest.raises(ValueError, match="t_probe must be an integer"):
        uniformity_check(spec, t_probe)


def test_uniformity_pvalues_are_calibrated():
    """Under the uniform rule the p-values are close to Uniform(0, 1); the
    Poisson statistic without the occupancy correction puts them all near 1."""
    params = ModelParams(n=50, p=0.2, alpha=0.05)
    pvalues = [
        uniformity_check(TrajectoryBatch(
            params=params, n_traj=200, t_max=30, master_seed=seed,
            record=RecordMode.LOCATIONS,
        ), 30).pvalue
        for seed in range(1000, 1040)
    ]
    assert kstest(pvalues, "uniform").pvalue > 1e-3


def test_uniformity_detects_mild_index_bias():
    """Correction keys weighted +-10% linearly in the qubit index favour low
    indices; 10^4 trajectories must reject uniformity."""
    params = ModelParams(n=50, p=0.2, alpha=0.05)
    weights = np.linspace(0.9, 1.1, params.n)
    rng = trajectory_rng(19, 0)
    mask = np.zeros((10_000, params.n), dtype=bool)
    for _ in range(30):
        mask |= rng.random(mask.shape) < params.p
        mask = correct(mask, rng.random(mask.shape) * weights, params.k_batch)
    result = chi_square_uniformity(mask.sum(axis=0), mask.sum(axis=1))
    assert result.pvalue < 1e-3


def test_chi_square_degenerate_cases():
    empty = chi_square_uniformity(np.zeros(8, dtype=np.int64), np.zeros(10, dtype=np.int64))
    assert empty.degenerate and empty.pvalue == 1.0 and empty.n_traj == 10
    full = chi_square_uniformity(np.full(8, 10), np.full(10, 8))
    assert full.degenerate and full.pvalue == 1.0
    # every trajectory all-clear or all-bad: still no information on location
    mixed = chi_square_uniformity(np.full(8, 4), np.array([8, 0, 8, 0, 8, 8, 0, 0, 0, 0]))
    assert mixed.degenerate
    with pytest.raises(ValueError):
        chi_square_uniformity(np.array([1, 2]), np.array([1, 1]))


def test_chi_square_hand_statistic():
    # ten trajectories with two errors each on four qubits: the spread is
    # 10 * 2 * 2 = 40, so the statistic is sum (c - 5)^2 * 4 * 3 / 40
    pairs = np.full(10, 2)
    flat = chi_square_uniformity(np.array([5, 5, 5, 5]), pairs)
    assert not flat.degenerate
    assert flat.statistic == 0.0 and flat.pvalue == 1.0
    skewed = chi_square_uniformity(np.array([10, 10, 0, 0]), pairs)
    assert skewed.statistic == pytest.approx(30.0)
    assert skewed.pvalue == pytest.approx(chi2.sf(30.0, 3))
    assert skewed.pvalue < 1e-5


def test_batch_spec_validation():
    with pytest.raises(ValueError):
        TrajectoryBatch(params=PARAMS, n_traj=0, t_max=5, master_seed=1)
    with pytest.raises(ValueError):
        TrajectoryBatch(params=PARAMS, n_traj=5, t_max=0, master_seed=1)
    with pytest.raises(ValueError):
        TrajectoryBatch(params=PARAMS, n_traj=5, t_max=5, master_seed=-1)
    with pytest.raises(ValueError, match="master_seed"):
        run_batch(TrajectoryBatch(params=PARAMS, n_traj=5, t_max=5, master_seed=2**64), 1.0)
    for workers in (2.5, True):  # both used to run as one worker
        with pytest.raises(ValueError, match="n_workers must be an integer"):
            run_batch(TrajectoryBatch(params=PARAMS, n_traj=5, t_max=5, master_seed=1), 1.0,
                      n_workers=workers)


EDGE_N = 3


@pytest.mark.parametrize("threshold", [-math.inf, -0.5, EDGE_N - 0.5, EDGE_N, math.inf, math.nan])
def test_threshold_edges_agree(threshold):
    """tail_prob, the hitting law and run_batch cut a threshold the same way,
    at +-inf too, and all three refuse nan. With no budget the count never
    drops, so P[tau <= t] = P[X_t > threshold]; a Monte Carlo curve matches
    the exact one where that is 0 or 1 and covers it elsewhere."""
    params = ModelParams(n=EDGE_N, p=0.5, alpha=0.0)
    kernel = build_kernel(params)
    start = StateDistribution.point_mass(EDGE_N)
    spec = TrajectoryBatch(params=params, n_traj=400, t_max=4, master_seed=5)
    if math.isnan(threshold):
        for call in (lambda: tail_prob(start, threshold),
                     lambda: hitting_time_distribution(kernel, threshold, 4),
                     lambda: run_batch(spec, threshold)):
            with pytest.raises(ValueError, match="nan"):
                call()
        return
    tails = np.array([tail_prob(dist, threshold) for dist in epochs(kernel, start, 4)])
    law = hitting_time_distribution(kernel, threshold, 4)
    np.testing.assert_allclose(np.cumsum(law.pmf), tails, atol=1e-12)
    assert law.pmf.sum() + law.survival == pytest.approx(1.0, abs=1e-12)
    est = run_batch(spec, threshold)
    sure = (tails == 0.0) | (tails == 1.0)
    np.testing.assert_array_equal(est.p_hat_by_t[sure], tails[sure])
    assert np.all((est.ci_low_by_t <= tails) & (tails <= est.ci_high_by_t))
    if threshold < 0:
        assert tails.min() == 1.0 and law.pmf[0] == 1.0
    elif threshold >= EDGE_N:
        assert tails.max() == 0.0 and law.pmf.max() == 0.0


def test_batch_spec_refuses_what_it_would_reinterpret():
    """Checked when the batch is built, by ModelParams' integer rule: True
    would run one trajectory, 5.5 epochs would fail inside numpy, and a
    seed of 2^64 would fail only when the first block draws."""
    cases = [
        ({"n_traj": True}, "n_traj must be an integer, got True"),
        ({"t_max": 5.5}, "t_max must be an integer, got 5.5"),
        ({"master_seed": 2**64}, r"master_seed must lie in \[0, 2\^64\)"),
        ({"master_seed": 1.0}, "master_seed must be an integer"),
    ]
    for change, match in cases:
        with pytest.raises(ValueError, match=match):
            TrajectoryBatch(**{"params": PARAMS, "n_traj": 5, "t_max": 5, "master_seed": 1,
                               **change})
