"""Acceptance suite: nine end-to-end criteria with one printed verdict each:
the rows of `qecbatch.checks.CHECKS` at acceptance size, and criterion 8.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
without -s pytest still shows them for any failing criterion. Every
stochastic criterion runs under a frozen seed, so the suite is deterministic.
"""

import json

import pytest

from qecbatch.checks import CHECKS
from qecbatch.cli import main


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.mark.parametrize("row", CHECKS, ids=lambda row: str(row.criterion))
def test_criterion(row):
    """One row of the cross-check table at acceptance size."""
    report(row.criterion, *row.at_acceptance_size())


def run_bounds_json(tmp_path, name, args):
    out = tmp_path / f"{name}.json"
    code = main(["bounds", *args, "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())["report"]


def test_criterion_8_bound_fixtures_via_cli(tmp_path):
    """The bounds command must reproduce hand-computed threshold, baseline
    and crossover values exactly."""
    checks = []

    for p in (0.1, 0.2, 0.5):
        rep = run_bounds_json(tmp_path, f"era{p}", [
            "--l", "100", "--p", str(p), "--alpha", str(0.6 * p), "--theta", "0.1"])
        checks.append(("alpha thr erasure", rep["alpha_threshold"], p / 2.0))
        dep = run_bounds_json(tmp_path, f"dep{p}", [
            "--l", "100", "--p", str(p), "--alpha", str(0.8 * p), "--theta", "0.05",
            "--noise", "depolarizing"])
        checks.append(("alpha thr depolarizing", dep["alpha_threshold"], 2.0 * p / 3.0))

    for alpha in (0.02, 0.1, 0.2):
        p = 2.5 * alpha
        rep = run_bounds_json(tmp_path, f"noise{alpha}", [
            "--l", "100", "--p", str(p), "--alpha", str(alpha), "--theta", "0.01"])
        checks.append(("noise thr erasure", rep["noise_threshold"], 2.0 * alpha))
        dep = run_bounds_json(tmp_path, f"noisedep{alpha}", [
            "--l", "100", "--p", str(p), "--alpha", str(alpha), "--theta", "0.01",
            "--noise", "depolarizing"])
        checks.append(("noise thr depolarizing", dep["noise_threshold"], 1.5 * alpha))

    # effective idle rate of one half: the reference memory has no finite size
    rep = run_bounds_json(tmp_path, "cap0", [
        "--l", "100", "--p", "0.5", "--alpha", "0.3", "--theta", "0.1"])
    baseline = rep["baseline_full_parallel"]
    checks.append(("baseline impossible flag", float(baseline["impossible"]), 1.0))
    checks.append(("baseline threshold", baseline["threshold_value"], 0.5))

    rep = run_bounds_json(tmp_path, "base1", [
        "--l", "1000", "--p", "0.2", "--alpha", "0.15", "--theta", "0.05"])
    checks.append(("baseline l/(1-2p)", rep["baseline_full_parallel"], 1666.6666666666667))
    checks.append(("crossover p(1-p)", rep["crossover_alpha"], 0.16))

    rep = run_bounds_json(tmp_path, "base2", [
        "--l", "100", "--p", "0.1", "--q", "0.05", "--alpha", "0.08", "--theta", "0.05"])
    checks.append(("baseline with q", rep["baseline_full_parallel"], 140.84507042253523))

    rep = run_bounds_json(tmp_path, "cross2", [
        "--l", "100", "--p", "0.1", "--q", "0.1", "--alpha", "0.06", "--theta", "0.1"])
    checks.append(("crossover with q", rep["crossover_alpha"], 0.081))
    rep = run_bounds_json(tmp_path, "cross3", [
        "--l", "100", "--p", "0.3", "--q", "0.05", "--alpha", "0.2", "--theta", "0.1"])
    checks.append(("crossover p=0.3 q=0.05", rep["crossover_alpha"], 0.1995))

    bad = [(name, got, want) for name, got, want in checks
           if got != pytest.approx(want, rel=1e-12)]
    report(8, not bad, f"{len(checks)} fixtures checked, {len(bad)} off: {bad}")
