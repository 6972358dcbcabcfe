import csv
import json
import math
import os
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qecbatch.bounds import CapacityKind, overhead_bound
from qecbatch.chain import ModelParams, Noise
from qecbatch.cli import (
    COMMANDS,
    SWEEP_POINT_CAP,
    ExperimentConfig,
    GridAxis,
    UsageError,
    config_from_mapping,
    main,
    parse_config,
    _run_verify,
)
from qecbatch.exact import build_kernel
from qecbatch.meanfield import iterate_recursion
from qecbatch.montecarlo import CouplingReport

CONFIG_TEXT = """
# memory under test
n = 50
p = 0.2          # decoherence per batch
alpha = 0.05
n_traj = 100
t_max = 10
"""


def test_parse_config_file_and_overrides():
    config = parse_config("simulate", CONFIG_TEXT, {"p": "0.3", "beta": "0.4"})
    assert config.n == 50
    assert config.p == 0.3  # the flag wins over the file
    assert config.beta == 0.4
    assert config.alpha == 0.05
    assert config.q == 0.0 and config.q_period == 1  # defaults survive


def test_parse_config_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key 'pp'"):
        parse_config("simulate", "pp = 0.3")
    with pytest.raises(ValueError, match="unknown config key 'bogus'"):
        parse_config("simulate", None, {"bogus": "1"})


def test_parse_config_bad_values():
    with pytest.raises(ValueError, match="'n' needs an integer"):
        parse_config("simulate", "n = many")
    with pytest.raises(ValueError, match="'p' needs a number"):
        parse_config("simulate", None, {"p": "half"})
    with pytest.raises(ValueError, match="line 2"):
        parse_config("simulate", "n = 5\njust some words\n")


def test_parse_config_rejects_bad_enums():
    with pytest.raises(ValueError, match="noise"):
        parse_config("simulate", "noise = thermal")
    with pytest.raises(ValueError, match="format"):
        parse_config("simulate", None, {"format": "yaml"})
    with pytest.raises(ValueError, match="capacity"):
        parse_config("bounds", None, {"capacity": "magic"})


def test_config_round_trip():
    config = parse_config(
        "sweep",
        "l = 100\np = 0.12345678901234567\nalpha = 0.08\ntheta = 0.05",
        {"grid": ["alpha:0.05:0.1:4", "q:0.0:0.2:3"]},
    )
    mapping = config.to_mapping()
    json_text = json.dumps(mapping)  # must be JSON-serializable as emitted
    rebuilt = config_from_mapping(json.loads(json_text))
    assert rebuilt == config


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_VALUES = {  # by key name, else by annotated type
    "int": st.integers(-(2**70), 2**70),
    "float": _FLOATS,
    "str": st.text(alphabet="abcXYZ019/._-", min_size=1, max_size=12),
    "threads": st.integers(1, 64),
    "master_seed": st.integers(0, 2**64 - 1),
    "grid": st.lists(st.builds(GridAxis, name=st.sampled_from(["l", "p", "alpha", "theta", "q"]),
                               start=_FLOATS, stop=_FLOATS, steps=st.integers(2, 50)),
                     max_size=3).map(tuple),
}


@st.composite
def configs(draw):
    keys = {}
    for f in fields(ExperimentConfig)[1:]:
        if "choices" in f.metadata:
            values = st.sampled_from(f.metadata["choices"])
        else:
            values = _VALUES[f.name if f.name in _VALUES else f.type.removesuffix(" | None")]
        keys[f.name] = draw(st.none() | values if f.default is None else values)
    return ExperimentConfig(command=draw(st.sampled_from(COMMANDS)), **keys)


@settings(max_examples=200, deadline=None)
@given(configs())
def test_every_key_round_trips(config):
    """Every key survives to_mapping -> JSON -> config_from_mapping, and a
    `key = value` config file."""
    mapping = config.to_mapping()
    assert config_from_mapping(json.loads(json.dumps(mapping))) == config
    lines = [f"{key} = {' '.join(value) if key == 'grid' else value}"
             for key, value in mapping.items() if key != "command"]
    assert parse_config(config.command, "\n".join(lines)) == config


def test_config_from_mapping_errors():
    with pytest.raises(ValueError, match="missing 'command'"):
        config_from_mapping({"p": 0.2})
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_mapping({"command": "bounds", "shenanigans": 1})


def test_grid_axis():
    axis = GridAxis.parse("p:0.1:0.5:5")
    np.testing.assert_allclose(axis.values(), [0.1, 0.2, 0.3, 0.4, 0.5])
    assert GridAxis.parse(axis.token()) == axis
    with pytest.raises(ValueError, match="steps >= 2"):
        GridAxis.parse("p:0.1:0.5:1")
    with pytest.raises(ValueError, match="not sweepable"):
        GridAxis.parse("n:10:100:5")
    with pytest.raises(ValueError, match="name:start:stop:steps"):
        GridAxis.parse("p:0.1:0.5")


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="unknown command"):
        ExperimentConfig(command="discombobulate")
    with pytest.raises(ValueError, match="threads"):
        ExperimentConfig(command="bounds", threads=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="master_seed"):
            ExperimentConfig(command="verify", master_seed=seed)


def test_main_usage_errors(capsys):
    assert main(["meanfield"]) == 1  # p, alpha, beta all missing
    assert "usage error" in capsys.readouterr().err
    assert main(["bounds", "--l", "100", "--p", "0.2", "--alpha", "0.12",
                 "--theta", "0.1", "--kappa", "10"]) == 1
    assert main(["simulate", "--p", "not-a-number"]) == 1
    assert main(["sweep", "--l", "100", "--p", "0.2", "--alpha", "0.12",
                 "--theta", "0.1"]) == 1  # no grid axes


def test_main_rejects_unknown_arguments(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["bounds", "--frequency", "11"]) == 1
    capsys.readouterr()


def test_bounds_json_output(tmp_path, monkeypatch):
    monkeypatch.setenv("QECBATCH_OUT_DIR", str(tmp_path))
    code = main(["bounds", "--l", "100", "--p", "0.2", "--alpha", "0.12",
                 "--theta", "0.1"])
    assert code == 0
    doc = json.loads((tmp_path / "bounds.json").read_text())
    assert doc["schema"] == "qecbatch.bounds.v1"
    assert doc["report"]["n_min"] == pytest.approx(250.0, rel=1e-9)
    assert doc["report"]["feasible"] is True
    assert doc["report"]["verdict"] is None
    rebuilt = config_from_mapping(doc["config"])
    assert rebuilt.l == 100 and rebuilt.command == "bounds"


def test_bounds_impossible_still_exits_zero(tmp_path, monkeypatch):
    monkeypatch.setenv("QECBATCH_OUT_DIR", str(tmp_path))
    assert main(["bounds", "--l", "100", "--p", "0.2", "--alpha", "0.05",
                 "--theta", "0.1"]) == 0
    doc = json.loads((tmp_path / "bounds.json").read_text())
    assert doc["report"]["feasible"] is False
    assert doc["report"]["verdict"]["impossible"] is True
    assert doc["report"]["noise"] == "erasure"


@pytest.mark.parametrize("argv", [
    ["bounds", "--l", "100", "--p", "0.2", "--alpha", "0.15", "--theta", "0.1"],
    ["sweep", "--l", "100", "--p", "0.2", "--theta", "0.1", "--grid", "alpha:0.05:0.25:9"],
])
def test_capacity_is_refused_under_erasure(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--capacity", "hashing-cutoff", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: --capacity does not apply to erasure noise\n"
    assert not out.exists()


def test_bounds_kappa_surface(tmp_path):
    out = tmp_path / "surface.json"
    code = main(["bounds", "--kappa", "10", "--t-g", "0.0001",
                 "--alpha", "0.01", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "qecbatch.kappa-surface.v1"
    assert doc["overhead"] == pytest.approx(0.052603888076110196, rel=1e-9)
    assert doc["small_budget_check"]["rel_error"] < 0.01


@pytest.mark.parametrize("kappa, t_g, alpha, overhead", [
    # kappa*t_g = 1: alpha = 0.45 clears alpha_min = 0.316 but not 2*alpha > kappa*t_g
    ("1000", "1e-3", "0.45", -math.expm1(-1.0) / (0.9 + math.expm1(-1.0))),
    ("0", "1", "0.1", 0.0),  # no decoherence, no overhead
])
def test_bounds_kappa_surface_outside_small_budget_form(tmp_path, kappa, t_g, alpha, overhead):
    out = tmp_path / "surface.json"
    assert main(["bounds", "--kappa", kappa, "--t-g", t_g, "--alpha", alpha,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["overhead"] == pytest.approx(overhead, rel=1e-12)
    assert doc["small_budget_check"] is None


@pytest.mark.parametrize("kappa, t_g, key", [
    ("nan", "1", "kappa"), ("0.001", "nan", "t_g"), ("inf", "0", "kappa"),
])
def test_bounds_kappa_surface_rejects_non_finite_inputs(tmp_path, capsys, kappa, t_g, key):
    out = tmp_path / "surface.json"
    assert main(["bounds", "--kappa", kappa, "--t-g", t_g, "--alpha", "0.1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("extra, flag", [
    (["--l", "1000"], "--l"), (["--theta", "0.1"], "--theta"), (["--q", "0.3"], "--q"),
    (["--noise", "depolarizing", "--capacity", "hashing-cutoff"], "--capacity"),
])
def test_bounds_kappa_surface_rejects_flags_it_ignores(tmp_path, capsys, extra, flag):
    out = tmp_path / "surface.json"
    assert main(["bounds", "--kappa", "10", "--t-g", "0.0001", "--alpha", "0.01", *extra,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"usage error: {flag} does not apply to the --kappa/--t-g surface\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, value", [
    (["bounds", "--l", "100", "--p", "0.2", "--alpha", "0.12", "--theta"], "-1e-9"),
    (["bounds", "--l", "100", "--p", "0.2", "--alpha", "0.12", "--theta"], "-inf"),
    (["meanfield", "--p", "0.2", "--alpha", "0.05", "--beta", "0.5", "--delta"], "-1e-3"),
])
def test_negative_numbers_are_values_not_flags(tmp_path, capsys, argv, value):
    out = ["--out", str(tmp_path / "out.json")]
    apart = main([*argv, value, *out]), capsys.readouterr().err
    joined = main([*argv[:-1], f"{argv[-1]}={value}", *out]), capsys.readouterr().err
    assert apart == joined
    assert apart[0] == 1 and apart[1].startswith("error: ") and "must lie in" in apart[1]


def test_meanfield_json(tmp_path, monkeypatch):
    monkeypatch.setenv("QECBATCH_OUT_DIR", str(tmp_path))
    assert main(["meanfield", "--p", "0.2", "--alpha", "0.05", "--beta", "0.5"]) == 0
    doc = json.loads((tmp_path / "meanfield.json").read_text())
    assert doc["T"] == 9
    assert doc["delta"] == pytest.approx(0.05)
    assert doc["steady_fraction"] == pytest.approx(0.75)


def test_exact_csv(tmp_path, monkeypatch):
    monkeypatch.setenv("QECBATCH_OUT_DIR", str(tmp_path))
    assert main(["exact", "--n", "30", "--p", "0.2", "--alpha", "0.1",
                 "--beta", "0.3", "--t-max", "15"]) == 0
    lines = (tmp_path / "exact.csv").read_text().splitlines()
    assert lines[0] == "# schema=qecbatch.exact-tail.v1"
    assert lines[1].startswith("# config=")
    assert lines[2] == "t,tail_prob"
    rows = [line.split(",") for line in lines[3:]]
    assert [int(r[0]) for r in rows] == list(range(16))
    tails = [float(r[1]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in tails)
    config = config_from_mapping(json.loads(lines[1].removeprefix("# config=")))
    assert config.n == 30 and config.beta == 0.3


def test_exact_distribution_csv(tmp_path):
    out = tmp_path / "dist.csv"
    assert main(["exact", "--n", "10", "--p", "0.3", "--alpha", "0.2",
                 "--t-max", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=qecbatch.exact-dist.v1"
    mass = [float(line.split(",")[1]) for line in lines[3:]]
    assert sum(mass) == pytest.approx(1.0, abs=1e-12)


def test_exact_json_reports_error_bound(tmp_path):
    """Both outputs carry the same bound: the kernel's truncation once per
    phase, not a per-epoch running sum."""
    # 45 epochs, after which a running sum of per-epoch bounds is ulps off;
    # q_period 3 adds a static phase before epochs 0, 3, ..., 42
    for q, q_period, phases in ((0.0, 1, 45), (0.05, 3, 45 + 15)):
        truncation = build_kernel(ModelParams(n=30, p=0.2, alpha=0.1, q=q,
                                              q_period=q_period)).truncation
        assert 0.0 < truncation <= 1e-16
        base = ["exact", "--n", "30", "--p", "0.2", "--alpha", "0.1", "--q", str(q),
                "--q-period", str(q_period), "--t-max", "45", "--format", "json"]
        tail, dist = tmp_path / "tail.json", tmp_path / "dist.json"
        assert main([*base, "--beta", "0.3", "--out", str(tail)]) == 0
        assert main([*base, "--out", str(dist)]) == 0
        bounds = []
        for path, schema in ((tail, "qecbatch.exact-tail.v1"),
                             (dist, "qecbatch.exact-dist.v1")):
            doc = json.loads(path.read_text())
            assert doc["schema"] == schema
            assert doc["error_bound"] == phases * truncation
            bounds.append(doc["error_bound"])
        assert bounds[0] == bounds[1]


@pytest.mark.parametrize("beta", ["inf", "nan", "-0.5", "1.5"])
@pytest.mark.parametrize("command", [
    "simulate --n 20 --p 0.3 --alpha 0.1 --n-traj 5 --t-max 3",
    "exact --n 20 --p 0.3 --alpha 0.1 --t-max 3",
])
def test_beta_outside_the_unit_interval_exits_1(tmp_path, capsys, command, beta):
    out = tmp_path / "result.csv"
    assert main([*command.split(), "--beta", beta, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: beta must lie in [0, 1], got {float(beta)}\n"
    assert not out.exists()


def test_simulate_csv_deterministic(tmp_path):
    out = tmp_path / "sim.csv"
    args = ["simulate", "--n", "20", "--p", "0.3", "--alpha", "0.1",
            "--beta", "0.3", "--n-traj", "80", "--t-max", "8",
            "--master-seed", "7", "--out", str(out)]
    assert main(args) == 0
    first = out.read_text()
    assert main(args) == 0
    assert out.read_text() == first
    lines = first.splitlines()
    assert lines[0] == "# schema=qecbatch.simulate.v1"
    assert lines[2] == "t,p_hat,ci_halfwidth"
    assert len(lines) == 3 + 9


def test_couple_json(tmp_path, monkeypatch):
    monkeypatch.setenv("QECBATCH_OUT_DIR", str(tmp_path))
    assert main(["couple", "--n", "30", "--p", "0.2", "--alpha", "0.1",
                 "--q-low", "0.01", "--q-high", "0.05", "--n-traj", "50",
                 "--t-max", "10"]) == 0
    doc = json.loads((tmp_path / "couple.json").read_text())
    report = doc["report"]
    assert set(report) == {f.name for f in fields(CouplingReport)}
    assert report["n"] == 30
    assert report["inclusion_fraction"] == 1.0
    assert report["pairs_checked"] == 500


def test_couple_csv_summary(tmp_path):
    out = tmp_path / "couple.csv"
    assert main(["couple", "--n", "30", "--p", "0.2", "--alpha", "0.1",
                 "--q-low", "0.01", "--q-high", "0.05", "--n-traj", "50",
                 "--t-max", "10", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=qecbatch.couple.v1"
    header = lines[2].split(",")
    assert header == [f.name for f in fields(CouplingReport)]
    row = dict(zip(header, lines[3].split(",")))
    assert row["inclusion_fraction"] == "1.0"
    assert row["pairs_checked"] == "500"
    assert len(lines) == 4


def test_theta_limit_preset(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QECBATCH_OUT_DIR", str(tmp_path))
    assert main(["bounds", "--l", "1000", "--p", "0.2", "--alpha", "0.15",
                 "--theta", "limit"]) == 0
    assert "theta=1e-06" in capsys.readouterr().err
    doc = json.loads((tmp_path / "bounds.json").read_text())
    assert doc["config"]["theta"] == 1e-6
    assert doc["report"]["n_min"] == pytest.approx(2000.0, rel=1e-3)


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--l", "100", "--p", "0.2", "--alpha", "0.12",
                 "--theta", "0.1", "--grid", "alpha:0.05:0.25:5",
                 "--grid", "theta:0.05:0.1:2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=qecbatch.sweep.v1"
    header = lines[2].split(",")
    assert header[:5] == ["l", "p", "alpha", "theta", "q"]
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 10  # 5 alpha values x 2 theta values
    status = header.index("status")
    kinds = {row[status] for row in rows}
    # alpha=0.25 >= p is out of the model's domain; alpha=0.05 < p/2 is
    # a clean impossibility verdict; mid alphas give finite bounds
    assert kinds == {"ok", "impossible", "out-of-domain"}


def test_sweep_json_and_axis_errors(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--l", "100", "--p", "0.2", "--alpha", "0.12",
                 "--theta", "0.1", "--grid", "l:50:100:2",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [row["l"] for row in doc["rows"]] == [50, 100]
    assert main(["sweep", "--l", "100", "--p", "0.2", "--alpha", "0.12",
                 "--theta", "0.1", "--grid", "p:0.1:0.2:2",
                 "--grid", "p:0.3:0.4:2"]) == 1
    for token, complaint in (("p:0.1:0.3:3.0", "needs an integer step count"),
                             ("p:0.1:high:3", "needs numeric start and stop")):
        assert main(["sweep", "--l", "100", "--alpha", "0.12", "--theta", "0.1",
                     "--grid", token, "--out", str(out)]) == 1
        assert f"grid axis '{token}' {complaint}" in capsys.readouterr().err


def test_sweep_rejects_grids_above_the_point_cap(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    steps = math.isqrt(SWEEP_POINT_CAP) + 1
    assert main(["sweep", "--l", "100", "--theta", "0.1", "--grid", f"p:0.1:0.3:{steps}",
                 "--grid", f"alpha:0:0.2:{steps}", "--out", str(out)]) == 1
    assert f"sweep grid has {steps * steps} points" in capsys.readouterr().err
    assert not out.exists()
    # the count is checked before any axis is built
    assert main(["sweep", "--l", "100", "--theta", "0.1", "--grid", "p:0.1:0.3:2000000",
                 "--grid", "alpha:0:0.2:2000000", "--out", str(out)]) == 1
    assert "4000000000000 points" in capsys.readouterr().err


def _hashing(gamma: float) -> float:
    """1 - H2(3 gamma / 4) - (3 gamma / 4) log2 3, written out with math."""
    u = 0.75 * gamma
    entropy = 0.0 if u <= 0.0 or u >= 1.0 else -u * math.log2(u) - (1 - u) * math.log2(1 - u)
    return 1.0 - entropy - u * math.log2(3.0)


def _read_sweep(path) -> list[dict]:
    lines = path.read_text().splitlines()
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


@pytest.mark.parametrize("noise, capacity", [
    ("erasure", "hashing"), ("depolarizing", "hashing"), ("depolarizing", "hashing-cutoff"),
])
def test_sweep_rows_match_an_independent_oracle(tmp_path, noise, capacity):
    """Every row of a grid over all five axes against the model's rules and
    closed forms, evaluated here one point at a time."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--noise", noise, "--capacity", capacity,
                 "--grid", "l:0:30:4", "--grid", "p:0:0.9:7", "--grid", "alpha:0:0.6:7",
                 "--grid", "theta:0:0.5:6", "--grid", "q:0:1.2:5", "--out", str(out)]) == 0
    rows = _read_sweep(out)
    assert len(rows) == 4 * 7 * 7 * 6 * 5
    kinds = set()
    for row in rows:
        l, p, alpha, theta, q = (float(row[name]) for name in ("l", "p", "alpha", "theta", "q"))
        in_domain = (l >= 1 and 0 < p <= 1 and 0 <= alpha < p and 0 <= q <= 1
                     and 0 < theta < (p - alpha) / p)
        if not in_domain:
            assert row["status"] == "out-of-domain", row
            kinds.add(row["status"])
            continue
        residual = (p - alpha) / p - theta
        if noise == "erasure":
            rate, alpha_min = 1.0 - 2.0 * residual, p / 2.0
        else:
            cut = capacity == "hashing-cutoff" and residual >= 1.0 / 3.0
            rate, alpha_min = (0.0 if cut else _hashing(residual)), 2.0 * p / 3.0
        want = "impossible" if alpha < alpha_min or rate <= 0.0 else "ok"
        assert row["status"] == want, row
        kinds.add(want)
        assert float(row["residual_rate"]) == pytest.approx(residual, rel=1e-12)
        if want == "impossible":
            assert row["n_min"] == row["crossing_epochs"] == "", row
            continue
        n_min = float(row["n_min"])
        if noise == "erasure":
            assert n_min == pytest.approx(l * p / (2 * alpha - p + 2 * p * theta), rel=1e-12)
        else:
            # a few ulps of the entropy, amplified where the rate nears zero
            assert n_min == pytest.approx(l / rate, rel=1e-12 + 1e-14 / rate)
        delta = 0.5 * (p - alpha / (1.0 - residual))
        k = 1
        while iterate_recursion(1.0, p, alpha, delta, k) <= residual:
            k += 1
        assert int(row["crossing_epochs"]) == k, row
    assert kinds == {"ok", "impossible", "out-of-domain"}


def test_sweep_keeps_values_apart_to_the_last_bit(tmp_path):
    """Cells are formatted once per distinct value, and values that differ
    in the last bits, or only in the sign of zero, stay distinct."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--l", "100", "--p", "0.2", "--alpha", "0.12",
                 "--grid", "q:0:-0.0:2", "--grid", "theta:0.1:0.1000000000001:3",
                 "--out", str(out)]) == 0
    rows = _read_sweep(out)
    thetas = np.linspace(0.1, 0.1000000000001, 3).tolist()
    assert [row["q"] for row in rows] == ["0.0"] * 3 + ["-0.0"] * 3
    for row, theta in zip(rows, thetas * 2):
        residual = (0.2 - 0.12) / 0.2 - theta
        assert (row["theta"], row["residual_rate"], row["n_min"]) == (
            repr(theta), repr(residual), repr(100 / (1.0 - 2.0 * residual)))


_UNIT = st.floats(0.0, 1.0)


@st.composite
def bound_points(draw):
    p = draw(st.sampled_from([1.0, 1e-9, 0.0]) | st.floats(0.0, 1.0))
    alpha = draw(st.sampled_from([0.5, 2.0 / 3.0, 1.0]) | st.floats(-0.1, 1.2)) * p
    cap = (p - alpha) / p if p > 0 else 1.0
    theta = draw(st.sampled_from([1e-17, 0.5, 1.0 - 1e-16]) | st.floats(-0.1, 1.1)) * cap
    q = draw(st.sampled_from([0.0, 1.0, 1.1]) | _UNIT)
    return draw(st.sampled_from([0, 1, 100])), p, alpha, theta, q


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(point=bound_points(), noise=st.sampled_from(["erasure", "depolarizing"]),
       cutoff=st.booleans())
def test_one_point_sweep_matches_bounds(tmp_path, point, noise, cutoff):
    """A sweep row prints the strings of overhead_bound's report for the same
    point, and is out-of-domain exactly where overhead_bound raises."""
    l, p, alpha, theta, q = point
    # --capacity picks a depolarizing mode; erasure noise refuses it
    capacity = None
    if noise == "depolarizing":
        capacity = CapacityKind("hashing-cutoff" if cutoff else "hashing")
    out = tmp_path / "point.csv"
    # `--key=value` keeps argparse from reading a value like -1e-9 as a flag
    assert main(["sweep", f"--l={l}", f"--p={p!r}", f"--alpha={alpha!r}",
                 f"--theta={theta!r}", f"--noise={noise}",
                 *([f"--capacity={capacity.value}"] if capacity else []),
                 f"--grid=q:{q!r}:{q!r}:2", f"--out={out}"]) == 0
    row, twin = _read_sweep(out)
    assert row == twin
    try:
        report = asdict(overhead_bound(l, p, alpha, theta, noise=Noise(noise), q=q,
                                       capacity=capacity))
    except ValueError:
        assert row["status"] == "out-of-domain"
        return
    report["noise"] = report["noise"].value
    assert row["status"] == ("ok" if report["feasible"] else "impossible")
    if isinstance(report["baseline_full_parallel"], dict):
        report["baseline_full_parallel"] = None
    for name in ("l", "p", "alpha", "theta", "q", "noise", "capacity_mode", "n_min",
                 "overhead_lb", "crossing_epochs", "alpha_threshold", "noise_threshold",
                 "residual_rate", "crossover_alpha", "baseline_full_parallel"):
        assert row[name] == ("" if report[name] is None else str(report[name])), name


def test_sweep_rejects_non_integer_l(tmp_path, capsys):
    base = ["sweep", "--l", "100", "--p", "0.2", "--alpha", "0.12", "--theta", "0.1",
            "--format", "json"]
    out = tmp_path / "sweep.json"
    assert main([*base, "--grid", "l:1:4:3", "--out", str(out)]) == 1
    assert "l=2.5" in capsys.readouterr().err
    assert not out.exists()
    assert main([*base, "--grid", "l:1:4:4", "--out", str(out)]) == 0
    assert [row["l"] for row in json.loads(out.read_text())["rows"]] == [1, 2, 3, 4]


def test_sweep_takes_swept_keys_from_the_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--p", "0.2", "--alpha", "0.12", "--theta", "0.1",
                 "--grid", "l:1:4:4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [int(line.split(",")[0]) for line in lines[3:]] == [1, 2, 3, 4]
    assert main(["sweep", "--alpha", "0.12", "--theta", "0.1",
                 "--grid", "l:1:4:4", "--out", str(out)]) == 1
    assert "needs --p" in capsys.readouterr().err


def test_verify_exit_codes(capsys):
    config = parse_config("verify")
    ok = (("always fine", lambda seed: (True, "all good")),)
    assert _run_verify(config, checks=ok) == 0
    assert "[verify] always fine: ok" in capsys.readouterr().out
    mixed = (
        ("always fine", lambda seed: (True, "all good")),
        ("always broken", lambda seed: (False, "nope")),
    )
    assert _run_verify(config, checks=mixed) == 2
    assert "always broken: FAIL" in capsys.readouterr().out


def test_verify_runs_the_shared_checks(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    for name in ("closed-form vs recursion", "crossing-epoch formula vs iteration",
                 "exact tail dominates closed-form bound", "exact oracle vs Monte Carlo"):
        assert f"[verify] {name}: ok" in out


@pytest.mark.parametrize("seed", ["-3", str(2**64)])
def test_verify_rejects_seeds_outside_64_bits(capsys, seed):
    assert main(["verify", "--master-seed", seed]) == 1
    captured = capsys.readouterr()
    assert "master_seed" in captured.err
    assert "[verify]" not in captured.out


@pytest.mark.parametrize("seed", ["-3", str(2**64 + 5)])
@pytest.mark.parametrize("command", [
    "couple --n 30 --p 0.2 --alpha 0.1 --q-low 0.01 --q-high 0.05 --n-traj 5 --t-max 3",
    "simulate --n 20 --p 0.3 --alpha 0.1 --beta 0.3 --n-traj 5 --t-max 3",
])
def test_seeds_outside_64_bits_exit_1(tmp_path, capsys, command, seed):
    out = tmp_path / "result.json"
    assert main([*command.split(), "--master-seed", seed, "--out", str(out)]) == 1
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_end_to_end(tmp_path):
    config_path = tmp_path / "runs.conf"
    config_path.write_text("l = 400\np = 0.2\nalpha = 0.12\ntheta = 0.2\n")
    out = tmp_path / "report.json"
    assert main(["bounds", "--config", str(config_path), "--theta", "0.1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["l"] == 400
    assert doc["config"]["theta"] == 0.1  # flag beats file
    assert main(["bounds", "--config", str(tmp_path / "missing.conf")]) == 1


def test_no_temp_files_left_behind(tmp_path, monkeypatch):
    monkeypatch.setenv("QECBATCH_OUT_DIR", str(tmp_path))
    assert main(["meanfield", "--p", "0.2", "--alpha", "0.05", "--beta", "0.5"]) == 0
    leftovers = [name for name in os.listdir(tmp_path) if ".tmp-" in name]
    assert leftovers == []
