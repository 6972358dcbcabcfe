import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qecbatch import cli, montecarlo
from qecbatch.bounds import overhead_bound
from qecbatch.chain import ModelParams, Noise
from qecbatch.checks import CHECKS, Check
from qecbatch.cli import (
    COMMANDS,
    SWEEP_POINT_CAP,
    ExperimentConfig,
    GridAxis,
    UsageError,
    config_from_mapping,
    main,
    parse_config,
    _KEYS,
    _ignored,
    _run_verify,
)
from qecbatch.exact import build_kernel
from qecbatch.meanfield import iterate_recursion, mf_iterate
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
    command = draw(st.sampled_from(COMMANDS))
    # a key the run does not read may only hold its default
    for name, _ in _ignored(SimpleNamespace(command=command, **keys)):
        keys[name] = _KEYS[name].default
    return ExperimentConfig(command=command, **keys)


@settings(max_examples=200, deadline=None)
@given(configs())
def test_every_key_round_trips(config):
    """Every key the run reads survives to_mapping -> JSON ->
    config_from_mapping, and a `key = value` config file; no other key is
    emitted."""
    mapping = config.to_mapping()
    assert not {name for name, _ in _ignored(config)} & set(mapping)
    assert config_from_mapping(json.loads(json.dumps(mapping))) == config
    lines = [f"{key} = {' '.join(value) if key == 'grid' else value}"
             for key, value in mapping.items() if key != "command"]
    assert parse_config(config.command, "\n".join(lines)) == config


def test_config_from_mapping_errors():
    with pytest.raises(ValueError, match="missing 'command'"):
        config_from_mapping({"p": 0.2})
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_mapping({"command": "bounds", "shenanigans": 1})
    with pytest.raises(UsageError, match="--threads does not apply to command 'meanfield'"):
        config_from_mapping({"command": "meanfield", "p": 0.2, "threads": 4})


def test_a_document_with_foreign_keys_at_their_defaults_re_parses():
    """A document that also echoes keys its run ignores, at their defaults,
    re-parses; the re-emitted config holds only the keys the run read."""
    read = {"command": "meanfield", "alpha": 0.05, "beta": 0.5, "p": 0.2}
    config = config_from_mapping({**read, "master_seed": 20260817, "noise": "erasure",
                                  "q": 0.0, "q_period": 1, "threads": 1})
    assert config.to_mapping() == read


@pytest.mark.parametrize("command, text, key", [
    ("meanfield --p 0.2 --alpha 0.05 --beta 0.5", "theta = 0.1\n",
     "--theta does not apply to command 'meanfield'"),
    ("bounds --l 100 --p 0.2 --alpha 0.15 --theta 0.05 --noise depolarizing", "q_period = 7\n",
     "--q-period does not apply to command 'bounds'"),
])
def test_config_file_keys_the_run_ignores_exit_1(tmp_path, capsys, command, text, key):
    config_path = tmp_path / "run.conf"
    config_path.write_text(text)
    out = tmp_path / "out.json"
    assert main([*command.split(), "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: {key}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "simulate --n 20 --p 0.3 --alpha 0.1 --beta 0.3 --n-traj 5 --t-max 3",
    "exact --n 20 --p 0.3 --alpha 0.1 --t-max 3",
])
def test_simulate_and_exact_take_no_noise_flag(tmp_path, capsys, command):
    out = tmp_path / "result.csv"
    assert main([*command.split(), "--noise", "depolarizing", "--out", str(out)]) == 1
    assert "unrecognized arguments: --noise depolarizing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_the_keys_a_plain_run_reads(capsys, command):
    """Every command a key names exists, and `--help` lists the flags of the
    keys that a run with no flags reads, under either noise where it reads
    the noise."""
    for f in fields(ExperimentConfig)[1:]:
        assert set(f.metadata["commands"]) <= set(COMMANDS), f.name
    plain = ExperimentConfig(command=command)
    runs = [plain]
    if "noise" in plain.to_mapping():
        runs.append(ExperimentConfig(command=command, noise="depolarizing"))
    read = {key for run in runs for key in _KEYS
            if key not in {name for name, _ in _ignored(run)}}
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
    assert listed - {"help", "config"} == {key.replace("_", "-") for key in read}


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


@pytest.mark.parametrize("token", ["p:0.1:inf:3", "q:0:nan:2", "theta:-inf:0.1:2"])
def test_grid_axis_ends_must_be_finite(tmp_path, capsys, token):
    name = token.split(":")[0]
    with pytest.raises(ValueError, match=f"grid axis '{name}' needs finite start and stop"):
        GridAxis.parse(token)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--l", "10", "--p", "0.2", "--alpha", "0.15", "--theta", "0.05",
                 "--grid", token, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: grid axis '{name}' needs finite")
    assert not out.exists()


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


@pytest.mark.parametrize("noise", ["erasure", "depolarizing"])
@pytest.mark.parametrize("argv", [
    ["bounds", "--l", "100", "--p", "0.2", "--alpha", "0.15", "--theta", "0.1"],
    ["sweep", "--l", "100", "--p", "0.2", "--theta", "0.1", "--grid", "alpha:0.05:0.25:9"],
])
def test_capacity_flag_is_unrecognized(tmp_path, capsys, argv, noise):
    """The noise alone picks the capacity; there is no flag to pick it."""
    out = tmp_path / "out"
    assert main([*argv, "--noise", noise, "--capacity", "hashing", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: unrecognized arguments: --capacity hashing\n"
    assert not out.exists()


def test_capacity_is_an_unknown_config_key(tmp_path, capsys):
    config_path = tmp_path / "run.conf"
    config_path.write_text("noise = depolarizing\ncapacity = hashing\n")
    out = tmp_path / "out.json"
    assert main(["bounds", "--l", "100", "--p", "0.2", "--alpha", "0.15", "--theta", "0.05",
                 "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: unknown config key 'capacity' (line 2)\n"
    assert not out.exists()


def test_depolarizing_bounds_document_names_no_capacity(tmp_path):
    """The capacity follows the noise: a depolarizing document reports it in
    capacity_mode, holds no capacity key, and its config re-parses."""
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--l", "100", "--p", "0.2", "--alpha", "0.15", "--theta", "0.05",
                 "--noise", "depolarizing", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "capacity" not in doc["config"]
    assert doc["report"]["capacity_mode"] == "hashing"
    config = config_from_mapping(doc["config"])
    assert config.to_mapping() == doc["config"]


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
    (["--p", "0.2"], "--p"),
    (["--l", "1000"], "--l"), (["--theta", "0.1"], "--theta"), (["--q", "0.3"], "--q"),
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
    assert lines[0] == "# schema=qecbatch.simulate.v2"
    assert lines[2] == "t,p_hat,ci_low,ci_high"
    assert len(lines) == 3 + 9


def test_simulate_json_records_the_workers_that_ran(tmp_path, monkeypatch):
    """--threads 64 on a fleet of 3 blocks, with 2 usable CPUs, keeps 64 in
    the config and writes the 2 workers that ran; the pool is a fake that
    maps in this process, so no process is started."""

    class InProcessPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for threads, workers in ((64, 2), (1, 1)):
        out = tmp_path / f"sim{threads}.json"
        assert main(["simulate", "--n", "20", "--p", "0.3", "--alpha", "0.1", "--beta", "0.3",
                     "--n-traj", str(3 * 4096), "--t-max", "2", "--threads", str(threads),
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["config"]["threads"], doc["workers"]) == (threads, workers)


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


@pytest.mark.parametrize("argv, config_text, code", [
    ("meanfield --p 0.2 --alpha 0.05 --beta 0.5", "theta = limit\n", 1),
    ("bounds --kappa 10 --t-g 0.0001 --alpha 0.01 --theta limit", None, 1),
    ("sweep --l 100 --p 0.2 --alpha 0.12 --theta limit --grid theta:0.05:0.1:2", None, 0),
])
def test_theta_preset_note_needs_a_run_that_reads_theta(tmp_path, capsys, argv, config_text,
                                                        code):
    extra = []
    if config_text is not None:
        config_path = tmp_path / "run.conf"
        config_path.write_text(config_text)
        extra = ["--config", str(config_path)]
    assert main([*argv.split(), *extra, "--out", str(tmp_path / "out")]) == code
    assert "note:" not in capsys.readouterr().err


def test_sweep_without_a_theta_axis_notes_the_preset_once(tmp_path, capsys):
    assert main(["sweep", "--l", "100", "--p", "0.2", "--alpha", "0.12", "--theta", "limit",
                 "--grid", "alpha:0.05:0.1:2", "--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err.count("note: theta=1e-06") == 1


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


@pytest.mark.parametrize("noise", ["erasure", "depolarizing"])
def test_sweep_rows_match_an_independent_oracle(tmp_path, noise):
    """Every row of a grid over all five axes against the model's rules and
    closed forms, evaluated here one point at a time."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--noise", noise, "--grid", "l:0:30:4", "--grid", "p:0:0.9:7", "--grid", "alpha:0:0.6:7",
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
            rate, alpha_min = _hashing(residual), 2.0 * p / 3.0
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


# every kind of cell: an l axis, empty out-of-domain cells, impossible and ok
# rows, and q steps that differ only in the sign of zero
_STREAM_GRID = ["--noise", "depolarizing", "--grid", "l:0:30:4", "--grid", "p:0.1:0.9:5",
                "--grid", "alpha:0:0.6:7", "--grid", "theta:0:0.5:6", "--grid", "q:0:-0.0:2"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_documents_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, fmt):
    """Rows formed and written 7 at a time give the bytes of one default
    run, which forms all 1680 rows in one chunk."""
    docs = []
    for chunk in (cli._CHUNK, 7):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        monkeypatch.setenv("QECBATCH_OUT_DIR", str(tmp_path / str(chunk)))
        assert main(["sweep", *_STREAM_GRID, "--format", fmt]) == 0
        docs.append((tmp_path / str(chunk) / f"sweep.{fmt}").read_bytes())
    assert docs[0] == docs[1]
    if fmt == "csv":
        rows = _read_sweep(tmp_path / "7" / "sweep.csv")
        assert len(rows) == 1680 > 4096 // 7
        assert {row["status"] for row in rows} == {"ok", "impossible", "out-of-domain"}
        assert {row["q"] for row in rows} == {"0.0", "-0.0"}
        assert {row["l"] for row in rows} == {"0", "10", "20", "30"}
        assert all(row["crossing_epochs"].isdigit() == (row["status"] == "ok") for row in rows)


def test_a_sweep_that_fails_after_its_first_chunk_keeps_the_old_file(tmp_path, monkeypatch,
                                                                      capsys):
    out = tmp_path / "sweep.csv"
    out.write_text("old\n")
    monkeypatch.setattr(cli, "_CHUNK", 7)
    distinct, calls = cli._distinct, []

    def failing(values):
        calls.append(values.size)
        if len(calls) > 10:  # one call per bound column per chunk
            assert list(tmp_path.glob(".sweep.csv.tmp-*")), "the first chunk is not written"
            raise ValueError("cell formatting failed")
        return distinct(values)

    monkeypatch.setattr(cli, "_distinct", failing)
    assert main(["sweep", *_STREAM_GRID, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: cell formatting failed\n"
    assert calls == [7] * 11
    assert out.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["sweep.csv"]


def test_a_large_csv_sweep_streams_in_bounded_memory(tmp_path):
    """A 10^5-point CSV sweep peaks at most 40 MiB above the RSS of a
    process that has imported the CLI; holding the whole document took
    62.6 MiB, streaming it 24.

    A process forked from pytest starts with pytest's peak RSS as its own
    ru_maxrss, which would hide the sweep's, so a small interpreter in
    between starts the measured one.
    """
    launch = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    script = (
        "import resource, sys\n"
        "from qecbatch.cli import main\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "code = main(sys.argv[1:])\n"
        "print(code, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) / 1024)\n"
    )
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = tmp_path / "sweep.csv"
    result = subprocess.run(
        [sys.executable, "-c", launch, sys.executable, "-c", script, "sweep", "--l", "100",
         "--grid", "p:0.05:0.5:50", "--grid", "alpha:0.02:0.45:50", "--grid", "theta:0.01:0.3:40",
         "--out", str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    summary, measured = result.stdout.splitlines()
    code, above = measured.split()
    assert summary.startswith("sweep: 100000 grid points") and code == "0"
    assert float(above) <= 40.0, f"peak RSS {above} MiB above import"
    assert out.read_text().count("\n") == 3 + 100_000


_UNIT = st.floats(0.0, 1.0)


@st.composite
def bound_points(draw):
    # at 3e-16, 1 - rate rounds by a large part of the rate
    p = draw(st.sampled_from([1.0, 1e-9, 3e-16, 0.0]) | st.floats(0.0, 1.0))
    alpha = draw(st.sampled_from([0.5, 2.0 / 3.0, 1.0]) | st.floats(-0.1, 1.2)) * p
    cap = (p - alpha) / p if p > 0 else 1.0
    theta = draw(st.sampled_from([1e-17, 0.5, 1.0 - 1e-16]) | st.floats(-0.1, 1.1)) * cap
    q = draw(st.sampled_from([0.0, 1.0, 1.1]) | _UNIT)
    return draw(st.sampled_from([0, 1, 100])), p, alpha, theta, q


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(point=bound_points(), noise=st.sampled_from(["erasure", "depolarizing"]))
def test_one_point_sweep_matches_bounds(tmp_path, point, noise):
    """A sweep row prints the strings of overhead_bound's report for the same
    point, and is out-of-domain exactly where overhead_bound raises."""
    l, p, alpha, theta, q = point
    out = tmp_path / "point.csv"
    # `--key=value` keeps argparse from reading a value like -1e-9 as a flag
    assert main(["sweep", f"--l={l}", f"--p={p!r}", f"--alpha={alpha!r}",
                 f"--theta={theta!r}", f"--noise={noise}", f"--grid=q:{q!r}:{q!r}:2", f"--out={out}"]) == 0
    row, twin = _read_sweep(out)
    assert row == twin
    try:
        report = asdict(overhead_bound(l, p, alpha, theta, noise=Noise(noise), q=q))
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


def _least_crossing(p: float, alpha: float, beta: float, T: int) -> bool:
    """T is the first epoch whose mean-field iterate, at half the room,
    exceeds beta."""
    delta = 0.5 * (p - alpha / (1.0 - beta))
    return mf_iterate(1.0, p, alpha, delta, T) > beta >= mf_iterate(1.0, p, alpha, delta, T - 1)


def test_crossings_above_2_to_53_are_the_least_in_every_command(tmp_path):
    """At p = 1e-16, alpha = 5.5e-17 the iterates cross beta = 0.35 near
    2.18e16. bounds, sweep and meanfield each print the first epoch whose
    iterate passes the target."""
    point = ["--p", "1e-16", "--alpha", "5.5e-17"]
    assert main(["bounds", "--l", "100", *point, "--theta", "0.1",
                 "--out", str(tmp_path / "bounds.json")]) == 0
    report = json.loads((tmp_path / "bounds.json").read_text())["report"]
    T = report["crossing_epochs"]
    assert T > 2**53 and _least_crossing(1e-16, 5.5e-17, report["residual_rate"], T)
    assert main(["sweep", "--l", "100", *point, "--theta", "0.1", "--grid", "q:0:0.1:2",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    rows = _read_sweep(tmp_path / "sweep.csv")
    assert [(row["status"], row["crossing_epochs"]) for row in rows] == [("ok", str(T))] * 2
    assert main(["meanfield", *point, "--beta", "0.35",
                 "--out", str(tmp_path / "meanfield.json")]) == 0
    doc = json.loads((tmp_path / "meanfield.json").read_text())
    assert _least_crossing(1e-16, 5.5e-17, 0.35, doc["T"])


def test_meanfield_csv_longer_than_the_cap_is_refused(tmp_path, capsys):
    """T = 7257472520428883 here: one CSV row per epoch would never fit, so
    the run exits 1, names T and points to JSON, which still answers."""
    point = ["meanfield", "--p", "3e-16", "--alpha", "1.65e-16", "--beta", "0.35"]
    out = tmp_path / "meanfield.csv"
    assert main([*point, "--format", "csv", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "T=7257472520428883" in err and "--format json" in err
    assert not out.exists()
    assert main([*point, "--format", "json", "--out", str(tmp_path / "meanfield.json")]) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--n-traj", "10"],
    ["exact"],
], ids=["simulate", "exact"])
def test_curve_longer_than_the_cap_is_refused(tmp_path, capsys, argv, fmt):
    """Both formats hold t_max + 1 rows; at t_max = 10^12 the run exits 1,
    names t_max and writes nothing, before it allocates a row."""
    out = tmp_path / f"curve.{fmt}"
    assert main([*argv, "--n", "10", "--p", "0.2", "--alpha", "0.1", "--beta", "0.5",
                 "--t-max", str(10**12), "--format", fmt, "--out", str(out)]) == 1
    assert f"t_max + 1 = {10**12 + 1} rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, key", [
    (["--theta", "0.1", "--q", "nan", "--format", "json"], "q"),
    (["--theta", "inf"], "theta"),
])
def test_documents_refuse_non_finite_keys(tmp_path, capsys, flags, key):
    """A JSON document, or the JSON config head of a CSV, has no token for
    NaN or infinity, so such a key is refused and nothing is written."""
    out = tmp_path / "sweep.out"
    assert main(["sweep", "--l", "100", "--p", "0.2", "--alpha", "0.12", *flags,
                 "--grid", "l:100:200:2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config key '{key}' is ")
    assert not out.exists()


def test_crossing_epochs_stay_exact_above_2_to_53(tmp_path):
    """A count above 2^53 is printed as the exact integer; through a float
    it would end in ...692."""
    T = 13664866374051691
    assert overhead_bound(100, 3e-16, 2.1e-16, 0.01).crossing_epochs == T
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--l", "100", "--p", "3e-16", "--alpha", "2.1e-16",
                 "--theta", "0.01", "--grid", "q:0:0.1:2", "--out", str(out)]) == 0
    assert [row["crossing_epochs"] for row in _read_sweep(out)] == [str(T)] * 2
    assert main(["sweep", "--l", "100", "--p", "3e-16", "--alpha", "2.1e-16",
                 "--theta", "0.01", "--grid", "q:0:0.1:2", "--format", "json",
                 "--out", str(out)]) == 0
    assert [row["crossing_epochs"] for row in json.loads(out.read_text())["rows"]] == [T] * 2


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
    fine = Check(0, "always fine", lambda: (True, "all good"), {}, {})
    assert _run_verify(config, checks=(fine,)) == 0
    assert "[verify] always fine: ok" in capsys.readouterr().out
    broken = Check(0, "always broken", lambda seed: (seed != 7, "nope"), {}, {"seed": 1})
    assert _run_verify(config, checks=(fine, broken)) == 0
    assert _run_verify(replace(config, master_seed=7), checks=(fine, broken)) == 2
    assert "always broken: FAIL" in capsys.readouterr().out


def test_verify_runs_the_shared_checks(capsys):
    """verify passes with one line per row, in table order. The rows cover
    criteria 1-10 once each, counting criterion 8, which the acceptance
    suite runs through the CLI; names are unique; each row sets arguments
    at both sizes, and verify takes any seed from --master-seed."""
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (", 1)[0] for line in lines] == [
        *(f"[verify] {row.name}: ok" for row in CHECKS),
        f"[verify] all {len(CHECKS)} checks passed"]
    assert sorted([row.criterion for row in CHECKS] + [8]) == list(range(1, 11))
    assert len({row.name for row in CHECKS}) == len(CHECKS)
    for row in CHECKS:
        assert row.verify and row.acceptance
        assert set(row.acceptance) - {"seed"} <= set(row.verify)


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


def test_a_failed_write_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "D"
    target.mkdir()
    before = sorted(os.listdir(tmp_path))
    assert main(["meanfield", "--p", "0.2", "--alpha", "0.05", "--beta", "0.5",
                 "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(f"'{target}'")
    assert ".tmp-" not in err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", [
    "simulate --p 0.2 --alpha 0.1 --beta 0.5 --n-traj 10 --t-max 3",
    "exact --p 0.2 --alpha 0.1 --t-max 3",
    "couple --p 0.2 --alpha 0.1 --q-low 0.01 --q-high 0.05 --n-traj 10 --t-max 3",
])
def test_n_beyond_int64_exits_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([*command.split(), "--n", str(2**63), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: n must be below 2^63, got {2**63}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "bounds --p 0.2 --alpha 0.15 --theta 0.05",
    "sweep --p 0.2 --alpha 0.15 --grid theta:0.01:0.1:3",
])
@pytest.mark.parametrize("l", [10**400, 2**63])
def test_l_beyond_int64_exits_1(tmp_path, capsys, command, l):
    """An l too large for int64, or for a float, is refused with an error
    line rather than overflowing when the bound converts it."""
    out = tmp_path / "out"
    assert main([*command.split(), "--l", str(l), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: l must be below 2^63, got {l}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "bounds --p 0.2 --alpha 0.15 --theta 0.05",
    "sweep --p 0.2 --alpha 0.15 --grid theta:0.01:0.1:3",
])
def test_l_just_below_int64_runs(tmp_path, command):
    out = tmp_path / "out"
    assert main([*command.split(), "--l", str(2**63 - 1), "--out", str(out)]) == 0
    assert out.exists()
