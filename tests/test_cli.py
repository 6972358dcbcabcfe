import json
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecbatch.cli import (
    COMMANDS,
    ExperimentConfig,
    GridAxis,
    UsageError,
    config_from_mapping,
    main,
    parse_config,
    _run_verify,
)

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
    rebuilt = config_from_mapping(doc["config"])
    assert rebuilt.l == 100 and rebuilt.command == "bounds"


def test_bounds_impossible_still_exits_zero(tmp_path, monkeypatch):
    monkeypatch.setenv("QECBATCH_OUT_DIR", str(tmp_path))
    assert main(["bounds", "--l", "100", "--p", "0.2", "--alpha", "0.05",
                 "--theta", "0.1"]) == 0
    doc = json.loads((tmp_path / "bounds.json").read_text())
    assert doc["report"]["feasible"] is False
    assert doc["report"]["verdict"]["impossible"] is True


def test_bounds_kappa_surface(tmp_path):
    out = tmp_path / "surface.json"
    code = main(["bounds", "--kappa", "10", "--t-g", "0.0001",
                 "--alpha", "0.01", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "qecbatch.kappa-surface.v1"
    assert doc["overhead"] == pytest.approx(0.052603888076110196, rel=1e-9)
    assert doc["small_budget_check"]["rel_error"] < 0.01


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


def test_sweep_json_and_axis_errors(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--l", "100", "--p", "0.2", "--alpha", "0.12",
                 "--theta", "0.1", "--grid", "l:50:100:2",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [row["l"] for row in doc["rows"]] == [50, 100]
    assert main(["sweep", "--l", "100", "--p", "0.2", "--alpha", "0.12",
                 "--theta", "0.1", "--grid", "p:0.1:0.2:2",
                 "--grid", "p:0.3:0.4:2"]) == 1


def test_sweep_rejects_non_integer_l(tmp_path, capsys):
    base = ["sweep", "--l", "100", "--p", "0.2", "--alpha", "0.12", "--theta", "0.1",
            "--format", "json"]
    out = tmp_path / "sweep.json"
    assert main([*base, "--grid", "l:1:4:3", "--out", str(out)]) == 1
    assert "l=2.5" in capsys.readouterr().err
    assert not out.exists()
    assert main([*base, "--grid", "l:1:4:4", "--out", str(out)]) == 0
    assert [row["l"] for row in json.loads(out.read_text())["rows"]] == [1, 2, 3, 4]


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
