"""Command line front end.

Commands: simulate (Monte Carlo exceedance curve), exact (banded kernel
evolution), meanfield (crossing epochs and iterates), bounds (overhead
report), couple (two-rate dominance check), sweep (bounds over a
parameter grid) and verify (the cross-checks of `qecbatch.checks` on
small grids).

Parameters come from an optional key=value config file plus flags;
flags win. Each key is described once, by its ExperimentConfig field:
the field's metadata holds the help text and the commands that take the
key as a flag, and its annotated type (int, float or str) picks the
parser unless the metadata names one. Unknown config keys are hard
errors. Results are written atomically (temp file then rename) as CSV
or JSON, both carrying the fully resolved configuration, and every
emitted JSON config re-parses to the same ExperimentConfig. Exit codes:
0 success (impossibility verdicts included), 1 usage or parameter
error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import checks as checks_mod
from . import exact as exact_mod
from . import meanfield as mf_mod
from . import montecarlo as mc_mod
from .chain import ModelParams, Noise

__all__ = ["GridAxis", "ExperimentConfig", "parse_config", "config_from_mapping", "run", "main"]

OUT_DIR_ENV = "QECBATCH_OUT_DIR"

COMMANDS = ("simulate", "exact", "meanfield", "bounds", "couple", "sweep", "verify")

_SWEEPABLE = ("l", "p", "alpha", "theta", "q")

# Largest grid `sweep` evaluates. Peak memory grows by about 0.75 kB per
# point (75 MiB for a 10^5-point CSV sweep), so the cap is near 0.8 GB.
SWEEP_POINT_CAP = 10**6


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


@dataclass(frozen=True)
class GridAxis:
    """One sweep axis: `steps` evenly spaced values from start to stop."""

    name: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.name not in _SWEEPABLE:
            raise ValueError(
                f"grid axis '{self.name}' is not sweepable; choose from {', '.join(_SWEEPABLE)}"
            )
        if self.steps < 2:
            raise ValueError(f"grid axis '{self.name}' needs steps >= 2, got {self.steps}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    @classmethod
    def parse(cls, token: str) -> "GridAxis":
        parts = token.split(":")
        if len(parts) != 4:
            raise ValueError(
                f"grid axis '{token}' must look like name:start:stop:steps"
            )
        name, start, stop, steps = parts
        try:
            ends = float(start), float(stop)
        except ValueError:
            raise ValueError(f"grid axis '{token}' needs numeric start and stop") from None
        try:
            count = int(steps)
        except ValueError:
            raise ValueError(f"grid axis '{token}' needs an integer step count") from None
        return cls(name=name, start=ends[0], stop=ends[1], steps=count)

    def token(self) -> str:
        return f"{self.name}:{self.start!r}:{self.stop!r}:{self.steps}"


def _parser(kind: type, noun: str):
    def parse(key: str, raw: object):
        try:
            return kind(str(raw))
        except ValueError:
            raise ValueError(f"config key '{key}' needs {noun}, got '{raw}'") from None
    return parse


# Parsers for keys annotated `T` or `T | None`, by T.
_TYPE_PARSERS = {
    "int": _parser(int, "an integer"),
    "float": _parser(float, "a number"),
    "str": _parser(str, "text"),
}

THETA_LIMIT_PRESET = 1e-6


def _parse_theta(key: str, raw: object) -> float:
    if isinstance(raw, str) and raw.strip().lower() == "limit":
        print(
            f"note: theta=limit evaluates the bound at the finite slack "
            f"theta={THETA_LIMIT_PRESET:g}, not at the theta -> 0 limit itself",
            file=sys.stderr,
        )
        return THETA_LIMIT_PRESET
    return _TYPE_PARSERS["float"](key, raw)


def _parse_grid(key: str, raw: object) -> tuple[GridAxis, ...]:
    if isinstance(raw, (list, tuple)):
        tokens: list[str] = []
        for item in raw:
            tokens.extend(str(item).split())
    else:
        tokens = str(raw).split()
    return tuple(GridAxis.parse(token) for token in tokens)


def _key(help: str, commands: str, default: object = None, **extra: object):
    """A config key: its help text and the commands that take it as a flag.

    `extra` may name a `parse` function (default: by annotated type), a
    `metavar` (default: the type in capitals), an argparse `action` and the
    `choices` a value must be one of.
    """
    metadata = {"help": help, "commands": commands.split(), **extra}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved inputs for one CLI run.

    Every field after `command` is a config key; `--help` lists each
    command's flags in field order.
    """

    command: str
    n: int | None = _key("memory size in qubits", "simulate exact couple")
    l: int | None = _key("logical qubits to store", "bounds sweep")
    p: float | None = _key("per-batch decoherence probability",
                           "simulate exact meanfield bounds couple sweep")
    alpha: float | None = _key("correction budget fraction",
                               "simulate exact meanfield bounds couple sweep")
    theta: float | None = _key("slack below the steady fraction ('limit' = 1e-6 preset)",
                               "bounds sweep", parse=_parse_theta)
    q: float = _key("static-phase decoherence probability", "simulate exact bounds sweep", 0.0)
    q_period: int = _key("correction epochs per static phase", "simulate exact couple", 1)
    noise: str = _key("erasure or depolarizing", "simulate exact bounds sweep", "erasure",
                      choices=("erasure", "depolarizing"))
    capacity: str = _key("depolarizing capacity mode: hashing or hashing-cutoff",
                         "bounds sweep", "hashing", choices=("hashing", "hashing-cutoff"))
    kappa: float | None = _key("decoherence rate (pairs with --t-g)", "bounds")
    t_g: float | None = _key("duration of one correction batch", "bounds")
    beta: float | None = _key("target error fraction", "simulate exact meanfield")
    delta: float | None = _key("mean-field slack override", "meanfield")
    q_low: float | None = _key("static rate of the coupled low-noise memory", "couple")
    q_high: float | None = _key("static rate of the coupled high-noise memory", "couple")
    n_traj: int | None = _key("number of trajectories", "simulate couple")
    t_max: int | None = _key("number of correction epochs", "simulate exact couple")
    master_seed: int = _key("seed for all randomness", "simulate couple verify", 20260817)
    threads: int = _key("worker count hint (results do not depend on it)", "simulate", 1)
    out: str | None = _key("output file path", "simulate exact meanfield bounds couple sweep",
                           metavar="PATH")
    format: str | None = _key("csv or json", "simulate exact meanfield couple sweep",
                              choices=("csv", "json"))
    grid: tuple[GridAxis, ...] = _key(
        "sweep axis, repeatable; names from " + ", ".join(_SWEEPABLE), "sweep", (),
        parse=_parse_grid, metavar="NAME:START:STOP:STEPS", action="append",
    )

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command '{self.command}'")
        for f in fields(self):
            value, choices = getattr(self, f.name), f.metadata.get("choices")
            if choices and value is not None and value not in choices:
                raise ValueError(f"{f.name} must be one of {', '.join(choices)}, got '{value}'")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")

    def to_mapping(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "grid":
                if value:
                    out["grid"] = [axis.token() for axis in value]
                continue
            out[f.name] = value
        return out

    def noise_kind(self) -> Noise:
        return Noise(self.noise)


_KEYS = {f.name: f for f in fields(ExperimentConfig) if f.metadata}


def _type_name(key: str) -> str:
    """The annotated type of a key without its `| None`: int, float or str."""
    return _KEYS[key].type.removesuffix(" | None")


def _parse_key(key: str, raw: object, where: str = "") -> object:
    if key not in _KEYS:
        raise ValueError(f"unknown config key '{key}'{where}")
    parse = _KEYS[key].metadata.get("parse") or _TYPE_PARSERS[_type_name(key)]
    return parse(key, raw)


def parse_config(
    command: str,
    text: str | None = None,
    overrides: Mapping[str, object] | None = None,
) -> ExperimentConfig:
    """Build an ExperimentConfig from config-file text plus overrides.

    The file holds `key = value` lines ('#' starts a comment); flag
    overrides win over the file. Any key outside the schema is a hard
    error naming the offender.
    """
    merged: dict[str, object] = {}
    if text is not None:
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"config line {lineno} is not key = value: '{line.strip()}'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            merged[key] = _parse_key(key, raw, f" (line {lineno})")
    for key, raw in (overrides or {}).items():
        merged[key] = _parse_key(key, raw)
    return ExperimentConfig(command=command, **merged)


def config_from_mapping(mapping: Mapping[str, object]) -> ExperimentConfig:
    """Rebuild a config from an emitted JSON `config` section."""
    data = dict(mapping)
    if "command" not in data:
        raise ValueError("config mapping is missing 'command'")
    return parse_config(str(data.pop("command")), overrides=data)


def _require(config: ExperimentConfig, *names: str) -> None:
    missing = [name for name in names if getattr(config, name) is None]
    if missing:
        raise UsageError(
            f"command '{config.command}' needs {', '.join('--' + m.replace('_', '-') for m in missing)}"
        )


def _reject_unused(config: ExperimentConfig, names: Iterable[str], target: str) -> None:
    """Refuse keys the run fixes itself: a given value would be recorded but unused."""
    for name in names:
        if getattr(config, name) != _KEYS[name].default:
            raise UsageError(f"--{name} does not apply to {target}")


def _capacity(config: ExperimentConfig) -> bounds_mod.CapacityKind | None:
    """The --capacity mode; None under erasure noise, which fixes its own capacity."""
    if config.noise_kind() is Noise.ERASURE:
        _reject_unused(config, ("capacity",), "erasure noise")
        return None
    return bounds_mod.CapacityKind(config.capacity)


def _model_params(config: ExperimentConfig) -> ModelParams:
    return ModelParams(
        n=config.n,
        p=config.p,
        alpha=config.alpha,
        q=config.q,
        q_period=config.q_period,
        noise=config.noise_kind(),
    )


def _out_path(config: ExperimentConfig, default_name: str) -> Path:
    if config.out is not None:
        return Path(config.out)
    base = Path(os.environ.get(OUT_DIR_ENV, "."))
    return base / default_name


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _config_json(config: ExperimentConfig) -> str:
    return json.dumps(config.to_mapping(), sort_keys=True)


def _encode(value: object) -> object:
    """json.dumps hook for result records: an Enum as its value, a dataclass as
    a dict. asdict raises the TypeError json.dumps expects for anything else."""
    return value.value if isinstance(value, Enum) else asdict(value)


def _write_json(path: Path, config: ExperimentConfig, schema: str, payload: dict) -> None:
    doc = {"schema": schema, "config": config.to_mapping()}
    doc.update(payload)
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True, default=_encode) + "\n")


def _csv_lines(rows: Iterable[Sequence[object]]) -> Iterator[str]:
    """CSV lines from rows of cells; None is an empty cell, anything else is str(cell)."""
    for row in rows:
        yield ",".join("" if cell is None else str(cell) for cell in row)


def _write_csv(
    path: Path, config: ExperimentConfig, schema: str, header: Sequence[str],
    lines: Iterable[str],
) -> None:
    head = [f"# schema={schema}", f"# config={_config_json(config)}", ",".join(header)]
    _write_atomic(path, "\n".join([*head, *lines]) + "\n")


def _fmt(config: ExperimentConfig, default: str) -> str:
    return config.format or default


def _threshold(config: ExperimentConfig) -> float:
    """The error-count threshold n * beta of simulate and exact."""
    if not 0.0 <= config.beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {config.beta}")
    return config.n * config.beta


def _run_simulate(config: ExperimentConfig) -> int:
    _require(config, "n", "p", "alpha", "beta", "n_traj", "t_max")
    threshold = _threshold(config)
    spec = mc_mod.TrajectoryBatch(
        params=_model_params(config), n_traj=config.n_traj, t_max=config.t_max,
        master_seed=config.master_seed,
    )
    est = mc_mod.run_batch(spec, threshold, n_workers=config.threads)
    fmt = _fmt(config, "csv")
    path = _out_path(config, f"simulate.{fmt}")
    if fmt == "csv":
        rows = [
            (t, repr(float(est.p_hat_by_t[t])), repr(float(est.ci_halfwidth_by_t[t])))
            for t in range(config.t_max + 1)
        ]
        _write_csv(path, config, "qecbatch.simulate.v1", ("t", "p_hat", "ci_halfwidth"),
                   _csv_lines(rows))
    else:
        _write_json(path, config, "qecbatch.simulate.v1", {
            "threshold": threshold,
            "t": list(range(config.t_max + 1)),
            "p_hat": est.p_hat_by_t.tolist(),
            "ci_halfwidth": est.ci_halfwidth_by_t.tolist(),
            "median_tau": None if math.isinf(est.median_tau()) else est.median_tau(),
        })
    final = est.p_hat_by_t[-1]
    print(f"simulate: P[X > {threshold:g}] at t={config.t_max} is {final:.4f} "
          f"({config.n_traj} trajectories); wrote {path}")
    return 0


def _run_exact(config: ExperimentConfig) -> int:
    _require(config, "n", "p", "alpha", "t_max")
    threshold = None if config.beta is None else _threshold(config)
    kernel = exact_mod.build_kernel(_model_params(config))
    curve = []
    for dist in exact_mod.epochs(kernel, exact_mod.StateDistribution.point_mass(config.n),
                                 config.t_max):
        if threshold is not None:
            curve.append(exact_mod.tail_prob(dist, threshold))
    fmt = _fmt(config, "csv")
    path = _out_path(config, f"exact.{fmt}")
    if threshold is not None:
        if fmt == "csv":
            rows = [(t, repr(v)) for t, v in enumerate(curve)]
            _write_csv(path, config, "qecbatch.exact-tail.v1", ("t", "tail_prob"),
                       _csv_lines(rows))
        else:
            _write_json(path, config, "qecbatch.exact-tail.v1", {
                "threshold": threshold,
                "t": list(range(config.t_max + 1)),
                "tail_prob": curve,
                "mean_final": dist.mean(),
                "error_bound": dist.err,
            })
        print(f"exact: P[X > {threshold:g}] at t={config.t_max} is {curve[-1]:.6g}; wrote {path}")
    else:
        if fmt == "csv":
            rows = [(x, repr(float(dist.mass[x]))) for x in range(dist.n + 1)]
            _write_csv(path, config, "qecbatch.exact-dist.v1", ("state", "probability"),
                       _csv_lines(rows))
        else:
            _write_json(path, config, "qecbatch.exact-dist.v1", {
                "t": dist.t,
                "mass": dist.mass.tolist(),
                "mean": dist.mean(),
                "error_bound": dist.err,
            })
        print(f"exact: mean error count at t={config.t_max} is {dist.mean():.4f}; wrote {path}")
    return 0


def _run_meanfield(config: ExperimentConfig) -> int:
    _require(config, "p", "alpha", "beta")
    crossing = mf_mod.epochs_to_cross(config.p, config.alpha, config.beta, config.delta)
    fmt = _fmt(config, "json")
    path = _out_path(config, f"meanfield.{fmt}")
    if fmt == "csv":
        iterates = mf_mod.mf_iterate(1.0, config.p, config.alpha, crossing.delta,
                                     np.arange(crossing.T + 1))
        rows = [(k, repr(x)) for k, x in enumerate(iterates.tolist())]
        _write_csv(path, config, "qecbatch.meanfield.v1", ("k", "x_k"), _csv_lines(rows))
    else:
        _write_json(path, config, "qecbatch.meanfield.v1", {
            "T": crossing.T,
            "delta": crossing.delta,
            "fixed_point_fraction": mf_mod._fixed_point(1.0, config.p - crossing.delta,
                                                         config.alpha),
            "steady_fraction": (config.p - config.alpha) / config.p,
        })
    print(f"meanfield: crossing epoch T={crossing.T} at delta={crossing.delta:.6g}; wrote {path}")
    return 0


def _run_bounds(config: ExperimentConfig) -> int:
    if config.kappa is not None or config.t_g is not None:
        return _run_kappa_surface(config)
    _require(config, "l", "p", "alpha", "theta")
    report = bounds_mod.overhead_bound(
        l=config.l, p=config.p, alpha=config.alpha, theta=config.theta,
        noise=config.noise_kind(), q=config.q, capacity=_capacity(config),
    )
    path = _out_path(config, "bounds.json")
    _write_json(path, config, "qecbatch.bounds.v1", {"report": report})
    if report.feasible:
        print(f"bounds: n_min={report.n_min:.6g} (overhead {report.overhead_lb:.4f}, "
              f"crossing epochs {report.crossing_epochs}); wrote {path}")
    else:
        print(f"bounds: impossible, {report.verdict.reason}; wrote {path}")
    return 0


def _run_kappa_surface(config: ExperimentConfig) -> int:
    if config.p is not None:
        raise UsageError("give either --p or the pair --kappa/--t-g, not both")
    _reject_unused(config, ("l", "theta", "q", "capacity"), "the --kappa/--t-g surface")
    _require(config, "kappa", "t_g", "alpha")
    surface = bounds_mod.kappa_surface(config.kappa, config.t_g, config.noise_kind())
    overhead = surface.overhead(config.alpha)
    try:
        check = surface.small_budget_check(config.alpha)
    except ValueError:  # the kappa*t_g << 1 form does not apply at this point
        check = None
    payload = {
        "p": surface.p,
        "alpha_min": surface.alpha_min,
        "overhead": overhead,
        "small_budget_check": check,
    }
    path = _out_path(config, "bounds.json")
    _write_json(path, config, "qecbatch.kappa-surface.v1", payload)
    if isinstance(overhead, bounds_mod.Impossibility):
        print(f"bounds: impossible, {overhead.reason}; wrote {path}")
    else:
        print(f"bounds: overhead {overhead:.6g} at alpha={config.alpha:g} "
              f"(p={surface.p:.6g}, alpha_min={surface.alpha_min:.6g}); wrote {path}")
    return 0


def _run_couple(config: ExperimentConfig) -> int:
    _require(config, "n", "p", "alpha", "q_low", "q_high", "n_traj", "t_max")
    params = _model_params(config)
    report = mc_mod.run_coupled(
        params=params, q_low=config.q_low, q_high=config.q_high,
        n_traj=config.n_traj, t_max=config.t_max, master_seed=config.master_seed,
    )
    fmt = _fmt(config, "json")
    path = _out_path(config, f"couple.{fmt}")
    if fmt == "csv":
        summary = asdict(report)
        row = tuple(repr(v) if isinstance(v, float) else v for v in summary.values())
        _write_csv(path, config, "qecbatch.couple.v1", tuple(summary), _csv_lines([row]))
    else:
        _write_json(path, config, "qecbatch.couple.v1", {"report": report})
    print(f"couple: inclusion holds on {report.inclusion_fraction:.4%} of "
          f"{report.pairs_checked} pairs, faithfulness p-value "
          f"{report.pit_chi2_pvalue}; wrote {path}")
    return 0


_SWEEP_COLUMNS = _SWEEPABLE + (
    "noise", "capacity_mode", "status",
    "n_min", "overhead_lb", "crossing_epochs", "alpha_threshold",
    "noise_threshold", "residual_rate", "crossover_alpha", "baseline_full_parallel",
)


def _cells(
    values: object, shown: np.ndarray, convert: Callable[[object], object], missing: object,
) -> np.ndarray:
    """One sweep column: convert(v) in the rows `shown` selects, `missing` elsewhere.

    `values` is one scalar for the whole column or an array with a value
    per point. convert runs once per distinct value (distinct as bits, so
    -0.0 and 0.0 stay apart), on the value as a Python scalar.
    """
    cells = np.full(shown.shape, missing, dtype=object)
    if np.ndim(values) == 0:
        cells[shown] = convert(values)
        return cells
    picked = values[shown]
    keys = picked.view(np.uint64) if picked.dtype == np.float64 else picked
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    cells[shown] = np.array([convert(v) for v in picked[first].tolist()], dtype=object)[inverse]
    return cells


def _run_sweep(config: ExperimentConfig) -> int:
    if not config.grid:
        raise UsageError("sweep needs at least one --grid axis (name:start:stop:steps)")
    axes = config.grid
    names = [axis.name for axis in axes]
    if len(set(names)) != len(names):
        raise UsageError("sweep grid axes must have distinct names")
    _require(config, *(name for name in ("l", "p", "alpha", "theta") if name not in names))
    count = math.prod(axis.steps for axis in axes)
    if count > SWEEP_POINT_CAP:
        raise UsageError(
            f"sweep grid has {count} points, more than the {SWEEP_POINT_CAP} allowed"
        )
    point: dict[str, object] = {name: getattr(config, name) for name in _SWEEPABLE}
    meshes = np.meshgrid(*[axis.values() for axis in axes], indexing="ij")
    point.update((name, mesh.ravel()) for name, mesh in zip(names, meshes))
    if "l" in names:
        fractional = np.flatnonzero(np.mod(point["l"], 1.0) != 0.0)
        if fractional.size:
            raise UsageError(
                f"sweep grid point l={float(point['l'][fractional[0]])!r} is not an integer"
            )
    columns = bounds_mod.overhead_columns(
        **{name: point[name] for name in _SWEEPABLE}, noise=config.noise_kind(),
        capacity=_capacity(config),
    )
    inside = ~columns.out_of_domain
    everywhere = np.ones(count, dtype=bool)
    # each column's values and the rows that show them; the other rows are empty
    table = {name: (point[name], everywhere) for name in _SWEEPABLE}
    table.update(
        noise=(config.noise, everywhere),
        capacity_mode=(np.where(inside, columns.capacity.value, ""), everywhere),
        status=(np.where(columns.out_of_domain, "out-of-domain",
                         np.where(columns.feasible, "ok", "impossible")), everywhere),
        baseline_full_parallel=(columns.baseline_full_parallel,
                                inside & ~np.isnan(columns.baseline_full_parallel)),
    )
    for name in ("n_min", "overhead_lb", "crossing_epochs"):
        table[name] = (getattr(columns, name), columns.feasible)
    for name in ("alpha_threshold", "noise_threshold", "residual_rate", "crossover_alpha"):
        table[name] = (getattr(columns, name), inside)
    fmt = _fmt(config, "csv")
    # CSV cells are text, JSON cells Python values; l is an integer in both
    if fmt == "csv":
        convert, convert_l, missing = str, (lambda v: str(int(v))), ""
    else:
        convert, convert_l, missing = (lambda v: v), int, None
    cells = [_cells(*table[name], convert_l if name == "l" else convert, missing)
             for name in _SWEEP_COLUMNS]
    path = _out_path(config, f"sweep.{fmt}")
    if fmt == "csv":
        _write_csv(path, config, "qecbatch.sweep.v1", _SWEEP_COLUMNS,
                   map(",".join, zip(*cells)))
    else:
        _write_json(path, config, "qecbatch.sweep.v1", {
            "rows": [dict(zip(_SWEEP_COLUMNS, row)) for row in zip(*cells)],
        })
    feasible = int(np.count_nonzero(columns.feasible))
    print(f"sweep: {count} grid points, {feasible} with finite bounds; wrote {path}")
    return 0


def _run_verify(config: ExperimentConfig, checks=checks_mod.VERIFY) -> int:
    failures = 0
    for name, check in checks:
        ok, detail = check(config.master_seed)
        print(f"[verify] {name}: {'ok' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures += 1
    if failures:
        print(f"[verify] {failures} of {len(checks)} checks failed")
        return 2
    print(f"[verify] all {len(checks)} checks passed")
    return 0


_RUNNERS = {
    "simulate": _run_simulate,
    "exact": _run_exact,
    "meanfield": _run_meanfield,
    "bounds": _run_bounds,
    "couple": _run_couple,
    "sweep": _run_sweep,
    "verify": _run_verify,
}


def run(config: ExperimentConfig) -> int:
    """Execute one fully resolved configuration; returns the exit code."""
    return _RUNNERS[config.command](config)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)

    def _parse_optional(self, arg_string: str):
        """argparse hook: a token that parses as a float (-1e-9 and -inf
        included) is a value, never a flag."""
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and kept for the process."""
    parser = _Parser(prog="qecbatch", description=__doc__.split("\n\n")[0])
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command in COMMANDS:
        sub = subparsers.add_parser(command)
        sub.add_argument("--config", type=str, default=None,
                         help="key = value config file; flags override it")
        for key, f in _KEYS.items():
            if command in f.metadata["commands"]:
                sub.add_argument(f"--{key.replace('_', '-')}", dest=key, type=str,
                                 default=None, action=f.metadata.get("action", "store"),
                                 metavar=f.metadata.get("metavar") or _type_name(key).upper(),
                                 help=f.metadata["help"])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text = None
        if args.config is not None:
            text = Path(args.config).read_text()
        overrides = {
            key: value
            for key, value in vars(args).items()
            if key not in ("command", "config") and value is not None
        }
        config = parse_config(args.command, text=text, overrides=overrides)
        return run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
