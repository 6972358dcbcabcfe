"""Command line front end.

Commands: simulate (Monte Carlo exceedance curve), exact (banded kernel
evolution), meanfield (crossing epochs and iterates), bounds (overhead
report), couple (two-rate dominance check), sweep (bounds over a
parameter grid) and verify (every row of the cross-check table
`qecbatch.checks.CHECKS` at verify size, under --master-seed).

Parameters come from an optional key=value config file plus flags;
flags win. Each key is described once, by its ExperimentConfig field:
the field's metadata holds the help text and the commands that take the
key as a flag, and its annotated type (int, float or str) picks the
parser unless the metadata names one. Unknown config keys are hard
errors. Results are written atomically (temp file then rename) as CSV
or JSON, both carrying the keys the run read, and every emitted JSON
config re-parses to the same ExperimentConfig. Any other key, from a
flag, a config file or a document, must hold its default. Exit codes:
0 success (impossibility verdicts included), 1 usage or parameter
error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import checks as checks_mod
from . import exact as exact_mod
from . import meanfield as mf_mod
from . import montecarlo as mc_mod
from .chain import ModelParams, Noise, check_fraction, check_integer, check_seed

__all__ = ["GridAxis", "ExperimentConfig", "parse_config", "config_from_mapping", "run", "main"]

OUT_DIR_ENV = "QECBATCH_OUT_DIR"

COMMANDS = ("simulate", "exact", "meanfield", "bounds", "couple", "sweep", "verify")

_SWEEPABLE = ("l", "p", "alpha", "theta", "q")

# The most rows any document holds: the largest grid `sweep` evaluates, and
# the longest curve `simulate`, `exact --beta` or a `meanfield` CSV writes.
# A CSV sweep peaks about 0.24 kB per point above its import footprint
# (24 MiB at 10^5 points, 236 MiB at the cap), mostly the bound's columns;
# its rows are streamed, never held whole.
SWEEP_POINT_CAP = 10**6

# Lines per block that a document is written in, and grid points per chunk
# of sweep rows formatted together.
_CHUNK = 4096


class UsageError(ValueError):
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
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"grid axis '{self.name}' needs finite start and stop, "
                             f"got {self.start} and {self.stop}")

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
        return THETA_LIMIT_PRESET
    return _TYPE_PARSERS["float"](key, raw)


def _note_theta_preset(theta: float) -> None:
    """Tell a run that reads theta at the 'limit' preset what it evaluates."""
    if theta == THETA_LIMIT_PRESET:
        print(f"note: theta={THETA_LIMIT_PRESET:g} is the 'limit' preset, a finite slack; "
              f"the bound is evaluated there, not at the theta -> 0 limit itself",
              file=sys.stderr)


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
    noise: str = _key("erasure or depolarizing", "bounds sweep", "erasure",
                      choices=tuple(n.value for n in Noise))
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
        check_integer("threads", self.threads, least=1)
        check_seed("master_seed", self.master_seed)
        for name, what in _ignored(self):
            if getattr(self, name) != _KEYS[name].default:
                raise UsageError(f"--{name.replace('_', '-')} does not apply to {what}")

    def to_mapping(self) -> dict:
        """The command and each key the run reads, unless it is None."""
        ignored = {name for name, _ in _ignored(self)}
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and f.name not in ignored:
                out[f.name] = [axis.token() for axis in value] if f.name == "grid" else value
        return out


_KEYS = {f.name: f for f in fields(ExperimentConfig) if f.metadata}


def _ignored(config: ExperimentConfig) -> Iterator[tuple[str, str]]:
    """Each key the run does not read, with what ignores it."""
    for name, f in _KEYS.items():
        if config.command not in f.metadata["commands"]:
            yield name, f"command '{config.command}'"
    if config.command == "bounds" and (config.kappa is not None or config.t_g is not None):
        for name in ("p", "l", "theta", "q"):
            yield name, "the --kappa/--t-g surface"


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


def _model_params(config: ExperimentConfig) -> ModelParams:
    return ModelParams(
        n=config.n,
        p=config.p,
        alpha=config.alpha,
        q=config.q,
        q_period=config.q_period,
    )


class _Document(NamedTuple):
    """What a writing run computed: its schema, its summary line, and either
    the JSON payload or the CSV header and lines."""

    schema: str
    summary: str
    payload: dict | None = None
    header: Sequence[str] = ()
    lines: Iterable[str] = ()


def _write_atomic(path: Path, lines: Iterable[str]) -> None:
    """Write each line and a newline to a temp file beside path, _CHUNK lines
    per block, then rename it over path. On any error, from the lines or the
    disk, the temp file goes and path keeps what it held."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    lines = iter(lines)
    try:
        with tmp.open("w") as stream:
            while block := list(itertools.islice(lines, _CHUNK)):
                stream.write("\n".join(block) + "\n")
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name the user's path, not the temp file
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _encode(value: object) -> object:
    """json.dumps hook for result records: an Enum as its value, a dataclass as
    a dict. asdict raises the TypeError json.dumps expects for anything else."""
    return value.value if isinstance(value, Enum) else asdict(value)


def _csv_lines(rows: Iterable[Sequence[object]]) -> Iterator[str]:
    """CSV lines from rows of cells; None is an empty cell, anything else is str(cell)."""
    for row in rows:
        yield ",".join("" if cell is None else str(cell) for cell in row)


def _threshold(config: ExperimentConfig) -> float:
    """The error-count threshold n * beta of simulate and exact, whose
    curves hold t_max + 1 rows; refuses a curve longer than the cap."""
    check_fraction("beta", config.beta)
    if config.t_max >= SWEEP_POINT_CAP:
        raise UsageError(f"{config.command} curve would hold t_max + 1 = {config.t_max + 1} rows, "
                         f"more than the {SWEEP_POINT_CAP} allowed")
    return config.n * config.beta


def _run_simulate(config: ExperimentConfig, fmt: str) -> _Document:
    _require(config, "n", "p", "alpha", "beta", "n_traj", "t_max")
    threshold = _threshold(config)
    spec = mc_mod.TrajectoryBatch(
        params=_model_params(config), n_traj=config.n_traj, t_max=config.t_max,
        master_seed=config.master_seed,
    )
    est = mc_mod.run_batch(spec, threshold, n_workers=config.threads)
    summary = (f"simulate: P[X > {threshold:g}] at t={config.t_max} is "
               f"{est.p_hat_by_t[-1]:.4f} ({config.n_traj} trajectories)")
    curves = {"p_hat": est.p_hat_by_t.tolist(), "ci_low": est.ci_low_by_t.tolist(),
              "ci_high": est.ci_high_by_t.tolist()}
    if fmt == "csv":
        rows = ((t, *cells) for t, cells in enumerate(zip(*curves.values())))
        return _Document("qecbatch.simulate.v2", summary, header=("t", *curves),
                         lines=_csv_lines(rows))
    median_tau = est.median_tau()
    return _Document("qecbatch.simulate.v2", summary, {
        "threshold": threshold,
        "t": list(range(config.t_max + 1)),
        **curves,
        "median_tau": None if math.isinf(median_tau) else median_tau,
        "workers": est.workers,
    })


def _run_exact(config: ExperimentConfig, fmt: str) -> _Document:
    _require(config, "n", "p", "alpha", "t_max")
    threshold = None if config.beta is None else _threshold(config)
    kernel = exact_mod.build_kernel(_model_params(config))
    curve = []
    for dist in exact_mod.epochs(kernel, exact_mod.StateDistribution.point_mass(config.n),
                                 config.t_max):
        if threshold is not None:
            curve.append(exact_mod.tail_prob(dist, threshold))
    if threshold is not None:
        summary = f"exact: P[X > {threshold:g}] at t={config.t_max} is {curve[-1]:.6g}"
        if fmt == "csv":
            return _Document("qecbatch.exact-tail.v1", summary, header=("t", "tail_prob"),
                             lines=_csv_lines(enumerate(curve)))
        return _Document("qecbatch.exact-tail.v1", summary, {
            "threshold": threshold,
            "t": list(range(config.t_max + 1)),
            "tail_prob": curve,
            "mean_final": dist.mean(),
            "error_bound": dist.err,
        })
    summary = f"exact: mean error count at t={config.t_max} is {dist.mean():.4f}"
    if fmt == "csv":
        return _Document("qecbatch.exact-dist.v1", summary, header=("state", "probability"),
                         lines=_csv_lines(enumerate(dist.mass.tolist())))
    return _Document("qecbatch.exact-dist.v1", summary, {
        "t": dist.t,
        "mass": dist.mass.tolist(),
        "mean": dist.mean(),
        "error_bound": dist.err,
    })


def _run_meanfield(config: ExperimentConfig, fmt: str) -> _Document:
    _require(config, "p", "alpha", "beta")
    crossing = mf_mod.epochs_to_cross(config.p, config.alpha, config.beta, config.delta)
    summary = f"meanfield: crossing epoch T={crossing.T} at delta={crossing.delta:.6g}"
    if fmt == "csv":
        if crossing.T >= SWEEP_POINT_CAP:
            raise UsageError(f"meanfield CSV would hold T + 1 = {crossing.T + 1} rows for crossing "
                             f"epoch T={crossing.T}, more than the {SWEEP_POINT_CAP} allowed; "
                             f"use --format json")
        iterates = mf_mod.mf_iterate(1.0, config.p, config.alpha, crossing.delta,
                                     np.arange(crossing.T + 1))
        return _Document("qecbatch.meanfield.v1", summary, header=("k", "x_k"),
                         lines=_csv_lines(enumerate(iterates.tolist())))
    return _Document("qecbatch.meanfield.v1", summary, {
        "T": crossing.T,
        "delta": crossing.delta,
        "fixed_point_fraction": mf_mod._fixed_point(1.0, config.p - crossing.delta,
                                                     config.alpha),
        "steady_fraction": (config.p - config.alpha) / config.p,
    })


def _run_bounds(config: ExperimentConfig, fmt: str) -> _Document:
    if config.kappa is not None or config.t_g is not None:
        return _run_kappa_surface(config)
    _require(config, "l", "p", "alpha", "theta")
    report = bounds_mod.overhead_bound(
        l=config.l, p=config.p, alpha=config.alpha, theta=config.theta,
        noise=Noise(config.noise), q=config.q,
    )
    _note_theta_preset(config.theta)
    if report.feasible:
        summary = (f"bounds: n_min={report.n_min:.6g} (overhead {report.overhead_lb:.4f}, "
                   f"crossing epochs {report.crossing_epochs})")
    else:
        summary = f"bounds: impossible, {report.verdict.reason}"
    return _Document("qecbatch.bounds.v1", summary, {"report": report})


def _run_kappa_surface(config: ExperimentConfig) -> _Document:
    _require(config, "kappa", "t_g", "alpha")
    surface = bounds_mod.kappa_surface(config.kappa, config.t_g, config.alpha,
                                       Noise(config.noise))
    if isinstance(surface.overhead, bounds_mod.Impossibility):
        summary = f"bounds: impossible, {surface.overhead.reason}"
    else:
        summary = (f"bounds: overhead {surface.overhead:.6g} at alpha={config.alpha:g} "
                   f"(p={surface.p:.6g}, alpha_min={surface.alpha_min:.6g})")
    return _Document("qecbatch.kappa-surface.v1", summary, asdict(surface))


def _run_couple(config: ExperimentConfig, fmt: str) -> _Document:
    _require(config, "n", "p", "alpha", "q_low", "q_high", "n_traj", "t_max")
    report = mc_mod.run_coupled(
        params=_model_params(config), q_low=config.q_low, q_high=config.q_high,
        n_traj=config.n_traj, t_max=config.t_max, master_seed=config.master_seed,
    )
    summary = (f"couple: inclusion holds on {report.inclusion_fraction:.4%} of "
               f"{report.pairs_checked} pairs, faithfulness p-value {report.pit_chi2_pvalue}")
    if fmt == "csv":
        record = asdict(report)
        return _Document("qecbatch.couple.v1", summary, header=tuple(record),
                         lines=_csv_lines([record.values()]))
    return _Document("qecbatch.couple.v1", summary, {"report": report})


def _distinct(values: np.ndarray) -> tuple[list, np.ndarray]:
    """A column's distinct values as Python scalars, and each point's index
    among them.

    Floats are told apart by their bits, so -0.0 and 0.0 stay apart. A str
    column holds a few labels, matched one label at a time. An object column
    holds Python ints, with NaN where the figure does not apply.
    """
    if values.dtype == np.float64:
        bits, index = np.unique(values.view(np.uint64), return_inverse=True)
        return bits.view(np.float64).tolist(), index
    if values.dtype == object:
        shown = values == values  # NaN alone is unequal to itself
        ints, index = np.unique(values[shown].astype(np.int64), return_inverse=True)
        placed = np.full(values.size, ints.size)
        placed[shown] = index
        return [*ints.tolist(), math.nan], placed
    labels: list = []
    index = np.full(values.size, -1)
    while (left := np.flatnonzero(index < 0)).size:
        label = values[left[0]]
        index[values == label] = len(labels)
        labels.append(label.item())
    return labels, index


def _sweep_rows(
    table: Mapping[str, object], axes: Sequence[GridAxis],
    convert: Callable[[object], object], convert_l: Callable[[object], object], missing: object,
) -> Iterator[tuple]:
    """The sweep's rows of cells in grid order, formed _CHUNK points at a time
    as they are read.

    A cell is `missing` for a NaN and convert(v) otherwise (convert_l in the
    l column), v a Python scalar. A grid axis is converted once per step and
    picked by each point's step on it, a scalar column once, and any other
    column once per distinct value in each chunk.
    """
    def texts(name: str, values: Iterable[object]) -> np.ndarray:
        conv = convert_l if name == "l" else convert
        return np.array([missing if v != v else conv(v) for v in values], dtype=object)

    count = math.prod(axis.steps for axis in axes)
    # the texts of each axis and scalar column, with the run of points that
    # shares a text and the texts' count: a scalar is one text for every point
    fixed, stride = {}, count
    for axis in axes:
        stride //= axis.steps
        fixed[axis.name] = texts(axis.name, axis.values().tolist()), stride, axis.steps
    fixed.update((name, (texts(name, [values]), count, 1)) for name, values in table.items()
                 if name not in fixed and np.ndim(values) == 0)

    def chunk(start: int) -> Iterator[tuple]:
        at = np.arange(start, min(start + _CHUNK, count))
        cells = []
        for name, values in table.items():
            if name in fixed:
                shown, run, period = fixed[name]
                cells.append(shown[at // run % period])
            else:
                distinct, index = _distinct(values[start:start + at.size])
                cells.append(texts(name, distinct)[index])
        return zip(*cells)

    return itertools.chain.from_iterable(map(chunk, range(0, count, _CHUNK)))


def _run_sweep(config: ExperimentConfig, fmt: str) -> _Document:
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
    if "l" in names:
        steps = axes[names.index("l")].values()
        fractional = np.flatnonzero(np.mod(steps, 1.0) != 0.0)
        if fractional.size:
            raise UsageError(f"sweep grid point l={float(steps[fractional[0]])!r} is not an integer")
    else:
        check_integer("l", config.l, below=2**63)
    meshes = np.meshgrid(*[axis.values() for axis in axes], indexing="ij")
    columns = bounds_mod.overhead_columns(
        **{**point, **{name: mesh.ravel() for name, mesh in zip(names, meshes)}},
        noise=Noise(config.noise),
    )
    # the point, its noise and the bound's own columns, which empty what does not apply
    table = {**point, "noise": config.noise,
             **{f.name: getattr(columns, f.name) for f in fields(columns)}}
    if "theta" not in names:
        _note_theta_preset(config.theta)
    feasible = int(np.count_nonzero(columns.status == "ok"))
    summary = f"sweep: {count} grid points, {feasible} with finite bounds"
    # CSV cells are text, JSON cells Python values; l is an integer in both
    if fmt == "csv":
        rows = _sweep_rows(table, axes, str, lambda v: str(int(v)), "")
        return _Document("qecbatch.sweep.v1", summary, header=tuple(table),
                         lines=map(",".join, rows))
    rows = _sweep_rows(table, axes, lambda v: v, int, None)
    return _Document("qecbatch.sweep.v1", summary, {
        "rows": [dict(zip(table, row)) for row in rows],
    })


def _run_verify(config: ExperimentConfig, checks=checks_mod.CHECKS) -> int:
    failures = 0
    for row in checks:
        ok, detail = row.at_verify_size(config.master_seed)
        print(f"[verify] {row.name}: {'ok' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures += 1
    if failures:
        print(f"[verify] {failures} of {len(checks)} checks failed")
        return 2
    print(f"[verify] all {len(checks)} checks passed")
    return 0


# Each writing command's runner and its default format.
_WRITERS = {
    "simulate": (_run_simulate, "csv"),
    "exact": (_run_exact, "csv"),
    "meanfield": (_run_meanfield, "json"),
    "bounds": (_run_bounds, "json"),
    "couple": (_run_couple, "json"),
    "sweep": (_run_sweep, "csv"),
}


def run(config: ExperimentConfig) -> int:
    """Execute one fully resolved configuration; returns the exit code.

    A writing run's document goes to --out, else to {command}.{format}
    in $QECBATCH_OUT_DIR or the working directory, headed by its schema
    and the keys the run read. Documents are strict JSON, so a NaN or
    infinite key or figure is refused and no file is written.
    """
    if config.command == "verify":
        return _run_verify(config)
    runner, default = _WRITERS[config.command]
    fmt = config.format or default
    doc = runner(config, fmt)
    mapping = config.to_mapping()
    for key, value in mapping.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"config key '{key}' is {value}, which strict JSON cannot hold")
    path = (Path(config.out) if config.out is not None
            else Path(os.environ.get(OUT_DIR_ENV, ".")) / f"{config.command}.{fmt}")
    if fmt == "csv":
        head = [f"# schema={doc.schema}",
                f"# config={json.dumps(mapping, sort_keys=True, allow_nan=False)}",
                ",".join(doc.header)]
        lines = itertools.chain(head, doc.lines)
    else:
        body = {"schema": doc.schema, "config": mapping, **doc.payload}
        lines = [json.dumps(body, indent=2, sort_keys=True, default=_encode, allow_nan=False)]
    _write_atomic(path, lines)
    print(f"{doc.summary}; wrote {path}")
    return 0


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
