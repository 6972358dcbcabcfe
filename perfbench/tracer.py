"""In-process tracing of qecbatch layer calls, for the traced benchmark run.

`Tracer.install` wraps each function in TRACED by patching every binding
of it in the loaded qecbatch modules: the defining module, the package
re-exports and modules that imported the name (`qecbatch.bounds` imports
`epochs_to_cross`). Calls across layers, such as montecarlo calling
`chain.step_count`, are therefore counted too.

Calls whose parent is a benchmark span (a job or `bench.check`) are kept
as spans. Every call also feeds an in-memory aggregate keyed by (name,
parent name, inside bench.check): calls, busy time and self time, where
self time is busy time minus that of the traced calls nested in it. Both
are written out when the run ends. Work counters are recorded at the
same boundaries by hooks that run after a call's timing stops.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED = (
    "chain.step_count",
    "chain.inject_count",
    "chain.step",
    "chain.inject_static_noise",
    "montecarlo.trajectory_rng",
    "montecarlo.run_batch",
    "montecarlo.steady_fraction",
    "montecarlo.uniformity_check",
    "montecarlo.location_counts",
    "montecarlo.chi_square_uniformity",
    "montecarlo.run_coupled",
    "exact.build_kernel",
    "exact.evolve",
    "exact.hitting_time_distribution",
    "exact.mean_curve",
    "exact.check_h_monotone",
    "meanfield.epochs_to_cross",
    "bounds.overhead_bound",
    "bounds.hitting_prob_lb",
    "cli.main",
)

# Kernel entries at or below this carry no probability mass that matters.
USEFUL_ENTRY = 1e-16


def _traj_epochs(a, result):
    spec = a["spec"]
    return {"montecarlo.traj_epochs": spec.n_traj * spec.t_max}


def _location_epochs(a, result):
    return {"montecarlo.location_traj_epochs": a["spec"].n_traj * a["t_probe"]}


def _pair_epochs(a, result):
    return {"montecarlo.pair_epochs": result.pairs_checked}


def _evolve_epochs(a, result):
    return {"exact.evolve.epochs": a["steps"]}


def _kernel_counts(a, result):
    mats = [m for m in (result.probs, result.static_probs) if m is not None]
    return {
        "exact.kernel_bytes": sum(m.nbytes for m in mats),
        "exact.kernel_entries": sum(m.size for m in mats),
        "exact.useful_entries": sum(int(np.count_nonzero(m > USEFUL_ENTRY)) for m in mats),
    }


def _cli_counts(a, result):
    argv = list(a["argv"])
    grids = [argv[i + 1] for i, token in enumerate(argv) if token == "--grid"]
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    return {
        "cli.grid_points": math.prod(int(g.rsplit(":", 1)[1]) for g in grids) if grids else 0,
        "cli.bytes_written": out.stat().st_size if out is not None and out.exists() else 0,
    }


COUNTER_HOOKS = {
    "montecarlo.run_batch": _traj_epochs,
    "montecarlo.steady_fraction": _traj_epochs,
    "montecarlo.location_counts": _location_epochs,
    "montecarlo.run_coupled": _pair_epochs,
    "exact.evolve": _evolve_epochs,
    "exact.build_kernel": _kernel_counts,
    "cli.main": _cli_counts,
}


class NullTrace:
    """Stand-in for untraced runs: spans cost nothing."""

    def span(self, name: str, **attrs):
        return nullcontext()


class Tracer:
    """Spans, per-(name, parent) aggregates and counters for one run."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, child busy time, span id, bench span?]
        self._in_check = 0
        self._next_id = 0
        self._job = None  # index of the job being run; every span carries it
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, str | None, bool], list] = {}
        self.counters: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str, bench: bool = False) -> list:
        self._next_id += 1
        frame = [name, 0.0, self._next_id, bench]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float, attrs: dict) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        busy = end - start
        if parent is not None:
            parent[1] += busy
        key = (frame[0], parent[0] if parent else None, self._in_check > 0)
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += busy
        agg[2] += busy - frame[1]
        if frame[3] or parent is None or parent[3]:
            self.spans.append({
                "id": frame[2], "name": frame[0],
                "parent": parent[2] if parent else None, "job": self._job,
                "start": start, "end": end, **attrs,
            })

    @contextmanager
    def span(self, name: str, **attrs):
        """A benchmark span (a job or bench.check); calls under it are spans too."""
        frame = self._enter(name, bench=True)
        if name == "job":
            self._job = attrs.get("index")
        checking = name == "bench.check"
        self._in_check += checking
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._in_check -= checking
            self._exit(frame, start, end, attrs)

    def _wrap(self, name: str, fn):
        hook = COUNTER_HOOKS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._exit(frame, start, end, {})
            if hook is not None and not self._in_check:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in hook(bound.arguments, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every TRACED function in loaded qecbatch modules."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "qecbatch" or key.startswith("qecbatch."))]
        for name in TRACED:
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"qecbatch.{layer}"], fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_totals(self) -> dict[str, list]:
        """calls, busy and self time per name, leaving out calls made inside
        bench.check so that oracle work is not credited to a layer."""
        totals: dict[str, list] = {}
        for (name, _parent, in_check), (calls, busy, self_time) in self.aggregates.items():
            if in_check:
                continue
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += busy
            row[2] += self_time
        return totals

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [
                {"name": name, "parent": parent, "in_check": in_check,
                 "calls": calls, "busy_s": busy, "self_s": self_time}
                for (name, parent, in_check), (calls, busy, self_time)
                in sorted(self.aggregates.items(), key=str)
            ],
            "counters": dict(sorted(self.counters.items())),
        }
