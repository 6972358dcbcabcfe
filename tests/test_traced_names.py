"""The benchmark under `perfbench/` reaches qecbatch in two ways. Its traced
run (`perfbench/run.py --trace 1`) wraps functions by the names in
`perfbench/tracer.py:TRACED`, and its jobs and tests take names such as
`montecarlo.RecordMode.LOCATIONS` from the qecbatch modules they import. A
renamed or deleted name would only surface when the benchmark runs, so
these tests read the names with `ast`, without importing the benchmark,
and check that each one still resolves. The attributes the tracer's
counter hooks read off return values escape that scan, so the kernel
hook is loaded by path and run on built kernels. The `exact_oracle` jobs
run here too, so that a library change that breaks one fails this suite
rather than only the benchmark run, and the kernel blocks each job builds
are counted."""

import ast
import importlib
import importlib.util
import sys
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import pytest

from qecbatch import exact
from qecbatch.chain import ModelParams
from qecbatch.exact import build_kernel

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCH / "tracer.py"


def traced_names() -> tuple[str, ...]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TRACED tuple")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for name in names:
        layer, fn = name.split(".")
        module = importlib.import_module(f"qecbatch.{layer}")
        assert callable(getattr(module, fn, None)), f"{name} is not a callable of qecbatch.{layer}"


def _bindings(tree: ast.AST) -> dict[str, str]:
    """Each name a module binds by importing from qecbatch, with the dotted
    path it stands for."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.split(".")[0] == "qecbatch":
                    bound[alias.asname] = alias.name
                elif alias.name.split(".")[0] == "qecbatch":  # binds the package itself
                    bound["qecbatch"] = "qecbatch"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module or "").split(".")[0] == "qecbatch":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def reached_names(path: Path) -> set[str]:
    """Every dotted qecbatch name a module takes: the names it imports and
    each attribute chain rooted at one of them."""
    tree = ast.parse(path.read_text())
    bound = _bindings(tree)
    reached = set(bound.values())
    for node in ast.walk(tree):
        attrs, root = [], node
        while isinstance(root, ast.Attribute):
            attrs.append(root.attr)
            root = root.value
        if attrs and isinstance(root, ast.Name) and root.id in bound:
            reached.add(".".join([bound[root.id], *reversed(attrs)]))
    return reached


def _resolves(dotted: str) -> bool:
    """Whether the longest importable prefix of `dotted` has the rest as an
    attribute chain."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def test_every_qecbatch_name_the_benchmark_takes_resolves():
    reached = set()
    for path in sorted([*BENCH.glob("*.py"), *(BENCH / "tests").glob("*.py")]):
        reached |= reached_names(path)
    # the scan sees the kinds of names the jobs take
    assert {
        "qecbatch.montecarlo.RecordMode.LOCATIONS", "qecbatch.exact.StateDistribution.point_mass",
        "qecbatch.exact.MonotonicityReport", "qecbatch.bounds.hitting_prob_lb",
        "qecbatch.cli.main", "qecbatch.chain.ModelParams", "qecbatch.run_batch",
    } <= reached
    assert sorted(name for name in reached if not _resolves(name)) == []


@pytest.mark.parametrize("q", [0.0, 0.02])
def test_kernel_counter_hook_reads_built_kernels(q):
    """The traced run's `exact.build_kernel` hook reads `probs` and
    `static_probs` of the kernel it gets back, attributes the scan above
    does not see because they are read off a return value."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    params = ModelParams(n=600, p=0.2, alpha=0.05, q=q, q_period=5)
    counts = tracer.COUNTER_HOOKS["exact.build_kernel"]({"params": params}, build_kernel(params))
    assert counts["exact.kernel_bytes"] > 0
    assert counts["exact.kernel_entries"] > 0
    assert 0 < counts["exact.useful_entries"] <= counts["exact.kernel_entries"]


def _oracle_jobs(tmp_path, monkeypatch):
    """The benchmark's `exact_oracle` jobs and an untraced context for them."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    ctx = workloads.Context(trace=SimpleNamespace(span=lambda name, **attrs: nullcontext()),
                            workdir=tmp_path)
    return workloads.MIXES["exact_oracle"], ctx


def test_exact_oracle_jobs_pass(tmp_path, monkeypatch):
    """One cycle of the benchmark's `exact_oracle` mix, untraced."""
    jobs, ctx = _oracle_jobs(tmp_path, monkeypatch)
    assert jobs
    for seed, (label, job) in enumerate(jobs):
        assert job(seed, ctx).failures == [], label


def test_exact_oracle_jobs_build_each_block_once(tmp_path, monkeypatch):
    """Within a job, `mean_curve` and the job's own kernel share their
    blocks and single rows; across jobs nothing is kept, so the second
    cycle builds as many `_band` calls and rows as the first. The n = 500
    jobs build their start row and later its block; the n = 1000 static
    phase and the n = 4000 correction phase read row 0 alone and never
    build block 0."""
    jobs, ctx = _oracle_jobs(tmp_path, monkeypatch)
    calls = []
    band = exact._band

    def counted(*args):
        calls.append(args)
        return band(*args)

    monkeypatch.setattr(exact, "_band", counted)
    for _ in range(2):
        built = []
        for seed, (label, job) in enumerate(jobs):
            calls.clear()
            assert job(seed, ctx).failures == [], label
            built.append((len(calls), sum(x1 - x0 for _, _, _, x0, x1 in calls)))
        assert built == [(4, 603), (6, 1104), (7, 1382), (12, 2662)]
