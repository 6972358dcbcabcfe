"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps qecbatch
functions by the names in `perfbench/tracer.py:TRACED`. A renamed function
would only surface there, so this reads the names with `ast`, without
importing the benchmark, and checks that each one still resolves."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
