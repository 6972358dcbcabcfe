"""README's "Library use" block runs as written against the package surface."""

import re
from pathlib import Path

import qecbatch
from qecbatch import bounds, meanfield, montecarlo

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 1, "expected one python block under '## Library use'"
    return blocks[0]


def test_library_use_block_runs(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    assert printed[2].startswith("CrossingTime(T=9, ")


def test_package_surface_is_what_the_readme_imports():
    imported = re.search(r"from qecbatch import \((.*?)\)", library_use_block(), flags=re.S)
    assert sorted(qecbatch.__all__) == sorted(re.findall(r"\w+", imported.group(1)))
    # the benchmark's tracer patches these bindings by identity
    assert qecbatch.epochs_to_cross is meanfield.epochs_to_cross is bounds.epochs_to_cross
    assert qecbatch.run_batch is montecarlo.run_batch
