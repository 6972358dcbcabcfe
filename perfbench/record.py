"""Machine and run record written into every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

CHECKOUT = Path(__file__).resolve().parent.parent

TRACING_NOTE = (
    "Nothing was measured with machine-wide tracing: no perf, eBPF or other "
    "system profiler ran. Per-layer numbers come from in-process wrappers "
    "around qecbatch functions, in a separate traced run."
)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_bytes(level: int) -> int | None:
    """Size of the level-`level` data or unified cache of CPU 0."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (int((index / "level").read_text()) == level
                    and (index / "type").read_text().strip() in ("Data", "Unified")):
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            continue
    return None


def _openblas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError):
        return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(workload: str, seed: int, trace: int, attempted: int, failed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "jobs_attempted": attempted,
        "jobs_failed": failed,
        "loop": "closed, 1 caller, n_workers=1",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "machine_wide_tracing": False,
        "tracing_note": TRACING_NOTE,
    }
