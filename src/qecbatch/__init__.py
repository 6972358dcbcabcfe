"""Batch-limited quantum memory: chain model, exact kernel, Monte Carlo,
mean-field crossing times and resource bounds."""

from .bounds import overhead_bound
from .chain import ModelParams, Noise
from .exact import StateDistribution, build_kernel, evolve, tail_prob
from .meanfield import epochs_to_cross
from .montecarlo import TrajectoryBatch, run_batch

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "Noise",
    "StateDistribution",
    "TrajectoryBatch",
    "build_kernel",
    "epochs_to_cross",
    "evolve",
    "overhead_bound",
    "run_batch",
    "tail_prob",
]
