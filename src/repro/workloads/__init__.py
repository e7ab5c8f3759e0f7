"""Synthetic multi-threaded workload models.

Stand-ins for the paper's benchmark binaries: a SPEC CPU2017-speed-like
suite (14 app.input combinations, Tables II/III personalities), an NPB-like
suite (class-scaled OpenMP kernels), and the artifact's ``matrix-omp`` demo.
Each model reproduces the traits that drive the paper's results: phase
structure, synchronization mix, load (im)balance, working-set sizes, and
train/ref/class input scaling.
"""

from .base import Workload
from .registry import (
    get_workload,
    list_workloads,
    SPEC_TRAIN_APPS,
    NPB_APPS,
)
from .demo import build_demo_matrix
from .validation import ValidationReport, validate_workload

__all__ = [
    "Workload",
    "get_workload",
    "list_workloads",
    "SPEC_TRAIN_APPS",
    "NPB_APPS",
    "build_demo_matrix",
    "ValidationReport",
    "validate_workload",
]
