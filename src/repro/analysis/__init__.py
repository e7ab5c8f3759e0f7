"""Experiment harness: shared evaluation cache, error math, text tables."""

from .errors import mean_absolute, geomean, signed_error_pct
from .tables import ascii_table, bar_chart
from .experiments import EvaluationCache

__all__ = [
    "mean_absolute",
    "geomean",
    "signed_error_pct",
    "ascii_table",
    "bar_chart",
    "EvaluationCache",
]
