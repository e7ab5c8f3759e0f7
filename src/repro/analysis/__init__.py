"""Experiment harness: shared evaluation cache, error math, text tables."""

from .errors import mean_absolute, geomean
from .tables import ascii_table, bar_chart
from .experiments import EvaluationCache

__all__ = [
    "mean_absolute",
    "geomean",
    "ascii_table",
    "bar_chart",
    "EvaluationCache",
]
