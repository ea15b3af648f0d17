"""Balanced-truncation model reduction (the paper's scalability knob)."""

from .balanced import BalancedRealization, balance, balanced_truncation
from .gramians import controllability_gramian, observability_gramian

__all__ = [
    "BalancedRealization",
    "balance",
    "balanced_truncation",
    "controllability_gramian",
    "observability_gramian",
]
