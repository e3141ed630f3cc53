"""Evaluation: the multi-hit classifier and its accuracy metrics."""

from repro.analysis.classifier import MultiHitClassifier
from repro.analysis.metrics import (
    ClassifierPerformance,
    sensitivity_specificity,
    wilson_interval,
)

__all__ = [
    "MultiHitClassifier",
    "ClassifierPerformance",
    "sensitivity_specificity",
    "wilson_interval",
]
