"""Shared utilities: RNG handling, validation helpers, logging, timing, artefacts."""

from repro.utils.artifacts import git_revision
from repro.utils.random import RandomState, ensure_rng
from repro.utils.validation import (
    check_finite,
    check_non_negative,
    check_positive,
    check_probability,
    check_shape,
    check_in_range,
)
from repro.utils.timing import Timer, timed
from repro.utils.logging import get_logger

__all__ = [
    "git_revision",
    "RandomState",
    "ensure_rng",
    "check_finite",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_shape",
    "check_in_range",
    "Timer",
    "timed",
    "get_logger",
]
