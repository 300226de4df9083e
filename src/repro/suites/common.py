"""Shared helpers for the benchmark suites."""

from dataclasses import dataclass
from typing import Tuple

from repro.core.problem import Problem


@dataclass(frozen=True)
class Benchmark:
    """A named problem instance plus metadata.

    Attributes
    ----------
    name:
        Registry name (e.g. ``"cruise"``).
    problem:
        Applications + architecture.
    description:
        One-paragraph provenance note.
    critical_apps:
        Names of the non-droppable applications (reported in tables).
    """

    name: str
    problem: Problem
    description: str
    critical_apps: Tuple[str, ...] = ()

