"""Compatibility name for the window back-end.

The window analysis has a single implementation,
:class:`repro.sched.wcrt.WindowAnalysisBackend`, which is numpy-based.
``"fast"`` stays an accepted back-end name (CLI flags, HTTP payloads,
persisted jobs), and :class:`FastWindowAnalysisBackend` is the same class
under its historical name.
"""

from repro.sched.wcrt import WindowAnalysisBackend

FastWindowAnalysisBackend = WindowAnalysisBackend

__all__ = ["FastWindowAnalysisBackend"]
