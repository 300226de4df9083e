"""Schedulability back-end — the ``sched`` function of Algorithm 1.

The paper's analysis wrapper is back-end agnostic: it only needs, for each
task, a safe *lower* bound on its start time (``minStart``) and a safe
*upper* bound on its completion time (``maxFinish``).  The authors use the
analytical method of Kim et al. (DAC'13, ref [9]); this package implements
an equivalent job-level, window-based interference analysis:

1. all task graphs are unrolled into *jobs* over two hyperperiods
   (:mod:`repro.sched.jobs`) — the second hyperperiod contributes
   interference to jobs near the boundary of the first;
2. best-case bounds are longest-path computations with best-case execution
   and communication times and *no* interference (a safe lower bound under
   any work-conserving scheduler);
3. worst-case bounds come from a monotone fixed-point iteration where each
   job's finish window grows with the worst-case interference from
   higher-priority jobs mapped on the same processor whose execution
   windows may overlap (:mod:`repro.sched.wcrt`).

Per-processor scheduling is fixed-priority preemptive; priorities are
assigned by criticality, then rate, then topological depth
(:mod:`repro.sched.priority`).
"""

from repro.sched.priority import assign_priorities
from repro.sched.jobs import Job, JobId, JobSet, unroll
from repro.sched.wcrt import (
    JobBounds,
    SchedBackend,
    ScheduleBounds,
    WindowAnalysisBackend,
)
from repro.sched.fast import FastWindowAnalysisBackend
from repro.sched.holistic import HolisticAnalysisBackend

__all__ = [
    "assign_priorities",
    "Job",
    "JobId",
    "JobSet",
    "unroll",
    "JobBounds",
    "ScheduleBounds",
    "SchedBackend",
    "WindowAnalysisBackend",
    "FastWindowAnalysisBackend",
    "HolisticAnalysisBackend",
]
