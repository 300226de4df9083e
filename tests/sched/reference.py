"""Test-only reference for the window back-end: the scalar Jacobi loop.

:class:`ReferenceWindowBackend` computes the same bounds as
:class:`repro.sched.wcrt.WindowAnalysisBackend` one job at a time, in
plain Python, straight from the :class:`~repro.sched.jobs.Job` records.
It shares no code with the numpy implementation, so agreement between
the two is evidence that the vectorised index arrays, the per-level
passes and the reductions are right.

Every floating-point value is produced by the same operations in the
same order as in the production back-end, so results are compared with
``==``:

* best case and initialisation are longest-path passes in topological
  order (a max is exact in any order);
* each sweep is Jacobi: every candidate is computed from the previous
  sweep's state, interference is summed in interferer order, and every
  value is raised to ``max(old, candidate)``; the loop stops at the
  first sweep in which no value grows by more than ``1e-12``;
* the non-convergence fallback runs two Gauss-Seidel passes in
  topological order that charge every higher-priority job on the
  processor, summed in interferer order.
"""

from repro.errors import AnalysisError
from repro.sched.jobs import JobSet
from repro.sched.wcrt import ScheduleBounds


class ReferenceWindowBackend:
    """Scalar window analysis (see module docs)."""

    def __init__(self, max_sweeps: int = 200):
        if max_sweeps < 1:
            raise AnalysisError("max_sweeps must be >= 1")
        self._max_sweeps = max_sweeps

    def analyze(self, jobset: JobSet) -> ScheduleBounds:
        jobs = jobset.jobs
        count = len(jobs)
        order = jobset.topo_order

        min_start = [0.0] * count
        min_finish = [0.0] * count
        for index in order:
            job = jobs[index]
            earliest = job.release
            for pred_index, comm_best, _comm_worst, _on_demand in job.preds:
                arrival = min_finish[pred_index] + comm_best
                if arrival > earliest:
                    earliest = arrival
            min_start[index] = earliest
            min_finish[index] = earliest + job.bcet

        max_finish = [0.0] * count
        for index in order:
            job = jobs[index]
            max_finish[index] = self._arrival(job, max_finish) + job.wcet

        batches = jobset.batches()
        converged = False
        sweeps = 0
        for sweeps in range(1, self._max_sweeps + 1):
            batch_cap = [float("inf")] * count
            for batch in batches:
                arrival = batch.release
                for pred_index, comm_worst in batch.external_preds:
                    candidate = max_finish[pred_index] + comm_worst
                    if candidate > arrival:
                        arrival = candidate
                window_start = min(min_start[i] for i in batch.members)
                window_end = max(max_finish[i] for i in batch.members)
                total = 0.0
                for i in batch.members:
                    total += jobs[i].wcet
                interference = 0.0
                for other in batch.interferers:
                    if (
                        min_start[other] < window_end
                        and max_finish[other] > window_start
                    ):
                        interference += jobs[other].wcet
                bound = arrival + total + interference
                for member in batch.members:
                    batch_cap[member] = bound

            new_finish = list(max_finish)
            grew = False
            for index in order:
                job = jobs[index]
                latest = self._arrival(job, max_finish)
                current = max_finish[index]
                interference = 0.0
                for other in jobset.higher_priority_on_same_pe(index):
                    if (
                        min_start[other] < current
                        and max_finish[other] > min_start[index]
                    ):
                        interference += jobs[other].wcet
                candidate = min(latest + job.wcet + interference, batch_cap[index])
                if candidate > current:
                    new_finish[index] = candidate
                    if candidate > current + 1e-12:
                        grew = True
            if not grew:
                converged = True
                break
            max_finish = new_finish

        if not converged:
            for _ in range(2):
                for index in order:
                    job = jobs[index]
                    total = 0.0
                    for other in jobset.higher_priority_on_same_pe(index):
                        total += jobs[other].wcet
                    max_finish[index] = (
                        self._arrival(job, max_finish) + job.wcet + total
                    )

        max_start = [max_finish[i] - jobs[i].wcet for i in range(count)]
        return ScheduleBounds(
            jobset, min_start, min_finish, max_start, max_finish, converged, sweeps
        )

    @staticmethod
    def _arrival(job, max_finish) -> float:
        latest = job.release
        for pred_index, _comm_best, comm_worst, _on_demand in job.preds:
            arrival = max_finish[pred_index] + comm_worst
            if arrival > latest:
                latest = arrival
        return latest
