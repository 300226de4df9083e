"""Test-only reference for the shared-bus busy period: the scalar loop.

:func:`busy_period_worst` solves one site's recurrence at a time in
plain Python, the way the shared-bus backend did before its table went
array-native.  It shares no code with
:func:`repro.comm.base.busy_period_table`, and every floating-point value
is produced by the same operations in the same order (interference
summed left to right over the higher-priority sites), so the two are
compared with ``==``.
"""

import math
from typing import List, Tuple

from repro.comm.base import BUSY_PERIOD_ITERATIONS


def _ceil_div(value: float, period: float) -> int:
    """``ceil(value / period)`` with a guard against float-noise overshoot."""
    return max(1, math.ceil(value / period - 1e-12))


def busy_period_worst(
    own_cost: float,
    blocking: float,
    higher_priority: List[Tuple[float, float]],
    horizon: float,
) -> float:
    """Non-preemptive fixed-priority busy-period response of one message.

    ``higher_priority`` lists ``(cost, period)`` of every competing
    channel that wins arbitration; ``blocking`` is the longest
    lower-priority transfer already occupying the medium.  Iterates

        ``w = blocking + own + sum_j ceil(w / T_j) * C_j``

    and, if the fixed point does not settle within
    :data:`BUSY_PERIOD_ITERATIONS`, saturates to a census bound charging
    every competitor once per release in ``max(horizon, blocking +
    own)`` plus one carry-in.
    """
    if not higher_priority:
        return blocking + own_cost
    width = blocking + own_cost
    for _ in range(BUSY_PERIOD_ITERATIONS):
        interference = sum(
            _ceil_div(width, period) * cost for cost, period in higher_priority
        )
        updated = blocking + own_cost + interference
        if updated <= width + 1e-12:
            return updated
        width = updated
    window = max(horizon, blocking + own_cost)
    return blocking + own_cost + sum(
        (_ceil_div(window, period) + 1) * cost
        for cost, period in higher_priority
    )


def reference_table(costs, periods, horizon: float) -> List[float]:
    """Every site's scalar busy period, in arbitration order."""
    costs, periods = list(costs), list(periods)
    return [
        busy_period_worst(
            costs[index],
            max(costs[index + 1 :], default=0.0),
            list(zip(costs[:index], periods[:index])),
            horizon,
        )
        for index in range(len(costs))
    ]
